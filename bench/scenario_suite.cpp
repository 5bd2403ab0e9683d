// Scenario soak suite: plays every built-in scenario (src/scenario/
// library.h) end to end through one multi-tenant ResilienceService and
// emits machine-readable BENCH_scenarios.json rows, one per scenario:
//   {"scenario", "seed", "intervals", "fleets", "workers", "completed",
//    "violated", "energy_kwh", "slo_rate", "response_s",
//    "recovery_mean_s", "recovery_p95_s", "gate_accuracy",
//    "failures_injected", "broker_failures_detected",
//    "decisions_per_sec", "p50_ms", "p99_ms", "stacking_ratio",
//    "wall_s", "fingerprint"}
// `fingerprint` hashes the scorecard's deterministic section: for a
// fixed scenario seed it is bit-identical across service worker counts,
// and CI gates exactly that by diffing two runs at 1 and 4 workers.
//
// Env overrides (bench_util.h conventions):
//   CAROL_BENCH_FAST=1        — shrink scenario length for a smoke pass
//   CAROL_SUITE_INTERVALS=N   — scenario length (default 32, fast 12)
//   CAROL_SUITE_WORKERS=N     — service worker shards (default 2)
//   CAROL_SUITE_SCENARIOS=a,b — run only the named scenarios
//   CAROL_SUITE_OUT=path      — output path (default BENCH_scenarios.json)
//   CAROL_SUITE_METRICS=path  — stream live metrics JSONL during the
//                               soak (one line every 4 intervals per
//                               scenario: live SLO/gate-confusion
//                               counters + the service MetricsSnapshot)
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness/runtime.h"
#include "scenario/driver.h"
#include "scenario/library.h"
#include "serve/service.h"

namespace {

using namespace carol;

std::vector<std::string> SplitCsvList(const char* value) {
  std::vector<std::string> out;
  if (value == nullptr) return out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

core::CarolConfig SuiteSessionConfig() {
  core::CarolConfig cfg;
  cfg.tabu.max_iterations = 3;
  cfg.tabu.max_evaluations = 40;
  return cfg;
}

serve::ServiceConfig SuiteServiceConfig(int workers) {
  serve::ServiceConfig cfg;
  cfg.gon.hidden_width = 32;
  cfg.gon.num_layers = 2;
  cfg.gon.gat_width = 16;
  cfg.gon.generation_steps = 5;
  cfg.num_workers = workers;
  return cfg;
}

}  // namespace

int main() {
  const bool fast = bench::FastMode();
  const int intervals =
      bench::EnvInt("CAROL_SUITE_INTERVALS", fast ? 12 : 32);
  const int workers = bench::EnvInt("CAROL_SUITE_WORKERS", 2);
  const auto filter = SplitCsvList(std::getenv("CAROL_SUITE_SCENARIOS"));
  const char* out_env = std::getenv("CAROL_SUITE_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_scenarios.json";

  bench::PrintBanner(
      "Scenario soak suite: built-in failure/workload scenarios through "
      "one ResilienceService (" +
      std::to_string(workers) + " workers, " + std::to_string(intervals) +
      " intervals each; deterministic fingerprints)");

  // One shared surrogate for the whole suite, offline-trained on a fixed
  // trace BEFORE traffic: training happens on the master only, so the
  // resulting weights — and every scorecard fingerprint downstream — are
  // independent of the worker count.
  serve::ResilienceService service(SuiteServiceConfig(workers));
  {
    harness::RunConfig trace_cfg;
    trace_cfg.intervals = fast ? 20 : 40;
    trace_cfg.seed = 7;
    service.TrainOffline(harness::CollectTrainingTrace(trace_cfg, 10),
                         fast ? 3 : 6);
  }
  scenario::ScenarioDriverOptions driver_options{SuiteSessionConfig()};
  std::ofstream metrics_out;
  const char* metrics_env = std::getenv("CAROL_SUITE_METRICS");
  if (metrics_env != nullptr) {
    metrics_out.open(metrics_env);
    if (!metrics_out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_env);
      return 1;
    }
    driver_options.emit_out = &metrics_out;
    driver_options.emit_every = 4;
    std::printf("streaming live metrics JSONL -> %s\n", metrics_env);
  }
  scenario::ScenarioDriver driver(service, driver_options);

  std::printf("%-18s %-7s %-7s %-9s %-9s %-11s %-11s %-9s %-9s %-8s %s\n",
              "scenario", "fleets", "done", "slo_rate", "energy",
              "recov(s)", "gate_acc", "dec/s", "p99(ms)", "stack",
              "fingerprint");

  std::vector<scenario::Scorecard> cards;
  for (const scenario::ScenarioSpec& spec :
       scenario::BuiltinScenarios(intervals)) {
    if (!filter.empty()) {
      bool wanted = false;
      for (const std::string& name : filter) wanted |= name == spec.name;
      if (!wanted) continue;
    }
    const scenario::Scorecard card = driver.Run(spec);
    std::printf(
        "%-18s %-7zu %-7d %-9.4f %-9.4f %-11.1f %-11.3f %-9.1f %-9.2f "
        "%-8.2f %s\n",
        card.scenario.c_str(), card.sessions.size(), card.completed,
        card.slo_violation_rate, card.total_energy_kwh,
        card.recovery_mean_s, card.gate_accuracy, card.decisions_per_sec,
        card.decision_p99_ms, card.stacking_ratio,
        card.FingerprintHex().c_str());
    cards.push_back(card);
  }
  // The large-fleet tier: the same broker storm rescaled to H=512 —
  // scoped (subgraph-extracted) GON repair on the event-driven sim — as
  // one extra row ("broker-storm-h512") after the builtin library. Its
  // fingerprint obeys the same worker-count independence the CI diff
  // gates: scoped decisions ride the same deterministic pipeline.
  {
    auto big = scenario::FindScenario("broker-storm", intervals);
    if (big.has_value()) {
      scenario::RescaleScenario(*big, 512);
      bool wanted = filter.empty();
      for (const std::string& name : filter) wanted |= name == big->name;
      if (wanted) {
        const scenario::Scorecard card = driver.Run(*big);
        std::printf(
            "%-18s %-7zu %-7d %-9.4f %-9.4f %-11.1f %-11.3f %-9.1f %-9.2f "
            "%-8.2f %s\n",
            card.scenario.c_str(), card.sessions.size(), card.completed,
            card.slo_violation_rate, card.total_energy_kwh,
            card.recovery_mean_s, card.gate_accuracy,
            card.decisions_per_sec, card.decision_p99_ms,
            card.stacking_ratio, card.FingerprintHex().c_str());
        cards.push_back(card);
      }
    }
  }

  if (cards.empty()) {
    std::fprintf(stderr, "no scenarios matched CAROL_SUITE_SCENARIOS\n");
    return 1;
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < cards.size(); ++i) {
    const scenario::Scorecard& c = cards[i];
    std::fprintf(
        out,
        "  {\"scenario\": \"%s\", \"seed\": %llu, \"intervals\": %d, "
        "\"fleets\": %zu, \"workers\": %d, \"completed\": %d, "
        "\"violated\": %d, \"energy_kwh\": %.6f, \"slo_rate\": %.6f, "
        "\"response_s\": %.6f, \"recovery_mean_s\": %.3f, "
        "\"recovery_p95_s\": %.3f, \"gate_accuracy\": %.4f, "
        "\"failures_injected\": %d, \"broker_failures_detected\": %d, "
        "\"decisions_per_sec\": %.2f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"stacking_ratio\": %.3f, \"wall_s\": %.3f, "
        "\"fingerprint\": \"%s\"}%s\n",
        c.scenario.c_str(), static_cast<unsigned long long>(c.seed),
        c.intervals, c.sessions.size(), workers, c.completed, c.violated,
        c.total_energy_kwh, c.slo_violation_rate, c.mean_response_s,
        c.recovery_mean_s, c.recovery_p95_s, c.gate_accuracy,
        c.failures_injected, c.broker_failures_detected,
        c.decisions_per_sec, c.decision_p50_ms, c.decision_p99_ms,
        c.stacking_ratio, c.wall_s, c.FingerprintHex().c_str(),
        i + 1 < cards.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("\nwrote %s (%zu scenarios)\n", out_path.c_str(),
              cards.size());
  return 0;
}
