// Scenario: multi-tenant serving — EIGHT heterogeneous edge federations
// (8 to 32 hosts) served concurrently by ONE ResilienceService over a
// small pool of GON worker replicas.
//
// Demonstrates the serving-layer properties:
//   * one shared surrogate serves federations of different host counts
//     (the GAT branch is host-count agnostic);
//   * sessions are isolated: each keeps its own POT confidence gate,
//     running dataset Gamma and repair rng;
//   * a confidence breach in ANY federation fine-tunes the shared master,
//     and every worker replica re-syncs before its next decision.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/runtime.h"
#include "harness/serve_experiment.h"
#include "obs/export.h"
#include "serve/service.h"

int main() {
  using namespace carol;
  std::printf("== multi-federation serving: 8 heterogeneous fleets, one "
              "service ==\n\n");

  // One shared surrogate, trained once on the default 16-node fleet.
  serve::ServiceConfig service_cfg;
  service_cfg.gon.hidden_width = 48;
  service_cfg.num_workers = 4;
  // Concurrent sessions' repair frontiers stack into shared kernel passes
  // with zero linger (see src/serve/README.md).
  serve::ResilienceService service(service_cfg);

  harness::RunConfig trace_cfg;
  trace_cfg.intervals = 60;
  trace_cfg.seed = 7;
  service.TrainOffline(harness::CollectTrainingTrace(trace_cfg, 10), 8);

  // Eight federations with heterogeneous host counts (whole 4-node
  // sites, as sim::ScaledTestbedSpecs requires): the per-session
  // mixed-H decisions exercise the service's host-count bucketing.
  const std::vector<std::pair<int, int>> fleets = {
      {8, 2}, {12, 3}, {16, 4}, {16, 4}, {20, 5}, {24, 6}, {28, 7}, {32, 8}};
  std::vector<serve::FederationSpec> specs;
  std::vector<harness::RunConfig> configs;
  for (std::size_t i = 0; i < fleets.size(); ++i) {
    serve::FederationSpec spec;
    spec.name = "fed-" + std::to_string(i) + "-h" +
                std::to_string(fleets[i].first);
    spec.carol.gon = service_cfg.gon;  // ignored: surrogate is shared
    spec.carol.seed = 100 + static_cast<unsigned>(i);
    specs.push_back(spec);

    harness::RunConfig cfg;
    cfg.intervals = 20;
    cfg.seed = 40 + static_cast<unsigned>(i);
    cfg.num_nodes = fleets[i].first;
    cfg.num_brokers = fleets[i].second;
    cfg.workload.lambda_per_site = 1.2 * fleets[i].first / 16.0;
    configs.push_back(cfg);
  }

  const harness::ServiceRunReport report =
      harness::RunFederationsViaServiceReport(service, specs, configs);
  const std::vector<harness::RunResult>& results = report.results;

  std::printf("%-14s %-8s %-12s %-12s %-10s %-10s %-10s %-9s\n",
              "federation", "hosts", "energy(kWh)", "response(s)",
              "slo_rate", "p50(ms)", "p99(ms)", "finetunes");
  for (std::size_t i = 0; i < results.size(); ++i) {
    // Per-session QoS/latency breakdown (harness::SessionQos): the
    // service-side decision percentiles, not just the fleet aggregate.
    const harness::SessionQos& qos = report.sessions[i];
    std::printf("%-14s %-8d %-12.4f %-12.1f %-10.4f %-10.2f %-10.2f "
                "%-9d\n",
                specs[i].name.c_str(), fleets[i].first,
                results[i].total_energy_kwh, results[i].avg_response_s,
                results[i].slo_violation_rate, qos.decision_p50_ms,
                qos.decision_p99_ms, qos.finetunes);
  }

  const serve::ServiceStats stats = service.stats();
  std::printf("\nservice totals: %llu repairs, %llu observes, %llu "
              "fine-tunes (weight epoch %llu)\n",
              static_cast<unsigned long long>(stats.repairs),
              static_cast<unsigned long long>(stats.observes),
              static_cast<unsigned long long>(stats.finetunes),
              static_cast<unsigned long long>(stats.weight_epoch));
  std::printf("pipeline stacking: %llu frontier jobs over %llu kernel "
              "passes (%llu candidate states) -> stacking ratio %.2f "
              "with zero linger\n",
              static_cast<unsigned long long>(report.pipeline_jobs),
              static_cast<unsigned long long>(report.pipeline_passes),
              static_cast<unsigned long long>(report.pipeline_states),
              report.stacking_ratio);
  std::printf("\nexpected: every fleet finishes with valid topologies and "
              "bounded decision latency; fine-tunes from volatile fleets "
              "propagate to all worker replicas; concurrently repairing "
              "fleets share GON kernel passes (stacking ratio > 1 when "
              "sessions outnumber idle workers).\n");

  // The observability surface: the same counters as stats() plus the
  // repair-path latency histograms, rendered scrape-ready.
  std::printf("\n-- service MetricsSnapshot() (Prometheus text) --\n%s",
              obs::ToPrometheusText(service.MetricsSnapshot()).c_str());
  return 0;
}
