// Throughput/latency of the multi-tenant ResilienceService: S concurrent
// federation sessions issue broker-failure repair decisions over a pool
// of W GON worker replicas. Sweeps worker and session counts and emits
// machine-readable BENCH_service.json rows:
//   {"workers", "sessions", "hosts", "requests", "decisions_per_sec",
//    "p50_ms", "p99_ms", "pipeline_passes", "pipeline_jobs",
//    "pipeline_states", "stacking_ratio", "observability"}
// Headline checks: multi-session decision throughput must scale with the
// worker count, and the pipeline must stack concurrent sessions'
// frontiers into shared kernel passes with ZERO linger (stacking_ratio =
// frontier jobs per GON kernel pass; > 1.5 at 8 sessions).
//
// Env overrides (bench_util.h): CAROL_BENCH_FAST=1 shrinks the sweep.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "serve/service.h"
#include "sim/federation.h"

namespace {

using namespace carol;
using Clock = std::chrono::steady_clock;

constexpr int kHosts = 16;
constexpr int kBrokers = 4;

// CAROL_BENCH_OBS=0 disables the service's observability layer for the
// whole sweep — CI runs the bench twice and gates the on/off throughput
// delta (the obs overhead tripwire).
bool g_observability = true;

core::CarolConfig BenchCarolConfig(unsigned seed) {
  core::CarolConfig cfg;
  cfg.gon.hidden_width = 32;
  cfg.gon.num_layers = 2;
  cfg.gon.gat_width = 16;
  cfg.gon.generation_steps = 5;
  cfg.tabu.max_iterations = 3;
  cfg.tabu.max_evaluations = 40;
  cfg.policy = core::FineTunePolicy::kNever;  // steady-state serving
  cfg.seed = seed;
  return cfg;
}

sim::SystemSnapshot MakeFailureSnapshot(int interval, int hosts = kHosts,
                                        int brokers = kBrokers) {
  sim::SystemSnapshot snap;
  snap.interval = interval;
  snap.topology = sim::Topology::Initial(hosts, brokers);
  snap.hosts.resize(static_cast<std::size_t>(hosts));
  snap.alive.assign(static_cast<std::size_t>(hosts), true);
  for (int i = 0; i < hosts; ++i) {
    auto& m = snap.hosts[static_cast<std::size_t>(i)];
    m.cpu_util = 0.4 + 0.03 * ((interval + i) % 8);
    m.ram_util = 0.5;
    m.energy_kwh = m.cpu_util * 4e-4;
    m.is_broker = snap.topology.is_broker(i);
  }
  snap.alive[0] = false;
  snap.hosts[0].failed = true;
  return snap;
}

struct SweepResult {
  int workers = 0;
  int sessions = 0;
  int hosts = kHosts;
  int requests = 0;
  double decisions_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t pipeline_passes = 0;
  std::uint64_t pipeline_jobs = 0;
  std::uint64_t pipeline_states = 0;
  double stacking_ratio = 0.0;
};

SweepResult RunSweep(int workers, int sessions, int requests_per_session,
                     int hosts = kHosts) {
  const int brokers = std::max(2, hosts / 4);
  serve::ServiceConfig cfg;
  cfg.gon = BenchCarolConfig(1).gon;
  cfg.num_workers = workers;
  cfg.observability = g_observability;
  serve::ResilienceService service(cfg);

  std::vector<serve::SessionId> ids;
  for (int s = 0; s < sessions; ++s) {
    serve::FederationSpec spec;
    spec.name = "fed-" + std::to_string(s);
    spec.carol = BenchCarolConfig(static_cast<unsigned>(10 + s));
    ids.push_back(service.OpenSession(spec));
  }

  std::vector<std::vector<double>> latencies_ms(
      static_cast<std::size_t>(sessions));
  const auto wall_start = Clock::now();
  std::vector<std::thread> drivers;
  for (int s = 0; s < sessions; ++s) {
    drivers.emplace_back([&, s] {
      auto& lat = latencies_ms[static_cast<std::size_t>(s)];
      lat.reserve(static_cast<std::size_t>(requests_per_session));
      for (int r = 0; r < requests_per_session; ++r) {
        serve::RepairRequest req;
        const sim::SystemSnapshot snap = MakeFailureSnapshot(r, hosts, brokers);
        req.current = snap.topology;
        req.failed_brokers = {0};
        req.snapshot = snap;
        const auto t0 = Clock::now();
        service.Repair(ids[static_cast<std::size_t>(s)], req);
        lat.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count());
      }
    });
  }
  for (auto& d : drivers) d.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  SweepResult result;
  result.workers = workers;
  result.sessions = sessions;
  result.hosts = hosts;
  result.requests = sessions * requests_per_session;
  result.decisions_per_sec = result.requests / wall_s;
  std::vector<double> all;
  for (const auto& lat : latencies_ms) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  result.p50_ms = common::Percentile(all, 50.0);
  result.p99_ms = common::Percentile(all, 99.0);
  const serve::ServiceStats stats = service.stats();
  result.pipeline_passes = stats.pipeline_passes;
  result.pipeline_jobs = stats.pipeline_jobs;
  result.pipeline_states = stats.pipeline_states;
  if (stats.pipeline_passes > 0) {
    result.stacking_ratio = static_cast<double>(stats.pipeline_jobs) /
                            static_cast<double>(stats.pipeline_passes);
  }
  return result;
}

}  // namespace

int main() {
  const bool fast = carol::bench::FastMode();
  const int requests_per_session =
      carol::bench::EnvInt("CAROL_BENCH_REQUESTS", fast ? 4 : 12);
  g_observability = carol::bench::EnvInt("CAROL_BENCH_OBS", 1) != 0;
  const std::string out_path =
      carol::bench::EnvStr("CAROL_BENCH_OUT", "BENCH_service.json");

  carol::bench::PrintBanner(
      std::string("ResilienceService throughput: decisions/sec and latency "
                  "vs workers x sessions (H=16 broker-failure repairs; "
                  "the pipeline stacks cross-session frontiers with zero "
                  "linger; observability ") +
      (g_observability ? "ON)" : "OFF)"));
  std::printf("%-9s %-9s %-7s %-9s %-14s %-9s %-9s %-8s %-8s %-8s\n",
              "workers", "sessions", "hosts", "requests", "decisions/sec",
              "p50(ms)", "p99(ms)", "passes", "jobs", "stack");

  const std::vector<int> worker_counts = fast ? std::vector<int>{1, 4}
                                              : std::vector<int>{1, 2, 4};
  const std::vector<int> session_counts = fast ? std::vector<int>{1, 8}
                                               : std::vector<int>{1, 4, 8};
  std::vector<SweepResult> results;
  auto run_cell = [&](int workers, int sessions, int hosts = kHosts,
                      int requests_override = 0) {
    const SweepResult r = RunSweep(
        workers, sessions,
        requests_override > 0 ? requests_override : requests_per_session,
        hosts);
    std::printf("%-9d %-9d %-7d %-9d %-14.1f %-9.2f %-9.2f %-8llu "
                "%-8llu %-8.2f\n",
                r.workers, r.sessions, r.hosts, r.requests,
                r.decisions_per_sec, r.p50_ms, r.p99_ms,
                static_cast<unsigned long long>(r.pipeline_passes),
                static_cast<unsigned long long>(r.pipeline_jobs),
                r.stacking_ratio);
    results.push_back(r);
  };
  for (int workers : worker_counts) {
    for (int sessions : session_counts) run_cell(workers, sessions);
  }
  // Large federations (H in {64, 128}), where the O(H^2) attention
  // dominates. Fewer requests per cell: one H=128 repair costs ~64x an
  // H=16 one.
  const int large_requests = std::max(2, requests_per_session / 4);
  for (int hosts : {64, 128}) {
    run_cell(/*workers=*/2, /*sessions=*/4, hosts, large_requests);
  }

  // Headline scaling: 8-session H=16 throughput, 1 worker -> max
  // workers; plus the zero-linger cross-session stacking ratio.
  double one_worker = 0.0, max_worker = 0.0;
  int max_workers = 0;
  for (const SweepResult& r : results) {
    if (r.sessions != 8 || r.hosts != kHosts) continue;
    if (r.workers == 1) one_worker = r.decisions_per_sec;
    if (r.workers > max_workers) {
      max_workers = r.workers;
      max_worker = r.decisions_per_sec;
    }
  }
  if (one_worker > 0.0) {
    std::printf("\n8-session scaling 1 -> %d workers: %.2fx\n", max_workers,
                max_worker / one_worker);
  }
  for (const SweepResult& r : results) {
    if (r.sessions == 8 && r.hosts == kHosts && r.workers == max_workers) {
      std::printf("8-session zero-linger stacking ratio (%d workers): "
                  "%.2f jobs/pass (%llu states over %llu passes)\n",
                  r.workers, r.stacking_ratio,
                  static_cast<unsigned long long>(r.pipeline_states),
                  static_cast<unsigned long long>(r.pipeline_passes));
    }
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    std::fprintf(
        out,
        "  {\"workers\": %d, \"sessions\": %d, \"hosts\": %d, "
        "\"requests\": %d, \"decisions_per_sec\": %.3f, "
        "\"p50_ms\": %.4f, \"p99_ms\": %.4f, "
        "\"pipeline_passes\": %llu, \"pipeline_jobs\": %llu, "
        "\"pipeline_states\": %llu, \"stacking_ratio\": %.3f, "
        "\"observability\": %s}%s\n",
        r.workers, r.sessions, r.hosts, r.requests,
        r.decisions_per_sec, r.p50_ms, r.p99_ms,
        static_cast<unsigned long long>(r.pipeline_passes),
        static_cast<unsigned long long>(r.pipeline_jobs),
        static_cast<unsigned long long>(r.pipeline_states),
        r.stacking_ratio, g_observability ? "true" : "false",
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("\nwrote %s (%zu rows)\n", out_path.c_str(), results.size());
  return 0;
}
