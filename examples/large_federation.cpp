// Scenario: LARGE federations — two 64-host edge federations (16 LEIs
// each, tiled Raspberry-Pi sites from sim::ScaledTestbedSpecs) served
// concurrently by one ResilienceService.
//
// What this demonstrates (and what CI smoke-checks):
//   * the repair hot path scales to H >= 64 (the O(H^2) per-state GAT
//     attention dominates each stacked scoring pass);
//   * tabu candidate filtering uses the incremental Topology::Hash —
//     no per-candidate O(H) rehash anywhere in the search;
//   * the final per-decision confidence calls stack into the same flush
//     passes as the frontier scoring (confidence_jobs vs
//     confidence_passes below);
//   * admission control: the request queue is bounded
//     (ServiceConfig::max_pending_requests), overflow is rejected with
//     a typed ServiceOverloadedError instead of unbounded growth.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/runtime.h"
#include "harness/serve_experiment.h"
#include "serve/service.h"

int main() {
  using namespace carol;
  std::printf("== large federations: two 64-host fleets, one service "
              "==\n\n");

  // Trimmed surrogate + search budgets: H=64 repairs score frontiers of
  // ~60 candidates per tabu round, each candidate a 64x9 generation.
  core::CarolConfig base;
  base.gon.hidden_width = 32;
  base.gon.num_layers = 2;
  base.gon.gat_width = 16;
  base.gon.generation_steps = 5;
  base.tabu.max_iterations = 3;
  base.tabu.max_evaluations = 48;
  base.policy = core::FineTunePolicy::kNever;  // steady-state serving

  serve::ServiceConfig service_cfg;
  service_cfg.gon = base.gon;
  service_cfg.num_workers = 2;
  // Backpressure: never hold more than 64 admitted repairs.
  service_cfg.max_pending_requests = 64;
  serve::ResilienceService service(service_cfg);

  const int kFleets = 2;
  std::vector<serve::FederationSpec> specs;
  std::vector<harness::RunConfig> configs;
  for (int i = 0; i < kFleets; ++i) {
    serve::FederationSpec spec;
    spec.name = "large-fed-" + std::to_string(i);
    spec.carol = base;
    spec.carol.seed = 300 + static_cast<unsigned>(i);
    specs.push_back(spec);

    harness::RunConfig cfg;
    cfg.intervals = 8;
    cfg.seed = 50 + static_cast<unsigned>(i);
    cfg.num_nodes = 64;   // sim::ScaledTestbedSpecs tiles 16 sites
    cfg.num_brokers = 16;
    // Workload AND network must agree on the site count (tasks gateway
    // in from a site; the network maps nodes to sites contiguously).
    cfg.workload.num_sites = 16;
    cfg.sim.network.num_sites = 16;
    cfg.workload.lambda_per_site = 1.2;
    // More attack pressure than the 16-host default: with 16 brokers a
    // 0.5/interval rate would rarely exercise the H=64 repair search
    // this example exists to smoke-test.
    cfg.faults.lambda_per_interval = 2.0;
    configs.push_back(cfg);
  }

  const harness::ServiceRunReport report =
      harness::RunFederationsViaServiceReport(service, specs, configs);

  std::printf("%-14s %-8s %-12s %-12s %-10s %-12s\n", "federation",
              "hosts", "energy(kWh)", "response(s)", "slo_rate",
              "decision(s)");
  bool ok = true;
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const harness::RunResult& r = report.results[i];
    std::printf("%-14s %-8d %-12.4f %-12.1f %-10.4f %-12.4f\n",
                specs[i].name.c_str(), 64, r.total_energy_kwh,
                r.avg_response_s, r.slo_violation_rate,
                r.avg_decision_time_s);
    if (r.total_tasks <= 0 || r.avg_decision_time_s < 0.0) ok = false;
  }

  const serve::ServiceStats stats = service.stats();
  std::printf("\nservice totals: %llu repairs, %llu observes\n",
              static_cast<unsigned long long>(stats.repairs),
              static_cast<unsigned long long>(stats.observes));
  std::printf("frontier stacking: %llu jobs / %llu passes (%llu states)\n",
              static_cast<unsigned long long>(stats.pipeline_jobs),
              static_cast<unsigned long long>(stats.pipeline_passes),
              static_cast<unsigned long long>(stats.pipeline_states));
  std::printf("confidence stacking: %llu decisions / %llu passes "
              "(every decision scored through a stacked flush, no lone "
              "kernel calls)\n",
              static_cast<unsigned long long>(stats.confidence_jobs),
              static_cast<unsigned long long>(stats.confidence_passes));

  if (stats.repairs == 0 || stats.confidence_jobs != stats.repairs) {
    std::printf("\nFAIL: confidence stacking accounting is off\n");
    return 1;
  }
  if (!ok) {
    std::printf("\nFAIL: a fleet produced no work or negative latency\n");
    return 1;
  }
  std::printf("\nexpected: both 64-host fleets finish with valid "
              "topologies and bounded decision latency.\n");
  return 0;
}
