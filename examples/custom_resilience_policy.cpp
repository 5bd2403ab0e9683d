// Scenario: plugging a custom resilience policy into the harness.
//
// Shows the extension surface a downstream user would touch: implement
// core::ResilienceModel, drop it into FederationRuntime, and compare
// against CAROL's components re-used a la carte (here: the node-shift
// neighborhoods + tabu search with a hand-written objective instead of
// the GON surrogate).
#include <cstdio>

#include "core/carol.h"
#include "core/node_shift.h"
#include "core/resilience.h"
#include "core/tabu.h"
#include "harness/runtime.h"

namespace {

using namespace carol;

// A "balance-first" policy: on failure, tabu-search the node-shift space
// minimizing a hand-written objective (LEI size imbalance + broker
// scarcity penalty) instead of a learned surrogate. No training, no
// fine-tuning, deterministic.
class BalanceFirstPolicy : public core::ResilienceModel {
 public:
  std::string name() const override { return "balance-first"; }

  sim::Topology Repair(const sim::Topology& current,
                       const std::vector<sim::NodeId>& failed_brokers,
                       const sim::SystemSnapshot& snapshot) override {
    if (failed_brokers.empty()) return current;
    sim::Topology topo = current;
    std::vector<bool> alive = snapshot.alive;
    if (alive.size() != static_cast<std::size_t>(topo.num_nodes())) {
      alive.assign(static_cast<std::size_t>(topo.num_nodes()), true);
    }
    for (sim::NodeId b : failed_brokers) {
      alive[static_cast<std::size_t>(b)] = false;
    }
    for (sim::NodeId failed : failed_brokers) {
      if (!topo.is_broker(failed)) continue;
      const auto repairs =
          core::FailureNeighbors(topo, failed, alive, {});
      if (repairs.empty()) continue;
      // Step-driven tabu search: score each proposed frontier with the
      // hand-written objective until the search is done.
      core::TabuSearchState search(
          core::TabuConfig{.max_iterations = 5, .max_evaluations = 80},
          repairs.front(), alive, core::NodeShiftOptions{});
      while (!search.done()) {
        std::vector<double> scores;
        for (const sim::Topology& g : search.ProposeFrontier()) {
          scores.push_back(Objective(g));
        }
        search.Advance(scores);
      }
      topo = search.best();
    }
    return topo;
  }

  double MemoryFootprintMb() const override { return 0.01; }

 private:
  static double Objective(const sim::Topology& g) {
    // LEI size imbalance plus penalties for too-few / too-many brokers.
    const auto brokers = g.brokers();
    const double target_leis = g.num_nodes() / 4.0;
    double imbalance = 0.0;
    const double mean = static_cast<double>(g.worker_count()) /
                        static_cast<double>(brokers.size());
    for (sim::NodeId b : brokers) {
      imbalance +=
          std::abs(static_cast<double>(g.workers_of(b).size()) - mean);
    }
    return imbalance +
           2.0 * std::abs(static_cast<double>(brokers.size()) -
                          target_leis);
  }
};

}  // namespace

int main() {
  std::printf("== custom resilience policy vs CAROL ==\n\n");

  harness::RunConfig trace_cfg;
  trace_cfg.intervals = 80;
  trace_cfg.seed = 7;
  const workload::Trace trace =
      harness::CollectTrainingTrace(trace_cfg, 10);
  core::CarolModel carol((core::CarolConfig()));
  carol.TrainOffline(trace, 10);

  BalanceFirstPolicy custom;

  harness::RunConfig cfg;
  cfg.intervals = 40;
  cfg.seed = 9;
  const harness::RunResult rc =
      harness::FederationRuntime(cfg).Run(carol);
  const harness::RunResult rb =
      harness::FederationRuntime(cfg).Run(custom);

  std::printf("%-15s %-12s %-12s %-10s %-12s\n", "model", "energy(kWh)",
              "response(s)", "slo_rate", "decision(s)");
  std::printf("%-15s %-12.4f %-12.1f %-10.4f %-12.4f\n", rc.model_name.c_str(),
              rc.total_energy_kwh, rc.avg_response_s, rc.slo_violation_rate,
              rc.avg_decision_time_s);
  std::printf("%-15s %-12.4f %-12.1f %-10.4f %-12.4f\n", rb.model_name.c_str(),
              rb.total_energy_kwh, rb.avg_response_s, rb.slo_violation_rate,
              rb.avg_decision_time_s);
  std::printf(
      "\nThe hand-written objective is cheap and deterministic but blind "
      "to workload state; the GON surrogate adapts its choice to the "
      "observed metrics.\n");
  return 0;
}
