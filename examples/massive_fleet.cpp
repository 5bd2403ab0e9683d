// Scenario: a MASSIVE fleet — one 4096-host federation (256 brokers,
// 64 geographic sites) stepped through the shared simkern protocol
// (whose RunInterval always steps event-driven), an open-loop
// million-device arrival stream, and a broker fault storm repaired by
// the REAL decision path: a subgraph-extracted GON/tabu repair
// (core::PlanDecision with a RepairScope) planning on the affected region
// only.
//
// What this demonstrates (and what CI smoke-checks):
//   * the large-fleet tier is usable end to end: H=4096 steps in
//     microseconds because O(changed) stepping only touches the engaged
//     and dirtied hosts, not the whole fleet;
//   * the GON decision path scales the same way: RepairSubgraph pulls
//     the failed brokers' LEIs plus the kernel's hint sets
//     (simkern::RepairScopeHints) into an H_sub <= ~128 problem, so the
//     full Algorithm-2 search runs at fleet scale without ever building
//     a 4096-row GON state;
//   * workload::ArrivalProcess scales by construction — its state is
//     O(1) in the device population (FromUsers(1e6, ...)), so a million
//     simulated devices cost the same as sixteen;
//   * the protocol loop is the SAME IntervalStepper the harness, the
//     trace collector and the scenario driver run — only the hooks
//     differ, and the fault storm flows through the same detect ->
//     repair -> fallback path as a real incident;
//   * the whole thing is deterministic: two runs from the same seeds
//     produce bit-identical energy and identical topology hashes.
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "core/carol.h"
#include "core/gon.h"
#include "core/subgraph.h"
#include "faults/detector.h"
#include "sim/federation.h"
#include "sim/scheduler.h"
#include "sim/topology.h"
#include "sim/types.h"
#include "simkern/stepper.h"
#include "workload/arrival.h"
#include "workload/profiles.h"

namespace {

using namespace carol;

constexpr int kHosts = 4096;
constexpr int kBrokers = kHosts / 16;
constexpr int kSites = 64;
constexpr int kIntervals = 24;

struct RunOutcome {
  double energy_kwh = 0.0;
  long long tasks_completed = 0;
  long long repairs = 0;
  std::size_t topology_hash = 0;
};

// A serving-sized surrogate + search budget (the bench/scenario_suite
// configuration): small enough for a smoke test, real enough that every
// repair is a genuine GON-scored tabu search.
core::CarolConfig PlannerConfig() {
  core::CarolConfig cfg;
  cfg.gon.hidden_width = 32;
  cfg.gon.num_layers = 2;
  cfg.gon.gat_width = 16;
  cfg.gon.generation_steps = 5;
  cfg.tabu.max_iterations = 3;
  cfg.tabu.max_evaluations = 40;
  return cfg;
}

// Fault storm + scoped GON repair + open-loop arrivals, on top of the
// minimal protocol defaults.
class MassiveFleetHooks : public simkern::IntervalHooks {
 public:
  MassiveFleetHooks(workload::ArrivalProcess* arrivals, common::Rng storm,
                    common::Rng planner)
      : arrivals_(arrivals),
        storm_(storm),
        planner_rng_(planner),
        config_(PlannerConfig()),
        gon_(config_.gon) {
    scope_.enabled = true;
    scope_.max_hosts = 128;
  }

  std::optional<sim::Topology> Repair(simkern::StepContext& ctx) override {
    if (ctx.report->failed_brokers.empty()) return std::nullopt;
    ++outcome.repairs;
    // The real decision path at fleet scale: extract the affected
    // region (failed LEIs + the kernel's latency-tie/engaged/dirty
    // hints), run the GON-scored tabu search on the H_sub problem, and
    // splice the decision back. An invalid result would fall through to
    // the stepper's FallbackRepair guard like any other driver.
    const core::RepairScope scope{
        scope_,
        simkern::RepairScopeHints(*ctx.fed, ctx.report->failed_brokers)};
    return core::PlanDecision(
        ctx.fed->topology(), ctx.report->failed_brokers,
        ctx.fed->last_snapshot(), config_, planner_rng_,
        [this](const std::vector<sim::Topology>& frontier,
               const sim::SystemSnapshot& scoring) {
          return core::ScoreTopologiesWith(gon_, encoder_, config_.alpha,
                                           config_.beta, frontier, scoring);
        },
        &scope);
  }

  void InjectFaults(simkern::StepContext& ctx) override {
    // A storm burst every 8 intervals: several brokers and a handful of
    // workers fail for 1.5 intervals, so detection, repair and recovery
    // all fire while most of the fleet stays quiet (the O(changed) case).
    if (ctx.interval % 8 != 2) return;
    const double now = ctx.fed->now_s();
    const double dt = ctx.fed->config().interval_seconds;
    for (int k = 0; k < 3; ++k) {
      const auto b = static_cast<sim::NodeId>(
          storm_.Choice(static_cast<std::size_t>(kBrokers)) * 16);
      ctx.fed->SetFailed(b, now, now + 1.5 * dt);
    }
    for (int k = 0; k < 8; ++k) {
      const auto n = static_cast<sim::NodeId>(
          storm_.Choice(static_cast<std::size_t>(kHosts)));
      ctx.fed->SetFailed(n, now, now + 1.5 * dt);
    }
  }

  std::vector<sim::Task> GenerateArrivals(simkern::StepContext& ctx) override {
    return arrivals_->Drain(ctx.fed->now_s() +
                            ctx.fed->config().interval_seconds);
  }

  void Observe(simkern::StepContext& ctx,
               const sim::IntervalResult& r) override {
    (void)ctx;
    outcome.energy_kwh += r.energy_kwh;
    outcome.tasks_completed += r.completed;
  }

  bool WantSnapshot(const simkern::StepContext& ctx) const override {
    (void)ctx;
    return true;  // the planner reads per-host rows and alive flags
  }

  RunOutcome outcome;

 private:
  workload::ArrivalProcess* arrivals_;
  common::Rng storm_;
  common::Rng planner_rng_;
  core::CarolConfig config_;
  core::GonModel gon_;
  core::FeatureEncoder encoder_;
  core::ScopedRepairOptions scope_;
};

RunOutcome RunOnce() {
  sim::SimConfig cfg;
  cfg.network.num_sites = kSites;
  sim::Federation fed(sim::ScaledTestbedSpecs(kHosts),
                      sim::Topology::Initial(kHosts, kBrokers), cfg,
                      common::Rng(42));
  sim::LeastUtilizationScheduler scheduler;
  // A million devices at a duty cycle that lands ~175 tasks per interval
  // — the point is the POPULATION: the process folds it into a rate, so
  // its state is O(1) whether the fleet serves 16 devices or a million.
  workload::ArrivalProcess arrivals(
      workload::AIoTBenchProfiles(),
      workload::ArrivalConfig::FromUsers(1e6, 0.05, kSites), common::Rng(7));
  MassiveFleetHooks hooks(&arrivals, common::Rng(99), common::Rng(1234));

  simkern::IntervalStepper stepper(fed, scheduler, hooks);
  stepper.Run(kIntervals);
  hooks.outcome.topology_hash = fed.topology().Hash();
  return hooks.outcome;
}

}  // namespace

int main() {
  std::printf("== massive fleet: 4096 hosts, 256 brokers, 64 sites, "
              "1M-device arrival stream, scoped GON repair ==\n\n");

  const RunOutcome a = RunOnce();
  const RunOutcome b = RunOnce();

  std::printf("%-26s %.6f kWh\n", "energy", a.energy_kwh);
  std::printf("%-26s %lld\n", "tasks completed", a.tasks_completed);
  std::printf("%-26s %lld\n", "storm repairs", a.repairs);
  std::printf("%-26s %zx\n", "final topology hash", a.topology_hash);

  if (a.tasks_completed <= 0) {
    std::printf("\nFAIL: the fleet completed no work\n");
    return 1;
  }
  if (a.repairs == 0) {
    std::printf("\nFAIL: the fault storm never triggered a repair\n");
    return 1;
  }
  if (a.energy_kwh != b.energy_kwh ||
      a.tasks_completed != b.tasks_completed ||
      a.topology_hash != b.topology_hash) {
    std::printf("\nFAIL: two runs from the same seeds diverged "
                "(%.17g vs %.17g kWh, %lld vs %lld tasks, %zx vs %zx)\n",
                a.energy_kwh, b.energy_kwh, a.tasks_completed,
                b.tasks_completed, a.topology_hash, b.topology_hash);
    return 1;
  }

  std::printf("\nexpected: both runs are bit-identical; each storm repair "
              "ran a real GON-scored tabu search on an extracted subgraph "
              "(<= 128 of 4096 hosts) and spliced the decision back.\n");
  return 0;
}
