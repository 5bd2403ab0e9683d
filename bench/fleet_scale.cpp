// Fleet-scale stepping benchmark: ns/interval of the shared
// simkern::IntervalStepper protocol as the federation grows from the
// paper's H=16..128 testbeds to the H=512/4096 large-fleet tier.
// Federation::RunInterval always steps event-driven (O(changed)), so
// the stepping rows have no same-process baseline; CI checks how they
// scale with H instead.
//
// These families of rows land in BENCH_fleet.json:
//   * fleet_step_sparse  — H in {128, 512, 4096}, open-loop
//     ArrivalProcess at the SAME total arrival rate, no snapshot.
//   * fleet_step_sparse_dirty — H=4096 while a rotating fault-load window
//     dirties a fraction of the fleet every interval (0.1%..100%): the
//     dirty-fraction sensitivity curve of O(changed) stepping.
//   * fleet_repair_scoped — ns per broker-fault repair through the FULL
//     scoped decision path (simkern::RepairScopeHints -> RepairSubgraph
//     extraction -> GON-scored tabu search -> splice-back) at H in
//     {512, 4096}. CI gates the H=4096 row under 1 s.
//   * fleet_repair_qos — completed tasks over an identical storm script:
//     scoped GON repair vs FallbackRepair twins (ns_per_op/baseline hold
//     TASK COUNTS here, speedup = GON/fallback; CI gates >= 1).
//
// All cases drive the identical protocol (recover -> detect -> repair ->
// inject -> submit -> route -> run -> observe) through IntervalStepper;
// only the hooks differ, exactly like the real drivers.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/carol.h"
#include "core/gon.h"
#include "core/subgraph.h"
#include "sim/federation.h"
#include "sim/scheduler.h"
#include "sim/topology.h"
#include "sim/types.h"
#include "simkern/stepper.h"
#include "workload/arrival.h"
#include "workload/profiles.h"

namespace {

using namespace carol;
using clock_type = std::chrono::steady_clock;

constexpr int kSites = 8;
// Matched arrival volume for every case: the paper's lambda = 1.2 per
// site per 300 s interval. The fleets differ in size, not in load — the
// point of O(changed) stepping is that quiet hosts cost nothing.
constexpr double kLambdaPerSite = 1.2;

double g_sink = 0.0;

struct BenchResult {
  std::string op;
  std::string shape;
  double ns_per_op = 0.0;
  double baseline_ns_per_op = 0.0;
  double speedup = 0.0;
};

std::vector<BenchResult>& Results() {
  static std::vector<BenchResult> results;
  return results;
}

void Report(const std::string& op, const std::string& shape, double ns) {
  BenchResult r;
  r.op = op;
  r.shape = shape;
  r.ns_per_op = ns;
  Results().push_back(r);
  std::printf("%-28s %-22s %12.0f ns/interval\n", op.c_str(), shape.c_str(),
              ns);
}

void WriteJson(const char* path) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  const auto& rs = Results();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    std::fprintf(f,
                 "  {\"op\": \"%s\", \"shape\": \"%s\", \"ns_per_op\": "
                 "%.1f, \"baseline_ns_per_op\": %.1f, \"speedup\": %.3f}%s\n",
                 rs[i].op.c_str(), rs[i].shape.c_str(), rs[i].ns_per_op,
                 rs[i].baseline_ns_per_op, rs[i].speedup,
                 i + 1 < rs.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu entries)\n", path, rs.size());
}

// Minimal protocol hooks: open-loop arrivals, optional rotating
// fault-load churn, snapshot policy — nothing else. No repair model in
// the loop (static topology, like an incident-free run).
class StepBenchHooks : public simkern::IntervalHooks {
 public:
  workload::ArrivalProcess* open_loop = nullptr;
  bool want_snapshot = true;
  int churn_hosts = 0;  // hosts dirtied per interval (rotating window)
  int fleet_size = 0;

  void OnIntervalStart(simkern::StepContext& ctx) override {
    if (churn_hosts <= 0) return;
    for (sim::NodeId h : window_) ctx.fed->ClearFaultLoad(h);
    window_.clear();
    for (int k = 0; k < churn_hosts; ++k) {
      const auto h = static_cast<sim::NodeId>(cursor_ % fleet_size);
      ctx.fed->SetFaultLoad(h, 40.0, 32.0, 0.0, 0.0);
      window_.push_back(h);
      ++cursor_;
    }
  }

  std::vector<sim::Task> GenerateArrivals(simkern::StepContext& ctx) override {
    return open_loop->Drain(ctx.fed->now_s() +
                            ctx.fed->config().interval_seconds);
  }

  void Observe(simkern::StepContext& ctx,
               const sim::IntervalResult& r) override {
    (void)ctx;
    g_sink += r.energy_kwh;
  }

  bool WantSnapshot(const simkern::StepContext& ctx) const override {
    (void)ctx;
    return want_snapshot;
  }

 private:
  long long cursor_ = 0;
  std::vector<sim::NodeId> window_;
};

struct CaseSpec {
  int hosts = 128;
  double dirty_frac = 0.0;
};

// One full run of `intervals` protocol steps; returns ns/interval.
// Timing covers the steps only (federation construction is amortized
// into nothing over a real run, and at H=4096 it would dominate a short
// measurement window).
double RunCase(const CaseSpec& c, int intervals, int reps) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    sim::SimConfig cfg;
    cfg.network.num_sites = kSites;
    sim::Federation fed(sim::ScaledTestbedSpecs(c.hosts),
                        sim::Topology::Initial(c.hosts, c.hosts / 16), cfg,
                        common::Rng(42));
    sim::LeastUtilizationScheduler scheduler;

    workload::ArrivalConfig acfg;
    acfg.rate_per_second =
        kLambdaPerSite * kSites / cfg.interval_seconds;
    acfg.num_sites = kSites;
    workload::ArrivalProcess open_loop(workload::AIoTBenchProfiles(), acfg,
                                       common::Rng(7));

    StepBenchHooks hooks;
    hooks.open_loop = &open_loop;
    hooks.want_snapshot = false;
    hooks.fleet_size = c.hosts;
    hooks.churn_hosts = static_cast<int>(c.dirty_frac * c.hosts);

    simkern::IntervalStepper stepper(fed, scheduler, hooks);
    // Untimed warmup: the first steps of a fresh federation pay first-touch
    // page faults across H hosts' state — steady-state cost is the number
    // that scales, so keep the cold start out of the window.
    const int warmup = std::max(2, intervals / 10);
    for (int i = 0; i < warmup; ++i) stepper.Step(i);
    const auto t0 = clock_type::now();
    for (int i = 0; i < intervals; ++i) stepper.Step(warmup + i);
    const double ns =
        std::chrono::duration<double, std::nano>(clock_type::now() - t0)
            .count() /
        intervals;
    best = std::min(best, ns);
  }
  return best;
}

// The serving-sized planner (bench/scenario_suite, examples/massive_fleet):
// small enough to be a latency benchmark, real enough that every repair is
// a genuine GON-scored tabu search.
core::CarolConfig ServingPlannerConfig() {
  core::CarolConfig cfg;
  cfg.gon.hidden_width = 32;
  cfg.gon.num_layers = 2;
  cfg.gon.gat_width = 16;
  cfg.gon.generation_steps = 5;
  cfg.tabu.max_iterations = 3;
  cfg.tabu.max_evaluations = 40;
  return cfg;
}

// ns per broker-fault repair through the full scoped decision path at
// fleet scale: hints from the warmed kernel, extraction, GON/tabu search
// on the H_sub problem, splice-back. Every iteration repairs a different
// broker so no iteration amortizes another's extraction.
double RunScopedRepairCase(int hosts, int reps) {
  const core::CarolConfig cfg = ServingPlannerConfig();
  core::ScopedRepairOptions scope;
  scope.enabled = true;
  scope.max_hosts = 128;

  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    sim::SimConfig sim_cfg;
    sim_cfg.network.num_sites = std::max(4, hosts / 64);
    sim::Federation fed(sim::ScaledTestbedSpecs(hosts),
                        sim::Topology::Initial(hosts, hosts / 16), sim_cfg,
                        common::Rng(42));
    sim::LeastUtilizationScheduler scheduler;
    workload::ArrivalConfig acfg;
    acfg.rate_per_second = kLambdaPerSite * kSites / sim_cfg.interval_seconds;
    acfg.num_sites = sim_cfg.network.num_sites;
    workload::ArrivalProcess arrivals(workload::AIoTBenchProfiles(), acfg,
                                      common::Rng(7));
    StepBenchHooks hooks;
    hooks.open_loop = &arrivals;
    simkern::IntervalStepper stepper(fed, scheduler, hooks);
    for (int i = 0; i < 3; ++i) stepper.Step(i);  // warm the hint sets

    core::GonModel gon(cfg.gon);
    core::FeatureEncoder encoder;
    common::Rng plan_rng(1234 + static_cast<unsigned>(rep));
    const std::vector<sim::NodeId> brokers = fed.topology().brokers();
    const int repairs = 8;
    const auto t0 = clock_type::now();
    const core::TopologyBatchScoreFn score =
        [&](const std::vector<sim::Topology>& frontier,
            const sim::SystemSnapshot& scoring) {
          return core::ScoreTopologiesWith(gon, encoder, cfg.alpha, cfg.beta,
                                           frontier, scoring);
        };
    for (int k = 0; k < repairs; ++k) {
      const std::vector<sim::NodeId> failed = {
          brokers[static_cast<std::size_t>(k) % brokers.size()]};
      const core::RepairScope scoped{scope,
                                     simkern::RepairScopeHints(fed, failed)};
      g_sink += static_cast<double>(
          core::PlanDecision(fed.topology(), failed, fed.last_snapshot(),
                             cfg, plan_rng, score, &scoped)
              .Hash() &
          1u);
    }
    const double ns =
        std::chrono::duration<double, std::nano>(clock_type::now() - t0)
            .count() /
        repairs;
    best = std::min(best, ns);
  }
  return best;
}

// QoS twin: the same storm script served by scoped GON repair vs
// FallbackRepair. Returns completed-task counts {gon, fallback}.
class QosHooks : public simkern::IntervalHooks {
 public:
  QosHooks(bool use_gon, workload::ArrivalProcess* arrivals, int hosts)
      : use_gon_(use_gon),
        arrivals_(arrivals),
        hosts_(hosts),
        storm_(99),
        plan_rng_(1234),
        cfg_(ServingPlannerConfig()),
        gon_(cfg_.gon) {
    scope_.enabled = true;
    scope_.max_hosts = 128;
  }

  std::optional<sim::Topology> Repair(simkern::StepContext& ctx) override {
    if (ctx.report->failed_brokers.empty()) return std::nullopt;
    if (!use_gon_) {
      return simkern::FallbackRepair(ctx.fed->topology(),
                                     ctx.report->failed_brokers, *ctx.fed);
    }
    const core::RepairScope scope{
        scope_,
        simkern::RepairScopeHints(*ctx.fed, ctx.report->failed_brokers)};
    return core::PlanDecision(
        ctx.fed->topology(), ctx.report->failed_brokers,
        ctx.fed->last_snapshot(), cfg_, plan_rng_,
        [this](const std::vector<sim::Topology>& frontier,
               const sim::SystemSnapshot& scoring) {
          return core::ScoreTopologiesWith(gon_, encoder_, cfg_.alpha,
                                           cfg_.beta, frontier, scoring);
        },
        &scope);
  }

  void InjectFaults(simkern::StepContext& ctx) override {
    if (ctx.interval % 4 != 1) return;  // a storm burst every 4 intervals
    const double now = ctx.fed->now_s();
    const double dt = ctx.fed->config().interval_seconds;
    for (int k = 0; k < 2; ++k) {
      const auto b = static_cast<sim::NodeId>(
          storm_.Choice(static_cast<std::size_t>(hosts_ / 16)) * 16);
      ctx.fed->SetFailed(b, now, now + 1.5 * dt);
    }
  }

  std::vector<sim::Task> GenerateArrivals(simkern::StepContext& ctx) override {
    return arrivals_->Drain(ctx.fed->now_s() +
                            ctx.fed->config().interval_seconds);
  }

  void Observe(simkern::StepContext& ctx,
               const sim::IntervalResult& r) override {
    (void)ctx;
    completed += r.completed;
  }

  long long completed = 0;

 private:
  bool use_gon_;
  workload::ArrivalProcess* arrivals_;
  int hosts_;
  common::Rng storm_;
  common::Rng plan_rng_;
  core::CarolConfig cfg_;
  core::GonModel gon_;
  core::FeatureEncoder encoder_;
  core::ScopedRepairOptions scope_;
};

std::pair<long long, long long> RunQosTwin(int hosts, int intervals) {
  long long counts[2] = {0, 0};
  for (int variant = 0; variant < 2; ++variant) {
    const bool use_gon = variant == 0;
    sim::SimConfig cfg;
    cfg.network.num_sites = std::max(4, hosts / 64);
    sim::Federation fed(sim::ScaledTestbedSpecs(hosts),
                        sim::Topology::Initial(hosts, hosts / 16), cfg,
                        common::Rng(42));
    sim::LeastUtilizationScheduler scheduler;
    workload::ArrivalConfig acfg;
    acfg.rate_per_second = kLambdaPerSite * kSites / cfg.interval_seconds;
    acfg.num_sites = cfg.network.num_sites;
    workload::ArrivalProcess arrivals(workload::AIoTBenchProfiles(), acfg,
                                      common::Rng(7));
    QosHooks hooks(use_gon, &arrivals, hosts);
    simkern::IntervalStepper stepper(fed, scheduler, hooks);
    stepper.Run(intervals);
    counts[variant] = hooks.completed;
  }
  return {counts[0], counts[1]};
}

}  // namespace

int main() {
  const bool fast = bench::FastMode();
  const int intervals = bench::EnvInt("CAROL_BENCH_INTERVALS", fast ? 20 : 120);
  const int reps = bench::EnvInt("CAROL_BENCH_SEEDS", fast ? 2 : 3);
  // Quiet steps are microseconds; time many more of them so the rows the
  // CI tripwire compares are steady-state, not startup jitter. Steps with
  // most of an H=4096 fleet dirty approach a millisecond — those keep the
  // small budget.
  const int cheap_intervals = intervals * 10;

  bench::PrintBanner(
      "Fleet-scale stepping — shared IntervalStepper protocol, ns/interval");

  // ns/interval vs H at a matched arrival rate.
  for (int hosts : {128, 512, 4096}) {
    const double ns = RunCase({.hosts = hosts}, cheap_intervals, reps);
    Report("fleet_step_sparse", "H=" + std::to_string(hosts), ns);
  }

  // Dirty-fraction sensitivity at the top tier: how O(changed) degrades
  // toward dense-shaped work as the changed set grows to the whole fleet.
  {
    const int hosts = 4096;
    for (double df : {0.001, 0.01, 0.1, 1.0}) {
      const int df_intervals = df >= 1.0 ? std::max(5, intervals / 4)
                                         : df >= 0.1 ? intervals
                                                     : cheap_intervals;
      const double ns =
          RunCase({.hosts = hosts, .dirty_frac = df}, df_intervals, reps);
      char shape[48];
      std::snprintf(shape, sizeof shape, "H=4096 df=%g", df);
      Report("fleet_step_sparse_dirty", shape, ns);
    }
  }

  // Scoped GON repair latency at the large-fleet tier: the whole decision
  // path (hints -> extraction -> search -> splice) per broker fault.
  for (int hosts : {512, 4096}) {
    const double ns = RunScopedRepairCase(hosts, reps);
    Report("fleet_repair_scoped", "H=" + std::to_string(hosts), ns);
  }

  // QoS guard: the scoped GON decision must serve the storm no worse than
  // the fallback promotion heuristic. Row fields hold TASK COUNTS.
  {
    const auto [gon_tasks, fb_tasks] = RunQosTwin(512, fast ? 16 : 24);
    BenchResult r;
    r.op = "fleet_repair_qos";
    r.shape = "H=512 storm";
    r.ns_per_op = static_cast<double>(gon_tasks);
    r.baseline_ns_per_op = static_cast<double>(fb_tasks);
    r.speedup = fb_tasks > 0 ? static_cast<double>(gon_tasks) /
                                   static_cast<double>(fb_tasks)
                             : 0.0;
    Results().push_back(r);
    std::printf("%-28s %-22s %12lld tasks   fallback %9lld tasks   %6.3fx\n",
                r.op.c_str(), r.shape.c_str(), gon_tasks, fb_tasks,
                r.speedup);
  }

  WriteJson("BENCH_fleet.json");
  if (g_sink == 12345.6789) std::printf(" ");  // keep g_sink alive
  return 0;
}
