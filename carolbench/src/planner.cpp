// The serving planner every workload shares, set-up timing, and the
// seeded input pools made by the real simulator.
#include <malloc.h>

#include <algorithm>

#include "bench.h"
#include "harness/runtime.h"
#include "nn/serialize.h"
#include "sim/scheduler.h"
#include "simkern/stepper.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace carolbench {

serve::ServiceConfig PlannerServiceConfig(int workers, bool observability) {
  serve::ServiceConfig cfg;
  cfg.gon.hidden_width = 32;
  cfg.gon.num_layers = 2;
  cfg.gon.gat_width = 16;
  cfg.gon.generation_steps = 5;
  cfg.num_workers = workers;
  cfg.attention_threads = 1;
  cfg.observability = observability;
  // Traced runs keep every repair's DecisionTrace: the k-th trace of a
  // session is matched to that session's k-th client span.
  cfg.trace_capacity = std::size_t{1} << 16;
  return cfg;
}

core::CarolConfig PlannerSessionConfig(unsigned seed,
                                       core::FineTunePolicy policy) {
  core::CarolConfig cfg;
  cfg.gon = PlannerServiceConfig(1, false).gon;
  cfg.tabu.max_iterations = 3;
  cfg.tabu.max_evaluations = 40;
  cfg.policy = policy;
  cfg.seed = seed;
  return cfg;
}

void TrainPlanner(serve::ResilienceService& service) {
  // One fixed trace for every run: the planner's weights set how many
  // ascent steps and frontiers a repair takes, so weights drawn from
  // --seed would make each seed a different workload.
  harness::RunConfig trace_cfg;
  trace_cfg.intervals = 100;
  trace_cfg.seed = 1;
  service.TrainOffline(harness::CollectTrainingTrace(trace_cfg, 10),
                       /*max_epochs=*/20);
}

void MeasureSetup(int reps, Report& report,
                  const std::function<void()>& teardown,
                  const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    teardown();
    malloc_trim(0);  // each set-up starts from a heap like a fresh process's
    const Clock::time_point t0 = Clock::now();
    setup();
    seconds.push_back(Seconds(Clock::now() - t0));
  }
  report.EndToEnd("setup_s", Median(seconds), "s", seconds.size());
}

namespace {

class PoolHooks : public simkern::IntervalHooks {
 public:
  PoolHooks(workload::WorkloadGenerator& workload, SnapshotPool& pool)
      : workload_(workload), pool_(pool) {}

  std::vector<sim::Task> GenerateArrivals(
      simkern::StepContext& ctx) override {
    return workload_.Generate(ctx.interval, ctx.fed->now_s());
  }

  void Observe(simkern::StepContext&, const sim::IntervalResult& r) override {
    pool_.snapshots.push_back(r.snapshot);
    pool_.completed += r.completed;
    pool_.violated += r.violated;
    pool_.energy_kwh += r.energy_kwh;
    for (double s : r.response_times) pool_.response_sum_s += s;
  }

 private:
  workload::WorkloadGenerator& workload_;
  SnapshotPool& pool_;
};

}  // namespace

SnapshotPool MakeSnapshotPool(int hosts, int brokers, int intervals,
                              std::uint64_t seed) {
  const Clock::time_point t0 = Clock::now();
  common::Rng master(seed);
  sim::SimConfig sim_cfg;
  workload::WorkloadConfig wl_cfg;
  if (hosts > 128) {
    // The large-fleet regime of scenario::RescaleScenario: 64-host
    // sites at the testbed's per-site arrival rate, event-driven kernel.
    sim_cfg.event_driven = true;
    sim_cfg.network.num_sites = std::max(4, hosts / 64);
  } else {
    // Same load per host as the 16-host testbed.
    wl_cfg.lambda_per_site *= hosts / 16.0;
  }
  wl_cfg.num_sites = sim_cfg.network.num_sites;
  sim::Federation fed(sim::ScaledTestbedSpecs(hosts),
                      sim::Topology::Initial(hosts, brokers), sim_cfg,
                      master.Fork());
  workload::WorkloadGenerator workload(workload::AIoTBenchProfiles(), wl_cfg,
                                       master.Fork());
  sim::LeastUtilizationScheduler scheduler;
  SnapshotPool pool;
  PoolHooks hooks(workload, pool);
  simkern::IntervalStepper stepper(fed, scheduler, hooks);
  for (int i = 0; i < intervals; ++i) stepper.Step(i);
  pool.intervals = intervals;
  pool.wall_ms = Ms(Clock::now() - t0);
  return pool;
}

RepairInput MakeRepairInput(const SnapshotPool& pool, common::Rng& rng) {
  RepairInput in;
  in.snapshot = pool.snapshots[rng.Choice(pool.snapshots.size())];
  std::vector<sim::NodeId> brokers = in.snapshot.topology.brokers();
  const std::size_t n =
      std::min<std::size_t>(rng.Bernoulli(0.2) ? 2 : 1, brokers.size() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t pick = rng.Choice(brokers.size());
    in.failed.push_back(brokers[pick]);
    brokers.erase(brokers.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  for (sim::NodeId b : in.failed) {
    in.snapshot.alive[static_cast<std::size_t>(b)] = false;
    in.snapshot.hosts[static_cast<std::size_t>(b)].failed = true;
  }
  return in;
}

bool FailedBrokersOrphaned(const sim::Topology& topology,
                           const std::vector<sim::NodeId>& failed) {
  for (sim::NodeId b : failed) {
    if (topology.is_broker(b) && !topology.workers_of(b).empty()) return false;
  }
  return true;
}

void ReportPoolSim(const SnapshotPool& pool, Report& report) {
  const auto intervals = static_cast<std::uint64_t>(pool.intervals);
  const auto completed = static_cast<std::uint64_t>(pool.completed);
  const double per_task = pool.completed > 0 ? 1.0 / pool.completed : 0.0;
  report.Layer("sim.other_ms_per_interval", pool.wall_ms / pool.intervals,
               "ms", intervals);
  report.Layer("sim.tasks_completed", pool.completed, "count", intervals);
  report.Layer("sim.energy_kwh", pool.energy_kwh, "kWh", intervals);
  report.Layer("sim.slo_violation_rate", pool.violated * per_task, "ratio",
               completed);
  report.Layer("sim.response_s", pool.response_sum_s * per_task, "s",
               completed);
  report.Layer("sim.gate_accuracy", 0.0, "ratio", 0);
}

std::unique_ptr<core::GonModel> CloneMasterGon(
    serve::ResilienceService& service) {
  auto gon = std::make_unique<core::GonModel>(
      PlannerServiceConfig(1, false).gon);
  nn::CopyParameters(service.master_gon().network(), gon->network());
  return gon;
}

}  // namespace carolbench
