#include "harness/runtime.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "common/log.h"
#include "common/stats.h"
#include "simkern/stepper.h"
#include "workload/profiles.h"

namespace carol::harness {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<workload::AppProfile> ProfilesFor(const RunConfig& cfg) {
  return cfg.use_aiot ? workload::AIoTBenchProfiles()
                      : workload::DeFogProfiles();
}

// The experiment driver's behavior at the shared protocol's hook points:
// the model makes the repair decision (timed), the injector fires fault
// events, the generator produces arrivals, and Observe accumulates the
// Fig. 5 metrics.
class ExperimentHooks : public simkern::IntervalHooks {
 public:
  ExperimentHooks(core::ResilienceModel& model,
                  workload::WorkloadGenerator& workload,
                  faults::FaultInjector& injector, RunResult& result)
      : model_(&model),
        workload_(&workload),
        injector_(&injector),
        result_(&result) {}

  std::optional<sim::Topology> Repair(simkern::StepContext& ctx) override {
    result_->broker_failures_detected +=
        static_cast<int>(ctx.report->failed_brokers.size());
    const auto repair_start = Clock::now();
    sim::Topology repaired =
        model_->Repair(ctx.fed->topology(), ctx.report->failed_brokers,
                       ctx.fed->last_snapshot());
    decision_time_total_ += SecondsSince(repair_start);
    return repaired;
  }

  void OnInvalidRepair(simkern::StepContext&) override {
    common::LogWarn() << model_->name()
                      << ": invalid repair topology, using default";
  }

  void InjectFaults(simkern::StepContext& ctx) override {
    injector_->Step(*ctx.fed);
  }

  std::vector<sim::Task> GenerateArrivals(
      simkern::StepContext& ctx) override {
    return workload_->Generate(ctx.interval, ctx.fed->now_s());
  }

  void Observe(simkern::StepContext&,
               const sim::IntervalResult& r) override {
    // Model observation / fine-tuning (overhead metric).
    const auto observe_start = Clock::now();
    model_->Observe(r.snapshot);
    result_->total_finetune_s += SecondsSince(observe_start);

    // Metric accumulation.
    result_->completed += r.completed;
    result_->violated += r.violated;
    result_->interval_energy_kwh.push_back(r.energy_kwh);
    result_->interval_avg_response_s.push_back(r.snapshot.avg_response_s);
    result_->interval_slo_rate.push_back(r.snapshot.slo_rate);
    result_->all_responses.insert(result_->all_responses.end(),
                                  r.response_times.begin(),
                                  r.response_times.end());
    result_->all_response_apps.insert(result_->all_response_apps.end(),
                                      r.response_app_types.begin(),
                                      r.response_app_types.end());
  }

  double decision_time_total() const { return decision_time_total_; }

 private:
  core::ResilienceModel* model_;
  workload::WorkloadGenerator* workload_;
  faults::FaultInjector* injector_;
  RunResult* result_;
  double decision_time_total_ = 0.0;
};

// The trace collector's hooks: no repair decision (the topology is
// shuffled directly), no faults, every interval's snapshot becomes one
// training record.
class TraceHooks : public simkern::IntervalHooks {
 public:
  TraceHooks(const RunConfig& config, int shuffle_every,
             workload::WorkloadGenerator& workload, common::Rng& topo_rng,
             workload::Trace& trace)
      : config_(&config),
        shuffle_every_(shuffle_every),
        workload_(&workload),
        topo_rng_(&topo_rng),
        trace_(&trace) {}

  void AfterRecovery(simkern::StepContext& ctx) override {
    // Periodic topology change (paper: every ten intervals, 100 distinct
    // topologies over the 1000-interval trace).
    if (shuffle_every_ > 0 && ctx.interval % shuffle_every_ == 0 &&
        ctx.interval > 0) {
      const int brokers = topo_rng_->UniformInt(
          2, std::max(2, config_->num_nodes / 3));
      std::vector<sim::NodeId> broker_ids;
      const auto perm = topo_rng_->Permutation(
          static_cast<std::size_t>(config_->num_nodes));
      for (int b = 0; b < brokers; ++b) {
        broker_ids.push_back(static_cast<sim::NodeId>(perm[b]));
      }
      std::vector<sim::NodeId> assignment(
          static_cast<std::size_t>(config_->num_nodes));
      for (sim::NodeId n = 0; n < config_->num_nodes; ++n) {
        const bool is_broker = std::find(broker_ids.begin(),
                                         broker_ids.end(),
                                         n) != broker_ids.end();
        assignment[static_cast<std::size_t>(n)] =
            is_broker ? n
                      : broker_ids[topo_rng_->Choice(broker_ids.size())];
      }
      ctx.fed->SetTopology(sim::Topology::FromAssignment(assignment));
    }
  }

  std::vector<sim::Task> GenerateArrivals(
      simkern::StepContext& ctx) override {
    return workload_->Generate(ctx.interval, ctx.fed->now_s());
  }

  void Observe(simkern::StepContext&,
               const sim::IntervalResult& r) override {
    trace_->push_back(workload::MakeTraceRecord(r.snapshot));
  }

 private:
  const RunConfig* config_;
  int shuffle_every_;
  workload::WorkloadGenerator* workload_;
  common::Rng* topo_rng_;
  workload::Trace* trace_;
};

}  // namespace

std::vector<double> RunResult::PerAppP90(std::size_t num_apps) const {
  std::vector<std::vector<double>> per_app(num_apps);
  for (std::size_t i = 0; i < all_responses.size(); ++i) {
    const auto app = static_cast<std::size_t>(all_response_apps[i]);
    if (app < num_apps) per_app[app].push_back(all_responses[i]);
  }
  std::vector<double> p90(num_apps, 0.0);
  for (std::size_t a = 0; a < num_apps; ++a) {
    p90[a] = common::Percentile(per_app[a], 90.0);
  }
  return p90;
}

RunResult FederationRuntime::Run(core::ResilienceModel& model) {
  common::Rng master(config_.seed);
  // Tiled sites for any fleet size (H >= 64 federations keep the
  // testbed's per-site heterogeneity instead of a flat 4 GB tail).
  auto specs = sim::ScaledTestbedSpecs(config_.num_nodes);
  sim::Federation fed(specs,
                      sim::Topology::Initial(config_.num_nodes,
                                             config_.num_brokers),
                      config_.sim, master.Fork());

  auto profiles = ProfilesFor(config_);
  workload::WorkloadGenerator workload(profiles, config_.workload,
                                       master.Fork());
  if (!config_.deadline_overrides.empty()) {
    workload.OverrideDeadlines(config_.deadline_overrides);
  }
  faults::FaultInjector injector(config_.faults, master.Fork());
  sim::LeastUtilizationScheduler scheduler;

  RunResult result;
  result.model_name = model.name();

  ExperimentHooks hooks(model, workload, injector, result);
  simkern::IntervalStepper stepper(fed, scheduler, hooks);
  stepper.Run(config_.intervals);

  result.total_tasks = workload.total_generated();
  result.failures_injected = injector.total_failures_caused();
  result.total_energy_kwh = fed.total_energy_kwh();
  result.avg_response_s = common::Mean(result.all_responses);
  result.slo_violation_rate =
      result.completed > 0
          ? static_cast<double>(result.violated) / result.completed
          : 0.0;
  result.avg_decision_time_s =
      hooks.decision_time_total() / std::max(1, config_.intervals);
  result.memory_mb = model.MemoryFootprintMb();
  result.memory_percent =
      100.0 * result.memory_mb / config_.memory_reference_mb;
  return result;
}

workload::Trace CollectTrainingTrace(const RunConfig& config,
                                     int shuffle_every) {
  common::Rng master(config.seed);
  auto specs = sim::ScaledTestbedSpecs(config.num_nodes);
  sim::Federation fed(specs,
                      sim::Topology::Initial(config.num_nodes,
                                             config.num_brokers),
                      config.sim, master.Fork());
  workload::WorkloadGenerator workload(workload::DeFogProfiles(),
                                       config.workload, master.Fork());
  sim::LeastUtilizationScheduler scheduler;
  common::Rng topo_rng = master.Fork();

  workload::Trace trace;
  TraceHooks hooks(config, shuffle_every, workload, topo_rng, trace);
  simkern::IntervalStepper stepper(fed, scheduler, hooks);
  stepper.Run(config.intervals);
  return trace;
}

std::vector<double> CalibrateRelativeSlo(core::ResilienceModel& reference,
                                         const RunConfig& config) {
  RunConfig calib = config;
  calib.deadline_overrides.clear();
  FederationRuntime runtime(calib);
  const RunResult result = runtime.Run(reference);
  const std::size_t num_apps = ProfilesFor(config).size();
  std::vector<double> deadlines = result.PerAppP90(num_apps);
  // Apps with no completions keep their default profile deadline.
  const auto profiles = ProfilesFor(config);
  for (std::size_t a = 0; a < num_apps; ++a) {
    if (deadlines[a] <= 0.0) deadlines[a] = profiles[a].deadline_s;
  }
  return deadlines;
}

}  // namespace carol::harness
