// Experiment harness: couples the federation simulator, workload
// generator, fault injector, failure detector, recovery manager, the
// underlying scheduler and a ResilienceModel into the paper's
// per-interval protocol, and measures the six evaluation metrics of
// Fig. 5: energy, response time, SLO violation rate, decision time,
// memory consumption and fine-tuning overhead.
#ifndef CAROL_HARNESS_RUNTIME_H_
#define CAROL_HARNESS_RUNTIME_H_

#include <string>
#include <vector>

#include "core/resilience.h"
#include "faults/detector.h"
#include "faults/injector.h"
#include "faults/recovery.h"
#include "sim/federation.h"
#include "sim/scheduler.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace carol::harness {

struct RunConfig {
  int intervals = 100;       // paper: 100 test intervals (8h20m)
  unsigned seed = 1;
  int num_nodes = 16;
  int num_brokers = 4;
  sim::SimConfig sim;
  workload::WorkloadConfig workload;
  faults::FaultInjectorConfig faults;
  // Test-time workloads use AIoTBench; offline traces use DeFog (§V-A).
  bool use_aiot = true;
  // Relative-SLO deadlines (one per app profile); empty = app defaults.
  std::vector<double> deadline_overrides;
  // Reference RAM for the memory-percent metric (8 GB broker node).
  double memory_reference_mb = 8192.0;
};

struct RunResult {
  std::string model_name;
  // --- the six Fig. 5 metrics ---
  double total_energy_kwh = 0.0;
  double avg_response_s = 0.0;
  double slo_violation_rate = 0.0;
  double avg_decision_time_s = 0.0;   // mean Repair() wall-clock
  double memory_percent = 0.0;
  double total_finetune_s = 0.0;      // summed Observe() wall-clock
  // --- supporting detail ---
  double memory_mb = 0.0;
  int completed = 0;
  int violated = 0;
  int total_tasks = 0;
  int failures_injected = 0;
  int broker_failures_detected = 0;
  std::vector<double> interval_energy_kwh;
  std::vector<double> interval_avg_response_s;
  std::vector<double> interval_slo_rate;
  std::vector<double> all_responses;
  std::vector<int> all_response_apps;

  // 90th-percentile response per app type (for relative-SLO calibration).
  std::vector<double> PerAppP90(std::size_t num_apps) const;
};

class FederationRuntime {
 public:
  explicit FederationRuntime(RunConfig config) : config_(std::move(config)) {}

  // Runs the full experiment with `model` making the resilience
  // decisions. Deterministic given the config seed.
  RunResult Run(core::ResilienceModel& model);

  const RunConfig& config() const { return config_; }

 private:
  RunConfig config_;
};

// Generates the offline training trace Lambda (paper §IV-D): DeFog
// workloads, no fault injection, topology re-randomized every
// `shuffle_every` intervals (1000 intervals / 100 topologies by default).
workload::Trace CollectTrainingTrace(const RunConfig& config,
                                     int shuffle_every = 10);

// Relative SLO (paper §V-B): deadlines are the 90th-percentile response
// time per application under `reference_model` (StepGAN in the paper).
// Returns one deadline per app profile of the configured workload.
std::vector<double> CalibrateRelativeSlo(core::ResilienceModel& reference,
                                         const RunConfig& config);

}  // namespace carol::harness

#endif  // CAROL_HARNESS_RUNTIME_H_
