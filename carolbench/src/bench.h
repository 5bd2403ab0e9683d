// carol_bench: the end-to-end + per-layer benchmark of the CAROL
// decision service. Shared declarations of the program, the workloads and
// the layer measurements. See carolbench/README.md for the workloads,
// the metrics and the span format.
#ifndef CAROLBENCH_BENCH_H_
#define CAROLBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/carol.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "sim/federation.h"

namespace carolbench {

using Clock = std::chrono::steady_clock;
using namespace carol;

struct Options {
  std::string workload;  // empty: every workload, one child process each
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string label = "unlabeled";
  std::string out_dir = ".bench_build/results";
};

inline double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline Clock::duration FromSeconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}
// Linear-interpolation percentile (common::Percentile); 0 when empty.
double Pct(const std::vector<double>& values, double p);
double Median(const std::vector<double>& values);
// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& values);
// Rate of back-to-back events of the given durations (per unit of
// duration), robust to slow stretches of the host: the median over
// `blocks` consecutive equal-count blocks of events / block duration.
double MedianBlockRate(const std::vector<double>& durations, int blocks);

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

// Everything one workload run produced: metrics, request accounting and
// every failed correctness check.
class Report {
 public:
  void EndToEnd(const std::string& name, double value, const std::string& unit,
                std::uint64_t samples);
  void Layer(const std::string& name, double value, const std::string& unit,
             std::uint64_t samples);
  // Decision quality (QoS) of the run, deterministic for a seed and a
  // commit; written by traced and untraced runs alike and judged by
  // bench_compare.py against its own absolute/relative bounds.
  void Quality(const std::string& name, double value, const std::string& unit,
               std::uint64_t samples);
  // Counts a failure of check `what` unless `ok`.
  void Check(bool ok, const std::string& what) {
    if (!ok) ++failures[what];
  }
  // Free-form facts for the results file (fingerprints, phase lengths).
  void Fact(const std::string& key, const std::string& value) {
    facts[key] = value;
  }

  bool correct() const { return failures.empty(); }

  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> layers;
  std::map<std::string, Metric> quality;
  std::map<std::string, std::string> facts;
  std::map<std::string, std::uint64_t> failures;  // check -> times failed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// Bench-side spans around each layer call, kept in memory and written as
// JSONL when the run ends. Times are nanoseconds since process start.
// Spans are added from one thread, after the load threads have joined.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  // Returns the new span's id (0 when disabled). `parent` 0 = root.
  std::uint64_t Add(const std::string& name, const std::string& trace_id,
                    std::uint64_t parent, Clock::time_point start,
                    Clock::time_point end);
  std::size_t size() const { return spans_.size(); }
  void WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string trace_id;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

// --- the serving planner shared by every workload ----------------------

// GON 32 wide, 2 layers, gat 16, 5 generation steps; `workers` workers,
// one attention thread. Observability (the service's own stage histograms
// and DecisionTrace ring) is on only in traced runs.
serve::ServiceConfig PlannerServiceConfig(int workers, bool observability);
// Tabu 3 iterations / 40 evaluations.
core::CarolConfig PlannerSessionConfig(unsigned seed,
                                       core::FineTunePolicy policy);
// TrainOffline on a fixed-seed 100-interval trace for 20 epochs.
void TrainPlanner(serve::ResilienceService& service);
// Runs `setup` `reps` times, each after an untimed `teardown` of the
// previous one; reports the median wall time as setup_s.
void MeasureSetup(int reps, Report& report,
                  const std::function<void()>& teardown,
                  const std::function<void()>& setup);

// Seed mixing: independent, reproducible streams per purpose.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt);
unsigned SessionSeed(std::uint64_t seed, int session);

// End-of-interval snapshots of a fault-free federation under the AIoT
// workload (the dense sim engine at H <= 128, event-driven above), plus
// what the sim produced while making them.
struct SnapshotPool {
  std::vector<sim::SystemSnapshot> snapshots;
  double wall_ms = 0.0;
  int intervals = 0;
  int completed = 0;
  int violated = 0;
  double energy_kwh = 0.0;
  double response_sum_s = 0.0;
};
SnapshotPool MakeSnapshotPool(int hosts, int brokers, int intervals,
                              std::uint64_t seed);
// A copy of a random pool snapshot with one broker failed, or two with
// probability 0.2 (marked dead in the snapshot).
struct RepairInput {
  sim::SystemSnapshot snapshot;
  std::vector<sim::NodeId> failed;
};
RepairInput MakeRepairInput(const SnapshotPool& pool, common::Rng& rng);
// A repair's failed brokers must no longer manage anyone.
bool FailedBrokersOrphaned(const sim::Topology& topology,
                           const std::vector<sim::NodeId>& failed);
// The sim.* layer metrics of a snapshot pool (the serve workloads run no
// sim during traffic; the pool is the sim work they stand on).
void ReportPoolSim(const SnapshotPool& pool, Report& report);

// --- core/gon layer replay ----------------------------------------------

struct ReplayRequest {
  const sim::Topology* current = nullptr;
  const std::vector<sim::NodeId>* failed = nullptr;
  const sim::SystemSnapshot* snapshot = nullptr;
  // Scoped (subgraph-extracted) repair when non-null.
  const std::vector<sim::NodeId>* scope_hints = nullptr;
};

struct ReplayDecision {
  sim::Topology topology;
  double confidence = 0.0;
};

// Per-layer time and work of replayed repairs.
struct ReplayTimings {
  std::uint64_t repairs = 0;
  std::uint64_t frontiers = 0;
  std::uint64_t states = 0;
  double encode_ms = 0.0;
  double generate_ms = 0.0;
  double tabu_ms = 0.0;
  double confidence_ms = 0.0;
  double discriminate_ms = 0.0;  // extra DiscriminateBatch over frontiers
  std::vector<double> repair_ms;
};

// Replays one session's repairs, in order, single-threaded through
// core::RepairJob (or ScopedRepairJob) with CarolModel-equivalent
// seeding: a fresh rng seeded with `session.seed`, a stateless feature
// encoder, and `gon` holding the service's master weights.
std::vector<ReplayDecision> ReplaySession(
    core::GonModel& gon, const core::CarolConfig& session,
    std::span<const ReplayRequest> requests, ReplayTimings& timings,
    SpanLog& spans, const std::string& trace_prefix);
// A GonModel with the planner architecture and `service`'s master
// weights. The service must be quiescent.
std::unique_ptr<core::GonModel> CloneMasterGon(
    serve::ResilienceService& service);
// core.* and gon.* layer metrics from replay timings, plus `full_reps`
// full-federation encodes + Discriminates of `full` (core.encode_ms_full,
// gon.discriminate_ms_full).
void ReportReplay(const ReplayTimings& timings, core::GonModel& gon,
                  const sim::SystemSnapshot& full, int full_reps,
                  Report& report);

// --- service-side layer metrics (traced runs) ---------------------------

// The service's stats, merged histograms and DecisionTraces, accumulated
// across every service instance a workload ran.
struct ServiceLayerTotals {
  serve::ServiceStats stats;
  std::map<std::string, obs::HistogramData> hist;
  std::vector<obs::DecisionTrace> traces;
  double busy_wall_s = 0.0;  // traffic period the busy fraction is over
  int workers = 0;
};
void AccumulateService(serve::ResilienceService& service, double wall_s,
                       ServiceLayerTotals& totals);
// serve.* metrics; `handoff_ms` holds client span - service total_ns per
// matched repair (empty where no client spans exist).
void ReportServiceLayers(const ServiceLayerTotals& totals,
                         const std::vector<double>& handoff_ms,
                         Report& report);

// --- workloads ----------------------------------------------------------

void RunServe(const Options& options, Report& report, SpanLog& spans);
void RunSoak(const Options& options, Report& report, SpanLog& spans);
void RunFleet(const Options& options, Report& report, SpanLog& spans);

// Peak resident set of this process, MB.
double PeakRssMb();

}  // namespace carolbench

#endif  // CAROLBENCH_BENCH_H_
