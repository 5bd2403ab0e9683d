// Multi-tenant resilience serving (the ROADMAP's multi-federation
// sharding item): one ResilienceService owns N concurrent federation
// *sessions* and a sharded pool of GON worker replicas, replacing the
// implicit "one model object == one federation" contract of the
// single-model path.
//
// Architecture:
//   * Sessions hold the per-federation controller state (feature
//     encoder, POT confidence gate, running dataset Gamma, repair rng).
//     They are cheap; the expensive state — the GON surrogate — is
//     shared by every session.
//   * Workers each own a full GonModel replica (GonModel is not
//     thread-safe; see src/core/gon.h). Replicas are architecturally
//     identical clones of a master model: initial weights coincide by
//     seeded construction, and after a confidence-triggered fine-tune on
//     the master the new weights are re-broadcast lazily via an epoch
//     check + nn::CopyParameters before a replica serves its next step.
//   * Repairs run as resumable pipelines (core::RepairJob) over an
//     event-driven step scheduler: a worker executes one pipeline step,
//     the step deposits the session's candidate frontier into a shared
//     pending-score pool, and whichever worker next runs out of compute
//     steps flushes the WHOLE pool as stacked GenerateBatch passes
//     (bucketed by host count inside the GON). Frontiers from N
//     concurrently-repairing sessions therefore share kernel passes with
//     ZERO linger: nothing ever waits on a wall clock, a session's next
//     step is scheduled the moment its scores return.
//
// Determinism: repair planning runs the same core::RepairJob /
// ScoreTopologiesWith code as CarolModel with per-session rng streams,
// and batched GON passes are exactly equal to sequential ones, so the
// topology decisions of a session are bit-identical to a single
// CarolModel driven with the same inputs — independent of worker count,
// pipeline step interleaving and batch composition. The one caveat is
// weight mutation: fine-tunes from concurrent sessions interleave
// nondeterministically because the surrogate is shared (see
// src/serve/README.md).
#ifndef CAROL_SERVE_SERVICE_H_
#define CAROL_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/carol.h"
#include "core/resilience.h"
#include "obs/metrics.h"

namespace carol::common {
class BinaryReader;
class BinaryWriter;
}  // namespace carol::common

namespace carol::serve {

using SessionId = std::uint64_t;

// Typed admission-control rejection: thrown by Repair/Observe when the
// service already holds ServiceConfig::max_pending_requests admitted
// (queued or in-flight) requests, or when one session exceeds its
// ServiceConfig::max_pending_per_session quota. Callers distinguish
// overload from the generic shutdown std::runtime_error and may retry
// with backoff (the request was never admitted — retrying is safe).
class ServiceOverloadedError : public std::runtime_error {
 public:
  explicit ServiceOverloadedError(std::size_t limit)
      : std::runtime_error(
            "ResilienceService: request rejected, " +
            std::to_string(limit) + " requests already pending"),
        limit_(limit) {}
  ServiceOverloadedError(std::size_t limit, SessionId session)
      : std::runtime_error("ResilienceService: session " +
                           std::to_string(session) + " already holds " +
                           std::to_string(limit) + " pending requests"),
        limit_(limit) {}
  std::size_t limit() const { return limit_; }

 private:
  std::size_t limit_;
};

// Typed deadline rejection: the request's deadline_us budget elapsed
// before the service finished (or even started) it. Deadlines NEVER drop
// requests silently — every expiry surfaces as this error and is counted
// in ServiceStats::timeouts. NOT safe to blind-retry on the repair path:
// a repair that timed out mid-search has consumed session rng draws, so
// a retried run is a fresh decision, not a bit-identical replay.
class ServiceTimeoutError : public std::runtime_error {
 public:
  ServiceTimeoutError()
      : std::runtime_error(
            "ResilienceService: request deadline exceeded before "
            "completion") {}
};

// Typed drain rejection: the service is draining for a snapshot (see
// BeginDrain). Requests rejected or unwound with this error were either
// never started or parked with their full state captured — re-issuing
// the SAME request against the restored service resumes bit-identically,
// so retrying after restore is always safe.
class ServiceSuspendedError : public std::runtime_error {
 public:
  ServiceSuspendedError()
      : std::runtime_error(
            "ResilienceService: draining for snapshot; re-issue the "
            "request after restore") {}
};

// Per-federation serving contract. The nested `carol.gon` sub-config is
// ignored: sessions share the service's surrogate (ServiceConfig::gon).
struct FederationSpec {
  std::string name = "federation";
  core::CarolConfig carol;
};

struct ServiceConfig {
  // The shared surrogate: master + one replica per worker are all built
  // from this config (same seed => identical initial weights).
  core::GonConfig gon;
  // Worker shards. Each owns a GonModel replica and serves any session.
  int num_workers = 4;
  // Must be 1: every scoring pass runs on its worker's own thread, and
  // any other value makes the constructor throw std::invalid_argument.
  // The field stays only so callers that set it keep compiling.
  int attention_threads = 1;
  // Admission control (backpressure): maximum number of admitted-but-
  // unfinished requests — queued plus in flight, across all sessions.
  // 0 = unbounded (the historical behavior). When the bound is hit,
  // admission is PRIORITY-AWARE (graceful degradation): an arriving
  // Observe is rejected with ServiceOverloadedError, while an arriving
  // Repair first displaces the newest queued Observe (whose caller gets
  // the overload error instead) and is only rejected when the backlog
  // is all repairs — Observe load sheds first, repairs shed last.
  std::size_t max_pending_requests = 0;
  // Per-tenant quota: maximum admitted-but-unfinished requests any ONE
  // session may hold (0 = unbounded). Stops a single chatty tenant from
  // monopolizing the global budget; rejections throw
  // ServiceOverloadedError and count as ServiceStats::quota_rejections.
  std::size_t max_pending_per_session = 0;
  // Observability (src/obs): per-stage latency histograms (sharded per
  // worker, relaxed atomics — never the service lock) and the
  // repair-path DecisionTrace ring. Determinism-neutral: timestamps are
  // only ever RECORDED, never branched on, so decisions are bit-identical
  // with this on or off (pinned by tests/obs_test.cpp). When false,
  // MetricsSnapshot() still reports every ServiceStats counter (they are
  // the service's own accounting, always on) but histograms/traces stay
  // empty and the hot path takes zero extra clock reads.
  bool observability = true;
  // Bounded capacity of the DecisionTrace ring (completed repairs;
  // oldest retired first).
  std::size_t trace_capacity = 256;
};

// Scoped-repair mode for one request: plan on the subgraph-extracted
// affected region (core::RepairSubgraph) instead of the full federation.
// `hints` seed optional LEIs in priority order — the caller-side kernel
// knows which hosts are dirty/engaged (simkern::RepairScopeHints); the
// service itself only sees snapshots. Attaching a scope to a request IS
// the opt-in: `options.enabled` is not consulted here (that flag gates
// the single-model CarolModel path). Frontiers of a scoped repair are
// H_sub-node states, so mixed scoped/unscoped traffic stacks through the
// pipeline's existing per-H bucketing. It is the scope core::RepairJob
// takes (core/subgraph.h).
using RepairScope = core::RepairScope;

struct RepairRequest {
  sim::Topology current;
  std::vector<sim::NodeId> failed_brokers;
  sim::SystemSnapshot snapshot;
  // Deadline budget in microseconds from submission (0 = none). On
  // expiry — queued or between pipeline steps — the call fails with
  // ServiceTimeoutError instead of silently dropping.
  std::int64_t deadline_us = 0;
  // When set, the repair runs in scoped (subgraph-extracted) mode.
  std::optional<RepairScope> scope;
};

struct RepairResponse {
  sim::Topology topology;
  // D(M_t, S_t, G_repaired): the surrogate's confidence in the tuple
  // under the returned topology.
  double confidence = 0.0;
  // Service-side decision latency (planning + confidence), the paper's
  // headline per-interval metric.
  std::int64_t decision_ns = 0;
};

struct ObserveRequest {
  sim::SystemSnapshot snapshot;
  // Deadline budget in microseconds from submission (0 = none).
  std::int64_t deadline_us = 0;
};

struct ObserveResponse {
  double confidence = 0.0;
  double threshold = 0.0;
  bool fine_tuned = false;
  std::int64_t observe_ns = 0;
};

struct ServiceStats {
  std::uint64_t repairs = 0;
  std::uint64_t observes = 0;
  std::uint64_t finetunes = 0;
  // Proactive (no-failure) re-optimizations across all sessions.
  std::uint64_t proactive_optimizations = 0;
  // Pipeline scheduler: GON generation kernel passes flushed from the
  // pending-score pool, the frontier jobs they carried, and the total
  // candidate states scored. The cross-session *stacking ratio* is
  // pipeline_jobs / pipeline_passes — 1.0 means every pass carried a
  // single session's frontier, 2.0 means two sessions shared each pass
  // on average (see src/serve/README.md).
  std::uint64_t pipeline_passes = 0;
  std::uint64_t pipeline_jobs = 0;
  std::uint64_t pipeline_states = 0;
  // Final per-decision confidence scoring, stacked into the same flush
  // pass: Discriminate kernel passes run (one per H bucket per flush)
  // and the decisions they scored. confidence_jobs > confidence_passes
  // means concurrent decisions shared confidence kernels — the
  // confidence gate no longer issues lone per-decision kernel calls.
  std::uint64_t confidence_passes = 0;
  std::uint64_t confidence_jobs = 0;
  std::uint64_t weight_epoch = 0;
  // Admission / degradation accounting. Every counter below corresponds
  // to EXACTLY ONE typed error delivered to a caller — never a silent
  // drop — so client-side retry accounting reconciles with these.
  // Observes rejected (or displaced by an arriving repair) at the
  // max_pending_requests bound.
  std::uint64_t shed_observes = 0;
  // Repairs rejected at the bound because the backlog was all repairs.
  std::uint64_t shed_repairs = 0;
  // Requests rejected at the per-session max_pending_per_session quota.
  std::uint64_t quota_rejections = 0;
  // Requests failed with ServiceTimeoutError (deadline_us elapsed).
  std::uint64_t timeouts = 0;
  // Requests rejected or unwound with ServiceSuspendedError during a
  // drain (including parked in-flight repairs).
  std::uint64_t suspended = 0;
};

class ResilienceService {
 public:
  explicit ResilienceService(const ServiceConfig& config);
  // Restore constructors: build a fresh service (workers, replicas) from
  // `config`, then load a SaveSnapshot image — master weights + weight
  // epoch, every session (config, rng stream, confidence-gate state,
  // any parked mid-repair search) and the session-id counter. Driving
  // the restored service with the same requests the original would have
  // received produces bit-identical decisions (see src/serve/README.md
  // for the format versioning policy). Throws common::BinaryFormatError
  // on foreign/truncated input.
  ResilienceService(const ServiceConfig& config, std::istream& snapshot);
  ResilienceService(const ServiceConfig& config,
                    const std::string& snapshot_path);
  ~ResilienceService();

  ResilienceService(const ResilienceService&) = delete;
  ResilienceService& operator=(const ResilienceService&) = delete;

  // --- session lifecycle -----------------------------------------------
  SessionId OpenSession(const FederationSpec& spec);
  void CloseSession(SessionId id);
  std::size_t session_count() const;

  // --- the decision API ------------------------------------------------
  // Both calls block until the request has been served. Calls for the
  // SAME session are serialized internally; issue them from one client
  // thread per session if request order matters.
  RepairResponse Repair(SessionId id, const RepairRequest& request);
  ObserveResponse Observe(SessionId id, const ObserveRequest& request);
  // Zero-copy overloads (SessionModel's per-interval hot path): the
  // arguments are borrowed for the duration of the blocking call.
  // `scope`, when non-null, selects scoped (subgraph-extracted) repair —
  // see RepairScope; it too is only borrowed.
  RepairResponse Repair(SessionId id, const sim::Topology& current,
                        const std::vector<sim::NodeId>& failed_brokers,
                        const sim::SystemSnapshot& snapshot,
                        std::int64_t deadline_us = 0,
                        const RepairScope* scope = nullptr);
  ObserveResponse Observe(SessionId id, const sim::SystemSnapshot& snapshot,
                          std::int64_t deadline_us = 0);

  // --- crash-safe serving: drain, snapshot, restore --------------------
  // Stops admitting new requests (they fail with ServiceSuspendedError),
  // fails every queued-but-unstarted request the same way, and parks
  // each in-flight pipelined repair at its next step boundary: the
  // job's complete search state (tabu lists, pending frontier, phase,
  // rng position) is captured inside the session and the blocked caller
  // gets ServiceSuspendedError. Re-issuing the same request after a
  // restore resumes the search bit-identically.
  void BeginDrain();
  // Blocks until nothing is queued, ready, awaiting scores or in flight
  // — the quiescent state SaveSnapshot requires. Call after BeginDrain
  // (or at any externally-guaranteed quiet point, e.g. the scenario
  // driver's interval barrier).
  void WaitDrained();
  // Serializes the complete service state ("carol-snap" v1, versioned
  // binary; see src/serve/README.md). Throws std::logic_error unless
  // the service is quiescent.
  void SaveSnapshot(std::ostream& out) const;
  void SaveSnapshot(const std::string& path) const;

  // --- shared-surrogate management -------------------------------------
  // Offline-trains the master on the trace Lambda and broadcasts the new
  // weights. Call before opening traffic (it blocks the master).
  std::vector<core::EpochStats> TrainOffline(const workload::Trace& trace,
                                             int max_epochs = 30);
  // Loads pretrained weights (a "carol-params-bin" image, see
  // nn/serialize.h) into the master and broadcasts them. A failed load
  // throws and leaves the master's weights and the weight epoch unchanged.
  void LoadWeights(const std::string& path);
  // Checkpoints the master weights under the master lock — safe while
  // traffic (and therefore fine-tuning) is flowing.
  void SaveWeights(const std::string& path);

  // --- introspection ---------------------------------------------------
  // Setup/test access to the master model. NOT synchronized: weights
  // mutate under the internal master lock whenever a session fine-tunes,
  // so only touch this while no traffic is flowing (use SaveWeights for
  // live checkpoints).
  core::GonModel& master_gon() { return *master_; }
  std::uint64_t weight_epoch() const {
    return weight_epoch_.load(std::memory_order_acquire);
  }
  ServiceStats stats() const;
  // --- observability ---------------------------------------------------
  // Merged point-in-time metrics view: every ServiceStats counter (the
  // two reconcile exactly — same atomics), liveness gauges, and — when
  // ServiceConfig::observability is on — the per-stage latency
  // histograms merged across worker shards. Safe to poll while traffic
  // flows.
  obs::MetricsSnapshot MetricsSnapshot() const;
  // The retained window of completed repair-path span traces, oldest
  // first (empty with observability off).
  std::vector<obs::DecisionTrace> DecisionTraces() const;
  // Master + replicas + per-session Gamma budgets, in MB.
  double MemoryFootprintMb() const;
  const ServiceConfig& config() const { return config_; }

  // Stops accepting new work, drains every accepted request (including
  // every step of in-flight repair pipelines), joins the workers.
  // Idempotent; the destructor calls it.
  void Shutdown();

 private:
  struct Session;
  struct Worker;
  struct RepairPipeline;
  struct ParkedRepair;
  struct Obs;

  // A queued request start with its session attached, so the scheduler
  // can hold back requests of sessions that already have a request in
  // flight (per-session FIFO without parking a worker). The admission
  // class (is_repair), deadline and failure path ride along so the
  // scheduler can shed, expire and drain queued requests with typed
  // errors without running them.
  struct QueuedJob {
    std::shared_ptr<Session> session;
    std::function<void(Worker&)> run;
    bool is_repair = false;
    // Absolute expiry (default-constructed = no deadline).
    std::chrono::steady_clock::time_point deadline{};
    // Fails the blocked caller without running the request (shed /
    // timeout / drain). Must be callable from any thread.
    std::function<void(std::exception_ptr)> fail;
  };

  std::shared_ptr<Session> FindSession(SessionId id) const;
  void Enqueue(std::shared_ptr<Session> session,
               std::function<void(Worker&)> run, bool is_repair,
               std::chrono::steady_clock::time_point deadline,
               std::function<void(std::exception_ptr)> fail);
  void WorkerLoop(Worker& worker);
  // Copies master weights into the worker's replica if its epoch is
  // stale; replicas only ever sync at step boundaries.
  void SyncReplica(Worker& worker);

  // --- pipeline steps (see WorkerLoop for the scheduling policy) -------
  // Every kernel call of a pipelined repair now happens inside a flush,
  // so the start/advance steps are pure controller transitions and take
  // no worker: they only build/advance the job and park encoded work.
  // First step of a repair: builds the RepairJob and deposits the first
  // frontier (or, when there is nothing to search, the final-confidence
  // request).
  void StartRepairPipeline(const std::shared_ptr<RepairPipeline>& pipe);
  // Resumed step: feeds returned scores into the job, then deposits the
  // next frontier or the final-confidence request.
  void AdvanceRepairPipeline(const std::shared_ptr<RepairPipeline>& pipe,
                             const std::vector<double>& scores);
  // Deposits the pipeline into the pending-score pool — or, during a
  // drain, captures its job state into the session (ParkedRepair) and
  // unwinds the caller with ServiceSuspendedError.
  void ParkOrSubmit(const std::shared_ptr<RepairPipeline>& pipe);
  // Encodes the job's pending frontier and parks it in the pending-score
  // pool for the next flush.
  void SubmitFrontier(const std::shared_ptr<RepairPipeline>& pipe);
  // Final pipeline step: encodes the decided topology and parks the
  // pipeline in the pending pool for its confidence score — the
  // per-decision Discriminate calls ride the SAME flush pass as the
  // frontier scoring, stacked across sessions, instead of issuing lone
  // kernel calls.
  void SubmitConfidence(const std::shared_ptr<RepairPipeline>& pipe);
  // Scores EVERYTHING in the pending pool on this worker's replica —
  // frontier jobs as stacked GenerateBatch passes, finished decisions as
  // stacked DiscriminateBatch passes — then schedules continuations and
  // completes responses. Called with `lock` held; unlocks while running
  // kernels.
  void FlushPendingScores(std::unique_lock<std::mutex>& lock,
                          Worker& worker);
  // Marks the session idle again and wakes the scheduler.
  void FinishRequest(Session& session);
  // Fails expired queued requests with ServiceTimeoutError. Called by
  // the worker loop with `lock` held; unlocks to deliver the errors.
  // Returns true when anything expired (the caller rescans).
  bool ExpireQueuedDeadlines(std::unique_lock<std::mutex>& lock);
  // Loads a SaveSnapshot image into this freshly-built service.
  void RestoreFromSnapshot(std::istream& in);
  static void WriteSession(common::BinaryWriter& w, const Session& session);
  std::shared_ptr<Session> ReadSession(common::BinaryReader& r);

  // An observation is a single step (no frontier to stack): confidence,
  // POT update, Gamma bookkeeping, maybe a fine-tune of the master.
  ObserveResponse DoObserve(Session& session,
                            const sim::SystemSnapshot& snapshot,
                            Worker& worker);

  ServiceConfig config_;

  // Master model: the only GonModel whose weights mutate (fine-tunes,
  // offline training, weight loads) — always under master_mu_.
  mutable std::mutex master_mu_;
  std::unique_ptr<core::GonModel> master_;
  std::atomic<std::uint64_t> weight_epoch_{0};

  std::vector<std::unique_ptr<Worker>> workers_;

  // Scheduler state, all guarded by queue_mu_: queued request starts,
  // ready-to-run resumed steps, the pending-score pool and the count of
  // requests currently in flight (a request stays in flight across all
  // of its pipeline steps).
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<QueuedJob> queue_;
  std::deque<std::function<void(Worker&)>> ready_;
  std::vector<std::shared_ptr<RepairPipeline>> pending_scores_;
  std::size_t inflight_ = 0;
  bool stopping_ = false;
  // Drain mode (BeginDrain): no admissions, in-flight pipelines park at
  // their next step boundary. Guarded by queue_mu_.
  bool draining_ = false;

  mutable std::mutex sessions_mu_;
  std::unordered_map<SessionId, std::shared_ptr<Session>> sessions_;
  std::atomic<SessionId> next_session_id_{1};

  // Timing instrumentation (ServiceConfig::observability): the sharded
  // histogram registry + trace ring. Null when observability is off —
  // every instrumentation site is gated on this one pointer.
  std::unique_ptr<Obs> obs_;

  std::mutex shutdown_mu_;
  bool shut_down_ = false;

  std::atomic<std::uint64_t> repairs_{0};
  std::atomic<std::uint64_t> observes_{0};
  std::atomic<std::uint64_t> finetunes_{0};
  std::atomic<std::uint64_t> proactives_{0};
  std::atomic<std::uint64_t> pipeline_passes_{0};
  std::atomic<std::uint64_t> pipeline_jobs_{0};
  std::atomic<std::uint64_t> pipeline_states_{0};
  std::atomic<std::uint64_t> confidence_passes_{0};
  std::atomic<std::uint64_t> confidence_jobs_{0};
  std::atomic<std::uint64_t> shed_observes_{0};
  std::atomic<std::uint64_t> shed_repairs_{0};
  std::atomic<std::uint64_t> quota_rejections_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> suspended_{0};
};

// Adapter: presents one service session as a core::ResilienceModel, so
// the existing harness (FederationRuntime, RunExperiment) and the
// baseline comparisons keep working unchanged on top of the service.
// Opens its session on construction and closes it on destruction.
class SessionModel : public core::ResilienceModel {
 public:
  SessionModel(ResilienceService& service, const FederationSpec& spec);
  ~SessionModel() override;

  std::string name() const override { return name_; }
  sim::Topology Repair(const sim::Topology& current,
                       const std::vector<sim::NodeId>& failed_brokers,
                       const sim::SystemSnapshot& snapshot) override;
  void Observe(const sim::SystemSnapshot& snapshot) override;
  double MemoryFootprintMb() const override;

  SessionId id() const { return id_; }
  // Per-decision service-side latency: bounded ring over the last
  // obs::LatencyRing::kDefaultCapacity Repair calls plus a histogram +
  // running count/sum over all of them — a year-long session no longer
  // grows a vector forever. harness::MakeSessionQos consumes this
  // directly (exact percentiles until the ring overflows, histogram
  // percentiles after).
  const obs::LatencyRing& decision_latency() const { return decision_ns_; }
  int finetune_count() const { return finetunes_; }

 private:
  ResilienceService* service_;
  SessionId id_;
  std::string name_;
  std::size_t gamma_capacity_;
  obs::LatencyRing decision_ns_;
  int finetunes_ = 0;
};

}  // namespace carol::serve

#endif  // CAROL_SERVE_SERVICE_H_
