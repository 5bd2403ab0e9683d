#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <span>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/binio.h"
#include "nn/serialize.h"

namespace carol::serve {

namespace {
using Clock = std::chrono::steady_clock;

std::int64_t NsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}
}  // namespace

// --- internal state -----------------------------------------------------

// A repair suspended mid-search by a drain: the complete resumable job
// state plus the request identity it belongs to. The original caller
// got ServiceSuspendedError; when the SAME request (same current
// topology, same failed-broker list — verified on resume) is re-issued
// against the restored service, the search continues from exactly this
// point. The snapshot itself is NOT stored: the re-issued request
// supplies it, and the captured state already embeds everything the
// search derived from it (alive mask, start topology, tabu state).
struct ResilienceService::ParkedRepair {
  std::vector<sim::NodeId> current;  // request topology, as assignment
  std::vector<sim::NodeId> failed;
  core::RepairJobState job;
  // Scoped (subgraph-extracted) repairs park the SUB-space job state
  // plus the scope that produced the extraction. Resume re-runs the
  // (deterministic) extraction from the re-issued request and restores
  // the job into it — the scope is part of the request identity.
  std::optional<RepairScope> scope;
};

// Per-federation controller state. Everything here is cheap; the GON
// surrogate is shared by every session (see header comment).
struct ResilienceService::Session {
  explicit Session(const FederationSpec& spec)
      : name(spec.name),
        cfg(spec.carol),
        gate(spec.carol),
        rng(spec.carol.seed) {
    // Serve sessions are long-running and nothing reads the Figure-2
    // series through the service API — don't grow it forever.
    gate.set_record_history(false);
  }

  SessionId id = 0;
  std::string name;
  core::CarolConfig cfg;
  core::FeatureEncoder encoder;
  core::ConfidenceGate gate;
  common::Rng rng;
  // True while a request of this session is in flight — from the moment
  // a worker pops its start step until its response promise is
  // satisfied, across every pipeline step in between. Guarded by the
  // service's queue_mu_. The scheduler holds back queued requests of
  // active sessions, so session work is exclusive AND in FIFO submission
  // order without a per-session lock that could park worker threads.
  bool active = false;
  // Admitted-but-unfinished requests of this session (the
  // max_pending_per_session quota counter). Guarded by queue_mu_.
  std::size_t pending = 0;
  // Mid-repair state captured by a drain, waiting for the request to be
  // re-issued. Guarded by queue_mu_.
  std::unique_ptr<ParkedRepair> parked;
};

// A worker shard: one thread, one GonModel replica. The replica is only
// ever touched by its own thread (plus the master-locked weight sync).
struct ResilienceService::Worker {
  std::unique_ptr<core::GonModel> replica;
  std::uint64_t epoch = 0;  // last weight epoch copied from the master
  // This worker's registry shard (worker i -> shard i + 1; shard 0 is
  // reserved for client/master threads). Recording into one's own shard
  // is what keeps the hot path lock- and contention-free.
  std::size_t obs_shard = 0;
  std::thread thread;
};

// Timing instrumentation (ServiceConfig::observability): one histogram
// registry sharded num_workers + 1 ways plus the bounded trace ring.
// Everything here is registered in the constructor, before any worker
// thread starts — the registry's "register before traffic" contract.
struct ResilienceService::Obs {
  obs::Registry registry;
  obs::TraceRing traces;
  // Request-level latency distributions.
  std::size_t h_repair_queue_ns;     // submit -> first step popped
  std::size_t h_repair_decision_ns;  // == RepairResponse::decision_ns
  std::size_t h_observe_queue_ns;    // submit -> observe step popped
  std::size_t h_observe_ns;          // == ObserveResponse::observe_ns
  // Pipeline stage distributions (one sample per completed repair).
  std::size_t h_encode_ns;
  std::size_t h_score_wait_ns;
  std::size_t h_splice_ns;
  std::size_t h_confidence_wait_ns;
  // Flush kernel distributions (one sample per stacked pass group).
  std::size_t h_flush_generate_ns;
  std::size_t h_flush_confidence_ns;

  Obs(std::size_t shards, std::size_t trace_capacity)
      : registry(shards), traces(trace_capacity) {
    h_repair_queue_ns = registry.AddHistogram("repair_queue_ns");
    h_repair_decision_ns = registry.AddHistogram("repair_decision_ns");
    h_observe_queue_ns = registry.AddHistogram("observe_queue_ns");
    h_observe_ns = registry.AddHistogram("observe_ns");
    h_encode_ns = registry.AddHistogram("repair_encode_ns");
    h_score_wait_ns = registry.AddHistogram("repair_score_wait_ns");
    h_splice_ns = registry.AddHistogram("repair_splice_ns");
    h_confidence_wait_ns = registry.AddHistogram("repair_confidence_wait_ns");
    h_flush_generate_ns = registry.AddHistogram("flush_generate_ns");
    h_flush_confidence_ns = registry.AddHistogram("flush_confidence_ns");
  }
};

// One in-flight pipelined repair: the resumable core::RepairJob (scoped
// or not) plus the request/response plumbing. The blocking caller owns
// the request pieces and the promise; steps reference the pipeline via
// shared_ptr. Fields are only ever touched by the single step currently
// executing for this pipeline — step hand-offs synchronize through
// queue_mu_.
struct ResilienceService::RepairPipeline {
  // Which scoring the parked pipeline is waiting for: its candidate
  // frontier (GenerateBatch) or — once the search finished — the final
  // per-decision confidence (DiscriminateBatch). Both ride the same
  // flush pass, so the confidence gate stacks across sessions too.
  enum class Stage { kSearch, kConfidence };

  std::shared_ptr<Session> session;
  const sim::Topology* current = nullptr;
  const std::vector<sim::NodeId>* failed = nullptr;
  const sim::SystemSnapshot* snapshot = nullptr;
  std::promise<RepairResponse>* promise = nullptr;
  Clock::time_point t0{};
  // Absolute deadline (default-constructed = none), checked at every
  // step boundary.
  Clock::time_point deadline{};
  std::optional<core::RepairJob> job;
  // The request's scope (owned — it must survive parking); the job reads
  // it only while it is constructed.
  std::optional<RepairScope> scope;
  Stage stage = Stage::kSearch;
  // The encoded pending frontier, parked in the pending-score pool.
  std::vector<core::EncodedState> contexts;
  // kConfidence: the decided topology's encoding + the response being
  // assembled (confidence filled by the flush).
  core::EncodedState final_state;
  RepairResponse response;
  // --- observability (only written when the service's obs layer is on;
  // same single-executing-step ownership as everything above — the
  // submit stamp is written by the client thread before Enqueue's
  // queue_mu_ handoff publishes the pipeline) ---
  Clock::time_point submit{};     // Repair() admission time
  Clock::time_point step_begin{}; // start of the current compute step
  Clock::time_point parked_at{};  // last ParkOrSubmit deposit time
  obs::DecisionTrace trace;       // stage accumulators, pushed at completion
};

// --- service ------------------------------------------------------------

ResilienceService::ResilienceService(const ServiceConfig& config)
    : config_(config) {
  if (config_.num_workers < 1) {
    throw std::invalid_argument("ResilienceService: num_workers must be >= 1");
  }
  if (config_.attention_threads != 1) {
    throw std::invalid_argument(
        "ResilienceService: attention_threads is retired and must be 1");
  }
  master_ = std::make_unique<core::GonModel>(config_.gon);
  if (config_.observability) {
    // Shard 0 belongs to client/master threads, worker i to shard i+1.
    // Built (and fully registered) before any worker thread starts.
    obs_ = std::make_unique<Obs>(
        static_cast<std::size_t>(config_.num_workers) + 1,
        config_.trace_capacity);
  }
  workers_.reserve(static_cast<std::size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    // Same config (and seed) as the master => identical initial weights,
    // so epoch 0 needs no copy.
    worker->replica = std::make_unique<core::GonModel>(config_.gon);
    worker->obs_shard = static_cast<std::size_t>(i) + 1;
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { WorkerLoop(*w); });
  }
}

ResilienceService::ResilienceService(const ServiceConfig& config,
                                     std::istream& snapshot)
    : ResilienceService(config) {
  try {
    RestoreFromSnapshot(snapshot);
  } catch (...) {
    Shutdown();  // the delegated ctor started workers; stop them
    throw;
  }
}

ResilienceService::~ResilienceService() { Shutdown(); }

void ResilienceService::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (shut_down_) return;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  shut_down_ = true;
}

void ResilienceService::WorkerLoop(Worker& worker) {
  std::unique_lock<std::mutex> lock(queue_mu_);
  for (;;) {
    queue_cv_.wait(lock, [&] {
      if (!ready_.empty() || !pending_scores_.empty()) return true;
      for (const QueuedJob& job : queue_) {
        if (!job.session->active) return true;
      }
      return stopping_ && queue_.empty() && inflight_ == 0;
    });
    // Scheduling policy, in priority order:
    //   0. expire queued requests whose deadline passed (typed failure,
    //      never a silent drop);
    //   1. resumed pipeline steps — they complete in-flight repairs and
    //      deposit fresh frontiers into the pending-score pool;
    //   2. new requests — the earliest queued REPAIR whose session is
    //      idle, then the earliest such Observe: repairs restore broken
    //      topologies and take precedence over routine confidence
    //      bookkeeping (still FIFO within each class, and a session
    //      already being served never parks this worker);
    //   3. a stacked scoring pass over EVERYTHING pending.
    // A worker only flushes when no compute step is runnable, so
    // frontiers pile up exactly while peers have other work — stacking
    // with zero wall-clock lingering.
    if (ExpireQueuedDeadlines(lock)) continue;
    if (!ready_.empty()) {
      std::function<void(Worker&)> step = std::move(ready_.front());
      ready_.pop_front();
      lock.unlock();
      step(worker);
      lock.lock();
      continue;
    }
    auto runnable = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->session->active) continue;
      if (it->is_repair) {
        runnable = it;
        break;
      }
      if (runnable == queue_.end()) runnable = it;
    }
    if (runnable != queue_.end()) {
      QueuedJob job = std::move(*runnable);
      queue_.erase(runnable);
      job.session->active = true;
      ++inflight_;
      lock.unlock();
      job.run(worker);
      lock.lock();
      continue;
    }
    if (!pending_scores_.empty()) {
      FlushPendingScores(lock, worker);  // unlocks while running kernels
      continue;
    }
    if (stopping_ && queue_.empty() && ready_.empty() &&
        pending_scores_.empty() && inflight_ == 0) {
      return;
    }
  }
}

void ResilienceService::Enqueue(std::shared_ptr<Session> session,
                                std::function<void(Worker&)> run,
                                bool is_repair, Clock::time_point deadline,
                                std::function<void(std::exception_ptr)> fail) {
  std::function<void(std::exception_ptr)> evicted;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      throw std::runtime_error("ResilienceService: shut down");
    }
    if (draining_) {
      suspended_.fetch_add(1, std::memory_order_relaxed);
      throw ServiceSuspendedError();
    }
    // Per-tenant quota first: one chatty session never gets to trigger
    // global shedding against everyone else's traffic.
    if (config_.max_pending_per_session > 0 &&
        session->pending >= config_.max_pending_per_session) {
      quota_rejections_.fetch_add(1, std::memory_order_relaxed);
      throw ServiceOverloadedError(config_.max_pending_per_session,
                                   session->id);
    }
    // Admission control: every admitted request is either still queued
    // or in flight (inflight_ covers all of a pipeline's steps), so
    // their sum is the service's total outstanding work. Rejecting here
    // — before the queue grows — is what bounds it. Shedding is
    // priority-aware: Observe load sheds first, repairs shed only when
    // the backlog holds nothing to displace.
    if (config_.max_pending_requests > 0 &&
        inflight_ + queue_.size() >= config_.max_pending_requests) {
      if (!is_repair) {
        shed_observes_.fetch_add(1, std::memory_order_relaxed);
        throw ServiceOverloadedError(config_.max_pending_requests);
      }
      // An arriving repair displaces the newest queued Observe (newest:
      // its caller has waited least), whose caller gets the overload
      // error instead.
      auto victim = queue_.end();
      for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
        if (!it->is_repair) {
          victim = std::next(it).base();
          break;
        }
      }
      if (victim == queue_.end()) {
        shed_repairs_.fetch_add(1, std::memory_order_relaxed);
        throw ServiceOverloadedError(config_.max_pending_requests);
      }
      shed_observes_.fetch_add(1, std::memory_order_relaxed);
      --victim->session->pending;
      evicted = std::move(victim->fail);
      queue_.erase(victim);
    }
    ++session->pending;
    queue_.push_back(QueuedJob{std::move(session), std::move(run), is_repair,
                               deadline, std::move(fail)});
  }
  queue_cv_.notify_all();
  if (evicted) {
    evicted(std::make_exception_ptr(
        ServiceOverloadedError(config_.max_pending_requests)));
  }
}

void ResilienceService::FinishRequest(Session& session) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    session.active = false;
    --session.pending;
    --inflight_;
  }
  queue_cv_.notify_all();
}

bool ResilienceService::ExpireQueuedDeadlines(
    std::unique_lock<std::mutex>& lock) {
  // Only queued (not-yet-started) requests expire here; running
  // pipelines check their own deadline at every step boundary.
  std::vector<std::function<void(std::exception_ptr)>> expired;
  const Clock::time_point now = Clock::now();
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->deadline != Clock::time_point{} && now >= it->deadline) {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      --it->session->pending;
      expired.push_back(std::move(it->fail));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  if (expired.empty()) return false;
  lock.unlock();
  for (auto& fail : expired) {
    fail(std::make_exception_ptr(ServiceTimeoutError()));
  }
  lock.lock();
  return true;
}

void ResilienceService::BeginDrain() {
  std::deque<QueuedJob> dropped;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      throw std::runtime_error("ResilienceService: shut down");
    }
    draining_ = true;
    dropped.swap(queue_);
    for (QueuedJob& job : dropped) --job.session->pending;
  }
  queue_cv_.notify_all();
  for (QueuedJob& job : dropped) {
    suspended_.fetch_add(1, std::memory_order_relaxed);
    job.fail(std::make_exception_ptr(ServiceSuspendedError()));
  }
}

void ResilienceService::WaitDrained() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_cv_.wait(lock, [&] {
    return queue_.empty() && ready_.empty() && pending_scores_.empty() &&
           inflight_ == 0;
  });
}

SessionId ResilienceService::OpenSession(const FederationSpec& spec) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      throw std::runtime_error("ResilienceService: shut down");
    }
  }
  auto session = std::make_shared<Session>(spec);
  const SessionId id = next_session_id_.fetch_add(1);
  session->id = id;
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.emplace(id, std::move(session));
  return id;
}

void ResilienceService::CloseSession(SessionId id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (sessions_.erase(id) == 0) {
    throw std::invalid_argument("ResilienceService: unknown session " +
                                std::to_string(id));
  }
}

std::size_t ResilienceService::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

std::shared_ptr<ResilienceService::Session> ResilienceService::FindSession(
    SessionId id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw std::invalid_argument("ResilienceService: unknown session " +
                                std::to_string(id));
  }
  return it->second;
}

void ResilienceService::SyncReplica(Worker& worker) {
  if (worker.epoch == weight_epoch_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(master_mu_);
  nn::CopyParameters(master_->network(), worker.replica->network());
  worker.epoch = weight_epoch_.load(std::memory_order_acquire);
}

namespace {

// Absolute expiry for a relative microsecond budget (0 = no deadline).
Clock::time_point DeadlineFor(std::int64_t deadline_us) {
  if (deadline_us <= 0) return Clock::time_point{};
  return Clock::now() + std::chrono::microseconds(deadline_us);
}

bool Expired(Clock::time_point deadline) {
  return deadline != Clock::time_point{} && Clock::now() >= deadline;
}

}  // namespace

RepairResponse ResilienceService::Repair(SessionId id,
                                         const RepairRequest& request) {
  return Repair(id, request.current, request.failed_brokers,
                request.snapshot, request.deadline_us,
                request.scope ? &*request.scope : nullptr);
}

RepairResponse ResilienceService::Repair(
    SessionId id, const sim::Topology& current,
    const std::vector<sim::NodeId>& failed_brokers,
    const sim::SystemSnapshot& snapshot, std::int64_t deadline_us,
    const RepairScope* scope) {
  const std::shared_ptr<Session> session = FindSession(id);
  // Effective scope: an explicit request scope wins; otherwise a session
  // whose CarolConfig enables scoped repair gets a hintless scope (the
  // failed LEIs plus budget fill — same default as CarolModel).
  std::optional<RepairScope> effective_scope;
  if (scope != nullptr) {
    effective_scope = *scope;
  } else if (session->cfg.scoped.enabled) {
    effective_scope = RepairScope{session->cfg.scoped, {}};
  }
  const Clock::time_point deadline = DeadlineFor(deadline_us);
  std::promise<RepairResponse> promise;
  auto future = promise.get_future();
  // The caller blocks on the future, so the request pieces and the
  // promise stay alive for every step of the pipeline — borrowing them
  // avoids copying the topology/snapshot.
  auto pipe = std::make_shared<RepairPipeline>();
  pipe->session = session;
  pipe->current = &current;
  pipe->failed = &failed_brokers;
  pipe->snapshot = &snapshot;
  pipe->promise = &promise;
  pipe->deadline = deadline;
  pipe->scope = std::move(effective_scope);
  if (obs_) {
    pipe->submit = Clock::now();
    pipe->trace.session = id;
    pipe->trace.scoped = pipe->scope.has_value();
  }
  Enqueue(
      session, [this, pipe](Worker&) { StartRepairPipeline(pipe); },
      /*is_repair=*/true, deadline, [pipe](std::exception_ptr e) {
        try {
          pipe->promise->set_exception(std::move(e));
        } catch (...) {
        }
      });
  return future.get();
}

ObserveResponse ResilienceService::Observe(SessionId id,
                                           const ObserveRequest& request) {
  return Observe(id, request.snapshot, request.deadline_us);
}

ObserveResponse ResilienceService::Observe(SessionId id,
                                           const sim::SystemSnapshot& snapshot,
                                           std::int64_t deadline_us) {
  const std::shared_ptr<Session> session = FindSession(id);
  const Clock::time_point deadline = DeadlineFor(deadline_us);
  std::promise<ObserveResponse> promise;
  auto future = promise.get_future();
  Enqueue(
      session,
      [this, session, &snapshot, &promise, deadline,
       submit = obs_ ? Clock::now() : Clock::time_point{}](Worker& worker) {
        if (obs_) {
          obs_->registry.Record(obs_->h_observe_queue_ns, worker.obs_shard,
                                static_cast<std::uint64_t>(NsSince(submit)));
        }
        ObserveResponse response;
        std::exception_ptr error;
        try {
          if (Expired(deadline)) {
            timeouts_.fetch_add(1, std::memory_order_relaxed);
            throw ServiceTimeoutError();
          }
          response = DoObserve(*session, snapshot, worker);
        } catch (...) {
          error = std::current_exception();
        }
        // Slot released before the caller wakes — see the Repair path.
        FinishRequest(*session);
        if (error) {
          promise.set_exception(std::move(error));
        } else {
          promise.set_value(std::move(response));
        }
      },
      /*is_repair=*/false, deadline, [&promise](std::exception_ptr e) {
        try {
          promise.set_exception(std::move(e));
        } catch (...) {
        }
      });
  return future.get();
}

// --- the repair pipeline (event-driven steps) ---------------------------

void ResilienceService::StartRepairPipeline(
    const std::shared_ptr<RepairPipeline>& pipe) {
  pipe->t0 = Clock::now();
  if (obs_) {
    // Queue wait ends here: a worker popped the start step. The encode
    // span of this step runs from t0 to the ParkOrSubmit deposit.
    pipe->trace.queue_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               pipe->t0 - pipe->submit)
                               .count();
    pipe->step_begin = pipe->t0;
  }
  if (Expired(pipe->deadline)) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    FinishRequest(*pipe->session);
    try {
      pipe->promise->set_exception(
          std::make_exception_ptr(ServiceTimeoutError()));
    } catch (...) {
    }
    return;
  }
  // A drain may have parked this session's previous repair mid-search;
  // the re-issued request picks the search up where it stopped.
  std::unique_ptr<ParkedRepair> parked;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    parked = std::move(pipe->session->parked);
  }
  try {
    if (parked && (parked->current != pipe->current->assignment() ||
                   parked->failed != *pipe->failed ||
                   parked->scope != pipe->scope)) {
      // Not the suspended request: put the state back and reject —
      // resuming under a different request would splice two searches.
      std::lock_guard<std::mutex> lock(queue_mu_);
      pipe->session->parked = std::move(parked);
      throw std::invalid_argument(
          "ResilienceService: session holds a parked repair for a "
          "different request; re-issue the suspended one first");
    }
    // A resumed job re-runs the (deterministic) extraction of a scoped
    // request and then continues from the parked state.
    pipe->job.emplace(*pipe->current, *pipe->failed, *pipe->snapshot,
                      pipe->session->cfg, &pipe->session->rng,
                      pipe->scope ? &*pipe->scope : nullptr,
                      parked ? &parked->job : nullptr);
    if (pipe->job->done()) {
      // Nothing failed and nothing to optimize (or an empty extraction):
      // only the confidence score remains — park it for the next
      // stacked flush.
      SubmitConfidence(pipe);
      return;
    }
    SubmitFrontier(pipe);
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    FinishRequest(*pipe->session);
    try {
      pipe->promise->set_exception(error);
    } catch (...) {
      // Promise already satisfied: the failure happened after the
      // response was delivered; nothing more to report.
    }
  }
}

void ResilienceService::AdvanceRepairPipeline(
    const std::shared_ptr<RepairPipeline>& pipe,
    const std::vector<double>& scores) {
  if (Expired(pipe->deadline)) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    FinishRequest(*pipe->session);
    try {
      pipe->promise->set_exception(
          std::make_exception_ptr(ServiceTimeoutError()));
    } catch (...) {
    }
    return;
  }
  try {
    if (obs_) {
      // The gap since ParkOrSubmit is time spent waiting for a stacked
      // flush plus scheduler handoff — the pipeline's "queueing inside
      // the search" span.
      const Clock::time_point now = Clock::now();
      pipe->trace.score_wait_ns +=
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - pipe->parked_at)
              .count();
      pipe->step_begin = now;
      pipe->job->Advance(scores);
      const Clock::time_point spliced = Clock::now();
      pipe->trace.splice_ns +=
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              spliced - pipe->step_begin)
              .count();
      pipe->step_begin = spliced;
    } else {
      pipe->job->Advance(scores);
    }
    if (pipe->job->done()) {
      SubmitConfidence(pipe);
      return;
    }
    SubmitFrontier(pipe);
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    FinishRequest(*pipe->session);
    try {
      pipe->promise->set_exception(error);
    } catch (...) {
    }
  }
}

// Shared tail of SubmitFrontier/SubmitConfidence: deposit the pipeline
// into the pending-score pool — or, when a drain started, capture the
// job's state into the session and unwind the caller with
// ServiceSuspendedError. The park happens at a step boundary (frontier
// proposed, scores not yet supplied), which is exactly the state
// core::RepairJobState round-trips bit-identically.
void ResilienceService::ParkOrSubmit(
    const std::shared_ptr<RepairPipeline>& pipe) {
  bool parked = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (draining_) {
      auto state = std::make_unique<ParkedRepair>();
      state->current = pipe->current->assignment();
      state->failed = *pipe->failed;
      state->job = pipe->job->SaveState();
      state->scope = pipe->scope;
      pipe->session->parked = std::move(state);
      parked = true;
    } else {
      pending_scores_.push_back(pipe);
    }
  }
  queue_cv_.notify_all();
  if (parked) {
    suspended_.fetch_add(1, std::memory_order_relaxed);
    FinishRequest(*pipe->session);
    try {
      pipe->promise->set_exception(
          std::make_exception_ptr(ServiceSuspendedError()));
    } catch (...) {
    }
  }
}

void ResilienceService::SubmitFrontier(
    const std::shared_ptr<RepairPipeline>& pipe) {
  // Encoding runs on the compute step (outside any lock); only the park
  // itself synchronizes. The next idle worker flushes the pool.
  pipe->stage = RepairPipeline::Stage::kSearch;
  // Scoped frontiers encode against the H_sub-row sub snapshot — the
  // GON never sees a full-H row — and stack with everything else via
  // the flush's per-H bucketing.
  pipe->contexts = core::EncodeFrontier(pipe->session->encoder,
                                        pipe->job->scoring_snapshot(),
                                        pipe->job->ProposeFrontier());
  if (obs_) {
    const Clock::time_point now = Clock::now();
    pipe->trace.encode_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now - pipe->step_begin)
            .count();
    pipe->trace.frontier_rounds += 1;
    pipe->trace.states_scored +=
        static_cast<std::uint32_t>(pipe->contexts.size());
    pipe->parked_at = now;
  }
  ParkOrSubmit(pipe);
}

void ResilienceService::SubmitConfidence(
    const std::shared_ptr<RepairPipeline>& pipe) {
  // The search is over: record the decision and park the pipeline for
  // its confidence score. Encoding runs here (a compute step); the
  // Discriminate itself is stacked with every other pending decision in
  // the next flush, so finished repairs never issue lone kernel calls.
  pipe->stage = RepairPipeline::Stage::kConfidence;
  pipe->response.topology = pipe->job->result();
  if (pipe->job->proactive_acted()) {
    proactives_.fetch_add(1, std::memory_order_relaxed);
  }
  // Confidence on the decision in the space it was planned in: a scoped
  // repair runs an H_sub Discriminate instead of a full-H one. When the
  // extraction covers the whole federation this is the identical
  // encoding, so the scoped confidence matches the unscoped one bit for
  // bit.
  pipe->final_state = pipe->session->encoder.EncodeForTopology(
      pipe->job->scoring_snapshot(), pipe->job->sub_result());
  if (obs_) {
    const Clock::time_point now = Clock::now();
    pipe->trace.encode_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now - pipe->step_begin)
            .count();
    pipe->parked_at = now;
  }
  ParkOrSubmit(pipe);
}

void ResilienceService::FlushPendingScores(
    std::unique_lock<std::mutex>& lock, Worker& worker) {
  std::vector<std::shared_ptr<RepairPipeline>> batch =
      std::move(pending_scores_);
  pending_scores_.clear();
  lock.unlock();
  SyncReplica(worker);
  // Partition the pool: frontiers awaiting a generation pass, finished
  // decisions awaiting their confidence score. Both kinds stack across
  // sessions inside this one flush.
  std::vector<std::shared_ptr<RepairPipeline>> searching;
  std::vector<std::shared_ptr<RepairPipeline>> finishing;
  for (std::shared_ptr<RepairPipeline>& pipe : batch) {
    if (pipe->stage == RepairPipeline::Stage::kSearch) {
      searching.push_back(std::move(pipe));
    } else {
      finishing.push_back(std::move(pipe));
    }
  }
  std::vector<std::vector<double>> all_scores(searching.size());
  bool flush_failed = false;
  std::exception_ptr error;
  try {
    if (!searching.empty()) {
      // One stacked generation pass over every parked frontier; the GON
      // buckets mixed host counts internally (one kernel pass per H).
      std::vector<const nn::Matrix*> inits;
      std::vector<const core::EncodedState*> ctxs;
      for (const std::shared_ptr<RepairPipeline>& pipe : searching) {
        for (const core::EncodedState& ctx : pipe->contexts) {
          inits.push_back(&ctx.m);
          ctxs.push_back(&ctx);
        }
      }
      const Clock::time_point gen_start =
          obs_ ? Clock::now() : Clock::time_point{};
      const std::vector<core::GenerationResult> gens =
          worker.replica->GenerateBatch(inits, ctxs);
      if (obs_) {
        obs_->registry.Record(obs_->h_flush_generate_ns, worker.obs_shard,
                              static_cast<std::uint64_t>(NsSince(gen_start)));
      }
      std::size_t pos = 0;
      for (std::size_t j = 0; j < searching.size(); ++j) {
        const RepairPipeline& pipe = *searching[j];
        all_scores[j].reserve(pipe.contexts.size());
        for (std::size_t c = 0; c < pipe.contexts.size(); ++c) {
          all_scores[j].push_back(core::QosObjective(
              gens[pos++].metrics, pipe.session->cfg.alpha,
              pipe.session->cfg.beta));
        }
      }
      // Stacking accounting: jobs of one host count share one kernel
      // pass.
      std::unordered_set<std::size_t> host_counts;
      std::uint64_t states = 0;
      for (const std::shared_ptr<RepairPipeline>& pipe : searching) {
        host_counts.insert(pipe->contexts.front().num_hosts());
        states += pipe->contexts.size();
      }
      pipeline_passes_.fetch_add(host_counts.size(),
                                 std::memory_order_relaxed);
      pipeline_jobs_.fetch_add(searching.size(), std::memory_order_relaxed);
      pipeline_states_.fetch_add(states, std::memory_order_relaxed);
    }
    if (!finishing.empty()) {
      // One stacked confidence pass over every finished decision
      // (bucketed by H inside DiscriminateBatch — exactly equal to the
      // lone Discriminate calls it replaces).
      std::vector<const core::EncodedState*> finals;
      std::unordered_set<std::size_t> host_counts;
      finals.reserve(finishing.size());
      for (const std::shared_ptr<RepairPipeline>& pipe : finishing) {
        finals.push_back(&pipe->final_state);
        host_counts.insert(pipe->final_state.num_hosts());
      }
      const Clock::time_point disc_start =
          obs_ ? Clock::now() : Clock::time_point{};
      const std::vector<double> confidences =
          worker.replica->DiscriminateBatch(
              std::span<const core::EncodedState* const>(finals));
      if (obs_) {
        obs_->registry.Record(obs_->h_flush_confidence_ns, worker.obs_shard,
                              static_cast<std::uint64_t>(NsSince(disc_start)));
      }
      for (std::size_t j = 0; j < finishing.size(); ++j) {
        finishing[j]->response.confidence = confidences[j];
      }
      confidence_passes_.fetch_add(host_counts.size(),
                                   std::memory_order_relaxed);
      confidence_jobs_.fetch_add(finishing.size(),
                                 std::memory_order_relaxed);
    }
  } catch (...) {
    flush_failed = true;
    error = std::current_exception();
  }
  if (flush_failed) {
    for (const auto* group : {&searching, &finishing}) {
      for (const std::shared_ptr<RepairPipeline>& pipe : *group) {
        FinishRequest(*pipe->session);
        try {
          pipe->promise->set_exception(error);
        } catch (...) {
        }
      }
    }
    lock.lock();
    return;
  }
  // Completed decisions answer right here; searching pipelines get their
  // next step scheduled. The admission slot is released BEFORE the
  // response is delivered so a woken client's immediate follow-up
  // request never races the accounting.
  for (const std::shared_ptr<RepairPipeline>& pipe : finishing) {
    pipe->response.decision_ns = NsSince(pipe->t0);
    repairs_.fetch_add(1, std::memory_order_relaxed);
    if (obs_) {
      // Completion: close the trailing spans, record this repair into
      // the worker's histogram shard and push the finished span trace.
      // All of it happens before FinishRequest so a woken client's next
      // request can never observe a missing sample.
      const Clock::time_point now = Clock::now();
      pipe->trace.confidence_wait_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - pipe->parked_at)
              .count();
      pipe->trace.total_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - pipe->submit)
              .count();
      const std::size_t shard = worker.obs_shard;
      obs_->registry.Record(
          obs_->h_repair_decision_ns, shard,
          static_cast<std::uint64_t>(pipe->response.decision_ns));
      obs_->registry.Record(
          obs_->h_repair_queue_ns, shard,
          static_cast<std::uint64_t>(pipe->trace.queue_ns));
      obs_->registry.Record(
          obs_->h_encode_ns, shard,
          static_cast<std::uint64_t>(pipe->trace.encode_ns));
      obs_->registry.Record(
          obs_->h_score_wait_ns, shard,
          static_cast<std::uint64_t>(pipe->trace.score_wait_ns));
      obs_->registry.Record(
          obs_->h_splice_ns, shard,
          static_cast<std::uint64_t>(pipe->trace.splice_ns));
      obs_->registry.Record(
          obs_->h_confidence_wait_ns, shard,
          static_cast<std::uint64_t>(pipe->trace.confidence_wait_ns));
      obs_->traces.Push(pipe->trace);
    }
    FinishRequest(*pipe->session);
    pipe->promise->set_value(std::move(pipe->response));
  }
  lock.lock();
  for (std::size_t j = 0; j < searching.size(); ++j) {
    ready_.push_back([this, pipe = searching[j],
                      scores = std::move(all_scores[j])](Worker&) {
      AdvanceRepairPipeline(pipe, scores);
    });
  }
  queue_cv_.notify_all();
}

// --- observations ------------------------------------------------------

ObserveResponse ResilienceService::DoObserve(
    Session& session, const sim::SystemSnapshot& snapshot, Worker& worker) {
  // Exclusive session access: the scheduler never serves two requests of
  // one session concurrently (Session::active).
  SyncReplica(worker);
  const auto start = Clock::now();
  const core::ConfidenceGate::Outcome outcome =
      session.gate.Observe(*worker.replica, session.encoder, snapshot);
  ObserveResponse response;
  response.confidence = outcome.confidence;
  response.threshold = outcome.threshold;
  if (outcome.finetune && !session.gate.gamma().empty()) {
    // Confidence breach: fine-tune the MASTER on this session's Gamma and
    // bump the weight epoch; every replica (including this worker's, right
    // here) re-syncs before serving its next step.
    std::lock_guard<std::mutex> master_lock(master_mu_);
    master_->FineTune(session.gate.gamma(), session.cfg.finetune_epochs);
    weight_epoch_.fetch_add(1, std::memory_order_release);
    if (session.cfg.policy == core::FineTunePolicy::kConfidence) {
      session.gate.ClearGamma();  // Algorithm 2 line 16
    }
    nn::CopyParameters(master_->network(), worker.replica->network());
    worker.epoch = weight_epoch_.load(std::memory_order_acquire);
    finetunes_.fetch_add(1, std::memory_order_relaxed);
    response.fine_tuned = true;
  }
  response.observe_ns = NsSince(start);
  observes_.fetch_add(1, std::memory_order_relaxed);
  if (obs_) {
    obs_->registry.Record(obs_->h_observe_ns, worker.obs_shard,
                          static_cast<std::uint64_t>(response.observe_ns));
  }
  return response;
}

// --- surrogate management / introspection -------------------------------

std::vector<core::EpochStats> ResilienceService::TrainOffline(
    const workload::Trace& trace, int max_epochs) {
  std::vector<core::EncodedState> data;
  data.reserve(trace.size());
  const core::FeatureEncoder encoder;
  for (const auto& record : trace) {
    data.push_back(encoder.EncodeRecord(record));
  }
  std::lock_guard<std::mutex> lock(master_mu_);
  auto stats = master_->Train(data, max_epochs);
  weight_epoch_.fetch_add(1, std::memory_order_release);
  return stats;
}

void ResilienceService::LoadWeights(const std::string& path) {
  std::lock_guard<std::mutex> lock(master_mu_);
  nn::LoadParameters(master_->network(), path);
  weight_epoch_.fetch_add(1, std::memory_order_release);
}

void ResilienceService::SaveWeights(const std::string& path) {
  std::lock_guard<std::mutex> lock(master_mu_);
  nn::SaveParameters(master_->network(), path);
}

// --- service snapshot ("carol-snap" v1) ---------------------------------
//
// Layout (all via common::BinaryWriter; see src/serve/README.md for the
// versioning policy):
//   header "carol-snap" v1
//   u64 weight_epoch
//   master parameters ("carol-params-bin" section)
//   u64 next_session_id, u64 session_count
//   per session (sorted by id): "carol-snap-session" section

namespace {

void WriteMatrix(common::BinaryWriter& w, const nn::Matrix& m) {
  w.U64(m.rows());
  w.U64(m.cols());
  w.Doubles(m.flat());
}

nn::Matrix ReadMatrix(common::BinaryReader& r) {
  const auto rows = static_cast<std::size_t>(r.U64());
  const auto cols = static_cast<std::size_t>(r.U64());
  std::vector<double> flat = r.Doubles();
  // rows * cols must not wrap: 2^32 x 2^32 would pass as 0 elements.
  if ((cols != 0 && rows > std::numeric_limits<std::size_t>::max() / cols) ||
      flat.size() != rows * cols) {
    throw common::BinaryFormatError("matrix element count mismatch");
  }
  return nn::Matrix::FromFlat(rows, cols, std::move(flat));
}

void WriteEncodedState(common::BinaryWriter& w,
                       const core::EncodedState& state) {
  WriteMatrix(w, state.m);
  WriteMatrix(w, state.s);
  WriteMatrix(w, state.roles);
  WriteMatrix(w, state.adjacency);
}

core::EncodedState ReadEncodedState(common::BinaryReader& r) {
  core::EncodedState state;
  state.m = ReadMatrix(r);
  state.s = ReadMatrix(r);
  state.roles = ReadMatrix(r);
  state.adjacency = ReadMatrix(r);
  return state;
}

// The full per-session CarolConfig travels with the snapshot so a
// restored session behaves identically even when the restoring binary's
// defaults drifted.
void WriteCarolConfig(common::BinaryWriter& w, const core::CarolConfig& c) {
  w.I32(c.gon.hidden_width);
  w.I32(c.gon.num_layers);
  w.I32(c.gon.gat_width);
  w.F64(c.gon.generation_lr);
  w.I32(c.gon.generation_steps);
  w.F64(c.gon.generation_tol);
  w.F64(c.gon.train_lr);
  w.F64(c.gon.weight_decay);
  w.I32(c.gon.batch_size);
  w.U64(c.gon.seed);
  w.Bool(true);  // retired GonConfig::use_fast_path; byte kept for format
  w.I32(1);      // retired GonConfig::attention_threads; kept for format
  w.F64(c.pot.risk);
  w.F64(c.pot.init_quantile);
  w.U64(c.pot.min_calibration);
  w.U64(c.pot.window);
  w.I32(c.tabu.tabu_list_size);
  w.I32(c.tabu.max_iterations);
  w.I32(c.tabu.max_evaluations);
  w.I32(c.node_shift.max_type1_pairs);
  w.I32(c.node_shift.max_reassignments);
  w.Bool(c.node_shift.include_demotions);
  w.F64(c.alpha);
  w.F64(c.beta);
  w.I32(static_cast<std::int32_t>(c.policy));
  w.I32(c.finetune_epochs);
  w.U64(c.gamma_capacity);
  w.U64(c.seed);
  w.Bool(c.proactive);
  w.F64(c.proactive_util_threshold);
  // Session-section v2: the scoped-repair sub-config.
  w.Bool(c.scoped.enabled);
  w.I32(c.scoped.max_hosts);
  w.Bool(c.scoped.fill_to_budget);
}

core::CarolConfig ReadCarolConfig(common::BinaryReader& r,
                                  std::uint32_t version) {
  core::CarolConfig c;
  c.gon.hidden_width = r.I32();
  c.gon.num_layers = r.I32();
  c.gon.gat_width = r.I32();
  c.gon.generation_lr = r.F64();
  c.gon.generation_steps = r.I32();
  c.gon.generation_tol = r.F64();
  c.gon.train_lr = r.F64();
  c.gon.weight_decay = r.F64();
  c.gon.batch_size = r.I32();
  c.gon.seed = static_cast<unsigned>(r.U64());
  r.Bool();  // retired fields, see WriteCarolConfig
  r.I32();
  c.pot.risk = r.F64();
  c.pot.init_quantile = r.F64();
  if (!std::isfinite(c.pot.init_quantile)) {
    throw common::BinaryFormatError("POT init quantile is not finite");
  }
  c.pot.min_calibration = static_cast<std::size_t>(r.U64());
  c.pot.window = static_cast<std::size_t>(r.U64());
  c.tabu.tabu_list_size = r.I32();
  c.tabu.max_iterations = r.I32();
  c.tabu.max_evaluations = r.I32();
  c.node_shift.max_type1_pairs = r.I32();
  c.node_shift.max_reassignments = r.I32();
  c.node_shift.include_demotions = r.Bool();
  c.alpha = r.F64();
  c.beta = r.F64();
  const std::int32_t policy = r.I32();
  if (policy < static_cast<std::int32_t>(core::FineTunePolicy::kConfidence) ||
      policy > static_cast<std::int32_t>(core::FineTunePolicy::kNever)) {
    throw common::BinaryFormatError("fine-tune policy out of range");
  }
  c.policy = static_cast<core::FineTunePolicy>(policy);
  c.finetune_epochs = r.I32();
  c.gamma_capacity = static_cast<std::size_t>(r.U64());
  c.seed = static_cast<unsigned>(r.U64());
  c.proactive = r.Bool();
  c.proactive_util_threshold = r.F64();
  if (version >= 2) {
    c.scoped.enabled = r.Bool();
    c.scoped.max_hosts = r.I32();
    c.scoped.fill_to_budget = r.Bool();
  }
  return c;
}

void WriteTabuSnapshot(common::BinaryWriter& w,
                       const core::TabuSearchSnapshot& s) {
  w.Ints(s.current);
  w.Ints(s.best);
  w.F64(s.best_score);
  w.Ints(s.tabu);
  w.U64(s.frontier.size());
  for (const std::vector<sim::NodeId>& candidate : s.frontier) {
    w.Ints(candidate);
  }
  w.I32(s.evaluations);
  w.I32(s.iter);
  w.Bool(s.start_pending);
  w.Bool(s.done);
}

core::TabuSearchSnapshot ReadTabuSnapshot(common::BinaryReader& r) {
  core::TabuSearchSnapshot s;
  s.current = r.Ints<sim::NodeId>();
  s.best = r.Ints<sim::NodeId>();
  s.best_score = r.F64();
  s.tabu = r.Ints<std::uint64_t>();
  const std::uint64_t frontier = r.U64();
  for (std::uint64_t i = 0; i < frontier; ++i) {
    s.frontier.push_back(r.Ints<sim::NodeId>());
  }
  s.evaluations = r.I32();
  s.iter = r.I32();
  s.start_pending = r.Bool();
  s.done = r.Bool();
  return s;
}

void WriteRepairJobState(common::BinaryWriter& w,
                         const core::RepairJobState& s) {
  w.Bools(s.alive);
  w.Ints(s.topo);
  w.U64(s.broker_idx);
  w.I32(s.phase);
  w.Bool(s.proactive_acted);
  w.U64(s.baseline.size());
  for (const std::vector<sim::NodeId>& g : s.baseline) w.Ints(g);
  w.Bool(s.has_search);
  if (s.has_search) WriteTabuSnapshot(w, s.search);
}

core::RepairJobState ReadRepairJobState(common::BinaryReader& r) {
  core::RepairJobState s;
  s.alive = r.Bools();
  s.topo = r.Ints<sim::NodeId>();
  s.broker_idx = r.U64();
  s.phase = r.I32();
  if (s.phase < 0 || s.phase > 3) {
    throw common::BinaryFormatError("repair job phase out of range");
  }
  s.proactive_acted = r.Bool();
  const std::uint64_t baseline = r.U64();
  for (std::uint64_t i = 0; i < baseline; ++i) {
    s.baseline.push_back(r.Ints<sim::NodeId>());
  }
  s.has_search = r.Bool();
  if (s.has_search) s.search = ReadTabuSnapshot(r);
  // A parked job resumes by scoring its proposed frontier, so reject the
  // shapes RepairJob cannot step from: a search phase (0 repair, 1
  // proactive) or the baseline phase (2) without a search, a search
  // phase whose search is finished or has nothing to score, a pending
  // start whose frontier is not one candidate (the incumbent), a
  // baseline that is not one candidate.
  const bool searching = s.phase == 0 || s.phase == 1;
  if (s.phase != 3 && !s.has_search) {
    throw common::BinaryFormatError("repair job phase without a search");
  }
  if (searching && (s.search.done || s.search.frontier.empty())) {
    throw common::BinaryFormatError(
        "repair job search has no frontier to score");
  }
  if (searching && s.search.start_pending && s.search.frontier.size() != 1) {
    throw common::BinaryFormatError(
        "repair job start frontier is not one candidate");
  }
  if (s.phase == 2 && s.baseline.size() != 1) {
    throw common::BinaryFormatError(
        "repair job baseline is not one candidate");
  }
  return s;
}

}  // namespace

void ResilienceService::WriteSession(common::BinaryWriter& w,
                                     const Session& session) {
  // v2 adds the scoped-repair fields of a parked repair (scope identity
  // + extraction options). v1 images (no scoped repairs possible) still
  // load; v2 images are rejected by v1 readers per the reject-forward
  // policy in src/serve/README.md.
  w.Header("carol-snap-session", 2);
  w.U64(session.id);
  w.String(session.name);
  WriteCarolConfig(w, session.cfg);
  // The mt19937_64 engine is the rng's ONLY state, and its stream
  // operators round-trip it exactly — the repair draws of a restored
  // session continue the original sequence.
  w.String(session.rng.SaveState());
  const core::ConfidenceGate::State gate = session.gate.SaveState();
  w.Doubles(gate.pot.history);
  w.F64(gate.pot.threshold);
  w.Bool(gate.pot.calibrated);
  w.U64(gate.pot.total_observations);
  w.U64(gate.gamma.size());
  for (const core::EncodedState& entry : gate.gamma) {
    WriteEncodedState(w, entry);
  }
  w.Bool(session.parked != nullptr);
  if (session.parked) {
    w.Ints(session.parked->current);
    w.Ints(session.parked->failed);
    WriteRepairJobState(w, session.parked->job);
    const std::optional<RepairScope>& scope = session.parked->scope;
    w.Bool(scope.has_value());
    if (scope) {
      w.I32(scope->options.max_hosts);
      w.Bool(scope->options.fill_to_budget);
      w.Ints(scope->hints);
    }
  }
}

std::shared_ptr<ResilienceService::Session> ResilienceService::ReadSession(
    common::BinaryReader& r) {
  const std::uint32_t version = r.Header("carol-snap-session", 2);
  const SessionId id = r.U64();
  FederationSpec spec;
  spec.name = r.String();
  spec.carol = ReadCarolConfig(r, version);
  auto session = std::make_shared<Session>(spec);
  session->id = id;
  session->rng.LoadState(r.String());
  core::ConfidenceGate::State gate;
  gate.pot.history = r.Doubles();
  gate.pot.threshold = r.F64();
  gate.pot.calibrated = r.Bool();
  gate.pot.total_observations = r.U64();
  const std::uint64_t gamma = r.U64();
  for (std::uint64_t i = 0; i < gamma; ++i) {
    gate.gamma.push_back(ReadEncodedState(r));
  }
  session->gate.RestoreState(std::move(gate));
  if (r.Bool()) {
    auto parked = std::make_unique<ParkedRepair>();
    parked->current = r.Ints<sim::NodeId>();
    parked->failed = r.Ints<sim::NodeId>();
    parked->job = ReadRepairJobState(r);
    if (version >= 2 && r.Bool()) {
      RepairScope& scope = parked->scope.emplace();
      scope.options.enabled = true;
      scope.options.max_hosts = r.I32();
      scope.options.fill_to_budget = r.Bool();
      scope.hints = r.Ints<sim::NodeId>();
    }
    session->parked = std::move(parked);
  }
  return session;
}

void ResilienceService::SaveSnapshot(std::ostream& out) const {
  std::scoped_lock lock(master_mu_, sessions_mu_, queue_mu_);
  if (!queue_.empty() || !ready_.empty() || !pending_scores_.empty() ||
      inflight_ != 0) {
    throw std::logic_error(
        "ResilienceService::SaveSnapshot: requests still pending; "
        "BeginDrain() + WaitDrained() first");
  }
  common::BinaryWriter w(out);
  w.Header("carol-snap", 1);
  w.U64(weight_epoch_.load(std::memory_order_acquire));
  nn::SaveParametersBinary(master_->network(), out);
  w.U64(next_session_id_.load());
  // Sessions sorted by id: the snapshot byte stream is itself
  // deterministic, independent of hash-map iteration order.
  std::vector<const Session*> ordered;
  ordered.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    ordered.push_back(session.get());
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Session* a, const Session* b) { return a->id < b->id; });
  w.U64(ordered.size());
  for (const Session* session : ordered) WriteSession(w, *session);
  w.CheckOk("ResilienceService::SaveSnapshot");
}

void ResilienceService::RestoreFromSnapshot(std::istream& in) {
  common::BinaryReader r(in);
  r.Header("carol-snap", 1);
  const std::uint64_t epoch = r.U64();
  {
    std::lock_guard<std::mutex> lock(master_mu_);
    nn::LoadParametersBinary(master_->network(), in);
    // Replicas were just built at epoch 0 with seed-identical weights;
    // when the snapshot carries a later epoch each replica lazily
    // re-syncs from the restored master before serving its next step
    // (SyncReplica) — exactly the post-fine-tune broadcast path.
    weight_epoch_.store(epoch, std::memory_order_release);
  }
  const std::uint64_t next_id = r.U64();
  const std::uint64_t count = r.U64();
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::shared_ptr<Session> session = ReadSession(r);
    const SessionId id = session->id;
    sessions_.emplace(id, std::move(session));
  }
  next_session_id_.store(next_id);
}

ServiceStats ResilienceService::stats() const {
  ServiceStats s;
  s.repairs = repairs_.load();
  s.observes = observes_.load();
  s.finetunes = finetunes_.load();
  s.proactive_optimizations = proactives_.load();
  s.pipeline_passes = pipeline_passes_.load();
  s.pipeline_jobs = pipeline_jobs_.load();
  s.pipeline_states = pipeline_states_.load();
  s.confidence_passes = confidence_passes_.load();
  s.confidence_jobs = confidence_jobs_.load();
  s.weight_epoch = weight_epoch_.load();
  s.shed_observes = shed_observes_.load();
  s.shed_repairs = shed_repairs_.load();
  s.quota_rejections = quota_rejections_.load();
  s.timeouts = timeouts_.load();
  s.suspended = suspended_.load();
  return s;
}

obs::MetricsSnapshot ResilienceService::MetricsSnapshot() const {
  // Histograms come from the sharded registry; counters are copied from
  // the SAME atomics stats() reads, so the two views reconcile exactly
  // by construction (pinned by tests/obs_test.cpp) — and the counters
  // are present even with observability off.
  obs::MetricsSnapshot snap =
      obs_ ? obs_->registry.Snapshot() : obs::MetricsSnapshot{};
  const ServiceStats s = stats();
  auto add = [&snap](const char* name, std::uint64_t value) {
    snap.counters.push_back({name, value});
  };
  add("repairs", s.repairs);
  add("observes", s.observes);
  add("finetunes", s.finetunes);
  add("proactive_optimizations", s.proactive_optimizations);
  add("pipeline_passes", s.pipeline_passes);
  add("pipeline_jobs", s.pipeline_jobs);
  add("pipeline_states", s.pipeline_states);
  add("confidence_passes", s.confidence_passes);
  add("confidence_jobs", s.confidence_jobs);
  add("shed_observes", s.shed_observes);
  add("shed_repairs", s.shed_repairs);
  add("quota_rejections", s.quota_rejections);
  add("timeouts", s.timeouts);
  add("suspended", s.suspended);
  snap.gauges.push_back(
      {"weight_epoch", static_cast<double>(s.weight_epoch)});
  snap.gauges.push_back(
      {"sessions", static_cast<double>(session_count())});
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    snap.gauges.push_back(
        {"pending_requests",
         static_cast<double>(queue_.size() + inflight_)});
  }
  if (obs_) {
    snap.gauges.push_back(
        {"decision_traces", static_cast<double>(obs_->traces.total())});
  }
  return snap;
}

std::vector<obs::DecisionTrace> ResilienceService::DecisionTraces() const {
  if (!obs_) return {};
  return obs_->traces.Snapshot();
}

double ResilienceService::MemoryFootprintMb() const {
  // Master + one replica per worker shard...
  double mb = master_->MemoryFootprintMb() *
              (1.0 + static_cast<double>(workers_.size()));
  // ...plus every session's Gamma budget (16-host states, as CarolModel).
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (const auto& [id, session] : sessions_) {
    mb += core::GammaStateBytes() *
          static_cast<double>(session->cfg.gamma_capacity) /
          (1024.0 * 1024.0);
  }
  return mb;
}

// --- SessionModel -------------------------------------------------------

SessionModel::SessionModel(ResilienceService& service,
                           const FederationSpec& spec)
    : service_(&service),
      id_(service.OpenSession(spec)),
      name_(spec.name),
      gamma_capacity_(spec.carol.gamma_capacity) {}

SessionModel::~SessionModel() {
  try {
    service_->CloseSession(id_);
  } catch (...) {
    // Session already closed or service shut down: nothing to release.
  }
}

sim::Topology SessionModel::Repair(
    const sim::Topology& current,
    const std::vector<sim::NodeId>& failed_brokers,
    const sim::SystemSnapshot& snapshot) {
  RepairResponse response =
      service_->Repair(id_, current, failed_brokers, snapshot);
  decision_ns_.Add(response.decision_ns);
  return std::move(response.topology);
}

void SessionModel::Observe(const sim::SystemSnapshot& snapshot) {
  const ObserveResponse response = service_->Observe(id_, snapshot);
  if (response.fine_tuned) ++finetunes_;
}

double SessionModel::MemoryFootprintMb() const {
  // This session's share: the shared surrogate plus its own Gamma budget
  // (mirrors CarolModel::MemoryFootprintMb for comparability).
  return service_->master_gon().MemoryFootprintMb() +
         core::GammaStateBytes() * static_cast<double>(gamma_capacity_) /
             (1024.0 * 1024.0);
}

}  // namespace carol::serve
