// Bridges the experiment harness onto the multi-tenant serving layer.
// Kept out of harness/experiment.h so consumers that only need the
// single-model RunExperiment path do not pull in the serving layer's
// thread machinery.
#ifndef CAROL_HARNESS_SERVE_EXPERIMENT_H_
#define CAROL_HARNESS_SERVE_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runtime.h"
#include "obs/metrics.h"
#include "serve/service.h"

namespace carol::harness {

// Per-session QoS/latency breakdown of one serving run. The first block
// is simulation-derived and bit-deterministic for a fixed seed (these
// fields feed scenario::Scorecard fingerprints); the second block is
// wall-clock measurement and varies run to run.
struct SessionQos {
  std::string name;
  // --- deterministic QoS (simulation-derived) --------------------------
  double energy_kwh = 0.0;
  double avg_response_s = 0.0;
  double slo_violation_rate = 0.0;
  int completed = 0;
  int violated = 0;
  int total_tasks = 0;
  int failures_injected = 0;
  int broker_failures_detected = 0;
  // --- wall-clock latency breakdown (nondeterministic) -----------------
  int decisions = 0;  // Repair calls issued by this session
  double decision_mean_ms = 0.0;
  double decision_p50_ms = 0.0;
  double decision_p99_ms = 0.0;
  int finetunes = 0;
};

// Per-run serving report: the federation results plus the service-side
// stacking counters accumulated over exactly this run (deltas of the
// service stats, so back-to-back runs on one service don't bleed into
// each other).
struct ServiceRunReport {
  std::vector<RunResult> results;  // one per (spec, config), input order
  // Per-session QoS/latency breakdown, input order (consumed by
  // scenario::Scorecard; previously only fleet aggregates existed).
  std::vector<SessionQos> sessions;
  // Cross-session stacking over this run: frontier jobs per GON kernel
  // pass. 1.0 = every pass carried one session's frontier; >1 = sessions
  // shared passes (see src/serve/README.md for the metric's definition).
  // 0 when no frontier was scored (no repairs, or none needed a search).
  double stacking_ratio = 0.0;
  std::uint64_t pipeline_passes = 0;
  std::uint64_t pipeline_jobs = 0;
  std::uint64_t pipeline_states = 0;
};

// Builds the per-session breakdown from a finished run's results and the
// session-side decision-latency ring (exposed so the scenario driver
// can assemble the identical breakdown from its own loop). For runs
// shorter than the ring's capacity the mean/p50/p99 are computed over
// the raw retained samples — identical to the historical full-vector
// computation; once the ring overflows they fall back to the ring's
// histogram (exact mean via the running sum, percentiles within bucket
// resolution).
SessionQos MakeSessionQos(const std::string& name, const RunResult& result,
                          const obs::LatencyRing& decision_ns,
                          int finetunes);

// --- client-side retry with seeded jittered exponential backoff ---------

struct RetryPolicy {
  // Attempts including the first (so max_attempts - 1 retries).
  int max_attempts = 5;
  // Backoff schedule: delay k (1-based retry index) is
  //   min(max_delay_ms, base_delay_ms * multiplier^(k-1))
  // shrunk by a seeded uniform jitter factor in (1 - jitter, 1].
  double base_delay_ms = 0.2;
  double multiplier = 2.0;
  double max_delay_ms = 20.0;
  double jitter = 0.5;  // in [0, 1): fraction of the delay randomized away
  // Seed for the jitter stream. Each helper call constructs its own
  // common::Rng from this, so retry timing is reproducible and never
  // perturbs any simulation rng stream.
  std::uint64_t seed = 2024;
};

// Client-side ledger of what the helper observed; totals reconcile
// exactly with the service's ServiceStats shed/timeout counters (every
// server-side rejection is one typed error here, never a silent drop).
struct RetryAccounting {
  int attempts = 0;      // calls issued, including the successful one
  int overloaded = 0;    // ServiceOverloadedError received (retried)
  int suspended = 0;     // ServiceSuspendedError received (retried)
  int timeouts = 0;      // ServiceTimeoutError received (rethrown)
  int successes = 0;     // requests that eventually succeeded
  int exhausted = 0;     // gave up after max_attempts rejections
  std::vector<double> delays_ms;  // backoff actually slept, per retry
};

// Issues the request, retrying on ServiceOverloadedError and
// ServiceSuspendedError (both mean "never admitted / safe to re-issue")
// with jittered exponential backoff. ServiceTimeoutError is counted and
// rethrown immediately — a repair timeout may have consumed rng draws,
// so blind re-issue is not a transparent retry (see service.h). After
// max_attempts rejections the last error is rethrown (`exhausted`).
serve::RepairResponse RepairWithRetry(serve::ResilienceService& service,
                                      serve::SessionId id,
                                      const serve::RepairRequest& request,
                                      const RetryPolicy& policy = {},
                                      RetryAccounting* accounting = nullptr);
serve::ObserveResponse ObserveWithRetry(
    serve::ResilienceService& service, serve::SessionId id,
    const serve::ObserveRequest& request, const RetryPolicy& policy = {},
    RetryAccounting* accounting = nullptr);

// Drives one full federation experiment per (spec, config) pair through
// the shared multi-tenant service, each federation on its own driver
// thread over the service's worker shards. Returns results in input
// order. Sessions with FineTunePolicy::kNever are bit-identical to
// sequential single-model runs; confidence-triggered fine-tunes couple
// sessions through the shared surrogate (see src/serve/README.md). Also
// reports the pipeline stacking achieved while the federations ran
// concurrently (the serving layer's headline efficiency metric:
// decisions stay bit-identical, kernel passes shrink).
ServiceRunReport RunFederationsViaServiceReport(
    serve::ResilienceService& service,
    const std::vector<serve::FederationSpec>& specs,
    const std::vector<RunConfig>& configs);

}  // namespace carol::harness

#endif  // CAROL_HARNESS_SERVE_EXPERIMENT_H_
