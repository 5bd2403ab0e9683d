#include "harness/serve_experiment.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>

#include "common/rng.h"

#include "common/stats.h"

namespace carol::harness {

SessionQos MakeSessionQos(const std::string& name, const RunResult& result,
                          const obs::LatencyRing& decision_ns,
                          int finetunes) {
  SessionQos qos;
  qos.name = name;
  qos.energy_kwh = result.total_energy_kwh;
  qos.avg_response_s = result.avg_response_s;
  qos.slo_violation_rate = result.slo_violation_rate;
  qos.completed = result.completed;
  qos.violated = result.violated;
  qos.total_tasks = result.total_tasks;
  qos.failures_injected = result.failures_injected;
  qos.broker_failures_detected = result.broker_failures_detected;
  qos.decisions = static_cast<int>(decision_ns.total());
  qos.finetunes = finetunes;
  if (decision_ns.total() > 0) {
    if (!decision_ns.overflowed()) {
      // Short run: every sample is retained, so this is byte-for-byte
      // the historical full-vector computation.
      const std::vector<std::int64_t> samples = decision_ns.Samples();
      std::vector<double> ms;
      ms.reserve(samples.size());
      for (std::int64_t ns : samples) {
        ms.push_back(static_cast<double>(ns) / 1e6);
      }
      qos.decision_mean_ms = common::Mean(ms);
      qos.decision_p50_ms = common::Percentile(ms, 50.0);
      qos.decision_p99_ms = common::Percentile(ms, 99.0);
    } else {
      // Soak-length run: the ring evicted samples, so fall back to the
      // full-history histogram (exact mean, percentiles within bucket
      // resolution — see src/obs/README.md).
      const obs::HistogramData& h = decision_ns.histogram();
      qos.decision_mean_ms = h.mean() / 1e6;
      qos.decision_p50_ms = h.Percentile(50.0) / 1e6;
      qos.decision_p99_ms = h.Percentile(99.0) / 1e6;
    }
  }
  return qos;
}

ServiceRunReport RunFederationsViaServiceReport(
    serve::ResilienceService& service,
    const std::vector<serve::FederationSpec>& specs,
    const std::vector<RunConfig>& configs) {
  if (specs.size() != configs.size()) {
    throw std::invalid_argument(
        "RunFederationsViaServiceReport: specs/configs size mismatch");
  }
  const serve::ServiceStats before = service.stats();
  ServiceRunReport report;
  report.results.resize(specs.size());
  report.sessions.resize(specs.size());
  std::vector<std::exception_ptr> errors(specs.size());
  std::vector<std::thread> drivers;
  drivers.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    drivers.emplace_back([&, i] {
      try {
        serve::SessionModel model(service, specs[i]);
        FederationRuntime runtime(configs[i]);
        report.results[i] = runtime.Run(model);
        report.sessions[i] =
            MakeSessionQos(specs[i].name, report.results[i],
                           model.decision_latency(),
                           model.finetune_count());
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  const serve::ServiceStats after = service.stats();
  report.pipeline_passes = after.pipeline_passes - before.pipeline_passes;
  report.pipeline_jobs = after.pipeline_jobs - before.pipeline_jobs;
  report.pipeline_states = after.pipeline_states - before.pipeline_states;
  if (report.pipeline_passes > 0) {
    report.stacking_ratio = static_cast<double>(report.pipeline_jobs) /
                            static_cast<double>(report.pipeline_passes);
  }
  return report;
}

// --- client-side retry ---------------------------------------------------

namespace {

// Shared retry loop: `issue` performs one attempt. Retries only the
// not-admitted rejections (overloaded / suspended); anything else
// propagates, with timeouts counted on the way out.
template <typename Response, typename IssueFn>
Response RunWithRetry(const RetryPolicy& policy, RetryAccounting* accounting,
                      const IssueFn& issue) {
  RetryAccounting local;
  RetryAccounting& acct = accounting != nullptr ? *accounting : local;
  common::Rng jitter_rng(policy.seed);
  const int attempts = std::max(1, policy.max_attempts);
  for (int attempt = 1;; ++attempt) {
    ++acct.attempts;
    try {
      Response response = issue();
      ++acct.successes;
      return response;
    } catch (const serve::ServiceTimeoutError&) {
      ++acct.timeouts;
      throw;  // a timed-out repair is not transparently re-issuable
    } catch (const serve::ServiceOverloadedError&) {
      ++acct.overloaded;
      if (attempt >= attempts) {
        ++acct.exhausted;
        throw;
      }
    } catch (const serve::ServiceSuspendedError&) {
      ++acct.suspended;
      if (attempt >= attempts) {
        ++acct.exhausted;
        throw;
      }
    }
    // Jittered exponential backoff, fully determined by policy.seed:
    // shrink (never grow) the nominal delay so the cap stays honest.
    double delay_ms = policy.base_delay_ms;
    for (int k = 1; k < attempt; ++k) delay_ms *= policy.multiplier;
    delay_ms = std::min(delay_ms, policy.max_delay_ms);
    delay_ms *= 1.0 - policy.jitter * jitter_rng.Uniform();
    acct.delays_ms.push_back(delay_ms);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        std::max(0.0, delay_ms)));
  }
}

}  // namespace

serve::RepairResponse RepairWithRetry(serve::ResilienceService& service,
                                      serve::SessionId id,
                                      const serve::RepairRequest& request,
                                      const RetryPolicy& policy,
                                      RetryAccounting* accounting) {
  return RunWithRetry<serve::RepairResponse>(
      policy, accounting, [&] { return service.Repair(id, request); });
}

serve::ObserveResponse ObserveWithRetry(serve::ResilienceService& service,
                                        serve::SessionId id,
                                        const serve::ObserveRequest& request,
                                        const RetryPolicy& policy,
                                        RetryAccounting* accounting) {
  return RunWithRetry<serve::ObserveResponse>(
      policy, accounting, [&] { return service.Observe(id, request); });
}

}  // namespace carol::harness
