// Per-layer measurement from outside the program: the core/gon replay
// (each call of the decision path timed on its own) and the serve layer's
// public stats, histograms and DecisionTraces.
#include <algorithm>
#include <numeric>

#include "bench.h"
#include "core/subgraph.h"

namespace carolbench {

namespace {

struct Stage {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
};

// Drives one job (RepairJob or ScopedRepairJob) to completion against
// `gon`, scoring frontiers on `scoring`; the job holds the decision.
template <typename Job>
void DriveJob(Job& job, const sim::SystemSnapshot& scoring,
              core::GonModel& gon, const core::FeatureEncoder& encoder,
              const core::CarolConfig& cfg, ReplayTimings& t,
              std::vector<Stage>& stages, double& extra_ms) {
  while (!job.done()) {
    const std::vector<sim::Topology>& frontier = job.ProposeFrontier();
    const Clock::time_point a = Clock::now();
    const std::vector<core::EncodedState> contexts =
        core::EncodeFrontier(encoder, scoring, frontier);
    const Clock::time_point b = Clock::now();
    const std::vector<double> scores =
        core::ScoreEncoded(gon, contexts, cfg.alpha, cfg.beta);
    const Clock::time_point c = Clock::now();
    // Not part of the decision: the per-state cost of the tape-free
    // scoring kernel on the same states, for gon.discriminate_us_per_state.
    gon.DiscriminateBatch(std::span<const core::EncodedState>(contexts));
    const Clock::time_point d = Clock::now();
    job.Advance(scores);
    const Clock::time_point e = Clock::now();
    t.frontiers += 1;
    t.states += contexts.size();
    t.encode_ms += Ms(b - a);
    t.generate_ms += Ms(c - b);
    t.discriminate_ms += Ms(d - c);
    t.tabu_ms += Ms(e - d);
    extra_ms += Ms(d - c);
    stages.push_back({"core.encode", a, b});
    stages.push_back({"core.generate", b, c});
    stages.push_back({"gon.discriminate_batch", c, d});
    stages.push_back({"core.tabu_step", d, e});
  }
}

}  // namespace

std::vector<ReplayDecision> ReplaySession(
    core::GonModel& gon, const core::CarolConfig& session,
    std::span<const ReplayRequest> requests, ReplayTimings& timings,
    SpanLog& spans, const std::string& trace_prefix) {
  common::Rng rng(session.seed);
  const core::FeatureEncoder encoder;
  std::vector<ReplayDecision> decisions;
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const ReplayRequest& req = requests[k];
    std::vector<Stage> stages;
    double extra_ms = 0.0;
    const Clock::time_point r0 = Clock::now();
    ReplayDecision decision;
    core::EncodedState final_state;
    if (req.scope_hints != nullptr) {
      core::ScopedRepairJob job(*req.current, *req.failed, *req.snapshot,
                                *req.scope_hints, session.scoped, session,
                                &rng);
      DriveJob(job, job.scoring_snapshot(), gon, encoder, session, timings,
               stages, extra_ms);
      decision.topology = job.result();
      final_state =
          job.subgraph().empty()
              ? encoder.EncodeForTopology(*req.snapshot, decision.topology)
              : encoder.EncodeForTopology(job.scoring_snapshot(),
                                          job.sub_result());
    } else {
      core::RepairJob job(*req.current, *req.failed, *req.snapshot, session,
                          &rng);
      DriveJob(job, *req.snapshot, gon, encoder, session, timings, stages,
               extra_ms);
      decision.topology = job.result();
      final_state = encoder.EncodeForTopology(*req.snapshot,
                                              decision.topology);
    }
    const Clock::time_point c0 = Clock::now();
    decision.confidence = gon.Discriminate(final_state);
    const Clock::time_point c1 = Clock::now();
    timings.confidence_ms += Ms(c1 - c0);
    timings.repairs += 1;
    timings.repair_ms.push_back(Ms(c1 - r0) - extra_ms);
    stages.push_back({"core.confidence", c0, c1});
    if (spans.enabled()) {
      const std::string trace_id = trace_prefix + ":" + std::to_string(k + 1);
      const std::uint64_t root =
          spans.Add("core.repair", trace_id, 0, r0, c1);
      for (const Stage& stage : stages) {
        spans.Add(stage.name, trace_id, root, stage.start, stage.end);
      }
    }
    decisions.push_back(std::move(decision));
  }
  return decisions;
}

void ReportReplay(const ReplayTimings& t, core::GonModel& gon,
                  const sim::SystemSnapshot& full, int full_reps,
                  Report& report) {
  const double repairs = static_cast<double>(std::max<std::uint64_t>(1, t.repairs));
  const double frontiers =
      static_cast<double>(std::max<std::uint64_t>(1, t.frontiers));
  const double states = static_cast<double>(std::max<std::uint64_t>(1, t.states));
  const double repair_total =
      std::accumulate(t.repair_ms.begin(), t.repair_ms.end(), 0.0);
  report.Layer("core.frontiers_per_repair", t.frontiers / repairs, "count",
               t.repairs);
  report.Layer("core.states_per_frontier", t.states / frontiers, "count",
               t.frontiers);
  report.Layer("core.tabu_us_per_step", 1000.0 * t.tabu_ms / frontiers, "us",
               t.frontiers);
  report.Layer("core.encode_ms_per_frontier", t.encode_ms / frontiers, "ms",
               t.frontiers);
  report.Layer("core.generate_ms_per_frontier", t.generate_ms / frontiers,
               "ms", t.frontiers);
  report.Layer("core.confidence_ms_per_repair", t.confidence_ms / repairs,
               "ms", t.repairs);
  report.Layer("core.repair_ms", Median(t.repair_ms), "ms", t.repairs);
  report.Layer("core.generate_share",
               repair_total > 0.0 ? t.generate_ms / repair_total : 0.0,
               "ratio", t.repairs);
  report.Layer("gon.generate_us_per_state", 1000.0 * t.generate_ms / states,
               "us", t.states);
  report.Layer("gon.discriminate_us_per_state",
               1000.0 * t.discriminate_ms / states, "us", t.states);

  // One full-federation encode + Discriminate at the workload's H (the
  // per-interval Observe path of a session).
  const core::FeatureEncoder encoder;
  std::vector<double> encode_ms;
  std::vector<double> discriminate_ms;
  for (int i = 0; i < full_reps; ++i) {
    const Clock::time_point a = Clock::now();
    const core::EncodedState state = encoder.Encode(full);
    const Clock::time_point b = Clock::now();
    gon.Discriminate(state);
    const Clock::time_point c = Clock::now();
    encode_ms.push_back(Ms(b - a));
    discriminate_ms.push_back(Ms(c - b));
  }
  report.Layer("core.encode_ms_full", Median(encode_ms), "ms",
               encode_ms.size());
  report.Layer("gon.discriminate_ms_full", Median(discriminate_ms), "ms",
               discriminate_ms.size());
}

void AccumulateService(serve::ResilienceService& service, double wall_s,
                       ServiceLayerTotals& totals) {
  const serve::ServiceStats s = service.stats();
  serve::ServiceStats& a = totals.stats;
  a.repairs += s.repairs;
  a.observes += s.observes;
  a.finetunes += s.finetunes;
  a.pipeline_passes += s.pipeline_passes;
  a.pipeline_jobs += s.pipeline_jobs;
  a.pipeline_states += s.pipeline_states;
  a.confidence_passes += s.confidence_passes;
  a.confidence_jobs += s.confidence_jobs;
  a.weight_epoch = std::max(a.weight_epoch, s.weight_epoch);
  a.shed_observes += s.shed_observes;
  a.shed_repairs += s.shed_repairs;
  a.quota_rejections += s.quota_rejections;
  a.timeouts += s.timeouts;
  a.suspended += s.suspended;
  for (const obs::HistogramSnapshot& h : service.MetricsSnapshot().histograms) {
    totals.hist[h.name].Merge(h.data);
  }
  const std::vector<obs::DecisionTrace> traces = service.DecisionTraces();
  totals.traces.insert(totals.traces.end(), traces.begin(), traces.end());
  totals.busy_wall_s += wall_s;
  totals.workers = service.config().num_workers;
}

void ReportServiceLayers(const ServiceLayerTotals& totals,
                         const std::vector<double>& handoff_ms,
                         Report& report) {
  const obs::HistogramData empty;
  auto hist = [&](const char* name) -> const obs::HistogramData& {
    const auto it = totals.hist.find(name);
    return it == totals.hist.end() ? empty : it->second;
  };
  auto hist_ms = [&](const char* metric, const char* name, double p) {
    const obs::HistogramData& h = hist(name);
    report.Layer(metric, h.Percentile(p) / 1e6, "ms", h.count);
  };

  // Stage spans of repairs that searched (a broker had failed); the
  // scenario workloads' per-interval no-failure repair calls have no
  // search stages.
  std::vector<double> queue, total, encode, score_wait, splice, conf_wait;
  double compute_ns = 0.0;
  for (const obs::DecisionTrace& tr : totals.traces) {
    compute_ns += static_cast<double>(tr.encode_ns + tr.splice_ns);
    if (tr.frontier_rounds == 0) continue;
    queue.push_back(tr.queue_ns / 1e6);
    total.push_back(tr.total_ns / 1e6);
    encode.push_back(tr.encode_ns / 1e6);
    score_wait.push_back(tr.score_wait_ns / 1e6);
    splice.push_back(tr.splice_ns / 1e6);
    conf_wait.push_back(tr.confidence_wait_ns / 1e6);
  }
  const std::uint64_t n = queue.size();
  report.Layer("serve.repair_queue_p50_ms", Median(queue), "ms", n);
  report.Layer("serve.repair_queue_p90_ms", Pct(queue, 90.0), "ms", n);
  report.Layer("serve.repair_decision_p50_ms", Median(total), "ms", n);
  report.Layer("serve.repair_encode_p50_ms", Median(encode), "ms", n);
  report.Layer("serve.repair_score_wait_p50_ms", Median(score_wait), "ms", n);
  report.Layer("serve.repair_splice_p50_ms", Median(splice), "ms", n);
  report.Layer("serve.repair_confidence_wait_p50_ms", Median(conf_wait), "ms",
               n);
  report.Layer("serve.handoff_p50_ms", Median(handoff_ms), "ms",
               handoff_ms.size());

  hist_ms("serve.flush_generate_p50_ms", "flush_generate_ns", 50.0);
  hist_ms("serve.flush_confidence_p50_ms", "flush_confidence_ns", 50.0);
  hist_ms("serve.observe_queue_p50_ms", "observe_queue_ns", 50.0);
  hist_ms("serve.observe_p50_ms", "observe_ns", 50.0);
  hist_ms("serve.observe_p99_ms", "observe_ns", 99.0);

  const serve::ServiceStats& s = totals.stats;
  auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
  const std::uint64_t requests = s.repairs + s.observes;
  report.Layer("serve.stacking_ratio",
               ratio(s.pipeline_jobs, s.pipeline_passes), "ratio",
               s.pipeline_passes);
  report.Layer("serve.states_per_pass",
               ratio(s.pipeline_states, s.pipeline_passes), "count",
               s.pipeline_passes);
  report.Layer("serve.confidence_jobs_per_pass",
               ratio(s.confidence_jobs, s.confidence_passes), "count",
               s.confidence_passes);

  const double observe_ns = static_cast<double>(hist("observe_ns").sum);
  const double repair_ns = static_cast<double>(hist("repair_decision_ns").sum);
  const double busy_ns = static_cast<double>(hist("flush_generate_ns").sum +
                                             hist("flush_confidence_ns").sum) +
                         observe_ns + compute_ns;
  report.Layer("serve.worker_busy_frac",
               ratio(busy_ns, totals.busy_wall_s * 1e9 * totals.workers),
               "ratio", requests);
  report.Layer("serve.observe_share",
               ratio(observe_ns, observe_ns + repair_ns), "ratio", requests);
  report.Layer("serve.repair_share", ratio(repair_ns, observe_ns + repair_ns),
               "ratio", requests);
  report.Layer("serve.finetunes", static_cast<double>(s.finetunes), "count",
               s.observes);
  report.Layer("serve.weight_epoch", static_cast<double>(s.weight_epoch),
               "count", 1);
  report.Layer("serve.shed",
               static_cast<double>(s.shed_observes + s.shed_repairs +
                                   s.quota_rejections),
               "count", requests);
  report.Layer("serve.timeouts", static_cast<double>(s.timeouts), "count",
               requests);
}

}  // namespace carolbench
