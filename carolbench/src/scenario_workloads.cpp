// soak-h16-adapt / fleet-h4096: built-in scenarios played end to end by
// scenario::ScenarioDriver against a service restored from the trained
// planner, so every play starts from bit-identical weights.
//
// soak-h16-adapt times each scenario run of each play; fleet-h4096 times
// each interval through ScenarioDriver's streaming emitter, which flushes its
// stream at every interval boundary (the stream here only records when).
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <streambuf>

#include "bench.h"
#include "scenario/driver.h"
#include "scenario/library.h"

namespace carolbench {

namespace {

// Discards what the emitter writes; stamps every flush.
class StampBuf : public std::streambuf {
 public:
  std::vector<Clock::time_point> stamps;

 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
  int sync() override {
    stamps.push_back(Clock::now());
    return 0;
  }
};

struct Play {
  double wall_s = 0.0;
  std::uint64_t intervals = 0;
  std::vector<double> run_ms_per_interval;  // one per scenario
  std::vector<double> interval_ms;          // per interval (emitter on)
  std::vector<scenario::Scorecard> cards;
  serve::ServiceStats stats;
};

struct ScenarioWorkload {
  std::vector<scenario::ScenarioSpec> specs;
  scenario::ScenarioDriverOptions driver;
  bool stamp_intervals = false;  // per-interval stamps via the emitter
  int plays = 1;
  bool check_one_worker = false;
  // core replay inputs, made by the bench at the workload's H
  int replay_hosts = 16;
  int replay_brokers = 4;
  int replay_pool_intervals = 32;
  int replay_requests = 16;  // per replay session
  int replay_sessions = 4;
  bool replay_scoped = false;
  int full_reps = 20;
};

// Plays every spec once on a fresh service restored from `image`.
// Spans: play -> scenario run -> interval (when stamped).
Play PlayOnce(const std::string& image, int workers, bool observability,
              const ScenarioWorkload& w, ServiceLayerTotals* totals,
              SpanLog& spans, const std::string& trace_id) {
  std::istringstream in(image);
  serve::ResilienceService service(
      PlannerServiceConfig(workers, observability), in);
  StampBuf buf;
  std::ostream stamps(&buf);
  scenario::ScenarioDriverOptions options = w.driver;
  if (w.stamp_intervals) {
    options.emit_out = &stamps;
    options.emit_every = 1;
  }
  scenario::ScenarioDriver driver(service, options);
  Play play;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> runs;
  const Clock::time_point t0 = Clock::now();
  for (const scenario::ScenarioSpec& spec : w.specs) {
    const Clock::time_point r0 = Clock::now();
    play.cards.push_back(driver.Run(spec));
    runs.emplace_back(r0, Clock::now());
    play.run_ms_per_interval.push_back(Ms(runs.back().second - r0) /
                                       spec.intervals);
    play.intervals += static_cast<std::uint64_t>(spec.intervals);
  }
  play.wall_s = Seconds(Clock::now() - t0);

  const std::uint64_t root =
      spans.Add("scenario.play", trace_id, 0, t0, runs.back().second);
  // Each Run stamps the start of every interval plus once after its last.
  if (w.stamp_intervals &&
      buf.stamps.size() != play.intervals + w.specs.size()) {
    throw std::runtime_error("emitter stamps do not match the interval count");
  }
  std::size_t next = 0;
  for (std::size_t r = 0; r < w.specs.size(); ++r) {
    const std::uint64_t run = spans.Add("scenario." + w.specs[r].name,
                                        trace_id, root, runs[r].first,
                                        runs[r].second);
    if (!w.stamp_intervals) continue;
    const auto n = static_cast<std::size_t>(w.specs[r].intervals);
    for (std::size_t i = next + 1; i <= next + n; ++i) {
      play.interval_ms.push_back(Ms(buf.stamps[i] - buf.stamps[i - 1]));
      spans.Add("scenario.interval", trace_id, run, buf.stamps[i - 1],
                buf.stamps[i]);
    }
    next += n + 1;
  }
  play.stats = service.stats();
  if (totals != nullptr) AccumulateService(service, play.wall_s, *totals);
  return play;
}

std::string Fingerprints(const Play& play) {
  std::string out;
  for (const scenario::Scorecard& c : play.cards) {
    out += c.scenario + "=" + c.FingerprintHex() + " ";
  }
  return out;
}

void RunScenarioWorkload(const Options& options, const ScenarioWorkload& w,
                         Report& report, SpanLog& spans) {
  // --- set-up: service + offline training, captured as a snapshot so
  // every play starts from bit-identical weights ---------------------------
  std::unique_ptr<serve::ResilienceService> service;
  MeasureSetup(
      options.smoke ? 1 : 5, report, [&] { service.reset(); },
      [&] {
        service = std::make_unique<serve::ResilienceService>(
            PlannerServiceConfig(2, options.trace));
        TrainPlanner(*service);
      });
  std::string image;
  {
    std::ostringstream out;
    service->SaveSnapshot(out);
    image = out.str();
  }

  // --- timed plays --------------------------------------------------------
  ServiceLayerTotals totals;
  std::vector<Play> plays;
  for (int i = 0; i < w.plays; ++i) {
    plays.push_back(PlayOnce(image, 2, options.trace, w,
                             options.trace ? &totals : nullptr, spans,
                             "play" + std::to_string(i + 1)));
    // Each play runs as if in a fresh process: the heap the finished
    // service freed goes back first, so peak_rss_mb is one play's
    // footprint and not the allocator's history.
    malloc_trim(0);
  }
  std::vector<double> play_rates;
  for (const Play& p : plays) {
    play_rates.push_back(static_cast<double>(p.intervals) / p.wall_s);
    report.attempted += p.stats.repairs + p.stats.observes;
  }
  if (w.stamp_intervals) {
    // Per-interval wall times of every play.
    std::vector<double> interval_ms;
    for (const Play& p : plays) {
      interval_ms.insert(interval_ms.end(), p.interval_ms.begin(),
                         p.interval_ms.end());
    }
    report.EndToEnd("latency_mean_ms", Mean(interval_ms), "ms",
                    interval_ms.size());
    report.EndToEnd("latency_p75_ms", Pct(interval_ms, 75.0), "ms",
                    interval_ms.size());
    report.EndToEnd("throughput_per_s",
                    1e3 * MedianBlockRate(interval_ms, 8), "1/s",
                    interval_ms.size());
  } else {
    // Per scenario, the median over plays of its mean interval time; the
    // mean and p75 are over the scenario mix.
    std::vector<double> per_scenario;
    for (std::size_t r = 0; r < w.specs.size(); ++r) {
      std::vector<double> runs;
      for (const Play& p : plays) runs.push_back(p.run_ms_per_interval[r]);
      per_scenario.push_back(Median(runs));
      report.Fact("interval_ms." + w.specs[r].name,
                  std::to_string(per_scenario.back()));
    }
    const std::uint64_t n = plays.size() * w.specs.size();
    report.EndToEnd("latency_mean_ms", Mean(per_scenario), "ms", n);
    report.EndToEnd("latency_p75_ms", Pct(per_scenario, 75.0), "ms", n);
    report.EndToEnd("throughput_per_s", Median(play_rates), "1/s",
                    plays.size());
  }
  report.Fact("plays", std::to_string(plays.size()));
  report.Fact("fingerprints", Fingerprints(plays.front()));

  // --- correctness --------------------------------------------------------
  const Play& first = plays.front();
  for (const Play& p : plays) {
    report.Check(Fingerprints(p) == Fingerprints(first),
                 "scorecard fingerprints differ between plays");
    report.Check(p.stats.repairs == p.intervals &&
                     p.stats.observes == p.intervals,
                 "service did not serve one repair + one observe per "
                 "interval");
  }
  if (w.check_one_worker) {
    SpanLog untraced(false);
    const Play one = PlayOnce(image, 1, options.trace, w, nullptr, untraced, "");
    report.Check(Fingerprints(one) == Fingerprints(first),
                 "scorecard fingerprints differ between 1 and 2 workers");
  }
  // The workload's own footprint, before the bench-side replay below.
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB", 1);

  int finetunes = 0;
  int decisions = 0;
  double energy = 0.0, response_weighted = 0.0, gate_weighted = 0.0;
  int completed = 0, violated = 0, broker_failures = 0;
  for (const scenario::Scorecard& c : first.cards) {
    report.Check(c.total_energy_kwh > 0.0 && std::isfinite(c.total_energy_kwh),
                 c.scenario + ": energy not positive");
    report.Check(c.slo_violation_rate >= 0.0 && c.slo_violation_rate <= 1.0,
                 c.scenario + ": SLO violation rate outside [0,1]");
    report.Check(c.gate_accuracy >= 0.0 && c.gate_accuracy <= 1.0,
                 c.scenario + ": gate accuracy outside [0,1]");
    report.Check(c.completed > 0, c.scenario + ": no task completed");
    for (const scenario::SessionScore& s : c.sessions) {
      finetunes += s.qos.finetunes;
      decisions += s.qos.decisions;
    }
    energy += c.total_energy_kwh;
    response_weighted += c.mean_response_s * c.completed;
    gate_weighted += c.gate_accuracy * c.intervals;
    completed += c.completed;
    violated += c.violated;
    broker_failures += c.broker_failures_detected;
  }
  const bool gated =
      w.driver.session.policy == core::FineTunePolicy::kConfidence &&
      !w.driver.force_never_finetune;
  if (gated) report.Check(finetunes > 0, "confidence gate never fine-tuned");
  report.Fact("finetunes_per_play", std::to_string(finetunes));

  // The QoS of one play (every play's is the same, by the fingerprint
  // check): the paper's metrics, summed or task-weighted over scenarios.
  const auto n_tasks = static_cast<std::uint64_t>(completed);
  const double per_task = completed > 0 ? 1.0 / completed : 0.0;
  const double slo_violation_rate = violated * per_task;
  const double response_s = response_weighted * per_task;
  const double gate_accuracy =
      gate_weighted / static_cast<double>(first.intervals);
  report.Quality("energy_kwh", energy, "kWh", first.intervals);
  report.Quality("slo_violation_rate", slo_violation_rate, "ratio", n_tasks);
  report.Quality("response_s", response_s, "s", n_tasks);
  if (gated) {
    report.Quality("gate_accuracy", gate_accuracy, "ratio", first.intervals);
  }

  // --- core/gon replay on bench-built requests at the workload's H -------
  const SnapshotPool pool =
      MakeSnapshotPool(w.replay_hosts, w.replay_brokers,
                       w.replay_pool_intervals, Mix(options.seed, 0x9003));
  common::Rng rng(Mix(options.seed, 0x9004));
  std::vector<RepairInput> inputs;
  for (int i = 0; i < w.replay_requests * w.replay_sessions; ++i) {
    inputs.push_back(MakeRepairInput(pool, rng));
  }
  const std::vector<sim::NodeId> no_hints;
  std::unique_ptr<core::GonModel> gon = CloneMasterGon(*service);
  ReplayTimings timings;
  for (int s = 0; s < w.replay_sessions; ++s) {
    std::vector<ReplayRequest> requests;
    for (int k = 0; k < w.replay_requests; ++k) {
      const RepairInput& in =
          inputs[static_cast<std::size_t>(s * w.replay_requests + k)];
      requests.push_back({&in.snapshot.topology, &in.failed, &in.snapshot,
                          w.replay_scoped ? &no_hints : nullptr});
    }
    core::CarolConfig session = w.driver.session;
    session.seed = SessionSeed(options.seed, s);
    const std::vector<ReplayDecision> decisions = ReplaySession(
        *gon, session, requests, timings, spans,
        "replay-s" + std::to_string(s));
    for (std::size_t k = 0; k < decisions.size(); ++k) {
      const double c = decisions[k].confidence;
      report.Check(decisions[k].topology.IsValid() &&
                       FailedBrokersOrphaned(decisions[k].topology,
                                             *requests[k].failed) &&
                       std::isfinite(c) && c >= 0.0 && c <= 1.0,
                   "core replay produced an invalid repair");
    }
  }

  if (!options.trace) return;

  // --- per-layer metrics (traced run) -------------------------------------
  ReportServiceLayers(totals, {}, report);
  ReportReplay(timings, *gon, pool.snapshots.front(), w.full_reps, report);

  // Interval time spent outside service calls (ScenarioDriver's calls are
  // synchronous, so this is the simulator's share of the interval).
  double play_ns = 0.0;
  std::uint64_t intervals = 0;
  for (const Play& p : plays) {
    play_ns += p.wall_s * 1e9;
    intervals += p.intervals;
  }
  double service_ns = 0.0;
  for (const obs::DecisionTrace& tr : totals.traces) service_ns += tr.total_ns;
  for (const char* h : {"observe_ns", "observe_queue_ns"}) {
    const auto it = totals.hist.find(h);
    if (it != totals.hist.end()) service_ns += static_cast<double>(it->second.sum);
  }
  report.Layer("sim.other_ms_per_interval",
               (play_ns - service_ns) / 1e6 / static_cast<double>(intervals),
               "ms", intervals);

  report.Layer("sim.tasks_completed", completed, "count", first.intervals);
  report.Layer("sim.broker_failures_detected", broker_failures, "count",
               first.intervals);
  report.Layer("sim.decisions", decisions, "count", first.intervals);
  report.Layer("sim.energy_kwh", energy, "kWh", first.intervals);
  report.Layer("sim.slo_violation_rate", slo_violation_rate, "ratio", n_tasks);
  report.Layer("sim.response_s", response_s, "s", n_tasks);
  report.Layer("sim.gate_accuracy", gate_accuracy, "ratio", first.intervals);
  report.Layer("loadgen.sent", static_cast<double>(report.attempted), "count",
               report.attempted);
  report.Layer("loadgen.failed", static_cast<double>(report.failed), "count",
               report.attempted);
}

}  // namespace

void RunSoak(const Options& options, Report& report, SpanLog& spans) {
  ScenarioWorkload w;
  // Six plays of six scenario runs fill the run: one play takes ~2 s at
  // 500 intervals per scenario. Below ~100 intervals the confidence gate
  // has no time to calibrate and fire.
  const int intervals = std::max(
      100, static_cast<int>(std::lround(25.0 * options.seconds)));
  // The scenarios keep their library seeds, so each one's faults and
  // arrivals are the same in every run; --seed orders them. Fine-tuned
  // weights carry over from one scenario to the next within a play, so
  // the order still changes every decision and the QoS, while the cost of
  // each scenario stays put.
  std::vector<scenario::ScenarioSpec> specs;
  for (const scenario::ScenarioSpec& spec :
       scenario::BuiltinScenarios(intervals)) {
    if (spec.fleets.size() == 1) specs.push_back(spec);
  }
  common::Rng order(Mix(options.seed, 0x50a6));
  for (std::size_t i : order.Permutation(specs.size())) {
    w.specs.push_back(specs[i]);
  }
  w.driver.session = PlannerSessionConfig(0, core::FineTunePolicy::kConfidence);
  w.driver.force_never_finetune = false;
  w.plays = options.smoke ? 1 : 6;
  w.check_one_worker = true;
  RunScenarioWorkload(options, w, report, spans);
}

void RunFleet(const Options& options, Report& report, SpanLog& spans) {
  ScenarioWorkload w;
  // Interval count follows the run length (one interval costs ~0.35 s);
  // the same --seconds always plays the same scenario.
  const int intervals =
      std::max(4, static_cast<int>(std::lround(2.4 * options.seconds)));
  // The cascade hangs a broker every other interval over 60% of the run:
  // a fixed repair cadence, so the interval percentiles do not depend on
  // how many random faults a seed happens to draw.
  auto spec = scenario::FindScenario("cascade", intervals);
  if (!spec.has_value()) throw std::runtime_error("cascade scenario missing");
  scenario::RescaleScenario(*spec, 4096);
  spec->seed = Mix(options.seed, spec->seed);
  w.specs.push_back(*spec);
  w.driver.session = PlannerSessionConfig(0, core::FineTunePolicy::kNever);
  // Every Gamma entry holds a dense H x H adjacency (134 MB at H=4096);
  // fine-tuning is off here, so one entry is all a session needs.
  w.driver.session.gamma_capacity = 1;
  w.stamp_intervals = true;
  w.replay_hosts = 4096;
  w.replay_brokers = 256;
  w.replay_pool_intervals = 3;
  w.replay_requests = options.smoke ? 1 : 4;
  w.replay_sessions = 2;
  w.replay_scoped = true;
  w.full_reps = options.smoke ? 1 : 3;
  RunScenarioWorkload(options, w, report, spans);
}

}  // namespace carolbench
