// serve-h16 / serve-h128: four federation sessions drive the decision
// service directly through a closed loop: one client per session issues a
// repair, then two observes, back to back, for the whole run. The four
// clients keep four repairs in flight on two workers, so repairs queue
// and stack across sessions; latency and throughput both see it.
#include <algorithm>
#include <cmath>
#include <map>
#include <thread>

#include "bench.h"

namespace carolbench {

namespace {

// One client thread per session: the load generator never uses more
// threads than the 4-core machine it was sized for.
constexpr int kSessions = 4;
// The request mix of every client: one repair, then this many observes.
constexpr int kObservesPerRepair = 2;
// Each client's repair rate is the median over this many blocks of its
// consecutive repair cycles.
constexpr int kRateBlocks = 5;

struct ServeSpec {
  const char* name;
  int hosts;
  int brokers;
  int corpus;  // distinct repair requests, cycled by the clients
  std::int64_t deadline_us;
  int replay_per_session;
  int pool_intervals;
};

// Deadlines are far above any latency seen, so no request fails.
const ServeSpec kServeSpecs[] = {
    {"serve-h16", 16, 4, 512, 2'000'000, 16, 64},
    {"serve-h128", 128, 32, 128, 20'000'000, 4, 32},
};

enum class Outcome { kOk, kTimeout, kOverloaded, kSuspended, kOther };

struct Record {
  bool repair = false;
  bool measured = false;  // issued after the warm-up
  const RepairInput* input = nullptr;
  Clock::time_point sent{};
  Clock::time_point done{};
  Outcome outcome = Outcome::kOk;
  std::string error;
  serve::RepairResponse repair_response;
  serve::ObserveResponse observe_response;
};

struct Session {
  unsigned seed = 0;
  serve::SessionId id = 0;
  std::vector<const RepairInput*> repairs;           // cycled
  std::vector<const sim::SystemSnapshot*> observes;  // cycled
  std::vector<Record> records;
  double repair_rate = 0.0;  // measured repairs per second
};

// Issues one request and classifies its outcome; typed service errors
// are expected failure modes, anything else is a bug the checks report.
void Issue(serve::ResilienceService& service, serve::SessionId id,
           const sim::SystemSnapshot* observe_snapshot,
           std::int64_t deadline_us, Record& r) {
  r.sent = Clock::now();
  try {
    if (r.repair) {
      r.repair_response =
          service.Repair(id, r.input->snapshot.topology, r.input->failed,
                         r.input->snapshot, deadline_us);
    } else {
      r.observe_response =
          service.Observe(id, *observe_snapshot, deadline_us);
    }
  } catch (const serve::ServiceTimeoutError&) {
    r.outcome = Outcome::kTimeout;
  } catch (const serve::ServiceOverloadedError&) {
    r.outcome = Outcome::kOverloaded;
  } catch (const serve::ServiceSuspendedError&) {
    r.outcome = Outcome::kSuspended;
  } catch (const std::exception& e) {
    r.outcome = Outcome::kOther;
    r.error = e.what();
  }
  r.done = Clock::now();
}

// Client spans (one per request, sent -> done) and, in traced runs, the
// service's DecisionTrace of the same repair as their child. Returns each
// matched repair's hand-off time (client call - service total).
std::vector<double> RecordSpans(const std::vector<Session>& sessions,
                                const std::vector<obs::DecisionTrace>& traces,
                                SpanLog& spans) {
  std::map<serve::SessionId, std::vector<const obs::DecisionTrace*>> by_session;
  for (const obs::DecisionTrace& tr : traces) {
    by_session[tr.session].push_back(&tr);
  }
  for (auto& [id, list] : by_session) {
    std::sort(list.begin(), list.end(),
              [](const obs::DecisionTrace* a, const obs::DecisionTrace* b) {
                return a->seq < b->seq;
              });
  }
  std::vector<double> handoff_ms;
  for (const Session& session : sessions) {
    const std::vector<const obs::DecisionTrace*>& mine =
        by_session[session.id];
    std::size_t next_trace = 0;
    for (std::size_t k = 0; k < session.records.size(); ++k) {
      const Record& r = session.records[k];
      const std::string trace_id =
          std::to_string(session.id) + ":" + std::to_string(k + 1);
      const std::uint64_t call =
          spans.Add(r.repair ? "client.repair" : "client.observe", trace_id,
                    0, r.sent, r.done);
      if (!r.repair || r.outcome != Outcome::kOk ||
          next_trace >= mine.size()) {
        continue;
      }
      const obs::DecisionTrace& tr = *mine[next_trace++];
      handoff_ms.push_back(Ms(r.done - r.sent) - tr.total_ns / 1e6);
      // The service records stage durations, not timestamps: stages are
      // laid end to end from the call start, each the sum of its rounds.
      using std::chrono::nanoseconds;
      const Clock::time_point s0 = r.sent;
      const std::uint64_t svc = spans.Add("service.repair", trace_id, call,
                                          s0, s0 + nanoseconds(tr.total_ns));
      Clock::time_point at = s0;
      const std::pair<const char*, std::int64_t> stages[] = {
          {"service.queue", tr.queue_ns},
          {"service.encode", tr.encode_ns},
          {"service.score_wait", tr.score_wait_ns},
          {"service.splice", tr.splice_ns},
          {"service.confidence_wait", tr.confidence_wait_ns}};
      for (const auto& [name, ns] : stages) {
        spans.Add(name, trace_id, svc, at, at + nanoseconds(ns));
        at += nanoseconds(ns);
      }
    }
  }
  return handoff_ms;
}

}  // namespace

void RunServe(const Options& options, Report& report, SpanLog& spans) {
  const ServeSpec* spec = nullptr;
  for (const ServeSpec& s : kServeSpecs) {
    if (options.workload == s.name) spec = &s;
  }
  if (spec == nullptr) throw std::invalid_argument("unknown serve workload");

  const double warmup_s = 0.05 * options.seconds;

  // --- inputs, all made before anything is timed -------------------------
  // The request corpus is fixed: the pool's sim run and the failure draws
  // do not depend on --seed, so the repair mix does not move with it.
  // --seed drives the order each client walks the corpus and the pool in,
  // and each session's search rng.
  const SnapshotPool pool = MakeSnapshotPool(
      spec->hosts, spec->brokers, spec->pool_intervals, 0x9001);
  std::vector<RepairInput> corpus;
  {
    common::Rng corpus_rng(0x9002);
    for (int i = 0; i < spec->corpus; ++i) {
      corpus.push_back(MakeRepairInput(pool, corpus_rng));
    }
  }
  common::Rng rng(Mix(options.seed, 0x9003));
  // The clients walk one order from evenly spaced starts, so together they
  // cover the corpus evenly however far they get.
  const std::vector<std::size_t> repair_order = rng.Permutation(corpus.size());
  std::vector<Session> sessions(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    Session& session = sessions[static_cast<std::size_t>(s)];
    session.seed = SessionSeed(options.seed, s);
    for (std::size_t k = 0; k < corpus.size(); ++k) {
      session.repairs.push_back(
          &corpus[repair_order[(k + s * corpus.size() / kSessions) %
                               corpus.size()]]);
    }
    for (std::size_t i : rng.Permutation(pool.snapshots.size())) {
      session.observes.push_back(&pool.snapshots[i]);
    }
  }

  // --- set-up: service, offline training, sessions ---------------------
  std::unique_ptr<serve::ResilienceService> service;
  MeasureSetup(options.smoke ? 1 : 5, report, [&] { service.reset(); }, [&] {
    service = std::make_unique<serve::ResilienceService>(
        PlannerServiceConfig(2, options.trace));
    TrainPlanner(*service);
    for (Session& session : sessions) {
      serve::FederationSpec fed;
      fed.name = std::string(spec->name) + "-" + std::to_string(session.seed);
      fed.carol =
          PlannerSessionConfig(session.seed, core::FineTunePolicy::kNever);
      session.id = service->OpenSession(fed);
    }
  });

  // --- closed loop --------------------------------------------------------
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point measure_from = t0 + FromSeconds(warmup_s);
  const Clock::time_point t_end = t0 + FromSeconds(options.seconds);
  {
    std::vector<std::jthread> clients;  // joined at scope exit
    for (Session& session : sessions) {
      clients.emplace_back([&, sp = &session] {
        std::vector<double> cycle_s;  // measured repair to measured repair
        Clock::time_point last = measure_from;
        std::size_t next_observe = 0;
        for (std::size_t k = 0; Clock::now() < t_end; ++k) {
          Record r;
          r.repair = true;
          r.input = sp->repairs[k % sp->repairs.size()];
          Issue(*service, sp->id, nullptr, spec->deadline_us, r);
          r.measured = r.sent >= measure_from;
          if (r.measured) {
            cycle_s.push_back(Seconds(r.done - last));
            last = r.done;
          }
          sp->records.push_back(std::move(r));
          for (int j = 0; j < kObservesPerRepair; ++j) {
            Record o;
            const sim::SystemSnapshot* snapshot =
                sp->observes[next_observe++ % sp->observes.size()];
            Issue(*service, sp->id, snapshot, spec->deadline_us, o);
            o.measured = o.sent >= measure_from;
            sp->records.push_back(std::move(o));
          }
        }
        // A slow stretch of the host moves only the blocks it overlaps.
        sp->repair_rate = MedianBlockRate(cycle_s, kRateBlocks);
      });
    }
  }
  const Clock::time_point traffic_end = Clock::now();
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB", 1);

  // --- end-to-end metrics -------------------------------------------------
  std::vector<double> latency_ms;
  double repair_rate = 0.0;
  std::map<Outcome, std::uint64_t> outcomes;
  std::uint64_t ok_repairs = 0;
  std::uint64_t ok_observes = 0;
  std::uint64_t broker_failures = 0;
  for (const Session& session : sessions) {
    repair_rate += session.repair_rate;
    for (const Record& r : session.records) {
      ++report.attempted;
      ++outcomes[r.outcome];
      if (r.outcome != Outcome::kOk) {
        ++report.failed;
        report.Check(r.outcome != Outcome::kOther,
                     "untyped service error: " + r.error);
        continue;
      }
      if (r.repair) {
        ++ok_repairs;
        broker_failures += r.input->failed.size();
        if (r.measured) latency_ms.push_back(Ms(r.done - r.sent));
      } else {
        ++ok_observes;
      }
    }
  }
  report.EndToEnd("latency_mean_ms", Mean(latency_ms), "ms",
                  latency_ms.size());
  report.EndToEnd("latency_p75_ms", Pct(latency_ms, 75.0), "ms",
                  latency_ms.size());
  report.EndToEnd("throughput_per_s", repair_rate, "1/s", latency_ms.size());
  report.Fact("phases_s", std::to_string(warmup_s) + " warm-up, " +
                              std::to_string(options.seconds - warmup_s) +
                              " measured");

  // --- correctness --------------------------------------------------------
  for (const Session& session : sessions) {
    for (const Record& r : session.records) {
      if (r.outcome != Outcome::kOk) continue;
      if (r.repair) {
        const sim::Topology& topo = r.repair_response.topology;
        const double c = r.repair_response.confidence;
        report.Check(topo.num_nodes() == spec->hosts && topo.IsValid(),
                     "repair returned an invalid topology");
        report.Check(FailedBrokersOrphaned(topo, r.input->failed),
                     "a failed broker still manages workers");
        report.Check(std::isfinite(c) && c >= 0.0 && c <= 1.0,
                     "repair confidence outside [0,1]");
      } else {
        const double c = r.observe_response.confidence;
        // The POT threshold is -inf until its calibration window fills.
        report.Check(std::isfinite(c) && c >= 0.0 && c <= 1.0 &&
                         !std::isnan(r.observe_response.threshold),
                     "observe confidence outside [0,1] or NaN threshold");
      }
    }
  }
  const serve::ServiceStats stats = service->stats();
  report.Check(stats.repairs == ok_repairs,
               "ServiceStats.repairs != client-side successful repairs");
  report.Check(stats.observes == ok_observes,
               "ServiceStats.observes != client-side successful observes");
  report.Check(stats.timeouts == outcomes[Outcome::kTimeout],
               "ServiceStats.timeouts != client-side timeout errors");
  report.Check(stats.shed_observes + stats.shed_repairs +
                       stats.quota_rejections ==
                   outcomes[Outcome::kOverloaded],
               "ServiceStats shed counters != client-side overload errors");
  report.Check(stats.suspended == outcomes[Outcome::kSuspended],
               "ServiceStats.suspended != client-side suspended errors");

  // Replay each session's first repairs through core::RepairJob and
  // require the service's exact decisions (up to the session's first
  // failed request, after which its rng stream has diverged).
  std::unique_ptr<core::GonModel> gon = CloneMasterGon(*service);
  ReplayTimings timings;
  std::uint64_t replayed = 0;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    std::vector<ReplayRequest> requests;
    std::vector<const Record*> sources;
    for (const Record& r : sessions[s].records) {
      if (!r.repair) continue;
      if (r.outcome != Outcome::kOk ||
          static_cast<int>(requests.size()) >= spec->replay_per_session) {
        break;
      }
      requests.push_back({&r.input->snapshot.topology, &r.input->failed,
                          &r.input->snapshot, nullptr});
      sources.push_back(&r);
    }
    const std::vector<ReplayDecision> decisions = ReplaySession(
        *gon,
        PlannerSessionConfig(sessions[s].seed, core::FineTunePolicy::kNever),
        requests, timings, spans, "replay-s" + std::to_string(s));
    for (std::size_t k = 0; k < decisions.size(); ++k) {
      report.Check(
          decisions[k].topology == sources[k]->repair_response.topology &&
              decisions[k].confidence == sources[k]->repair_response.confidence,
          "core replay decision differs from the service's");
    }
    replayed += decisions.size();
  }
  report.Check(replayed > 0, "no repair was replayed");
  report.Fact("replayed_repairs", std::to_string(replayed));

  if (!options.trace) return;

  // --- per-layer metrics (traced run) -------------------------------------
  ServiceLayerTotals totals;
  AccumulateService(*service, Seconds(traffic_end - t0), totals);
  ReportServiceLayers(totals, RecordSpans(sessions, totals.traces, spans),
                      report);
  ReportReplay(timings, *gon, pool.snapshots.front(), 20, report);
  ReportPoolSim(pool, report);
  report.Layer("sim.broker_failures_detected",
               static_cast<double>(broker_failures), "count", ok_repairs);
  report.Layer("sim.decisions", static_cast<double>(ok_repairs), "count",
               ok_repairs);
  report.Layer("loadgen.sent", static_cast<double>(report.attempted), "count",
               report.attempted);
  report.Layer("loadgen.failed", static_cast<double>(report.failed), "count",
               report.attempted);
}

}  // namespace carolbench
