// Observability-layer tests: histogram bucket geometry, percentile
// parity with common::Percentile, shard-merge exactness, the bounded
// latency ring and trace ring, ServiceStats <-> MetricsSnapshot()
// reconciliation under a concurrent storm, and the headline constraint —
// scorecard fingerprints bit-identical with observability (and a live
// JSONL emitter) on vs off.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "core/carol.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "scenario/driver.h"
#include "scenario/scorecard.h"
#include "scenario/spec.h"
#include "serve/service.h"
#include "sim/federation.h"

namespace carol::obs {
namespace {

// Deterministic 64-bit LCG (no std randomness in tests: reproducible
// failures).
std::uint64_t NextLcg(std::uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return state;
}

// --- bucket geometry ------------------------------------------------------

TEST(HistogramLayoutTest, BucketBoundsContainTheirValues) {
  std::uint64_t state = 42;
  // Edges of every octave plus a fuzz sweep across magnitudes.
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 0; v < 64; ++v) values.push_back(v);
  for (int shift = 4; shift <= 62; ++shift) {
    const std::uint64_t base = 1ull << shift;
    values.push_back(base - 1);
    values.push_back(base);
    values.push_back(base + 1);
    for (int i = 0; i < 8; ++i)
      values.push_back(base + NextLcg(state) % base);
  }
  for (const std::uint64_t v : values) {
    const int b = HistogramLayout::BucketFor(v);
    ASSERT_GE(b, 0) << v;
    ASSERT_LT(b, HistogramLayout::kNumBuckets) << v;
    EXPECT_LE(HistogramLayout::LowerBound(b), v) << "bucket " << b;
    EXPECT_GE(HistogramLayout::UpperBound(b), v) << "bucket " << b;
  }
}

TEST(HistogramLayoutTest, ExactRegionIsWidthOne) {
  for (std::uint64_t v = 0; v < 16; ++v) {
    const int b = HistogramLayout::BucketFor(v);
    EXPECT_EQ(HistogramLayout::LowerBound(b), v);
    EXPECT_EQ(HistogramLayout::UpperBound(b), v);
    EXPECT_DOUBLE_EQ(HistogramLayout::Representative(b),
                     static_cast<double>(v));
  }
}

TEST(HistogramLayoutTest, RepresentativeWithinRelativeErrorBound) {
  // The design claim: 8 sub-buckets per octave => any sample is within
  // 12.5% of its bucket's representative. (Strictly: half the bucket
  // width, which is 1/16 of the sample's magnitude, but assert the
  // documented bound.)
  std::uint64_t state = 7;
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t v = NextLcg(state) >> (NextLcg(state) % 50);
    if (v < 16) continue;
    const double rep =
        HistogramLayout::Representative(HistogramLayout::BucketFor(v));
    const double err =
        std::abs(rep - static_cast<double>(v)) / static_cast<double>(v);
    EXPECT_LE(err, 0.125) << "value " << v;
  }
}

TEST(HistogramLayoutTest, BucketsAreMonotoneAndAdjacent) {
  // Consecutive buckets tile the value axis: UpperBound(b) + 1 ==
  // LowerBound(b + 1). No gaps, no overlaps — the merge argument relies
  // on every value having exactly one home.
  for (int b = 0; b + 1 < HistogramLayout::kNumBuckets; ++b) {
    EXPECT_EQ(HistogramLayout::UpperBound(b) + 1,
              HistogramLayout::LowerBound(b + 1))
        << "bucket " << b;
  }
}

// --- percentile parity ----------------------------------------------------

TEST(HistogramDataTest, PercentileMatchesCommonExactlyInWidthOneRegion) {
  // For samples < 16 every bucket has width 1, so the histogram
  // percentile must equal common::Percentile bit for bit (same linear
  // interpolation at rank p/100*(n-1)).
  HistogramData h;
  std::vector<double> ref;
  std::uint64_t state = 99;
  for (int i = 0; i < 257; ++i) {
    const std::uint64_t v = NextLcg(state) % 16;
    h.Record(v);
    ref.push_back(static_cast<double>(v));
  }
  std::sort(ref.begin(), ref.end());
  for (const double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(p), common::Percentile(ref, p))
        << "p" << p;
  }
}

TEST(HistogramDataTest, PercentileWithinResolutionForLargeSamples) {
  HistogramData h;
  std::vector<double> ref;
  std::uint64_t state = 1234;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform-ish latencies from ~1us to ~1s in ns.
    const std::uint64_t v = 1000 + (NextLcg(state) % (1ull << (10 + i % 21)));
    h.Record(v);
    ref.push_back(static_cast<double>(v));
  }
  for (const double p : {50.0, 99.0, 99.9}) {
    const double exact = common::Percentile(ref, p);
    const double approx = h.Percentile(p);
    EXPECT_NEAR(approx, exact, exact * 0.13) << "p" << p;
  }
}

TEST(HistogramDataTest, EmptyAndSingleSample) {
  HistogramData h;
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.Record(7);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 7.0);
}

TEST(HistogramDataTest, MergeEqualsRecordingTheUnion) {
  HistogramData a, b, whole;
  std::uint64_t state = 5;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = NextLcg(state) % 1000000;
    (i % 3 == 0 ? a : b).Record(v);
    whole.Record(v);
  }
  HistogramData merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.count, whole.count);
  EXPECT_EQ(merged.sum, whole.sum);
  EXPECT_EQ(merged.buckets, whole.buckets);
  for (const double p : {50.0, 99.0, 99.9}) {
    EXPECT_DOUBLE_EQ(merged.Percentile(p), whole.Percentile(p));
  }
}

// --- registry -------------------------------------------------------------

TEST(RegistryTest, ConcurrentShardedCountsAreExact) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  Registry reg(kThreads);
  const std::size_t c = reg.AddCounter("ops");
  const std::size_t h = reg.AddHistogram("lat");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.Count(c, static_cast<std::size_t>(t));
        reg.Record(h, static_cast<std::size_t>(t),
                   static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counter("ops"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.histogram("lat").count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(RegistryTest, SharedShardContentionStaysExact) {
  // The contract allows concurrent writers on one shard — fetch_add
  // contention is benign and still counted exactly.
  Registry reg(1);
  const std::size_t c = reg.AddCounter("ops");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) reg.Count(c, 0);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.Snapshot().counter("ops"), 40000u);
}

TEST(RegistryTest, GaugesAreLastWriteWins) {
  Registry reg(2);
  const std::size_t g = reg.AddGauge("epoch");
  reg.SetGauge(g, 1.0);
  reg.SetGauge(g, 5.0);
  EXPECT_DOUBLE_EQ(reg.Snapshot().gauge("epoch"), 5.0);
}

TEST(RegistryTest, UnknownNamesThrow) {
  Registry reg(1);
  reg.AddCounter("known");
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_TRUE(snap.has_counter("known"));
  EXPECT_FALSE(snap.has_counter("unknown"));
  EXPECT_THROW(snap.counter("unknown"), std::out_of_range);
  EXPECT_THROW(snap.gauge("unknown"), std::out_of_range);
  EXPECT_THROW(snap.histogram("unknown"), std::out_of_range);
}

// --- latency ring ---------------------------------------------------------

TEST(LatencyRingTest, ShortRunKeepsEverySampleInOrder) {
  LatencyRing ring(16);
  std::vector<std::int64_t> expected;
  for (std::int64_t v : {5, 3, 9, 1, 12}) {
    ring.Add(v);
    expected.push_back(v);
  }
  EXPECT_FALSE(ring.overflowed());
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.Samples(), expected);
  // The harness QoS path depends on this: percentiles over Samples()
  // must replay the historical unbounded-vector computation exactly.
  std::vector<double> ms;
  for (const std::int64_t ns : ring.Samples())
    ms.push_back(static_cast<double>(ns) / 1.0e6);
  EXPECT_DOUBLE_EQ(common::Percentile(ms, 50.0), 5.0 / 1.0e6);
}

TEST(LatencyRingTest, OverflowKeepsLastWindowAndFullAggregates) {
  LatencyRing ring(8);
  for (std::int64_t i = 0; i < 100; ++i) ring.Add(i);
  EXPECT_TRUE(ring.overflowed());
  EXPECT_EQ(ring.total(), 100u);
  EXPECT_EQ(ring.capacity(), 8u);
  const std::vector<std::int64_t> kept = ring.Samples();
  ASSERT_EQ(kept.size(), 8u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i], static_cast<std::int64_t>(92 + i));  // oldest first
  }
  // The histogram still covers EVERY sample ever recorded.
  EXPECT_EQ(ring.histogram().count, 100u);
  EXPECT_EQ(ring.histogram().sum, 4950u);
}

TEST(LatencyRingTest, NegativeSamplesClampToZero) {
  LatencyRing ring(4);
  ring.Add(-5);
  EXPECT_EQ(ring.histogram().sum, 0u);
  EXPECT_EQ(ring.total(), 1u);
}

// --- trace ring -----------------------------------------------------------

TEST(TraceRingTest, BoundedWithMonotoneSeq) {
  TraceRing ring(4);
  for (int i = 0; i < 10; ++i) {
    DecisionTrace t;
    t.session = static_cast<std::uint64_t>(i);
    ring.Push(t);
  }
  EXPECT_EQ(ring.total(), 10u);
  const std::vector<DecisionTrace> kept = ring.Snapshot();
  ASSERT_EQ(kept.size(), 4u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].seq, 7 + i);  // oldest-first window of seqs 7..10
    EXPECT_EQ(kept[i].session, 6 + i);
  }
}

// --- serializers ----------------------------------------------------------

TEST(ExportTest, PrometheusTextCarriesFamiliesAndCumulativeBuckets) {
  Registry reg(1);
  const std::size_t c = reg.AddCounter("repairs");
  const std::size_t g = reg.AddGauge("sessions");
  const std::size_t h = reg.AddHistogram("decision_ns");
  reg.Count(c, 0, 3);
  reg.SetGauge(g, 2.0);
  reg.Record(h, 0, 10);
  reg.Record(h, 0, 100);
  const std::string text = ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE carol_repairs counter"), std::string::npos);
  EXPECT_NE(text.find("carol_repairs 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE carol_sessions gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE carol_decision_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("carol_decision_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("carol_decision_ns_sum 110"), std::string::npos);
  EXPECT_NE(text.find("carol_decision_ns_count 2"), std::string::npos);
  // Width-1 bucket for 10: cumulative count 1 at le="10".
  EXPECT_NE(text.find("carol_decision_ns_bucket{le=\"10\"} 1"),
            std::string::npos);
}

TEST(ExportTest, JsonIsOneCompactObjectWithDerivedPercentiles) {
  Registry reg(1);
  const std::size_t h = reg.AddHistogram("lat");
  for (std::uint64_t v = 0; v < 8; ++v) reg.Record(h, 0, v);
  const std::string json = ToJson(reg.Snapshot());
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":8"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
}

// --- service integration --------------------------------------------------

core::CarolConfig TinyCarolConfig(unsigned seed = 7) {
  core::CarolConfig cfg;
  cfg.gon.hidden_width = 12;
  cfg.gon.num_layers = 2;
  cfg.gon.gat_width = 6;
  cfg.gon.generation_steps = 3;
  cfg.gon.batch_size = 8;
  cfg.tabu.max_iterations = 3;
  cfg.tabu.max_evaluations = 24;
  cfg.pot.min_calibration = 4;
  cfg.finetune_epochs = 1;
  cfg.seed = seed;
  return cfg;
}

serve::ServiceConfig TinyServiceConfig(int workers) {
  serve::ServiceConfig cfg;
  cfg.gon = TinyCarolConfig().gon;
  cfg.num_workers = workers;
  return cfg;
}

sim::SystemSnapshot MakeSnapshot(double util, int hosts, int brokers,
                                 int interval = 0) {
  sim::SystemSnapshot snap;
  snap.interval = interval;
  snap.topology = sim::Topology::Initial(hosts, brokers);
  snap.hosts.resize(static_cast<std::size_t>(hosts));
  snap.alive.assign(static_cast<std::size_t>(hosts), true);
  for (int i = 0; i < hosts; ++i) {
    auto& m = snap.hosts[static_cast<std::size_t>(i)];
    m.cpu_util = util;
    m.ram_util = util * 0.8;
    m.energy_kwh = util * 4e-4;
    m.slo_violation_rate = util > 0.9 ? 0.3 : 0.0;
    m.is_broker = snap.topology.is_broker(i);
  }
  return snap;
}

sim::SystemSnapshot MakeFailureSnapshot(double util, int hosts, int brokers,
                                        int interval = 0) {
  sim::SystemSnapshot snap = MakeSnapshot(util, hosts, brokers, interval);
  snap.alive[0] = false;
  snap.hosts[0].failed = true;
  return snap;
}

TEST(ServiceObsTest, SnapshotReconcilesExactlyWithStatsUnderStorm) {
  // The reconciliation contract: every ServiceStats counter equals its
  // MetricsSnapshot() counterpart, and the per-request histograms hold
  // exactly one sample per completed request — under concurrent clients
  // racing repairs and observes against a tight admission bound.
  serve::ServiceConfig cfg = TinyServiceConfig(2);
  cfg.max_pending_requests = 4;
  serve::ResilienceService service(cfg);
  const int clients = 6, rounds = 5;
  std::vector<serve::SessionId> ids;
  for (int c = 0; c < clients; ++c) {
    serve::FederationSpec spec;
    spec.carol = TinyCarolConfig(300 + static_cast<unsigned>(c));
    spec.carol.policy = core::FineTunePolicy::kNever;
    ids.push_back(service.OpenSession(spec));
  }
  std::atomic<int> observed{0};
  std::atomic<int> repaired{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const serve::SessionId id = ids[static_cast<std::size_t>(c)];
      for (int r = 0; r < rounds; ++r) {
        try {
          serve::ObserveRequest req;
          req.snapshot = MakeSnapshot(0.4, 10, 2, r);
          service.Observe(id, req);
          observed.fetch_add(1);
        } catch (const serve::ServiceOverloadedError&) {
        }
        try {
          const sim::SystemSnapshot failing =
              MakeFailureSnapshot(0.5, 10, 2, r);
          serve::RepairRequest req;
          req.current = failing.topology;
          req.failed_brokers = {0};
          req.snapshot = failing;
          service.Repair(id, req);
          repaired.fetch_add(1);
        } catch (const serve::ServiceOverloadedError&) {
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  const serve::ServiceStats stats = service.stats();
  const MetricsSnapshot snap = service.MetricsSnapshot();
  EXPECT_EQ(snap.counter("repairs"), stats.repairs);
  EXPECT_EQ(snap.counter("observes"), stats.observes);
  EXPECT_EQ(snap.counter("finetunes"), stats.finetunes);
  EXPECT_EQ(snap.counter("proactive_optimizations"),
            stats.proactive_optimizations);
  EXPECT_EQ(snap.counter("pipeline_passes"), stats.pipeline_passes);
  EXPECT_EQ(snap.counter("pipeline_jobs"), stats.pipeline_jobs);
  EXPECT_EQ(snap.counter("pipeline_states"), stats.pipeline_states);
  EXPECT_EQ(snap.counter("confidence_passes"), stats.confidence_passes);
  EXPECT_EQ(snap.counter("confidence_jobs"), stats.confidence_jobs);
  EXPECT_EQ(snap.counter("shed_observes"), stats.shed_observes);
  EXPECT_EQ(snap.counter("shed_repairs"), stats.shed_repairs);
  EXPECT_EQ(snap.counter("quota_rejections"), stats.quota_rejections);
  EXPECT_EQ(snap.counter("timeouts"), stats.timeouts);
  EXPECT_EQ(snap.counter("suspended"), stats.suspended);
  EXPECT_DOUBLE_EQ(snap.gauge("weight_epoch"),
                   static_cast<double>(stats.weight_epoch));
  EXPECT_DOUBLE_EQ(snap.gauge("sessions"), static_cast<double>(clients));
  EXPECT_DOUBLE_EQ(snap.gauge("pending_requests"), 0.0);

  // Client tallies reconcile too (stats counters are client-visible).
  EXPECT_EQ(stats.repairs, static_cast<std::uint64_t>(repaired.load()));
  EXPECT_EQ(stats.observes, static_cast<std::uint64_t>(observed.load()));

  // Per-request histograms: exactly one sample per completed request,
  // one trace per pipelined repair.
  EXPECT_EQ(snap.histogram("repair_decision_ns").count, stats.repairs);
  EXPECT_EQ(snap.histogram("repair_queue_ns").count, stats.repairs);
  EXPECT_EQ(snap.histogram("repair_encode_ns").count, stats.repairs);
  EXPECT_EQ(snap.histogram("repair_score_wait_ns").count, stats.repairs);
  EXPECT_EQ(snap.histogram("repair_splice_ns").count, stats.repairs);
  EXPECT_EQ(snap.histogram("repair_confidence_wait_ns").count,
            stats.repairs);
  EXPECT_EQ(snap.histogram("observe_queue_ns").count, stats.observes);
  EXPECT_EQ(snap.histogram("observe_ns").count, stats.observes);
  EXPECT_DOUBLE_EQ(snap.gauge("decision_traces"),
                   static_cast<double>(stats.repairs));
  EXPECT_GT(snap.histogram("flush_generate_ns").count, 0u);
  EXPECT_GT(snap.histogram("flush_confidence_ns").count, 0u);
}

TEST(ServiceObsTest, DecisionTracesAreBoundedWithCompletionSeq) {
  serve::ServiceConfig cfg = TinyServiceConfig(1);
  cfg.trace_capacity = 4;
  serve::ResilienceService service(cfg);
  serve::FederationSpec spec;
  spec.carol = TinyCarolConfig(11);
  spec.carol.policy = core::FineTunePolicy::kNever;
  const serve::SessionId id = service.OpenSession(spec);
  for (int r = 0; r < 8; ++r) {
    const sim::SystemSnapshot failing = MakeFailureSnapshot(0.5, 10, 2, r);
    serve::RepairRequest req;
    req.current = failing.topology;
    req.failed_brokers = {0};
    req.snapshot = failing;
    service.Repair(id, req);
  }
  const std::vector<DecisionTrace> traces = service.DecisionTraces();
  ASSERT_EQ(traces.size(), 4u);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const DecisionTrace& t = traces[i];
    EXPECT_EQ(t.seq, 5 + i);  // last four completions, oldest first
    EXPECT_EQ(t.session, id);
    EXPECT_FALSE(t.scoped);
    EXPECT_GT(t.frontier_rounds, 0u);
    EXPECT_GT(t.states_scored, 0u);
    EXPECT_GT(t.total_ns, 0);
    // Spans nest inside the total: each stage is non-negative and their
    // sum cannot exceed end-to-end wall clock.
    EXPECT_GE(t.queue_ns, 0);
    EXPECT_GE(t.encode_ns, 0);
    EXPECT_GE(t.score_wait_ns, 0);
    EXPECT_GE(t.splice_ns, 0);
    EXPECT_GE(t.confidence_wait_ns, 0);
    EXPECT_LE(t.queue_ns + t.encode_ns + t.score_wait_ns + t.splice_ns +
                  t.confidence_wait_ns,
              t.total_ns);
  }
}

TEST(ServiceObsTest, DisabledObservabilityStillServesCounters) {
  serve::ServiceConfig cfg = TinyServiceConfig(1);
  cfg.observability = false;
  serve::ResilienceService service(cfg);
  serve::FederationSpec spec;
  spec.carol = TinyCarolConfig(21);
  spec.carol.policy = core::FineTunePolicy::kNever;
  const serve::SessionId id = service.OpenSession(spec);
  const sim::SystemSnapshot failing = MakeFailureSnapshot(0.5, 10, 2);
  serve::RepairRequest req;
  req.current = failing.topology;
  req.failed_brokers = {0};
  req.snapshot = failing;
  service.Repair(id, req);

  const MetricsSnapshot snap = service.MetricsSnapshot();
  EXPECT_EQ(snap.counter("repairs"), 1u);
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_TRUE(service.DecisionTraces().empty());
}

// --- determinism neutrality ----------------------------------------------

core::CarolConfig LightSession() {
  core::CarolConfig cfg;
  cfg.tabu.max_iterations = 2;
  cfg.tabu.max_evaluations = 24;
  return cfg;
}

serve::ServiceConfig SmallService(int workers, bool observability) {
  serve::ServiceConfig cfg;
  cfg.gon.hidden_width = 24;
  cfg.gon.num_layers = 2;
  cfg.gon.gat_width = 12;
  cfg.gon.generation_steps = 3;
  cfg.num_workers = workers;
  cfg.observability = observability;
  return cfg;
}

scenario::ScenarioSpec ObsTestScenario() {
  scenario::ScenarioSpec spec;
  spec.name = "obs-neutrality";
  spec.seed = 31;
  spec.intervals = 8;
  spec.fault_defaults.reboot_min_s = 400.0;
  spec.fault_defaults.reboot_max_s = 650.0;
  spec.fleets.clear();
  scenario::FleetSpec a;
  a.name = "a16";
  spec.fleets.push_back(a);
  scenario::FleetSpec b;
  b.name = "b12";
  b.num_nodes = 12;
  b.num_brokers = 3;
  spec.fleets.push_back(b);
  scenario::ScenarioPhase cascade;
  cascade.kind = scenario::PhaseKind::kCascade;
  cascade.start = 1;
  cascade.duration = 4;
  cascade.spacing = 1.0;
  spec.phases.push_back(cascade);
  return spec;
}

TEST(ObsNeutralityTest, FingerprintsBitIdenticalObsOnVsOffAcrossWorkers) {
  // The hard constraint from the design: recording a sample can never
  // change a decision. Play the same scenario with observability on
  // (including a live JSONL emitter draining into a string) and off,
  // across 1 and 4 workers — all four scorecard fingerprints must be
  // bit-identical.
  const scenario::ScenarioSpec spec = ObsTestScenario();
  std::vector<std::uint64_t> fingerprints;
  std::string jsonl;
  for (const int workers : {1, 4}) {
    for (const bool obs_on : {true, false}) {
      serve::ResilienceService service(SmallService(workers, obs_on));
      scenario::ScenarioDriverOptions opts{LightSession()};
      std::ostringstream stream;
      if (obs_on && workers == 4) {
        opts.emit_out = &stream;
        opts.emit_every = 2;
      }
      scenario::ScenarioDriver driver(service, opts);
      fingerprints.push_back(driver.Run(spec).DeterministicFingerprint());
      if (opts.emit_out != nullptr) jsonl = stream.str();
    }
  }
  ASSERT_EQ(fingerprints.size(), 4u);
  for (std::size_t i = 1; i < fingerprints.size(); ++i) {
    EXPECT_EQ(fingerprints[i], fingerprints[0]) << "run " << i;
  }
  // The emitter actually streamed: one line per emission, each a JSON
  // object carrying the live scenario counters and the service metrics.
  ASSERT_FALSE(jsonl.empty());
  std::istringstream lines(jsonl);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"scenario\":\"obs-neutrality\""),
              std::string::npos);
    EXPECT_NE(line.find("\"live\""), std::string::npos);
    EXPECT_NE(line.find("\"service\""), std::string::npos);
    ++count;
  }
  EXPECT_GE(count, 2);
}

}  // namespace
}  // namespace carol::obs
