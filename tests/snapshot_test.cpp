// Crash-safe serving: snapshot/restore bit-identity at every layer.
// Each layer's capture/restore is pinned against an uninterrupted run of
// the same computation — rng streams, binary weights, mid-search tabu
// state, mid-dispatch repair jobs, POT thresholds, and finally a full
// service (sessions + weights + parked in-flight repairs) across a
// drain → snapshot → restart → resume cycle.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "common/rng.h"
#include "core/carol.h"
#include "core/node_shift.h"
#include "core/pot.h"
#include "core/tabu.h"
#include "nn/serialize.h"
#include "serve/service.h"
#include "sim/federation.h"

namespace carol::serve {
namespace {

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

ServiceConfig TinyServiceConfig(int workers = 1) {
  ServiceConfig cfg;
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

struct Episode {
  std::vector<sim::Topology> decisions;
  std::vector<double> confidences;
};

// Drives intervals [t0, t1) of the scripted episode used throughout the
// serve tests. Split points are transparent: DriveRange(0,N) equals
// DriveRange(0,k) followed by DriveRange(k,N) against the same session —
// unless state was lost in between.
Episode DriveRange(ResilienceService& service, SessionId id, int hosts,
                   int brokers, int t0, int t1) {
  Episode ep;
  for (int t = t0; t < t1; ++t) {
    const double util = 0.3 + 0.06 * (t % 7);
    ObserveRequest obs;
    obs.snapshot = MakeSnapshot(util, hosts, brokers, t);
    ep.confidences.push_back(service.Observe(id, obs).confidence);
    RepairRequest rep;
    const sim::SystemSnapshot failing =
        MakeFailureSnapshot(util, hosts, brokers, t);
    rep.current = failing.topology;
    rep.failed_brokers = {0};
    rep.snapshot = failing;
    ep.decisions.push_back(service.Repair(id, rep).topology);
  }
  return ep;
}

void ExpectEpisodesIdentical(const Episode& a, const Episode& b) {
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  ASSERT_EQ(a.confidences.size(), b.confidences.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_TRUE(a.decisions[i] == b.decisions[i]) << "decision " << i;
  }
  for (std::size_t i = 0; i < a.confidences.size(); ++i) {
    EXPECT_EQ(a.confidences[i], b.confidences[i]) << "confidence " << i;
  }
}

// Deterministic toy objective over assignments — cheap, but distinct
// enough that searches branch on it like they would on the GON.
std::vector<double> ToyScores(const std::vector<sim::Topology>& frontier) {
  std::vector<double> scores;
  scores.reserve(frontier.size());
  for (const sim::Topology& t : frontier) {
    const std::vector<sim::NodeId>& a = t.assignment();
    double v = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      v += std::sin(0.37 * static_cast<double>(i) +
                    0.11 * static_cast<double>(a[i]));
    }
    scores.push_back(v);
  }
  return scores;
}

// --- rng stream capture --------------------------------------------------

TEST(RngSnapshotTest, SaveLoadResumesStreamExactly) {
  common::Rng original(123);
  for (int i = 0; i < 17; ++i) original.Uniform();
  const std::string state = original.SaveState();

  common::Rng restored(999);  // seed is irrelevant; state overrides it
  restored.LoadState(state);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(original.engine()(), restored.engine()()) << i;
  }
}

TEST(RngSnapshotTest, LoadRejectsGarbage) {
  common::Rng rng(1);
  EXPECT_THROW(rng.LoadState("definitely not an engine state"),
               std::invalid_argument);
}

// --- binary weight serialization ----------------------------------------

TEST(ParamsSnapshotTest, BinaryRoundTripIsBitExact) {
  core::GonConfig cfg = TinyCarolConfig().gon;
  core::GonModel source(cfg);
  core::GonConfig other = cfg;
  other.seed = cfg.seed + 1;  // different init: the load must overwrite
  core::GonModel target(other);

  core::FeatureEncoder encoder;
  const core::EncodedState probe = encoder.Encode(MakeSnapshot(0.4, 10, 2));
  ASSERT_NE(source.Discriminate(probe), target.Discriminate(probe));

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  nn::SaveParametersBinary(source.network(), buf);
  buf.seekg(0);
  nn::LoadParametersBinary(target.network(), buf);
  // EQ, not NEAR: the binary format stores raw IEEE-754 bit patterns.
  EXPECT_EQ(source.Discriminate(probe), target.Discriminate(probe));
}

TEST(ParamsSnapshotTest, BinaryLoadRejectsArchitectureMismatch) {
  core::GonConfig small = TinyCarolConfig().gon;
  core::GonConfig big = small;
  big.hidden_width = 24;
  core::GonModel a(small);
  core::GonModel b(big);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  nn::SaveParametersBinary(a.network(), buf);
  buf.seekg(0);
  EXPECT_THROW(nn::LoadParametersBinary(b.network(), buf),
               common::BinaryFormatError);
}

// Bit images of every parameter, NaN-safe and comparable with ==.
std::vector<std::vector<std::uint64_t>> ParameterBits(nn::Module& module) {
  std::vector<std::vector<std::uint64_t>> bits;
  for (const nn::Parameter* p : module.Parameters()) {
    std::vector<std::uint64_t>& row = bits.emplace_back();
    for (double v : p->value.flat()) {
      row.push_back(std::bit_cast<std::uint64_t>(v));
    }
  }
  return bits;
}

TEST(ParamsSnapshotTest, TruncatedImageLeavesModuleUnchanged) {
  const core::GonConfig cfg = TinyCarolConfig().gon;
  core::GonModel source(cfg);
  core::GonConfig other = cfg;
  other.seed = cfg.seed + 1;  // different init: a partial load would show
  core::GonModel target(other);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  nn::SaveParametersBinary(source.network(), buf);
  const std::string image = buf.str();
  const auto before = ParameterBits(target.network());
  std::stringstream cut(image.substr(0, image.size() / 2),
                        std::ios::in | std::ios::binary);
  EXPECT_THROW(nn::LoadParametersBinary(target.network(), cut),
               common::BinaryFormatError);
  EXPECT_EQ(ParameterBits(target.network()), before);
}

TEST(ParamsSnapshotTest, NanAndInfiniteWeightsRoundTripThroughFiles) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "carol_params_nan.bin")
          .string();
  core::GonModel source(TinyCarolConfig().gon);
  nn::Parameter& p = *source.network().Parameters().front();
  p.value.flat()[0] = std::numeric_limits<double>::quiet_NaN();
  p.value.flat()[1] = std::numeric_limits<double>::infinity();
  p.value.flat()[2] = -std::numeric_limits<double>::infinity();
  core::GonConfig other = TinyCarolConfig().gon;
  other.seed += 1;
  core::GonModel target(other);
  nn::SaveParameters(source.network(), path);
  nn::LoadParameters(target.network(), path);
  std::remove(path.c_str());
  EXPECT_EQ(ParameterBits(target.network()),
            ParameterBits(source.network()));
}

TEST(ServiceWeightsTest, FailedLoadWeightsLeavesMasterAndEpochUnchanged) {
  const std::string good =
      (std::filesystem::temp_directory_path() / "carol_weights_good.bin")
          .string();
  const std::string bad =
      (std::filesystem::temp_directory_path() / "carol_weights_cut.bin")
          .string();
  ServiceConfig donor_cfg = TinyServiceConfig(1);
  donor_cfg.gon.seed += 1;  // weights that differ from the master's
  ResilienceService(donor_cfg).SaveWeights(good);
  std::string image;
  {
    std::ifstream in(good, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(image.empty());
  {
    std::ofstream out(bad, std::ios::binary);
    out << image.substr(0, image.size() / 2);
  }

  ResilienceService service(TinyServiceConfig(1));
  const auto before = ParameterBits(service.master_gon().network());
  const std::uint64_t epoch = service.weight_epoch();
  EXPECT_THROW(service.LoadWeights(bad), std::runtime_error);
  EXPECT_EQ(ParameterBits(service.master_gon().network()), before);
  EXPECT_EQ(service.weight_epoch(), epoch);
  // The intact image still loads and bumps the epoch once.
  service.LoadWeights(good);
  EXPECT_NE(ParameterBits(service.master_gon().network()), before);
  EXPECT_EQ(service.weight_epoch(), epoch + 1);
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

TEST(ParamsSnapshotTest, BinaryLoadRejectsTruncatedImage) {
  core::GonModel model(TinyCarolConfig().gon);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  nn::SaveParametersBinary(model.network(), buf);
  const std::string image = buf.str();
  std::stringstream cut(image.substr(0, image.size() / 2),
                        std::ios::in | std::ios::binary);
  EXPECT_THROW(nn::LoadParametersBinary(model.network(), cut),
               common::BinaryFormatError);
}

// --- tabu search mid-flight ----------------------------------------------

TEST(TabuSnapshotTest, MidSearchSnapshotResumesBitIdentically) {
  core::TabuConfig cfg;
  cfg.max_iterations = 6;
  cfg.max_evaluations = 200;
  const sim::Topology start = sim::Topology::Initial(12, 3);
  const std::vector<bool> alive(12, true);

  core::TabuSearchState reference(cfg, start, alive,
                                  core::NodeShiftOptions{});
  core::TabuSearchState live(cfg, start, alive, core::NodeShiftOptions{});

  // Step both in lockstep for a couple of frontiers, then capture `live`
  // at the park point (frontier proposed, scores pending).
  for (int step = 0; step < 2; ++step) {
    ASSERT_FALSE(reference.done());
    reference.Advance(ToyScores(reference.ProposeFrontier()));
    live.Advance(ToyScores(live.ProposeFrontier()));
  }
  ASSERT_FALSE(live.done());
  const core::TabuSearchSnapshot snapshot = live.Snapshot();

  // "Restart": a fresh state rebuilt from the snapshot with the same
  // neighborhood inputs must finish exactly like the original.
  core::TabuSearchState resumed(cfg, alive, core::NodeShiftOptions{},
                                snapshot);
  while (!reference.done()) {
    reference.Advance(ToyScores(reference.ProposeFrontier()));
  }
  while (!resumed.done()) {
    resumed.Advance(ToyScores(resumed.ProposeFrontier()));
  }
  EXPECT_TRUE(resumed.best() == reference.best());
  EXPECT_EQ(resumed.best_score(), reference.best_score());
  EXPECT_EQ(resumed.evaluations(), reference.evaluations());
}

// --- repair job mid-dispatch ---------------------------------------------

TEST(RepairJobSnapshotTest, MidDispatchSaveRestoreResumesBitIdentically) {
  core::CarolConfig cfg = TinyCarolConfig();
  cfg.tabu.max_iterations = 5;
  cfg.tabu.max_evaluations = 120;
  const sim::SystemSnapshot snap = MakeFailureSnapshot(0.5, 12, 3);
  const std::vector<sim::NodeId> failed = {0};

  common::Rng ref_rng(5);
  core::RepairJob reference(snap.topology, failed, snap, cfg, &ref_rng);

  common::Rng live_rng(5);
  core::RepairJob live(snap.topology, failed, snap, cfg, &live_rng);
  for (int step = 0; step < 2 && !live.done(); ++step) {
    live.Advance(ToyScores(live.ProposeFrontier()));
  }
  ASSERT_FALSE(live.done());
  const core::RepairJobState state = live.SaveState();
  const std::string rng_state = live_rng.SaveState();

  // "Restart": new rng object carrying the captured stream, new job
  // rebuilt from the saved state; both runs must land on one topology.
  common::Rng resumed_rng(0);
  resumed_rng.LoadState(rng_state);
  core::RepairJob resumed(snap.topology, failed, snap, cfg, &resumed_rng,
                          nullptr, &state);
  while (!reference.done()) {
    reference.Advance(ToyScores(reference.ProposeFrontier()));
  }
  while (!resumed.done()) {
    resumed.Advance(ToyScores(resumed.ProposeFrontier()));
  }
  EXPECT_TRUE(resumed.result() == reference.result());
}

// --- POT threshold -------------------------------------------------------

TEST(PotSnapshotTest, RestoreContinuesUpdateSequenceExactly) {
  core::PotConfig cfg;
  cfg.min_calibration = 8;
  cfg.window = 32;
  core::PotThreshold original(cfg);
  common::Rng rng(3);
  for (int i = 0; i < 20; ++i) original.Update(rng.Uniform());

  core::PotThreshold restored(cfg);
  restored.Restore(original.state());
  EXPECT_EQ(restored.threshold(), original.threshold());
  EXPECT_EQ(restored.calibrated(), original.calibrated());
  for (int i = 0; i < 20; ++i) {
    const double v = rng.Uniform();
    EXPECT_EQ(original.Update(v), restored.Update(v)) << i;
  }
}

// --- full service: drain -> snapshot -> restart -> resume ----------------

TEST(ServiceSnapshotTest, RestoredServiceResumesBitIdentically) {
  const int half = 4;
  core::CarolConfig carol = TinyCarolConfig(21);
  carol.policy = core::FineTunePolicy::kNever;
  const ServiceConfig cfg = TinyServiceConfig(1);

  // Reference: 2*half intervals on one uninterrupted service.
  Episode expected;
  {
    ResilienceService service(cfg);
    FederationSpec spec;
    spec.carol = carol;
    const SessionId id = service.OpenSession(spec);
    expected = DriveRange(service, id, 12, 3, 0, 2 * half);
  }

  // Same traffic, interrupted in the middle by a full snapshot/restore
  // cycle into a brand-new service object ("new process").
  ResilienceService first(cfg);
  FederationSpec spec;
  spec.carol = carol;
  const SessionId id = first.OpenSession(spec);
  Episode actual = DriveRange(first, id, 12, 3, 0, half);

  first.BeginDrain();
  first.WaitDrained();
  std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
  first.SaveSnapshot(image);
  first.Shutdown();

  image.seekg(0);
  ResilienceService second(cfg, image);
  EXPECT_EQ(second.session_count(), 1u);
  const Episode tail = DriveRange(second, id, 12, 3, half, 2 * half);
  actual.decisions.insert(actual.decisions.end(), tail.decisions.begin(),
                          tail.decisions.end());
  actual.confidences.insert(actual.confidences.end(),
                            tail.confidences.begin(),
                            tail.confidences.end());
  ExpectEpisodesIdentical(expected, actual);
}

TEST(ServiceSnapshotTest, TunedWeightsAndEpochSurviveRestore) {
  const ServiceConfig cfg = TinyServiceConfig(1);
  FederationSpec tuner;
  tuner.carol = TinyCarolConfig();
  tuner.carol.policy = core::FineTunePolicy::kAlways;
  FederationSpec prober;
  prober.carol = TinyCarolConfig(88);
  prober.carol.policy = core::FineTunePolicy::kNever;

  // Reference service: tune once, then probe.
  ResilienceService reference(cfg);
  const SessionId ref_tuner = reference.OpenSession(tuner);
  const SessionId ref_prober = reference.OpenSession(prober);
  ObserveRequest tune;
  tune.snapshot = MakeSnapshot(0.5, 12, 3);
  ASSERT_TRUE(reference.Observe(ref_tuner, tune).fine_tuned);

  // Test service: tune identically, snapshot, restore, then probe.
  ResilienceService first(cfg);
  const SessionId tuner_id = first.OpenSession(tuner);
  const SessionId prober_id = first.OpenSession(prober);
  ASSERT_TRUE(first.Observe(tuner_id, tune).fine_tuned);
  const std::uint64_t epoch = first.weight_epoch();
  ASSERT_GE(epoch, 1u);

  first.BeginDrain();
  first.WaitDrained();
  std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
  first.SaveSnapshot(image);
  first.Shutdown();
  image.seekg(0);
  ResilienceService second(cfg, image);

  EXPECT_EQ(second.weight_epoch(), epoch);
  EXPECT_EQ(second.session_count(), 2u);
  ObserveRequest probe;
  probe.snapshot = MakeSnapshot(0.35, 10, 2);
  EXPECT_EQ(second.Observe(prober_id, probe).confidence,
            reference.Observe(ref_prober, probe).confidence);
}

TEST(ServiceSnapshotTest, ParkedMidRepairResumesBitIdentically) {
  // The hardest resume: BeginDrain catches a repair mid-tabu-search. The
  // pipeline parks at its next submit boundary, the client gets the
  // typed suspension error, the park state rides the snapshot, and
  // re-issuing the SAME request on the restored service must produce the
  // bit-exact decision of a never-interrupted run (same rng draws, same
  // candidate order, same confidence). Run once unscoped and once with
  // an explicit scope, whose parked sub-space job and scope identity
  // ride the v2 session section.
  ServiceConfig cfg = TinyServiceConfig(1);
  FederationSpec spec;
  spec.carol = TinyCarolConfig();
  spec.carol.policy = core::FineTunePolicy::kNever;
  spec.carol.tabu.max_iterations = 30;
  spec.carol.tabu.max_evaluations = 2000;

  RepairRequest plain;
  const sim::SystemSnapshot snap = MakeFailureSnapshot(0.5, 64, 16);
  plain.current = snap.topology;
  plain.failed_brokers = {0};
  plain.snapshot = snap;
  RepairRequest plain_wrong = plain;
  plain_wrong.failed_brokers = {1};

  RepairRequest scoped = plain;
  scoped.scope.emplace();
  scoped.scope->options.max_hosts = 32;
  scoped.scope->hints = {40, 21, 57};
  RepairRequest scoped_wrong = scoped;
  scoped_wrong.scope->hints = {40, 21, 9};

  const std::pair<const RepairRequest*, const RepairRequest*> cases[] = {
      {&plain, &plain_wrong}, {&scoped, &scoped_wrong}};
  for (const auto& [req, wrong] : cases) {
    SCOPED_TRACE(req->scope ? "scoped" : "unscoped");
    RepairResponse want;
    {
      ResilienceService reference(cfg);
      const SessionId id = reference.OpenSession(spec);
      want = reference.Repair(id, *req);
    }

    ResilienceService first(cfg);
    const SessionId id = first.OpenSession(spec);
    std::atomic<bool> suspended{false};
    std::thread client([&] {
      try {
        first.Repair(id, *req);
      } catch (const ServiceSuspendedError&) {
        suspended.store(true);
      }
    });
    // Pull the plug only once the search is demonstrably mid-flight.
    while (first.stats().pipeline_passes < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    first.BeginDrain();
    client.join();
    EXPECT_TRUE(suspended.load());
    first.WaitDrained();
    EXPECT_GE(first.stats().suspended, 1u);

    std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
    first.SaveSnapshot(image);
    first.Shutdown();
    image.seekg(0);
    ResilienceService second(cfg, image);

    // A DIFFERENT request cannot consume the parked state...
    EXPECT_THROW(second.Repair(id, *wrong), std::invalid_argument);
    // ...re-issuing the suspended one resumes it to the bit-exact result.
    const RepairResponse got = second.Repair(id, *req);
    EXPECT_TRUE(got.topology == want.topology);
    EXPECT_EQ(got.confidence, want.confidence);
  }
}

TEST(ServiceSnapshotTest, SnapshotRequiresQuiescence) {
  ResilienceService service(TinyServiceConfig(1));
  FederationSpec spec;
  spec.carol = TinyCarolConfig();
  spec.carol.policy = core::FineTunePolicy::kNever;
  spec.carol.tabu.max_iterations = 30;
  spec.carol.tabu.max_evaluations = 2000;
  const SessionId id = service.OpenSession(spec);

  std::thread client([&] {
    RepairRequest req;
    const sim::SystemSnapshot snap = MakeFailureSnapshot(0.5, 64, 16);
    req.current = snap.topology;
    req.failed_brokers = {0};
    req.snapshot = snap;
    try {
      service.Repair(id, req);
    } catch (const ServiceSuspendedError&) {
    }
  });
  while (service.stats().pipeline_passes < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Mid-flight: SaveSnapshot must refuse rather than write a torn image.
  std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_THROW(service.SaveSnapshot(image), std::logic_error);
  service.BeginDrain();
  client.join();
  service.WaitDrained();
  service.SaveSnapshot(image);  // quiescent now: succeeds
  EXPECT_GT(image.str().size(), 0u);
}

TEST(ServiceSnapshotTest, RestoreRejectsCorruptImage) {
  const ServiceConfig cfg = TinyServiceConfig(1);
  const double init_quantile = TinyCarolConfig().pot.init_quantile;
  auto one_session_image = [&](core::FineTunePolicy policy,
                               double quantile) {
    ResilienceService service(cfg);
    FederationSpec spec;
    spec.carol = TinyCarolConfig();
    spec.carol.policy = policy;
    spec.carol.pot.init_quantile = quantile;
    service.OpenSession(spec);
    service.BeginDrain();
    service.WaitDrained();
    std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
    service.SaveSnapshot(image);
    return image.str();
  };
  const std::string bytes =
      one_session_image(core::FineTunePolicy::kConfidence, init_quantile);

  std::stringstream truncated(bytes.substr(0, bytes.size() - 7),
                              std::ios::in | std::ios::binary);
  EXPECT_THROW(ResilienceService(cfg, truncated),
               common::BinaryFormatError);

  std::stringstream garbage(std::string("not a snapshot at all"),
                            std::ios::in | std::ios::binary);
  EXPECT_THROW(ResilienceService(cfg, garbage), common::BinaryFormatError);

  // A policy outside FineTunePolicy must not restore a session whose gate
  // then silently never fine-tunes. Two images differing only in policy
  // locate its byte.
  const std::string never =
      one_session_image(core::FineTunePolicy::kNever, init_quantile);
  ASSERT_EQ(never.size(), bytes.size());
  std::vector<std::size_t> diffs;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] != never[i]) diffs.push_back(i);
  }
  ASSERT_EQ(diffs.size(), 1u);
  std::string bad_policy = never;
  bad_policy[diffs[0]] = 7;
  std::stringstream patched(bad_policy, std::ios::in | std::ios::binary);
  EXPECT_THROW(ResilienceService(cfg, patched), common::BinaryFormatError);

  // A NaN POT init quantile must not restore either: the session's first
  // calibration would turn it into a Percentile rank. Two images
  // differing only in init_quantile locate its F64.
  auto f64 = [](double v) {
    std::stringstream out(std::ios::out | std::ios::binary);
    common::BinaryWriter(out).F64(v);
    return out.str();
  };
  const double other_quantile = 0.5;
  const std::string moved =
      one_session_image(core::FineTunePolicy::kConfidence, other_quantile);
  ASSERT_EQ(moved.size(), bytes.size());
  std::vector<std::size_t> quantile_at;
  for (std::size_t i = 0; i + 8 <= bytes.size(); ++i) {
    if (bytes.compare(i, 8, f64(init_quantile)) == 0 &&
        moved.compare(i, 8, f64(other_quantile)) == 0) {
      quantile_at.push_back(i);
    }
  }
  ASSERT_EQ(quantile_at.size(), 1u);
  std::string nan_quantile = bytes;
  nan_quantile.replace(quantile_at[0], 8,
                       f64(std::numeric_limits<double>::quiet_NaN()));
  std::stringstream nan_image(nan_quantile, std::ios::in | std::ios::binary);
  EXPECT_THROW(ResilienceService(cfg, nan_image), common::BinaryFormatError);

  // A matrix header whose rows * cols wraps to 0 must not restore as a
  // storage-less matrix. One healthy Observe leaves one Gamma entry, and
  // its 16 x 9 metrics matrix is the image's only (16, 9, 144) header;
  // rewrite it to (2^32, 2^32, 0) and drop its payload.
  std::string gamma_image;
  {
    ResilienceService service(cfg);
    FederationSpec spec;
    spec.carol = TinyCarolConfig();
    const SessionId id = service.OpenSession(spec);
    ObserveRequest obs;
    obs.snapshot = MakeSnapshot(0.5, 16, 4);
    service.Observe(id, obs);
    service.BeginDrain();
    service.WaitDrained();
    std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
    service.SaveSnapshot(image);
    gamma_image = image.str();
  }
  auto u64s = [](std::initializer_list<std::uint64_t> values) {
    std::stringstream out(std::ios::out | std::ios::binary);
    common::BinaryWriter w(out);
    for (std::uint64_t v : values) w.U64(v);
    return out.str();
  };
  const std::string m_header = u64s({16, 9, 144});
  const std::size_t at = gamma_image.find(m_header);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(gamma_image.find(m_header, at + 1), std::string::npos);
  const std::string wrapped = gamma_image.substr(0, at) +
                              u64s({1ull << 32, 1ull << 32, 0}) +
                              gamma_image.substr(at + m_header.size() +
                                                 144 * sizeof(double));
  std::stringstream wrapped_image(wrapped, std::ios::in | std::ios::binary);
  EXPECT_THROW(ResilienceService(cfg, wrapped_image),
               common::BinaryFormatError);
}

TEST(ServiceSnapshotTest, RestoreRejectsUnsteppableParkedRepair) {
  // A parked repair resumes by scoring its job's proposed frontier. A job
  // state RepairJob cannot step from must fail the restore with a typed
  // error: restored, the re-issued request would read an empty frontier.
  // Each image is a one-session image whose final "no parked repair"
  // byte is replaced by a parked tail in the session format.
  const ServiceConfig cfg = TinyServiceConfig(1);
  std::string bytes;
  {
    ResilienceService service(cfg);
    FederationSpec spec;
    spec.carol = TinyCarolConfig();
    service.OpenSession(spec);
    service.BeginDrain();
    service.WaitDrained();
    std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
    service.SaveSnapshot(image);
    bytes = image.str();
  }
  ASSERT_EQ(bytes.back(), '\0');

  // A real parked state to corrupt: a repair job at its first frontier.
  const core::CarolConfig carol = TinyCarolConfig();
  const sim::SystemSnapshot snap = MakeFailureSnapshot(0.5, 12, 3);
  const std::vector<sim::NodeId> failed = {0};
  common::Rng rng(5);
  const core::RepairJob job(snap.topology, failed, snap, carol, &rng);
  const core::RepairJobState healthy = job.SaveState();
  ASSERT_EQ(healthy.phase, 0);
  ASSERT_TRUE(healthy.has_search);
  ASSERT_TRUE(healthy.search.start_pending);

  auto restore = [&](const core::RepairJobState& s) {
    std::stringstream tail(std::ios::out | std::ios::binary);
    common::BinaryWriter w(tail);
    w.Bool(true);  // a parked repair follows
    w.Ints(snap.topology.assignment());
    w.Ints(failed);
    w.Bools(s.alive);
    w.Ints(s.topo);
    w.U64(s.broker_idx);
    w.I32(s.phase);
    w.Bool(s.proactive_acted);
    w.U64(s.baseline.size());
    for (const std::vector<sim::NodeId>& g : s.baseline) w.Ints(g);
    w.Bool(s.has_search);
    if (s.has_search) {
      w.Ints(s.search.current);
      w.Ints(s.search.best);
      w.F64(s.search.best_score);
      w.Ints(s.search.tabu);
      w.U64(s.search.frontier.size());
      for (const std::vector<sim::NodeId>& g : s.search.frontier) w.Ints(g);
      w.I32(s.search.evaluations);
      w.I32(s.search.iter);
      w.Bool(s.search.start_pending);
      w.Bool(s.search.done);
    }
    w.Bool(false);  // unscoped
    std::stringstream image(bytes.substr(0, bytes.size() - 1) + tail.str(),
                            std::ios::in | std::ios::binary);
    ResilienceService restored(cfg, image);
  };
  // The healthy tail restores: the format above is the session's own.
  EXPECT_NO_THROW(restore(healthy));

  core::RepairJobState no_search = healthy;  // search phase, no search
  no_search.has_search = false;
  EXPECT_THROW(restore(no_search), common::BinaryFormatError);

  core::RepairJobState empty_frontier = healthy;  // not done, no frontier
  empty_frontier.search.frontier.clear();
  EXPECT_THROW(restore(empty_frontier), common::BinaryFormatError);

  core::RepairJobState wide_start = healthy;  // start frontier != {current}
  wide_start.search.frontier.push_back(wide_start.search.current);
  EXPECT_THROW(restore(wide_start), common::BinaryFormatError);

  core::RepairJobState finished_search = healthy;  // search phase, done
  finished_search.search.done = true;
  EXPECT_THROW(restore(finished_search), common::BinaryFormatError);

  core::RepairJobState bad_baseline = healthy;  // baseline phase, none
  bad_baseline.phase = 2;
  EXPECT_THROW(restore(bad_baseline), common::BinaryFormatError);
}

}  // namespace
}  // namespace carol::serve
