// Tests for the GON surrogate: encoding, discrimination, input-space
// generation (Eq. 1), Algorithm-1 training dynamics and fine-tuning.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "core/encoder.h"
#include "core/gon.h"
#include "sim/federation.h"
#include "workload/trace.h"

namespace carol::core {
namespace {

GonConfig TinyConfig() {
  GonConfig cfg;
  cfg.hidden_width = 16;
  cfg.num_layers = 2;
  cfg.gat_width = 8;
  cfg.generation_steps = 6;
  cfg.generation_lr = 5e-2;
  cfg.train_lr = 3e-3;
  cfg.batch_size = 8;
  cfg.seed = 3;
  return cfg;
}

// A synthetic snapshot with controllable utilization level.
sim::SystemSnapshot MakeSnapshot(double util, int brokers = 2,
                                 int hosts = 8) {
  sim::SystemSnapshot snap;
  snap.topology = sim::Topology::Initial(hosts, brokers);
  snap.hosts.resize(static_cast<std::size_t>(hosts));
  snap.alive.assign(static_cast<std::size_t>(hosts), true);
  for (int i = 0; i < hosts; ++i) {
    auto& m = snap.hosts[static_cast<std::size_t>(i)];
    m.cpu_util = util;
    m.ram_util = util * 0.8;
    m.disk_util = util * 0.3;
    m.net_util = util * 0.2;
    m.energy_kwh = util * 5e-4;
    m.slo_violation_rate = util > 0.9 ? 0.4 : 0.02;
    m.task_cpu_demand_mips = util * 3000.0;
    m.task_ram_demand_mb = util * 2000.0;
    m.avg_deadline_s = 300.0;
    m.sched_cpu_demand_mips = util * 1000.0;
    m.sched_task_count = util * 2.0;
    m.is_broker = snap.topology.is_broker(i);
  }
  return snap;
}

TEST(EncoderTest, ShapesAndRanges) {
  FeatureEncoder encoder;
  const auto state = encoder.Encode(MakeSnapshot(0.5));
  EXPECT_EQ(state.m.rows(), 8u);
  EXPECT_EQ(state.m.cols(),
            static_cast<std::size_t>(FeatureEncoder::kMetricFeatures));
  EXPECT_EQ(state.s.cols(),
            static_cast<std::size_t>(FeatureEncoder::kSchedFeatures));
  EXPECT_EQ(state.roles.cols(),
            static_cast<std::size_t>(FeatureEncoder::kRoleFeatures));
  EXPECT_EQ(state.adjacency.rows(), 8u);
  EXPECT_GE(state.m.MinValue(), 0.0);
  EXPECT_LE(state.m.MaxValue(), 1.0);
}

TEST(EncoderTest, RolesFollowCandidateTopology) {
  FeatureEncoder encoder;
  const auto snap = MakeSnapshot(0.5, 2);
  sim::Topology candidate = snap.topology;
  candidate.Promote(1);
  const auto state = encoder.EncodeForTopology(snap, candidate);
  EXPECT_DOUBLE_EQ(state.roles(1, 0), 1.0);  // promoted in the candidate
  const auto original = encoder.Encode(snap);
  EXPECT_DOUBLE_EQ(original.roles(1, 0), 0.0);
}

TEST(EncoderTest, RecordRoundTripMatchesSnapshotEncoding) {
  FeatureEncoder encoder;
  const auto snap = MakeSnapshot(0.7);
  const auto direct = encoder.Encode(snap);
  const auto record = workload::MakeTraceRecord(snap);
  const auto via_record = encoder.EncodeRecord(record);
  EXPECT_LT(direct.m.MaxAbsDiff(via_record.m), 1e-12);
  EXPECT_LT(direct.s.MaxAbsDiff(via_record.s), 1e-12);
  EXPECT_LT(direct.adjacency.MaxAbsDiff(via_record.adjacency), 1e-12);
}

TEST(GonTest, DiscriminateInUnitInterval) {
  GonModel gon(TinyConfig());
  FeatureEncoder encoder;
  const double d = gon.Discriminate(encoder.Encode(MakeSnapshot(0.4)));
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 1.0);
}

TEST(GonTest, GenerationIncreasesLikelihood) {
  // The defining property of Eq. (1): ascent on log D must not decrease
  // the discriminator score of the metrics.
  GonModel gon(TinyConfig());
  FeatureEncoder encoder;
  const auto ctx = encoder.Encode(MakeSnapshot(0.5));
  common::Rng rng(5);
  nn::Matrix noise(ctx.m.rows(), ctx.m.cols());
  for (double& v : noise.flat()) v = rng.Uniform(0.0, 1.0);
  EncodedState noisy = ctx;
  noisy.m = noise;
  const double before = gon.Discriminate(noisy);
  const GenerationResult gen = gon.Generate(noise, ctx);
  EXPECT_GE(gen.confidence, before - 1e-6);
  EXPECT_GE(gen.metrics.MinValue(), 0.0);
  EXPECT_LE(gen.metrics.MaxValue(), 1.0);
  EXPECT_GT(gen.steps, 0);
}

TEST(GonTest, TrainingSeparatesRealFromNoise) {
  // After Algorithm-1 training on in-distribution tuples, real tuples
  // must score higher than random-noise metrics.
  GonModel gon(TinyConfig());
  FeatureEncoder encoder;
  std::vector<EncodedState> data;
  common::Rng rng(6);
  for (int i = 0; i < 40; ++i) {
    data.push_back(
        encoder.Encode(MakeSnapshot(0.3 + 0.05 * rng.Uniform())));
  }
  gon.Train(data, 8, /*patience=*/8);
  double real_score = 0.0, noise_score = 0.0;
  for (int i = 0; i < 10; ++i) {
    real_score += gon.Discriminate(data[static_cast<std::size_t>(i)]);
    EncodedState noisy = data[static_cast<std::size_t>(i)];
    for (double& v : noisy.m.flat()) v = rng.Uniform(0.0, 1.0);
    noise_score += gon.Discriminate(noisy);
  }
  EXPECT_GT(real_score, noise_score);
}

TEST(GonTest, TrainReturnsEpochStats) {
  GonModel gon(TinyConfig());
  FeatureEncoder encoder;
  std::vector<EncodedState> data;
  for (int i = 0; i < 16; ++i) {
    data.push_back(encoder.Encode(MakeSnapshot(0.4)));
  }
  const auto history = gon.Train(data, 3, /*patience=*/10);
  ASSERT_EQ(history.size(), 3u);
  for (const auto& stats : history) {
    EXPECT_TRUE(std::isfinite(stats.loss));
    EXPECT_GE(stats.mse, 0.0);
    EXPECT_GT(stats.confidence, 0.0);
    EXPECT_LT(stats.confidence, 1.0);
  }
}

TEST(GonTest, FineTuneShiftsConfidenceTowardNewRegime) {
  GonModel gon(TinyConfig());
  FeatureEncoder encoder;
  // Train on a low-utilization regime.
  std::vector<EncodedState> low;
  for (int i = 0; i < 30; ++i) low.push_back(encoder.Encode(MakeSnapshot(0.2)));
  gon.Train(low, 6, 10);
  // A high-utilization regime looks unfamiliar.
  const auto high_state = encoder.Encode(MakeSnapshot(0.95));
  const double before = gon.Discriminate(high_state);
  std::vector<EncodedState> high(10, high_state);
  gon.FineTune(high, 6);
  const double after = gon.Discriminate(high_state);
  EXPECT_GT(after, before);
}

TEST(GonTest, MemoryFootprintGrowsWithLayers) {
  GonConfig small = TinyConfig();
  GonConfig big = TinyConfig();
  big.num_layers = 5;
  big.hidden_width = 64;
  GonModel a(small), b(big);
  EXPECT_GT(b.MemoryFootprintMb(), a.MemoryFootprintMb());
  EXPECT_GT(b.ParameterCount(), a.ParameterCount());
}

TEST(GonTest, TrainEpochOnEmptyDataIsNoop) {
  GonModel gon(TinyConfig());
  const EpochStats stats = gon.TrainEpoch({});
  EXPECT_DOUBLE_EQ(stats.loss, 0.0);
}

TEST(GonTest, TrainingRejectsMixedHostMinibatch) {
  // A minibatch trains as one stacked pass, so mixed host counts must
  // throw before anything is drawn or written, not corrupt the stack.
  GonModel gon(TinyConfig());
  FeatureEncoder encoder;
  const std::vector<EncodedState> mixed = {
      encoder.Encode(MakeSnapshot(0.4, 2, 8)),
      encoder.Encode(MakeSnapshot(0.4, 3, 12))};
  std::vector<nn::Matrix> before;
  for (const nn::Parameter* p : gon.network().Parameters()) {
    before.push_back(p->value);
  }
  EXPECT_THROW(gon.TrainEpoch(mixed), std::invalid_argument);
  EXPECT_THROW(gon.FineTune(mixed), std::invalid_argument);
  const auto params = gon.network().Parameters();
  ASSERT_EQ(params.size(), before.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(params[i]->value, before[i]) << params[i]->name;
  }
}

TEST(GonTest, FineTuneWithZeroBatchSizeTrainsOneSample) {
  // A non-positive batch_size clamps to one sample, as in TrainEpoch,
  // instead of handing TrainBatch an empty minibatch.
  GonConfig cfg = TinyConfig();
  cfg.batch_size = 0;
  GonModel gon(cfg);
  FeatureEncoder encoder;
  const std::vector<EncodedState> recent = {
      encoder.Encode(MakeSnapshot(0.4)), encoder.Encode(MakeSnapshot(0.6))};
  const nn::Matrix before = gon.network().Parameters().front()->value;
  gon.FineTune(recent);
  EXPECT_NE(gon.network().Parameters().front()->value, before);
}

TEST(GonTest, HostCountAgnostic) {
  // The same trained network must score topologies of different sizes —
  // the paper's motivation for the graph-attention branch.
  GonModel gon(TinyConfig());
  FeatureEncoder encoder;
  for (int hosts : {4, 8, 16}) {
    const double d =
        gon.Discriminate(encoder.Encode(MakeSnapshot(0.5, 2, hosts)));
    EXPECT_GT(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace carol::core
