// Correctness regressions for the nn fast path: the blocked/fused/batched
// kernels must reproduce textbook reference implementations, and the GON
// must reproduce an unfused one-state-at-a-time reference network — a
// perf change must not move a single decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/encoder.h"
#include "core/gon.h"
#include "core/pot.h"
#include "nn/autograd.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "sim/federation.h"
#include "sim/topology.h"

namespace carol {
namespace {

using nn::Matrix;
using nn::Tape;
using nn::Value;

// Textbook i-j-k reference product.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += a(i, k) * b(k, j);
      }
      out(i, j) = acc;
    }
  }
  return out;
}

class MatMulShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapeTest, BlockedMatchesNaive) {
  const auto [m, k, n] = GetParam();
  common::Rng rng(static_cast<unsigned>(m * 1000 + k * 10 + n));
  const Matrix a = Matrix::Randn(m, k, rng);
  const Matrix b = Matrix::Randn(k, n, rng);
  const Matrix expect = NaiveMatMul(a, b);

  EXPECT_LT(a.MatMul(b).MaxAbsDiff(expect), 1e-12);

  Matrix into;
  Matrix::MatMulInto(a, b, into);
  EXPECT_LT(into.MaxAbsDiff(expect), 1e-12);

  // Accum on a non-zero destination.
  Matrix accum = Matrix::Ones(m, n);
  Matrix::MatMulAccum(a, b, accum);
  EXPECT_LT(accum.MaxAbsDiff(expect + Matrix::Ones(m, n)), 1e-12);

  // a * b == TransA(a^T, b).
  Matrix trans_a = Matrix::Zeros(m, n);
  Matrix::MatMulTransAAccum(a.Transposed(), b, trans_a);
  EXPECT_LT(trans_a.MaxAbsDiff(expect), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 7, 1),
                      std::make_tuple(1, 11, 64),  // GON encoder row
                      std::make_tuple(5, 3, 9),    // non-square
                      std::make_tuple(16, 64, 64), std::make_tuple(3, 1, 5),
                      std::make_tuple(64, 64, 64),
                      std::make_tuple(130, 70, 5),  // spills block bounds
                      std::make_tuple(1, 100, 1)));

TEST(MatrixPerfTest, MatMulWithReluSparsityMatchesNaive) {
  common::Rng rng(7);
  Matrix a = Matrix::Randn(33, 65, rng);
  // Exact zeros exercise the aik == 0 skip.
  a.MapInPlaceFn(nn::scalar_ops::Relu);
  const Matrix b = Matrix::Randn(65, 17, rng);
  EXPECT_LT(a.MatMul(b).MaxAbsDiff(NaiveMatMul(a, b)), 1e-12);
}

TEST(MatrixPerfTest, InPlaceVariantsMatchOperators) {
  common::Rng rng(9);
  const Matrix a = Matrix::Randn(6, 5, rng);
  const Matrix b = Matrix::Randn(6, 5, rng);

  Matrix add = a;
  add.AddInPlace(b);
  EXPECT_LT(add.MaxAbsDiff(a + b), 1e-15);

  Matrix axpy = a;
  axpy.MulAddInPlace(b, -2.5);
  EXPECT_LT(axpy.MaxAbsDiff(a + b * -2.5), 1e-15);

  Matrix had = a;
  had.HadamardInPlace(b);
  EXPECT_LT(had.MaxAbsDiff(a.Hadamard(b)), 1e-15);

  Matrix hacc = a;
  hacc.HadamardAccum(a, b);
  EXPECT_LT(hacc.MaxAbsDiff(a + a.Hadamard(b)), 1e-15);

  Matrix colsum = Matrix::Zeros(1, 5);
  colsum.AddColumnSums(a);
  EXPECT_LT(colsum.MaxAbsDiff(a.RowSum()), 1e-15);

  Matrix t;
  Matrix::TransposeInto(a, t);
  EXPECT_EQ(t, a.Transposed());

  Matrix sliced;
  sliced.CopyRowsFrom(a, 1, 4);
  EXPECT_EQ(sliced, a.SliceRows(1, 4));
}

TEST(MatrixPerfTest, BufferReuseKeepsShapeAndValues) {
  Matrix m(4, 3, 1.0);
  const double* data_before = m.flat().data();
  m.AssignZeros(2, 5);  // smaller: must reuse the buffer
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.flat().data(), data_before);
  EXPECT_DOUBLE_EQ(m.Sum(), 0.0);
  m.CopyFrom(Matrix::Ones(3, 2));
  EXPECT_EQ(m.flat().data(), data_before);
  EXPECT_DOUBLE_EQ(m.Sum(), 6.0);
}

// --- fused tape ops -------------------------------------------------------

TEST(FusedLinearTest, MatchesUnfusedForwardAndBackward) {
  common::Rng rng(3);
  const Matrix x_in = Matrix::Randn(5, 7, rng);
  const Matrix w_in = Matrix::Randn(7, 4, rng);
  const Matrix b_in = Matrix::Randn(1, 4, rng);

  for (nn::FusedAct act :
       {nn::FusedAct::kNone, nn::FusedAct::kRelu, nn::FusedAct::kSigmoid,
        nn::FusedAct::kTanh}) {
    Tape fused;
    Value fx = fused.Leaf(x_in, true);
    Value fw = fused.Leaf(w_in, true);
    Value fb = fused.Leaf(b_in, true);
    Value fy = fused.Linear(fx, fw, fb, act);
    Value floss = fused.SumAll(fused.Mul(fy, fy));
    fused.Backward(floss);

    Tape plain;
    Value px = plain.Leaf(x_in, true);
    Value pw = plain.Leaf(w_in, true);
    Value pb = plain.Leaf(b_in, true);
    Value pre = plain.AddRowBroadcast(plain.MatMul(px, pw), pb);
    Value py = pre;
    switch (act) {
      case nn::FusedAct::kNone:
        break;
      case nn::FusedAct::kRelu:
        py = plain.Relu(pre);
        break;
      case nn::FusedAct::kSigmoid:
        py = plain.Sigmoid(pre);
        break;
      case nn::FusedAct::kTanh:
        py = plain.Tanh(pre);
        break;
    }
    Value ploss = plain.SumAll(plain.Mul(py, py));
    plain.Backward(ploss);

    EXPECT_LT(fy.val().MaxAbsDiff(py.val()), 1e-12);
    EXPECT_LT(fx.grad().MaxAbsDiff(px.grad()), 1e-12);
    EXPECT_LT(fw.grad().MaxAbsDiff(pw.grad()), 1e-12);
    EXPECT_LT(fb.grad().MaxAbsDiff(pb.grad()), 1e-12);
  }
}

TEST(FusedLinearTest, SliceRowsGradient) {
  common::Rng rng(5);
  const Matrix in = Matrix::Randn(6, 3, rng);
  Tape t;
  Value x = t.Leaf(in, true);
  Value s = t.SliceRows(x, 2, 5);
  EXPECT_EQ(s.val(), in.SliceRows(2, 5));
  t.Backward(t.SumAll(t.Mul(s, s)));
  for (std::size_t r = 0; r < in.rows(); ++r) {
    for (std::size_t c = 0; c < in.cols(); ++c) {
      const double expect = (r >= 2 && r < 5) ? 2.0 * in(r, c) : 0.0;
      EXPECT_NEAR(x.grad()(r, c), expect, 1e-12);
    }
  }
}

TEST(TapeArenaTest, ResetRecyclesSlotsAndReproducesResults) {
  common::Rng rng(11);
  const Matrix a = Matrix::Randn(8, 8, rng);
  const Matrix b = Matrix::Randn(8, 8, rng);
  Tape tape;
  double first = 0.0;
  std::size_t capacity_after_first = 0;
  for (int round = 0; round < 5; ++round) {
    tape.Reset();
    Value x = tape.LeafRef(a, true);
    Value y = tape.LeafRef(b);
    Value out = tape.SumAll(tape.Tanh(tape.MatMul(x, y)));
    tape.Backward(out);
    if (round == 0) {
      first = out.scalar();
      capacity_after_first = tape.capacity();
    } else {
      EXPECT_DOUBLE_EQ(out.scalar(), first);
      // Steady state: no new node slots after the first build.
      EXPECT_EQ(tape.capacity(), capacity_after_first);
    }
    EXPECT_EQ(tape.size(), 5u);
  }
}

// --- GON batch equivalence ------------------------------------------------

sim::SystemSnapshot PerfSnapshot(int hosts, int brokers, unsigned seed) {
  common::Rng rng(seed);
  sim::SystemSnapshot snap;
  snap.topology = sim::Topology::Initial(hosts, brokers);
  snap.hosts.resize(static_cast<std::size_t>(hosts));
  snap.alive.assign(static_cast<std::size_t>(hosts), true);
  for (int i = 0; i < hosts; ++i) {
    auto& m = snap.hosts[static_cast<std::size_t>(i)];
    const double util = rng.Uniform(0.2, 0.9);
    m.cpu_util = util;
    m.ram_util = util * 0.8;
    m.disk_util = util * 0.3;
    m.net_util = util * 0.2;
    m.energy_kwh = util * 5e-4;
    m.slo_violation_rate = util > 0.8 ? 0.3 : 0.05;
    m.task_cpu_demand_mips = util * 3000.0;
    m.task_ram_demand_mb = util * 2000.0;
    m.avg_deadline_s = 300.0;
    m.sched_cpu_demand_mips = util * 1000.0;
    m.sched_task_count = util * 2.0;
    m.is_broker = snap.topology.is_broker(i);
  }
  return snap;
}

core::GonConfig PerfGonConfig() {
  core::GonConfig cfg;
  cfg.hidden_width = 24;
  cfg.num_layers = 2;
  cfg.gat_width = 12;
  cfg.generation_steps = 8;
  cfg.batch_size = 8;
  cfg.seed = 21;
  return cfg;
}

// Test-only reference GON: the same network as core::GonModel, rebuilt
// from unfused tape primitives (MatMul + AddRowBroadcast + activation per
// dense layer, single-state graph attention) on a fresh tape per call,
// with the weights read from gon.network() by parameter name. Generate is
// the per-candidate Eq.-1 ascent loop with one fresh tape per step. The
// library's fused, stacked, tape-free path must match it.
class ReferenceGon {
 public:
  explicit ReferenceGon(core::GonModel& gon) : config_(gon.config()) {
    for (nn::Parameter* p : gon.network().Parameters()) {
      params_[p->name] = &p->value;
    }
  }

  double Discriminate(const core::EncodedState& state) const {
    Tape tape;
    return Forward(tape, tape.Leaf(state.m), state).scalar();
  }

  core::GenerationResult Generate(const Matrix& m_init,
                                  const core::EncodedState& context) const {
    core::GenerationResult result;
    Matrix m_cur = m_init;
    const double lr = config_.generation_lr;
    double prev_objective = -std::numeric_limits<double>::infinity();
    for (int step = 0; step < config_.generation_steps; ++step) {
      Tape tape;
      Value m = tape.Leaf(m_cur, /*requires_grad=*/true);
      Value objective = tape.Log(Forward(tape, m, context));
      const double obj = objective.scalar();
      tape.Backward(objective);
      const Matrix& grad = m.grad();
      // M <- clamp(M + gamma * grad / max|grad|), stopping once the
      // log-likelihood improvement stalls.
      double grad_scale = 0.0;
      for (const double g : grad.flat()) {
        grad_scale = std::max(grad_scale, std::abs(g));
      }
      if (grad_scale < 1e-12) break;
      bool moved = false;
      for (std::size_t r = 0; r < m_cur.rows(); ++r) {
        for (std::size_t c = 0; c < m_cur.cols(); ++c) {
          const double delta = lr * grad(r, c) / grad_scale;
          if (std::abs(delta) > 1e-9) moved = true;
          m_cur(r, c) = std::clamp(m_cur(r, c) + delta, 0.0, 1.0);
        }
      }
      ++result.steps;
      if (!moved || std::abs(obj - prev_objective) < config_.generation_tol) {
        break;
      }
      prev_objective = obj;
    }
    result.metrics = std::move(m_cur);
    core::EncodedState scored = context;
    scored.m = result.metrics;
    result.confidence = Discriminate(scored);
    return result;
  }

 private:
  Value Param(Tape& tape, const std::string& name) const {
    return tape.Leaf(*params_.at(name));
  }

  Value Dense(Tape& tape, Value x, const std::string& name,
              nn::Activation act) const {
    Value y = tape.AddRowBroadcast(tape.MatMul(x, Param(tape, name + ".w")),
                                   Param(tape, name + ".b"));
    switch (act) {
      case nn::Activation::kNone:
        return y;
      case nn::Activation::kRelu:
        return tape.Relu(y);
      case nn::Activation::kTanh:
        return tape.Tanh(y);
      case nn::Activation::kSigmoid:
        return tape.Sigmoid(y);
    }
    return y;
  }

  // Layers "<prefix>.l0", "<prefix>.l1", ...: ReLU hidden, `out` last.
  Value Mlp(Tape& tape, Value x, const std::string& prefix,
            nn::Activation out) const {
    for (int i = 0; params_.contains(LayerName(prefix, i) + ".w"); ++i) {
      const bool last = !params_.contains(LayerName(prefix, i + 1) + ".w");
      x = Dense(tape, x, LayerName(prefix, i),
                last ? out : nn::Activation::kRelu);
    }
    return x;
  }

  static std::string LayerName(const std::string& prefix, int i) {
    return prefix + ".l" + std::to_string(i);
  }

  // Eq. (4) for one state, self-loops added.
  Value GraphAttention(Tape& tape, Value u, const Matrix& adjacency) const {
    Matrix mask = adjacency;
    for (std::size_t i = 0; i < mask.rows(); ++i) mask(i, i) = 1.0;
    Value hidden = tape.Tanh(tape.AddRowBroadcast(
        tape.MatMul(u, Param(tape, "gon.gat.w")), Param(tape, "gon.gat.b")));
    Value query = tape.MatMul(hidden, Param(tape, "gon.gat.wq"));
    Value scores = tape.MatMul(query, tape.Transpose(hidden));
    Value attn = tape.MaskedRowSoftmax(scores, std::move(mask));
    return tape.Sigmoid(tape.MatMul(attn, hidden));
  }

  // Figure 3: per-host [M,S] encoder and GAT over the utilization
  // columns + role flags, mean-pooled into the sigmoid head (Eqs. 3-5).
  Value Forward(Tape& tape, Value m, const core::EncodedState& ctx) const {
    Value e_ms = Mlp(tape, tape.ConcatCols(m, tape.Leaf(ctx.s)), "gon.ms",
                     nn::Activation::kRelu);
    Value u = tape.ConcatCols(tape.SliceCols(m, 0, 4), tape.Leaf(ctx.roles));
    Value e_g = GraphAttention(tape, u, ctx.adjacency);
    Value pooled = tape.ConcatCols(tape.RowMean(e_ms), tape.RowMean(e_g));
    return Mlp(tape, pooled, "gon.head", nn::Activation::kSigmoid);
  }

  core::GonConfig config_;
  std::map<std::string, const Matrix*> params_;
};

// `count` states at `hosts` hosts with hosts / 4 brokers.
std::vector<core::EncodedState> PerfStates(int count, int hosts = 8) {
  core::FeatureEncoder encoder;
  std::vector<core::EncodedState> states;
  states.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    states.push_back(encoder.Encode(
        PerfSnapshot(hosts, hosts / 4, static_cast<unsigned>(100 + i))));
  }
  return states;
}

// Host counts for the stacked scoring checks: the paper's testbed scale
// and the large-federation shapes where the O(H^2) attention dominates.
constexpr int kScoringHostCounts[] = {8, 64, 128};

TEST(GonBatchTest, DiscriminateBatchMatchesSequential) {
  for (int hosts : kScoringHostCounts) {
    SCOPED_TRACE("H=" + std::to_string(hosts));
    core::GonModel gon(PerfGonConfig());
    const auto states = PerfStates(16, hosts);
    const std::vector<double> batch = gon.DiscriminateBatch(
        std::span<const core::EncodedState>(states));
    ASSERT_EQ(batch.size(), states.size());
    for (std::size_t i = 0; i < states.size(); ++i) {
      EXPECT_NEAR(batch[i], gon.Discriminate(states[i]), 1e-9)
          << "state " << i;
      EXPECT_GT(batch[i], 0.0);
      EXPECT_LT(batch[i], 1.0);
    }
  }
}

TEST(GonBatchTest, FastPathMatchesSeedStylePath) {
  // Same weights; only the execution strategy differs.
  for (int hosts : kScoringHostCounts) {
    SCOPED_TRACE("H=" + std::to_string(hosts));
    core::GonModel fast(PerfGonConfig());
    const ReferenceGon slow(fast);
    const auto states = PerfStates(4, hosts);
    for (const auto& state : states) {
      EXPECT_NEAR(fast.Discriminate(state), slow.Discriminate(state), 1e-9);
    }
  }
}

TEST(GonBatchTest, GenerateBatchMatchesSequentialGenerate) {
  core::GonModel fast(PerfGonConfig());
  const ReferenceGon slow(fast);
  const auto states = PerfStates(6);

  std::vector<const nn::Matrix*> inits;
  std::vector<const core::EncodedState*> ctxs;
  for (const auto& state : states) {
    inits.push_back(&state.m);
    ctxs.push_back(&state);
  }
  const auto batch = fast.GenerateBatch(inits, ctxs);
  ASSERT_EQ(batch.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const auto seq = slow.Generate(states[i].m, states[i]);
    EXPECT_EQ(batch[i].steps, seq.steps) << "state " << i;
    EXPECT_NEAR(batch[i].confidence, seq.confidence, 1e-9) << "state " << i;
    EXPECT_LT(batch[i].metrics.MaxAbsDiff(seq.metrics), 1e-9)
        << "state " << i;
  }
}

TEST(GonBatchTest, MixedHostCountsAreBucketedByH) {
  core::GonModel gon(PerfGonConfig());
  core::FeatureEncoder encoder;
  std::vector<core::EncodedState> states;
  states.push_back(encoder.Encode(PerfSnapshot(8, 2, 1)));
  states.push_back(encoder.Encode(PerfSnapshot(12, 3, 2)));
  const auto batch =
      gon.DiscriminateBatch(std::span<const core::EncodedState>(states));
  ASSERT_EQ(batch.size(), 2u);
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_NEAR(batch[i], gon.Discriminate(states[i]), 1e-12);
  }
}

// --- POT batch update -----------------------------------------------------

TEST(PotBatchTest, UpdateBatchEndsInSameStateAsSequential) {
  common::Rng rng(13);
  std::vector<double> scores;
  for (int i = 0; i < 120; ++i) {
    scores.push_back(0.7 + 0.1 * rng.Normal());
  }
  core::PotThreshold seq;
  for (double s : scores) seq.Update(s);
  core::PotThreshold bat;
  const double threshold = bat.UpdateBatch(scores);
  EXPECT_TRUE(bat.calibrated());
  EXPECT_DOUBLE_EQ(threshold, seq.threshold());
  EXPECT_EQ(bat.observations(), seq.observations());
}

}  // namespace
}  // namespace carol
