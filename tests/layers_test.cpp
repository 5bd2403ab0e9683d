// Unit tests for nn/layers: shapes, parameter registration, gradient flow
// through Dense/MLP/GAT/LSTM, and the GAN loss.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "nn/autograd.h"
#include "nn/layers.h"
#include "nn/matrix.h"

namespace carol::nn {
namespace {

// One-state graph attention: a batch of one adjacency.
Value GatForward(GraphAttention& gat, Tape& tape, Value u,
                 const Matrix& adjacency) {
  const Matrix* adj = &adjacency;
  return gat.ForwardBatch(tape, u, std::span<const Matrix* const>(&adj, 1));
}

TEST(DenseTest, OutputShapeAndActivation) {
  common::Rng rng(1);
  Dense layer(4, 3, rng, "d", Activation::kRelu);
  Tape tape;
  Value x = tape.Leaf(Matrix::Randn(5, 4, rng));
  Value y = layer.Forward(tape, x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 3u);
  EXPECT_GE(y.val().MinValue(), 0.0);  // ReLU output non-negative
}

TEST(DenseTest, InputWidthMismatchThrows) {
  common::Rng rng(1);
  Dense layer(4, 3, rng);
  Tape tape;
  Value x = tape.Leaf(Matrix(2, 5));
  EXPECT_THROW(layer.Forward(tape, x), std::invalid_argument);
}

TEST(DenseTest, ParameterCount) {
  common::Rng rng(1);
  Dense layer(4, 3, rng);
  EXPECT_EQ(layer.ParameterCount(), 4u * 3u + 3u);
}

TEST(DenseTest, GradientsFlowToParameters) {
  common::Rng rng(2);
  Dense layer(3, 2, rng);
  Tape tape;
  Value x = tape.Leaf(Matrix::Randn(4, 3, rng));
  Value loss = tape.MeanAll(layer.Forward(tape, x));
  tape.Backward(loss);
  EXPECT_GT(layer.weight().grad.Norm(), 0.0);
  EXPECT_GT(layer.bias().grad.Norm(), 0.0);
}

TEST(DenseTest, BackwardSumsAcrossMinibatchBindings) {
  common::Rng rng(3);
  Dense layer(2, 1, rng);
  Tape tape;
  // Two forward passes on the same tape (two minibatch samples).
  Value x1 = tape.Leaf(Matrix::Ones(1, 2));
  Value x2 = tape.Leaf(Matrix::Ones(1, 2) * 2.0);
  Value loss =
      tape.Add(tape.SumAll(layer.Forward(tape, x1)),
               tape.SumAll(layer.Forward(tape, x2)));
  tape.Backward(loss);
  // d(loss)/d(bias) = 1 + 1 = 2 (one per forward).
  EXPECT_NEAR(layer.bias().grad(0, 0), 2.0, 1e-12);
  // d(loss)/dW = x1 + x2 = [3, 3]^T per column.
  EXPECT_NEAR(layer.weight().grad(0, 0), 3.0, 1e-12);
  EXPECT_NEAR(layer.weight().grad(1, 0), 3.0, 1e-12);
}

TEST(MlpTest, DepthAndShapes) {
  common::Rng rng(4);
  Mlp mlp({6, 128, 128, 1}, rng, "m", Activation::kSigmoid);
  EXPECT_EQ(mlp.depth(), 3u);
  Tape tape;
  Value y = mlp.Forward(tape, tape.Leaf(Matrix::Randn(2, 6, rng)));
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 1u);
  EXPECT_GT(y.val()(0, 0), 0.0);
  EXPECT_LT(y.val()(0, 0), 1.0);
}

TEST(MlpTest, RejectsTooFewDims) {
  common::Rng rng(4);
  EXPECT_THROW(Mlp({3}, rng), std::invalid_argument);
}

TEST(MlpTest, ParameterAggregation) {
  common::Rng rng(4);
  Mlp mlp({3, 5, 2}, rng);
  // (3*5+5) + (5*2+2) = 20 + 12.
  EXPECT_EQ(mlp.ParameterCount(), 32u);
  EXPECT_EQ(mlp.Parameters().size(), 4u);
}

TEST(GraphAttentionTest, OutputShapeAndRange) {
  common::Rng rng(5);
  GraphAttention gat(4, 8, rng);
  const std::size_t h = 6;
  Matrix adj(h, h, 0.0);
  // Star topology: node 0 is the broker.
  for (std::size_t i = 1; i < h; ++i) {
    adj(0, i) = adj(i, 0) = 1.0;
  }
  Tape tape;
  Value u = tape.Leaf(Matrix::Randn(h, 4, rng));
  Value e = GatForward(gat, tape, u, adj);
  EXPECT_EQ(e.rows(), h);
  EXPECT_EQ(e.cols(), 8u);
  // Sigmoid output in (0,1).
  EXPECT_GT(e.val().MinValue(), 0.0);
  EXPECT_LT(e.val().MaxValue(), 1.0);
}

TEST(GraphAttentionTest, AgnosticToHostCount) {
  // The same layer must accept graphs of different sizes — the paper's
  // motivation for using a GAT.
  common::Rng rng(6);
  GraphAttention gat(3, 4, rng);
  for (std::size_t h : {2u, 5u, 16u, 31u}) {
    Matrix adj(h, h, 1.0);
    Tape tape;
    Value e = GatForward(gat, tape, tape.Leaf(Matrix::Randn(h, 3, rng)), adj);
    EXPECT_EQ(e.rows(), h);
    EXPECT_EQ(e.cols(), 4u);
  }
}

TEST(GraphAttentionTest, AdjacencyShapeMismatchThrows) {
  common::Rng rng(6);
  GraphAttention gat(3, 4, rng);
  Tape tape;
  Value u = tape.Leaf(Matrix(4, 3));
  EXPECT_THROW(GatForward(gat, tape, u, Matrix(3, 3)), std::invalid_argument);
}

TEST(GraphAttentionTest, GradientsFlowThroughAttention) {
  common::Rng rng(7);
  GraphAttention gat(3, 4, rng);
  Matrix adj(4, 4, 1.0);
  Tape tape;
  Value u = tape.Leaf(Matrix::Randn(4, 3, rng), /*requires_grad=*/true);
  Value loss = tape.MeanAll(GatForward(gat, tape, u, adj));
  tape.Backward(loss);
  EXPECT_GT(u.grad().Norm(), 0.0);
  for (Parameter* p : gat.Parameters()) {
    EXPECT_GT(p->grad.Norm(), 0.0) << p->name;
  }
}

TEST(GraphAttentionTest, IsolatedNodeStillProducesOutput) {
  // Self-loops are added internally, so a node with no edges attends to
  // itself rather than producing zeros/NaN.
  common::Rng rng(8);
  GraphAttention gat(2, 3, rng);
  Matrix adj(3, 3, 0.0);
  Tape tape;
  Value e = GatForward(gat, tape, tape.Leaf(Matrix::Randn(3, 2, rng)), adj);
  EXPECT_TRUE(e.val().AllFinite());
  EXPECT_GT(e.val().MinValue(), 0.0);
}

TEST(LstmCellTest, StateShapesAndEvolution) {
  common::Rng rng(9);
  LstmCell cell(5, 7, rng);
  Tape tape;
  auto state = cell.InitialState(tape, 2);
  EXPECT_EQ(state.h.rows(), 2u);
  EXPECT_EQ(state.h.cols(), 7u);
  Value x = tape.Leaf(Matrix::Randn(2, 5, rng));
  auto next = cell.Forward(tape, x, state);
  EXPECT_EQ(next.h.rows(), 2u);
  EXPECT_EQ(next.h.cols(), 7u);
  // Non-zero input should move the state away from zero.
  EXPECT_GT(next.h.val().Norm(), 0.0);
  // |h| bounded by 1 (tanh of cell through sigmoid gate).
  EXPECT_LE(next.h.val().MaxValue(), 1.0);
  EXPECT_GE(next.h.val().MinValue(), -1.0);
}

TEST(LstmCellTest, UnrollGradientsReachParameters) {
  common::Rng rng(10);
  LstmCell cell(3, 4, rng);
  Tape tape;
  auto state = cell.InitialState(tape, 1);
  for (int step = 0; step < 3; ++step) {
    Value x = tape.Leaf(Matrix::Randn(1, 3, rng));
    state = cell.Forward(tape, x, state);
  }
  Value loss = tape.MeanAll(state.h);
  tape.Backward(loss);
  for (Parameter* p : cell.Parameters()) {
    EXPECT_GT(p->grad.Norm(), 0.0) << p->name;
  }
}

TEST(LstmCellTest, InputWidthMismatchThrows) {
  common::Rng rng(10);
  LstmCell cell(3, 4, rng);
  Tape tape;
  auto state = cell.InitialState(tape, 1);
  EXPECT_THROW(cell.Forward(tape, tape.Leaf(Matrix(1, 5)), state),
               std::invalid_argument);
}

TEST(LossTest, MseLossKnownValue) {
  Tape tape;
  Value pred = tape.Leaf(Matrix({{1.0, 2.0}}));
  Value loss = MseLoss(tape, pred, Matrix({{0.0, 0.0}}));
  EXPECT_NEAR(loss.scalar(), (1.0 + 4.0) / 2.0, 1e-12);
}

TEST(LossTest, GanDiscriminatorLossDirection) {
  // A perfect discriminator (real->1, fake->0) has ~0 loss; a confused one
  // has larger loss.
  Tape tape;
  Value good_real = tape.Leaf(Matrix(1, 1, 0.999));
  Value good_fake = tape.Leaf(Matrix(1, 1, 0.001));
  Value bad_real = tape.Leaf(Matrix(1, 1, 0.5));
  Value bad_fake = tape.Leaf(Matrix(1, 1, 0.5));
  const double good =
      GanDiscriminatorLoss(tape, good_real, good_fake).scalar();
  const double bad = GanDiscriminatorLoss(tape, bad_real, bad_fake).scalar();
  EXPECT_LT(good, bad);
  EXPECT_NEAR(good, 0.0, 0.01);
}

TEST(ModuleTest, BackwardReachesNestedSubmodules) {
  // Regression test: composite modules bind their sub-layers' parameters;
  // Backward must reach every one of them, otherwise multi-layer networks
  // silently stop learning.
  common::Rng rng(21);
  Mlp mlp({3, 6, 4, 2}, rng, "deep");
  Tape tape;
  Value loss = tape.MeanAll(mlp.Forward(tape, tape.Leaf(Matrix::Randn(
                                                    5, 3, rng))));
  tape.Backward(loss);
  for (Parameter* p : mlp.Parameters()) {
    EXPECT_GT(p->grad.Norm(), 0.0) << p->name;
  }
}

// Bit images of every parameter gradient, comparable with ==.
std::vector<std::uint64_t> GradBits(Module& module) {
  std::vector<std::uint64_t> bits;
  for (Parameter* p : module.Parameters()) {
    for (double g : p->grad.flat()) {
      bits.push_back(std::bit_cast<std::uint64_t>(g));
    }
  }
  return bits;
}

// One training step's gradients on a new tape: zero, forward, Backward.
void GradStep(Mlp& mlp, const Matrix& x, const Matrix& target) {
  Tape tape;
  mlp.ZeroGrad();
  tape.Backward(MseLoss(tape, mlp.Forward(tape, tape.Leaf(x)), target));
}

TEST(ModuleTest, FrozenBuildRecordsNoParameterGradient) {
  common::Rng rng(22);
  common::Rng twin_rng(22);
  Mlp mlp({3, 5, 2}, rng, "frozen");
  Mlp twin({3, 5, 2}, twin_rng, "frozen");
  const Matrix x = Matrix::Randn(4, 3, rng);
  const Matrix target = Matrix::Randn(4, 2, rng);

  // A frozen build still yields input gradients, but leaves every
  // Parameter::grad exactly as it was.
  for (Parameter* p : mlp.Parameters()) p->grad.Fill(7.0);
  const std::vector<std::uint64_t> sentinel = GradBits(mlp);
  Tape tape;
  tape.Reset(/*param_grads=*/false);
  Value in = tape.Leaf(x, /*requires_grad=*/true);
  tape.Backward(MseLoss(tape, mlp.Forward(tape, in), target));
  EXPECT_GT(in.grad().Norm(), 0.0);
  EXPECT_EQ(GradBits(mlp), sentinel);

  // A frozen build that throws mid-forward leaves nothing to restore: the
  // next default build on the same tape records again, bit-equal to a
  // fresh tape's gradients.
  tape.Reset(/*param_grads=*/false);
  Value h = mlp.Forward(tape, tape.Leaf(x));
  EXPECT_THROW(mlp.Forward(tape, h), std::invalid_argument);
  tape.Reset();
  mlp.ZeroGrad();
  tape.Backward(MseLoss(tape, mlp.Forward(tape, tape.Leaf(x)), target));
  GradStep(twin, x, target);
  EXPECT_EQ(GradBits(mlp), GradBits(twin));

  // Clear also ends a frozen build: the next build records, as on a new
  // tape.
  tape.Reset(/*param_grads=*/false);
  tape.Clear();
  mlp.ZeroGrad();
  tape.Backward(MseLoss(tape, mlp.Forward(tape, tape.Leaf(x)), target));
  EXPECT_EQ(GradBits(mlp), GradBits(twin));
}

TEST(ModuleTest, ForwardOnADestroyedTapeLeavesNoBinding) {
  // A module keeps no per-tape state: after a forward on a tape that is
  // then destroyed, one training step on a new tape (with no clearing
  // call) produces the gradients a fresh copy of the module produces.
  common::Rng rng_a(23);
  common::Rng rng_b(23);
  Mlp used({3, 6, 2}, rng_a, "net");
  Mlp fresh({3, 6, 2}, rng_b, "net");
  common::Rng data_rng(24);
  const Matrix x = Matrix::Randn(5, 3, data_rng);
  const Matrix target = Matrix::Randn(5, 2, data_rng);
  {
    Tape gone;
    used.Forward(gone, gone.Leaf(x));
  }
  GradStep(used, x, target);
  GradStep(fresh, x, target);
  EXPECT_GT(used.Parameters().front()->grad.Norm(), 0.0);
  EXPECT_EQ(GradBits(used), GradBits(fresh));
}

TEST(ModuleTest, ZeroGradResets) {
  common::Rng rng(11);
  Dense layer(2, 2, rng);
  layer.weight().grad.Fill(5.0);
  layer.ZeroGrad();
  EXPECT_DOUBLE_EQ(layer.weight().grad.Norm(), 0.0);
}

TEST(ModuleTest, ParameterMegabytes) {
  common::Rng rng(12);
  // 128x128 weights + 128 bias = 16512 doubles = 129 KiB.
  Dense layer(128, 128, rng);
  EXPECT_NEAR(layer.ParameterMegabytes(), 16512.0 * 8 / (1024 * 1024),
              1e-9);
}

}  // namespace
}  // namespace carol::nn
