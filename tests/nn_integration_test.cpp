// Integration tests of the neural substrate on small end-to-end learning
// problems: the networks used by CAROL and the baselines must actually be
// able to learn, not just compute gradients.
#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "common/rng.h"
#include "nn/autograd.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/optim.h"

namespace carol::nn {
namespace {

TEST(NnIntegrationTest, MlpLearnsXor) {
  common::Rng rng(1);
  Mlp net({2, 8, 1}, rng, "xor", Activation::kSigmoid,
          Activation::kTanh);
  Adam opt(net.Parameters(), 0.05);
  const Matrix inputs = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const Matrix targets = {{0}, {1}, {1}, {0}};
  double loss = 1.0;
  for (int iter = 0; iter < 800 && loss > 1e-3; ++iter) {
    Tape tape;
    Value pred = net.Forward(tape, tape.Leaf(inputs));
    Value l = MseLoss(tape, pred, targets);
    opt.ZeroGrad();
    tape.Backward(l);
    opt.Step();
    loss = l.scalar();
  }
  EXPECT_LT(loss, 5e-3);
  Tape tape;
  const Matrix out = net.Forward(tape, tape.Leaf(inputs)).val();
  EXPECT_LT(out(0, 0), 0.2);
  EXPECT_GT(out(1, 0), 0.8);
  EXPECT_GT(out(2, 0), 0.8);
  EXPECT_LT(out(3, 0), 0.2);
}

TEST(NnIntegrationTest, LstmLearnsParityOfShortSequences) {
  // Classify whether a 4-step binary sequence contains an odd number of
  // ones — requires genuine state propagation through the cell.
  common::Rng rng(2);
  LstmCell cell(1, 12, rng, "parity");
  Dense head(12, 1, rng, "parity.head", Activation::kSigmoid);
  std::vector<Parameter*> params = cell.Parameters();
  for (auto* p : head.Parameters()) params.push_back(p);
  Adam opt(params, 0.02);

  auto forward = [&](Tape& tape, const std::vector<double>& seq) {
    auto state = cell.InitialState(tape, 1);
    for (double bit : seq) {
      state = cell.Forward(tape, tape.Leaf(Matrix(1, 1, bit)), state);
    }
    return head.Forward(tape, state.h);
  };

  // All 16 sequences of length 4.
  std::vector<std::vector<double>> seqs;
  std::vector<double> labels;
  for (int v = 0; v < 16; ++v) {
    std::vector<double> s;
    int ones = 0;
    for (int b = 0; b < 4; ++b) {
      const int bit = (v >> b) & 1;
      s.push_back(bit);
      ones += bit;
    }
    seqs.push_back(s);
    labels.push_back(ones % 2 == 1 ? 1.0 : 0.0);
  }

  double loss = 1.0;
  for (int epoch = 0; epoch < 600 && loss > 5e-3; ++epoch) {
    Tape tape;
    Value total;
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      Value pred = forward(tape, seqs[i]);
      Value diff = tape.Sub(pred, tape.Leaf(Matrix(1, 1, labels[i])));
      Value sq = tape.Mul(diff, diff);
      total = i == 0 ? sq : tape.Add(total, sq);
    }
    Value l = tape.Scale(total, 1.0 / 16.0);
    opt.ZeroGrad();
    tape.Backward(tape.SumAll(l));
    opt.Step();
    loss = l.val()(0, 0);
  }
  EXPECT_LT(loss, 0.05);
  // Spot-check classification.
  Tape tape;
  EXPECT_GT(forward(tape, {1, 0, 0, 0}).scalar(), 0.5);
  EXPECT_LT(forward(tape, {1, 1, 0, 0}).scalar(), 0.5);
}

TEST(NnIntegrationTest, GatDistinguishesGraphStructure) {
  // Two graphs on 6 nodes with identical node features but different
  // wiring (star vs two triangles): a trained GAT + head must separate
  // them, proving the adjacency actually influences the output.
  common::Rng rng(3);
  GraphAttention gat(2, 6, rng, "g");
  Dense head(6, 1, rng, "g.head", Activation::kSigmoid);
  std::vector<Parameter*> params = gat.Parameters();
  for (auto* p : head.Parameters()) params.push_back(p);
  Adam opt(params, 0.03);

  Matrix star(6, 6, 0.0);
  for (int i = 1; i < 6; ++i) star(0, i) = star(i, 0) = 1.0;
  Matrix triangles(6, 6, 0.0);
  for (int base : {0, 3}) {
    for (int a = 0; a < 3; ++a) {
      for (int b = 0; b < 3; ++b) {
        if (a != b) triangles(base + a, base + b) = 1.0;
      }
    }
  }
  common::Rng feat_rng(4);
  const Matrix features = Matrix::Randn(6, 2, feat_rng, 0.5, 0.2);

  auto forward = [&](Tape& tape, const Matrix& adj) {
    const Matrix* adj_ptr = &adj;
    Value e = gat.ForwardBatch(tape, tape.Leaf(features),
                               std::span<const Matrix* const>(&adj_ptr, 1));
    return head.Forward(tape, tape.RowMean(e));
  };

  double loss = 1.0;
  for (int iter = 0; iter < 500 && loss > 1e-3; ++iter) {
    Tape tape;
    Value p_star = forward(tape, star);
    Value p_tri = forward(tape, triangles);
    Value d1 = tape.Sub(p_star, tape.Leaf(Matrix(1, 1, 1.0)));
    Value d2 = tape.Sub(p_tri, tape.Leaf(Matrix(1, 1, 0.0)));
    Value l = tape.Add(tape.SumAll(tape.Mul(d1, d1)),
                       tape.SumAll(tape.Mul(d2, d2)));
    opt.ZeroGrad();
    tape.Backward(l);
    opt.Step();
    loss = l.val()(0, 0);
  }
  EXPECT_LT(loss, 0.05);
  Tape tape;
  EXPECT_GT(forward(tape, star).scalar(), 0.7);
  EXPECT_LT(forward(tape, triangles).scalar(), 0.3);
}

TEST(NnIntegrationTest, GanOnToyDistribution) {
  // Minimal GAN dynamics on a 1-D toy: generator maps noise to samples,
  // discriminator separates them from N(3, 0.3) data; after training the
  // generator's outputs should move toward the data region.
  common::Rng rng(5);
  Mlp gen({1, 16, 1}, rng, "gen");
  Mlp disc({1, 16, 1}, rng, "disc", Activation::kSigmoid);
  Adam gen_opt(gen.Parameters(), 0.01);
  Adam disc_opt(disc.Parameters(), 0.01);

  auto gen_sample = [&](double z) {
    Tape tape;
    return gen.Forward(tape, tape.Leaf(Matrix(1, 1, z))).scalar();
  };
  const double before = gen_sample(0.0);

  for (int iter = 0; iter < 400; ++iter) {
    const double real = rng.Normal(3.0, 0.3);
    const double z = rng.Normal(0.0, 1.0);
    {  // discriminator step
      Tape tape;
      Value fake = gen.Forward(tape, tape.Leaf(Matrix(1, 1, z)));
      Value fake_detached = tape.Leaf(fake.val());
      Value d_real = disc.Forward(tape, tape.Leaf(Matrix(1, 1, real)));
      Value d_fake = disc.Forward(tape, fake_detached);
      Value loss = GanDiscriminatorLoss(tape, d_real, d_fake);
      disc_opt.ZeroGrad();
      tape.Backward(loss);
      disc_opt.Step();
    }
    {  // generator step
      Tape tape;
      Value fake = gen.Forward(tape, tape.Leaf(Matrix(1, 1, z)));
      Value d_fake = disc.Forward(tape, fake);
      Value loss = tape.Neg(tape.SumAll(tape.Log(d_fake)));
      gen_opt.ZeroGrad();
      tape.Backward(loss);
      gen_opt.Step();
    }
  }
  const double after = gen_sample(0.0);
  // The generator output moved toward the data mean (3.0).
  EXPECT_LT(std::abs(after - 3.0), std::abs(before - 3.0));
}

}  // namespace
}  // namespace carol::nn
