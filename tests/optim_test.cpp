// Unit tests for optimizers and parameter serialization: convergence on
// small problems and exact round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "nn/autograd.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/optim.h"
#include "nn/serialize.h"

namespace carol::nn {
namespace {

// Trains y = xW + b to fit a known linear map; the optimizer must reduce
// the loss by orders of magnitude.
double TrainLinear(Optimizer& opt, Dense& layer, common::Rng& rng) {
  const Matrix true_w = {{2.0}, {-1.0}};
  double last_loss = 0.0;
  for (int iter = 0; iter < 400; ++iter) {
    Tape tape;
    Matrix x = Matrix::Randn(8, 2, rng);
    Matrix y = x.MatMul(true_w);
    for (auto& v : y.flat()) v += 0.5;  // bias target
    Value pred = layer.Forward(tape, tape.Leaf(x));
    Value loss = MseLoss(tape, pred, y);
    opt.ZeroGrad();
    tape.Backward(loss);
    opt.Step();
    last_loss = loss.scalar();
  }
  return last_loss;
}

TEST(AdamTest, ConvergesOnLinearRegression) {
  common::Rng rng(3);
  Dense layer(2, 1, rng);
  Adam opt(layer.Parameters(), 0.05);
  EXPECT_LT(TrainLinear(opt, layer, rng), 1e-3);
}

TEST(AdamTest, WeightDecayShrinksUnusedParameters) {
  // With zero gradient signal, weight decay must pull parameters toward 0.
  common::Rng rng(4);
  Dense layer(2, 2, rng);
  layer.weight().value.Fill(1.0);
  Adam opt(layer.Parameters(), 0.01, 0.9, 0.999, 1e-8, /*weight_decay=*/0.1);
  for (int i = 0; i < 200; ++i) {
    opt.ZeroGrad();
    opt.Step();
  }
  EXPECT_LT(layer.weight().value.MapFn([](double v) { return std::abs(v); })
                .MaxValue(),
            1.0);
}

TEST(AdamTest, LearningRateAccessors) {
  common::Rng rng(5);
  Dense layer(1, 1, rng);
  Adam opt(layer.Parameters(), 1e-4);
  EXPECT_DOUBLE_EQ(opt.learning_rate(), 1e-4);
  opt.set_learning_rate(1e-3);
  EXPECT_DOUBLE_EQ(opt.learning_rate(), 1e-3);
}

TEST(OptimizerTest, NumParametersAndZeroGrad) {
  common::Rng rng(6);
  Mlp mlp({3, 4, 2}, rng);
  Adam opt(mlp.Parameters(), 0.1);
  EXPECT_EQ(opt.num_parameters(), mlp.ParameterCount());
  for (Parameter* p : mlp.Parameters()) p->grad.Fill(1.0);
  opt.ZeroGrad();
  for (Parameter* p : mlp.Parameters()) {
    EXPECT_DOUBLE_EQ(p->grad.Norm(), 0.0);
  }
}

TEST(SerializeTest, RoundTripExact) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "carol_params_test.txt")
          .string();
  common::Rng rng(7);
  Mlp a({4, 8, 2}, rng, "net");
  Mlp b({4, 8, 2}, rng, "net");  // different random init
  SaveParameters(a, path);
  LoadParameters(b, path);
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_LT(pa[i]->value.MaxAbsDiff(pb[i]->value), 1e-15) << pa[i]->name;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, MismatchedShapeThrows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "carol_params_test2.txt")
          .string();
  common::Rng rng(8);
  Mlp a({4, 8, 2}, rng, "net");
  Mlp c({4, 9, 2}, rng, "net");
  SaveParameters(a, path);
  EXPECT_THROW(LoadParameters(c, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SerializeTest, FailedCloseThrows) {
  // /dev/full accepts the open and fails every write. The image is small
  // enough to sit in the stream buffer, so the failure surfaces only when
  // the file is closed.
  if (!std::ofstream("/dev/full")) GTEST_SKIP() << "/dev/full unavailable";
  common::Rng rng(10);
  Dense layer(2, 2, rng);
  EXPECT_THROW(SaveParameters(layer, "/dev/full"), std::runtime_error);
}

TEST(SerializeTest, MissingFileThrows) {
  common::Rng rng(9);
  Mlp a({2, 2}, rng);
  EXPECT_THROW(LoadParameters(a, "/nonexistent/params.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace carol::nn
