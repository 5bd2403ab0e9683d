// Unit tests for nn/matrix.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/matrix.h"

namespace carol::nn {
namespace {

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m = {{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(MatrixTest, AtBoundsChecks) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
}

TEST(MatrixTest, Identity) {
  Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(id(2, 2), 1.0);
}

TEST(MatrixTest, ArithmeticAndShapes) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{10, 20}, {30, 40}};
  Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(1, 1), 44.0);
  Matrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(0, 0), 9.0);
  Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
  Matrix c(3, 2);
  EXPECT_THROW(a + c, std::invalid_argument);
}

TEST(MatrixTest, MatMulKnownResult) {
  Matrix a = {{1, 2, 3}, {4, 5, 6}};
  Matrix b = {{7, 8}, {9, 10}, {11, 12}};
  Matrix c = a.MatMul(b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(MatrixTest, MatMulShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a.MatMul(b), std::invalid_argument);
}

TEST(MatrixTest, MatMulIdentityIsNoop) {
  common::Rng rng(1);
  Matrix a = Matrix::Randn(4, 4, rng);
  Matrix out = a.MatMul(Matrix::Identity(4));
  EXPECT_LT(out.MaxAbsDiff(a), 1e-12);
}

TEST(MatrixTest, TransposeInvolution) {
  common::Rng rng(2);
  Matrix a = Matrix::Randn(3, 5, rng);
  Matrix t = a.Transposed();
  EXPECT_EQ(t.rows(), 5u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_LT(t.Transposed().MaxAbsDiff(a), 1e-15);
}

TEST(MatrixTest, HadamardAndMap) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{2, 2}, {2, 2}};
  EXPECT_DOUBLE_EQ(a.Hadamard(b)(1, 1), 8.0);
  Matrix sq = a.MapFn([](double v) { return v * v; });
  EXPECT_DOUBLE_EQ(sq(1, 0), 9.0);
}

TEST(MatrixTest, ConcatAndSlice) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{5}, {6}};
  Matrix cc = a.ConcatCols(b);
  EXPECT_EQ(cc.cols(), 3u);
  EXPECT_DOUBLE_EQ(cc(1, 2), 6.0);
  Matrix rr = a.ConcatRows(Matrix({{9, 9}}));
  EXPECT_EQ(rr.rows(), 3u);
  EXPECT_DOUBLE_EQ(rr(2, 0), 9.0);

  Matrix sc = cc.SliceCols(1, 3);
  EXPECT_EQ(sc.cols(), 2u);
  EXPECT_DOUBLE_EQ(sc(0, 1), 5.0);
  Matrix sr = rr.SliceRows(1, 2);
  EXPECT_EQ(sr.rows(), 1u);
  EXPECT_DOUBLE_EQ(sr(0, 0), 3.0);
}

TEST(MatrixTest, ConcatShapeMismatchThrows) {
  Matrix a(2, 2), b(3, 1);
  EXPECT_THROW(a.ConcatCols(b), std::invalid_argument);
  EXPECT_THROW(a.ConcatRows(Matrix(1, 3)), std::invalid_argument);
}

TEST(MatrixTest, SliceRangeChecks) {
  Matrix a(2, 2);
  EXPECT_THROW(a.SliceCols(1, 3), std::out_of_range);
  EXPECT_THROW(a.SliceRows(2, 1), std::out_of_range);
}

TEST(MatrixTest, Reductions) {
  Matrix a = {{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(a.Sum(), 10.0);
  EXPECT_DOUBLE_EQ(a.MeanValue(), 2.5);
  EXPECT_DOUBLE_EQ(a.MaxValue(), 4.0);
  EXPECT_DOUBLE_EQ(a.MinValue(), 1.0);
  Matrix rm = a.RowMean();
  ASSERT_EQ(rm.rows(), 1u);
  EXPECT_DOUBLE_EQ(rm(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(rm(0, 1), 3.0);
  Matrix rs = a.RowSum();
  EXPECT_DOUBLE_EQ(rs(0, 1), 6.0);
}

TEST(MatrixTest, NormAndFinite) {
  Matrix a = {{3, 4}};
  EXPECT_DOUBLE_EQ(a.Norm(), 5.0);
  EXPECT_TRUE(a.AllFinite());
  a(0, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(a.AllFinite());
}

TEST(MatrixTest, XavierWithinLimit) {
  common::Rng rng(3);
  Matrix w = Matrix::Xavier(64, 64, rng);
  const double limit = std::sqrt(6.0 / 128.0);
  EXPECT_LE(w.MaxValue(), limit);
  EXPECT_GE(w.MinValue(), -limit);
}

TEST(MatrixTest, FromFlatChecksSize) {
  EXPECT_THROW(Matrix::FromFlat(2, 2, {1.0, 2.0}), std::invalid_argument);
  // 2^32 * 2^32 wraps to 0 in size_t; an empty buffer must not pass.
  EXPECT_THROW(Matrix::FromFlat(1ull << 32, 1ull << 32, {}),
               std::invalid_argument);
  Matrix m = Matrix::FromFlat(2, 2, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, EqualityAndToString) {
  Matrix a = {{1, 2}};
  Matrix b = {{1, 2}};
  EXPECT_TRUE(a == b);
  b(0, 1) = 3;
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a.ToString().empty());
}

}  // namespace
}  // namespace carol::nn
