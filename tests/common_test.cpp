// Unit tests for common/: rng, stats, csv, binio.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/binio.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/stats.h"

// Allocation guard for the BinaryReader length-prefix test: this binary's
// global operator new passes every request through to malloc, except
// that while the guard is armed it refuses any single request above
// 64 MiB with std::bad_alloc. A reader that sizes its buffer from a
// corrupt count therefore fails the test without allocating gigabytes.
namespace {
std::atomic<bool> g_large_alloc_guard{false};
constexpr std::size_t kLargeAllocBytes = std::size_t{64} << 20;
}  // namespace

// Out of line, so the compiler pairs callers' new/delete instead of
// seeing malloc'd memory reach free through inlined operator delete
// (which -Wmismatched-new-delete misreports).
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (n > kLargeAllocBytes &&
      g_large_alloc_guard.load(std::memory_order_relaxed)) {
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace carol::common {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == 0;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, PoissonMeanApproxRate) {
  Rng rng(11);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.Poisson(1.2);
  EXPECT_NEAR(total / n, 1.2, 0.05);
}

TEST(RngTest, PoissonZeroRate) {
  Rng rng(1);
  EXPECT_EQ(rng.Poisson(0.0), 0);
  EXPECT_EQ(rng.Poisson(-1.0), 0);
}

TEST(RngTest, WeightedChoiceRespectsWeights) {
  Rng rng(3);
  const std::vector<double> w = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.WeightedChoice(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(RngTest, WeightedChoiceRejectsEmptyAndNonPositive) {
  Rng rng(3);
  EXPECT_THROW(rng.WeightedChoice(std::vector<double>{}),
               std::invalid_argument);
  EXPECT_THROW(rng.WeightedChoice(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(5);
  auto p = rng.Permutation(50);
  std::vector<bool> seen(50, false);
  for (auto i : p) {
    ASSERT_LT(i, 50u);
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(9);
  Rng child = a.Fork();
  // The child stream should not simply mirror the parent.
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Uniform() == child.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RunningStatsTest, MeanVarianceMinMax) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all, a, b;
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.Normal(3.0, 2.0);
    all.Add(v);
    (i % 2 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(EmaTest, FirstValueInitializes) {
  Ema e(0.5);
  EXPECT_FALSE(e.initialized());
  e.Add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
  e.Add(0.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
}

TEST(PercentileTest, KnownValues) {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
}

TEST(PercentileTest, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(Percentile(std::vector<double>{}, 50), 0.0);
}

TEST(PercentileTest, UnsortedInputHandled) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
}

TEST(PercentileTest, NanRankThrows) {
  // A NaN p has no rank: converting it to an index is undefined behaviour
  // and would read outside the sample.
  const std::vector<double> v = {1, 2, 3};
  EXPECT_THROW(Percentile(v, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(StatsTest, MeanAndStddev) {
  const std::vector<double> v = {2, 4, 6};
  EXPECT_DOUBLE_EQ(Mean(v), 4.0);
  EXPECT_NEAR(Stddev(v), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(Stddev(std::vector<double>{1.0}), 0.0);
}

TEST(StatsTest, MinMaxNormalize) {
  const std::vector<double> v = {2, 4, 6};
  const auto n = MinMaxNormalize(v);
  EXPECT_DOUBLE_EQ(n[0], 0.0);
  EXPECT_DOUBLE_EQ(n[1], 0.5);
  EXPECT_DOUBLE_EQ(n[2], 1.0);
  const auto constant = MinMaxNormalize(std::vector<double>{3, 3});
  EXPECT_DOUBLE_EQ(constant[0], 0.5);
}

TEST(CsvTest, RoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "carol_csv_test.csv")
          .string();
  {
    CsvWriter w(path, {"a", "b", "c"});
    w.WriteRow({1.0, 2.5, -3.0});
    w.WriteRow({4.0, 5.0, 6.0});
  }
  const CsvTable t = ReadCsv(path);
  ASSERT_EQ(t.header.size(), 3u);
  EXPECT_EQ(t.header[1], "b");
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(t.rows[0][1], 2.5);
  EXPECT_DOUBLE_EQ(t.rows[1][2], 6.0);
  std::remove(path.c_str());
}

TEST(CsvTest, RowWidthMismatchThrows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "carol_csv_test2.csv")
          .string();
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.WriteRow({1.0}), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileThrows) {
  EXPECT_THROW(ReadCsv("/nonexistent/path/file.csv"), std::runtime_error);
}

// Arms the allocation guard for one scope.
class LargeAllocGuard {
 public:
  LargeAllocGuard() { g_large_alloc_guard = true; }
  ~LargeAllocGuard() { g_large_alloc_guard = false; }
};

// The largest count BoundedCount admits, 2^32, followed by only 8
// payload bytes: every reader must report truncation, and none may size
// its buffer from the count first (that would ask for up to 32 GiB).
template <typename Read>
void ExpectTruncationWithoutLargeAlloc(Read read) {
  std::ostringstream out;
  BinaryWriter w(out);
  w.U64(std::uint64_t{1} << 32);
  w.U64(0);
  std::istringstream in(out.str());
  BinaryReader r(in);
  LargeAllocGuard guard;
  EXPECT_THROW(read(r), BinaryFormatError);
}

TEST(BinaryReaderTest, CorruptLengthPrefixFailsBeforeLargeAllocation) {
  ExpectTruncationWithoutLargeAlloc([](BinaryReader& r) { r.String(); });
  ExpectTruncationWithoutLargeAlloc([](BinaryReader& r) { r.Doubles(); });
  ExpectTruncationWithoutLargeAlloc(
      [](BinaryReader& r) { r.Ints<std::int64_t>(); });
  ExpectTruncationWithoutLargeAlloc([](BinaryReader& r) { r.Bools(); });
}

}  // namespace
}  // namespace carol::common
