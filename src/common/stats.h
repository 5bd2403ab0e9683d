// Streaming and batch statistics used by the metrics pipeline, the POT
// thresholder and the experiment harness.
#ifndef CAROL_COMMON_STATS_H_
#define CAROL_COMMON_STATS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace carol::common {

// Welford online mean/variance accumulator. Numerically stable; O(1) space.
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return count_ == 0 ? 0.0 : mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Exponential moving average with configurable smoothing factor.
class Ema {
 public:
  explicit Ema(double alpha) : alpha_(alpha) {}
  void Add(double x);
  double value() const { return value_; }
  bool initialized() const { return initialized_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

// Linear-interpolation percentile of a sample (p clamped to [0,100]).
// Returns 0 for an empty sample; throws std::invalid_argument for a NaN
// p, which has no rank.
double Percentile(std::span<const double> values, double p);

// Arithmetic mean; 0 for an empty sample.
double Mean(std::span<const double> values);

// Sample standard deviation; 0 for fewer than two samples.
double Stddev(std::span<const double> values);

// Min-max normalization of a vector into [0,1]; constant vectors map to 0.5.
std::vector<double> MinMaxNormalize(std::span<const double> values);

}  // namespace carol::common

#endif  // CAROL_COMMON_STATS_H_
