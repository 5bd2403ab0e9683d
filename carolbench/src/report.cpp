// Metric bookkeeping, statistics helpers, span log and peak RSS.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "bench.h"
#include "common/stats.h"

namespace carolbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

std::int64_t SinceEpochNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch)
      .count();
}

void SetMetric(std::map<std::string, Metric>& into, Report& report,
               const std::string& name, double value, const std::string& unit,
               std::uint64_t samples) {
  if (!std::isfinite(value)) {
    report.Check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  into[name] = Metric{value, unit, samples};
}

}  // namespace

double Pct(const std::vector<double>& values, double p) {
  return common::Percentile(values, p);
}

double Median(const std::vector<double>& values) { return Pct(values, 50.0); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double MedianBlockRate(const std::vector<double>& durations, int blocks) {
  const std::size_t n =
      std::min(static_cast<std::size_t>(blocks), durations.size());
  if (n == 0) return 0.0;
  const std::size_t per_block = durations.size() / n;
  std::vector<double> rates;
  for (std::size_t b = 0; b < n; ++b) {
    double s = 0.0;
    for (std::size_t i = b * per_block; i < (b + 1) * per_block; ++i) {
      s += durations[i];
    }
    rates.push_back(static_cast<double>(per_block) / s);
  }
  return Median(rates);
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over (seed, salt).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

unsigned SessionSeed(std::uint64_t seed, int session) {
  return static_cast<unsigned>(
      Mix(seed, 0x5e55 + static_cast<std::uint64_t>(session)) & 0x7fffffffu);
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit, std::uint64_t samples) {
  SetMetric(end_to_end, *this, name, value, unit, samples);
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, std::uint64_t samples) {
  SetMetric(layers, *this, name, value, unit, samples);
}

void Report::Quality(const std::string& name, double value,
                     const std::string& unit, std::uint64_t samples) {
  SetMetric(quality, *this, name, value, unit, samples);
}

std::uint64_t SpanLog::Add(const std::string& name,
                           const std::string& trace_id, std::uint64_t parent,
                           Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.trace_id = trace_id;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.start_ns = SinceEpochNs(start);
  span.end_ns = SinceEpochNs(end);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"trace\":\"" << s.trace_id
        << "\",\"span\":" << s.id << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  if (!out) throw std::runtime_error("write failed: " + path);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace carolbench
