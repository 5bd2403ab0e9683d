// Low-overhead observability primitives for the serving layer: a
// sharded metrics registry (counters, gauges, log-bucketed latency
// histograms), a bounded latency ring, and the repair-path DecisionTrace
// span record.
//
// Design rules (see src/obs/README.md for the full arguments):
//   * Fixed bucket layout. Every histogram shares ONE bucket geometry
//     (HistogramLayout), so per-shard bucket arrays merge by plain
//     element-wise addition and p50/p99/p999 computed from the merged
//     array are exactly the percentiles of the union of the shards'
//     samples (up to bucket resolution — <= 12.5% relative error).
//   * Sharding over locking. The registry pre-allocates one storage
//     shard per recording thread (worker i records into shard i+1,
//     client/master threads into shard 0); the hot path is a relaxed
//     fetch_add on the caller's own shard — no lock, no CAS contention,
//     no false sharing with the service's queue mutex.
//   * Registration happens before traffic. AddCounter/AddGauge/
//     AddHistogram are NOT thread-safe against concurrent Record calls;
//     register every metric up front, then hand out ids. All our users
//     register in constructors.
//   * Determinism-neutral. Nothing here draws randomness, takes the
//     service lock or feeds back into scheduling — recording a sample
//     can never change a decision.
#ifndef CAROL_OBS_METRICS_H_
#define CAROL_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace carol::obs {

// --- bucket geometry ----------------------------------------------------
//
// HDR-style log-linear layout over non-negative integer samples
// (nanoseconds, counts): values below 16 get exact width-1 buckets;
// above that, each power-of-two octave splits into kSub = 8 linear
// sub-buckets, so a bucket's width is 1/8th of its base — every sample
// lands in a bucket whose bounds are within 12.5% of it. The layout is
// a pure function (no per-histogram state), which is what makes bucket
// arrays mergeable across shards, workers and processes.
struct HistogramLayout {
  static constexpr int kSubBits = 3;
  static constexpr int kSub = 1 << kSubBits;  // sub-buckets per octave
  // Shifts 0..60 cover every value a 63-bit nanosecond count can hold.
  static constexpr int kMaxShift = 60;
  static constexpr int kNumBuckets = (kMaxShift + 2) * kSub;  // 496

  static int BucketFor(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<int>(v);  // exact region, idx == v
    const int shift = std::bit_width(v) - (kSubBits + 1);
    return (shift + 1) * kSub + static_cast<int>((v >> shift) - kSub);
  }
  // Inclusive bounds of bucket b (LowerBound(b) <= v <= UpperBound(b)).
  static std::uint64_t LowerBound(int b) {
    if (b < 2 * kSub) return static_cast<std::uint64_t>(b);
    const int shift = b / kSub - 1;
    const std::uint64_t sub = static_cast<std::uint64_t>(b % kSub);
    return (static_cast<std::uint64_t>(kSub) + sub) << shift;
  }
  static std::uint64_t UpperBound(int b) {
    if (b < 2 * kSub) return static_cast<std::uint64_t>(b);
    const int shift = b / kSub - 1;
    return LowerBound(b) + ((1ull << shift) - 1);
  }
  // The value a bucket's samples are reported as: the bucket midpoint
  // (== the exact value in the width-1 region).
  static double Representative(int b) {
    return (static_cast<double>(LowerBound(b)) +
            static_cast<double>(UpperBound(b))) /
           2.0;
  }
};

// --- plain (single-writer) histogram ------------------------------------

// A merged or single-threaded histogram over the shared layout. The
// atomic sharded variant lives inside Registry; this is the snapshot /
// single-writer form (LatencyRing, merged exports, tests).
struct HistogramData {
  std::array<std::uint64_t, HistogramLayout::kNumBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void Record(std::uint64_t v) {
    ++buckets[static_cast<std::size_t>(HistogramLayout::BucketFor(v))];
    ++count;
    sum += v;
  }
  void Merge(const HistogramData& other);
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  // Mirrors common::Percentile (linear interpolation at rank
  // p/100*(n-1)) over the recorded samples' bucket representatives —
  // EXACT for samples in the width-1 region, within bucket resolution
  // (<= 12.5% relative error) elsewhere. p clamped to [0,100]; 0 when
  // empty.
  double Percentile(double p) const;
};

// --- snapshot types -----------------------------------------------------

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  HistogramData data;
};

// Merged, point-in-time view of a Registry (plus whatever counters the
// owner appends — ResilienceService::MetricsSnapshot() adds every
// ServiceStats field so admission accounting reconciles exactly).
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  // Lookup by name; throws std::out_of_range for unknown names so a
  // drifted metric name fails loudly in the reconciliation tests
  // instead of comparing against a silent zero.
  std::uint64_t counter(std::string_view name) const;
  double gauge(std::string_view name) const;
  const HistogramData& histogram(std::string_view name) const;
  bool has_counter(std::string_view name) const;
};

// --- sharded registry ---------------------------------------------------

class Registry {
 public:
  // One shard per recording thread. Shard assignment is the CALLER's
  // contract: concurrent writers must use distinct shards or accept
  // (benign, counted-exactly) fetch_add contention.
  explicit Registry(std::size_t num_shards);

  // Registration phase — NOT safe against concurrent Record/Count.
  std::size_t AddCounter(std::string name);
  std::size_t AddGauge(std::string name);
  std::size_t AddHistogram(std::string name);

  // Hot path: relaxed atomics on the caller's shard, no locks.
  void Count(std::size_t id, std::size_t shard, std::uint64_t delta = 1);
  void Record(std::size_t id, std::size_t shard, std::uint64_t value);
  // Gauges are point-in-time values (last write wins), not sharded.
  void SetGauge(std::size_t id, double value);

  std::size_t num_shards() const { return shards_.size(); }
  // Merged view: element-wise sums of every shard's counters and bucket
  // arrays. Safe to call while writers record (relaxed reads — the
  // snapshot is a consistent-enough point-in-time view, and exact once
  // writers quiesce).
  MetricsSnapshot Snapshot() const;

 private:
  struct HistogramShard {
    std::array<std::atomic<std::uint64_t>, HistogramLayout::kNumBuckets>
        buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  // deque: grows without moving elements (atomics are immovable).
  struct Shard {
    std::deque<std::atomic<std::uint64_t>> counters;
    std::deque<HistogramShard> histograms;
  };

  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
  std::deque<std::atomic<double>> gauges_;
  std::vector<Shard> shards_;
};

// --- bounded latency ring -----------------------------------------------

// Replaces the unbounded per-session decision_ns vector: keeps the last
// `capacity` raw samples for exact percentiles over short runs, plus a
// histogram + running count/sum over EVERY sample ever recorded, so
// long soaks get bounded memory and still report faithful aggregates.
// Single writer (the session's client thread / the fleet's driver
// thread); not thread-safe.
class LatencyRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit LatencyRing(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void Add(std::int64_t ns);
  // Samples ever recorded (not just retained).
  std::uint64_t total() const { return hist_.count; }
  std::size_t capacity() const { return capacity_; }
  // True once samples have been evicted — exact percentiles are no
  // longer possible and consumers should fall back to histogram().
  bool overflowed() const { return total() > capacity_; }
  // The retained window (last min(total, capacity) samples), oldest
  // first.
  std::vector<std::int64_t> Samples() const;
  const HistogramData& histogram() const { return hist_; }

 private:
  std::size_t capacity_;
  std::vector<std::int64_t> ring_;
  std::size_t next_ = 0;  // overwrite cursor once the ring is full
  HistogramData hist_;
};

// --- repair-path span tracing -------------------------------------------

// Where one pipelined repair's wall-clock went, stage by stage:
//   queue_ns            submit -> first step popped by a worker
//   encode_ns           job build + frontier/decision feature encoding
//   score_wait_ns       parked in the pending-score pool awaiting a
//                       stacked flush (the zero-linger analog of queue
//                       time — high values mean workers were busy with
//                       other sessions' steps)
//   splice_ns           feeding returned scores back into the tabu
//                       search (RepairJob::Advance)
//   confidence_wait_ns  parked awaiting the final stacked Discriminate
//   total_ns            submit -> response delivered
struct DecisionTrace {
  std::uint64_t seq = 0;  // completion order, 1-based, service-wide
  std::uint64_t session = 0;
  bool scoped = false;
  std::uint32_t frontier_rounds = 0;  // stacked generation flushes used
  std::uint32_t states_scored = 0;    // candidate states across them
  std::int64_t queue_ns = 0;
  std::int64_t encode_ns = 0;
  std::int64_t score_wait_ns = 0;
  std::int64_t splice_ns = 0;
  std::int64_t confidence_wait_ns = 0;
  std::int64_t total_ns = 0;
};

// Bounded MPSC ring of completed traces. Push happens once per repair
// completion (inside a flush, no service lock held) — a mutex here is
// off the per-step hot path and contends only with other completions.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  // Stamps trace.seq (completion order) and retires the oldest record
  // when full.
  void Push(DecisionTrace trace);
  std::uint64_t total() const;
  // The retained window, oldest first.
  std::vector<DecisionTrace> Snapshot() const;

 private:
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::uint64_t total_ = 0;
  std::vector<DecisionTrace> ring_;
  std::size_t next_ = 0;
};

}  // namespace carol::obs

#endif  // CAROL_OBS_METRICS_H_
