// Micro-benchmarks of the latency-critical inner loops: matrix kernels,
// GON forward pass / input-space generation, batched GON scoring,
// node-shift neighborhood expansion, tabu repair and POT updates.
//
// Self-timed (no external benchmark dependency) and machine-readable:
// every measurement is appended to BENCH_micro.json as
//   {"op", "shape", "ns_per_op", "baseline_ns_per_op", "speedup"}
// so the perf trajectory is tracked from PR 1 onward. `baseline` is a
// reference measured in the same process (textbook i-j-k matmul,
// std::function map, per-state scoring, full rehash); rows without one
// report 0.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/carol.h"
#include "core/encoder.h"
#include "core/gon.h"
#include "core/node_shift.h"
#include "core/pot.h"
#include "core/tabu.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "sim/topology.h"

namespace {

using namespace carol;
using clock_type = std::chrono::steady_clock;

double g_sink = 0.0;  // defeats dead-code elimination

struct BenchResult {
  std::string op;
  std::string shape;
  double ns_per_op = 0.0;
  double baseline_ns_per_op = 0.0;  // 0 => no baseline for this op
  double speedup = 0.0;             // baseline / fast
};

std::vector<BenchResult>& Results() {
  static std::vector<BenchResult> results;
  return results;
}

// Runs `fn` repeatedly for ~`budget_ms` and returns ns per call.
double TimeNs(const std::function<void()>& fn, double budget_ms = 300.0) {
  fn();  // warm-up (also sizes arena buffers)
  // Calibrate an iteration count that fills the budget.
  int iters = 1;
  for (;;) {
    const auto t0 = clock_type::now();
    for (int i = 0; i < iters; ++i) fn();
    const double ms =
        std::chrono::duration<double, std::milli>(clock_type::now() - t0)
            .count();
    if (ms >= budget_ms || iters >= (1 << 24)) {
      return ms * 1e6 / iters;
    }
    const double scale = ms > 0.0 ? budget_ms / ms : 1000.0;
    iters = static_cast<int>(iters * std::min(1000.0, scale * 1.2)) + 1;
  }
}

void Report(const std::string& op, const std::string& shape, double fast_ns,
            double baseline_ns = 0.0) {
  BenchResult r;
  r.op = op;
  r.shape = shape;
  r.ns_per_op = fast_ns;
  r.baseline_ns_per_op = baseline_ns;
  r.speedup = baseline_ns > 0.0 ? baseline_ns / fast_ns : 0.0;
  Results().push_back(r);
  if (baseline_ns > 0.0) {
    std::printf("%-28s %-16s %12.0f ns/op  baseline %12.0f ns/op  %5.2fx\n",
                op.c_str(), shape.c_str(), fast_ns, baseline_ns, r.speedup);
  } else {
    std::printf("%-28s %-16s %12.0f ns/op\n", op.c_str(), shape.c_str(),
                fast_ns);
  }
}

void WriteJson(const char* path) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  const auto& rs = Results();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    std::fprintf(f,
                 "  {\"op\": \"%s\", \"shape\": \"%s\", \"ns_per_op\": "
                 "%.1f, \"baseline_ns_per_op\": %.1f, \"speedup\": %.3f}%s\n",
                 rs[i].op.c_str(), rs[i].shape.c_str(), rs[i].ns_per_op,
                 rs[i].baseline_ns_per_op, rs[i].speedup,
                 i + 1 < rs.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu entries)\n", path, rs.size());
}

// --- textbook references --------------------------------------------------

nn::Matrix NaiveMatMul(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix out(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      out(i, j) = acc;
    }
  }
  return out;
}

// --- fixtures -------------------------------------------------------------

sim::SystemSnapshot MakeSnapshot(int hosts = 16, int brokers = 4) {
  sim::SystemSnapshot snap;
  snap.topology = sim::Topology::Initial(hosts, brokers);
  snap.hosts.resize(static_cast<std::size_t>(hosts));
  snap.alive.assign(static_cast<std::size_t>(hosts), true);
  for (int i = 0; i < hosts; ++i) {
    auto& m = snap.hosts[static_cast<std::size_t>(i)];
    m.cpu_util = 0.4 + 0.02 * i;
    m.ram_util = 0.3;
    m.energy_kwh = 3e-4;
    m.is_broker = snap.topology.is_broker(i);
  }
  return snap;
}

// --- benches --------------------------------------------------------------

void BenchMatMul() {
  common::Rng rng(1);
  for (int n : {16, 64, 128}) {
    const nn::Matrix a = nn::Matrix::Randn(n, n, rng);
    const nn::Matrix b = nn::Matrix::Randn(n, n, rng);
    nn::Matrix out;
    const double fast = TimeNs([&] {
      nn::Matrix::MatMulInto(a, b, out);
      g_sink += out(0, 0);
    });
    const double naive = TimeNs([&] { g_sink += NaiveMatMul(a, b)(0, 0); });
    Report("matmul_blocked", std::to_string(n) + "x" + std::to_string(n),
           fast, naive);
  }
  // The GON encoder layer shape.
  const nn::Matrix a = nn::Matrix::Randn(16, 64, rng);
  const nn::Matrix b = nn::Matrix::Randn(64, 64, rng);
  nn::Matrix out;
  const double fast = TimeNs([&] {
    nn::Matrix::MatMulInto(a, b, out);
    g_sink += out(0, 0);
  });
  const double naive = TimeNs([&] { g_sink += NaiveMatMul(a, b)(0, 0); });
  Report("matmul_blocked", "16x64*64x64", fast, naive);
}

void BenchMap() {
  common::Rng rng(2);
  const nn::Matrix m = nn::Matrix::Randn(16, 64, rng);
  const double fast =
      TimeNs([&] { g_sink += m.MapFn([](double v) { return v * v + 1.0; })(0, 0); });
  const std::function<double(double)> fn = [](double v) {
    return v * v + 1.0;
  };
  const double naive = TimeNs([&] {
    // Seed-style: std::function dispatch per element.
    nn::Matrix out = m;
    for (double& v : out.flat()) v = fn(v);
    g_sink += out(0, 0);
  });
  Report("map_templated", "16x64", fast, naive);
}

void BenchGon() {
  core::FeatureEncoder encoder;
  const auto enc = encoder.Encode(MakeSnapshot());

  core::GonModel gon(core::GonConfig{});  // paper-shaped 64-wide, 3 layers

  // Forward/confidence scoring on the tape-free inference path.
  const double fwd = TimeNs([&] { g_sink += gon.Discriminate(enc); });
  Report("gon_discriminate", "H=16", fwd);

  // Input-space generation (Eq. 1 ascent = the OptimizeInput hot path).
  const double gen = TimeNs(
      [&] { g_sink += gon.Generate(enc.m, enc).confidence; }, 500.0);
  Report("gon_generate_warm", "H=16 steps<=20", gen);

  // The paper's decision unit: score + optimize per interval.
  Report("gon_decision_path", "discriminate+generate", fwd + gen);

  // Batched scoring of K candidate neighbors vs K sequential calls.
  constexpr int kBatch = 16;
  std::vector<core::EncodedState> states;
  for (int i = 0; i < kBatch; ++i) {
    auto snap = MakeSnapshot();
    snap.hosts[static_cast<std::size_t>(i)].cpu_util += 0.3;
    states.push_back(encoder.Encode(snap));
  }
  const double batch = TimeNs([&] {
    const auto scores =
        gon.DiscriminateBatch(std::span<const core::EncodedState>(states));
    g_sink += scores[0];
  });
  const double per_state = TimeNs([&] {
    for (const auto& s : states) g_sink += gon.Discriminate(s);
  });
  Report("gon_discriminate_batch_vs_fast", "K=16 H=16", batch, per_state);
}

// Large federations (H >= 64): the decision path is dominated by the
// O(H^2) per-state GAT attention. Rows report the stacked scoring pass
// against per-state calls on the SAME inputs.
void BenchGonLargeH() {
  constexpr int kBatch = 16;
  core::FeatureEncoder encoder;
  for (int hosts : {64, 128}) {
    std::vector<core::EncodedState> states;
    for (int i = 0; i < kBatch; ++i) {
      auto snap = MakeSnapshot(hosts, hosts / 4);
      snap.hosts[static_cast<std::size_t>(i % hosts)].cpu_util += 0.3;
      states.push_back(encoder.Encode(snap));
    }
    core::GonModel gon(core::GonConfig{});
    const double batch = TimeNs([&] {
      const auto scores =
          gon.DiscriminateBatch(std::span<const core::EncodedState>(states));
      g_sink += scores[0];
    });
    const double per_state = TimeNs([&] {
      for (const auto& s : states) g_sink += gon.Discriminate(s);
    });
    Report("gon_discriminate_batch_vs_fast",
           "K=" + std::to_string(kBatch) + " H=" + std::to_string(hosts),
           batch, per_state);
  }
}

void BenchNodeShift() {
  for (int hosts : {16, 32, 64}) {
    const sim::Topology g = sim::Topology::Initial(hosts, hosts / 4);
    std::vector<bool> alive(static_cast<std::size_t>(hosts), true);
    alive[0] = false;
    const double ns = TimeNs([&] {
      g_sink += static_cast<double>(core::FailureNeighbors(g, 0, alive).size());
    });
    Report("failure_neighbors", "H=" + std::to_string(hosts), ns);
  }
}

void BenchRepair() {
  core::CarolConfig cfg;
  core::CarolModel model(cfg);
  auto snap = MakeSnapshot();
  snap.alive[0] = false;
  const double ns = TimeNs(
      [&] {
        g_sink += static_cast<double>(
            model.Repair(snap.topology, {0}, snap).brokers().size());
      },
      1500.0);
  Report("tabu_repair_full", "H=16", ns);
}

void BenchPot() {
  common::Rng rng(3);
  std::vector<double> scores;
  for (int i = 0; i < 256; ++i) scores.push_back(0.7 + 0.1 * rng.Normal());
  const double batch = TimeNs([&] {
    core::PotThreshold pot;
    g_sink += pot.UpdateBatch(scores);
  });
  const double sequential = TimeNs([&] {
    core::PotThreshold pot;
    for (double s : scores) g_sink += pot.Update(s);
  });
  Report("pot_update_batch", "n=256", batch, sequential);
}

void BenchTopologyHash() {
  // Hash() is now maintained incrementally under every mutation, so the
  // tabu filter's per-candidate lookup is O(1); the baseline is the
  // from-scratch O(H) rehash it replaced.
  for (int hosts : {64, 128}) {
    const sim::Topology g = sim::Topology::Initial(hosts, hosts / 8);
    const double incremental =
        TimeNs([&] { g_sink += static_cast<double>(g.Hash()); });
    const double rehash =
        TimeNs([&] { g_sink += static_cast<double>(g.RecomputeHash()); });
    Report("topology_hash_incremental", "H=" + std::to_string(hosts),
           incremental, rehash);
  }
  // The tabu inner loop: materialize a move into the reused scratch and
  // filter it by hash — the candidate-enumeration unit of work.
  for (int hosts : {64, 128}) {
    const sim::Topology g = sim::Topology::Initial(hosts, hosts / 8);
    const std::vector<bool> alive(static_cast<std::size_t>(hosts), true);
    const auto moves = core::LocalMoves(g, alive);
    sim::Topology scratch;
    std::size_t next = 0;
    const double ns = TimeNs([&] {
      core::ApplyLocalMove(g, moves[next], scratch);
      g_sink += static_cast<double>(scratch.Hash());
      next = (next + 1) % moves.size();
    });
    Report("apply_move_and_hash", "H=" + std::to_string(hosts), ns);
  }
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Micro latency (ns/op; speedup = same-process baseline / ns)");
  BenchMatMul();
  BenchMap();
  BenchGon();
  BenchGonLargeH();
  BenchNodeShift();
  BenchRepair();
  BenchPot();
  BenchTopologyHash();
  WriteJson("BENCH_micro.json");
  if (g_sink == 12345.6789) std::printf(" ");  // keep g_sink alive
  return 0;
}
