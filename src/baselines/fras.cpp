#include "baselines/fras.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/node_shift.h"

namespace carol::baselines {

namespace {
constexpr int kInputWidth = 8;

double Tri(double x, double c, double w) {
  return std::max(0.0, 1.0 - std::abs(x - c) / w);
}
}  // namespace

Fras::Fras(FrasConfig config) : config_(config), rng_(config.seed) {
  cell_ = std::make_unique<nn::LstmCell>(
      kInputWidth, static_cast<std::size_t>(config_.hidden), rng_,
      "fras.lstm");
  head_ = std::make_unique<nn::Dense>(
      static_cast<std::size_t>(config_.hidden), 1, rng_, "fras.head",
      nn::Activation::kSigmoid);
  std::vector<nn::Parameter*> params = cell_->Parameters();
  for (auto* p : head_->Parameters()) params.push_back(p);
  optimizer_ =
      std::make_unique<nn::Adam>(params, config_.learning_rate);
}

Fras::~Fras() = default;

std::vector<double> Fras::FuzzyEncode(const sim::Topology& topo,
                                      const sim::SystemSnapshot& snap) {
  double mean_cpu = 0.0, max_cpu = 0.0, mean_ram = 0.0, failed = 0.0;
  for (const auto& m : snap.hosts) {
    mean_cpu += m.cpu_util;
    max_cpu = std::max(max_cpu, m.cpu_util);
    mean_ram += m.ram_util;
    failed += m.failed ? 1.0 : 0.0;
  }
  const double h = std::max<std::size_t>(1, snap.hosts.size());
  mean_cpu /= h;
  mean_ram /= h;
  failed /= h;
  // Fuzzy memberships (low/mid/high) of the mean load, plus structural
  // features of the candidate topology.
  return {Tri(mean_cpu, 0.1, 0.4),
          Tri(mean_cpu, 0.5, 0.4),
          Tri(mean_cpu, 1.0, 0.5),
          std::min(1.0, max_cpu / 2.0),
          std::min(1.0, mean_ram),
          static_cast<double>(topo.broker_count()) / h,
          failed,
          std::min(1.0, static_cast<double>(snap.active_tasks) / 32.0)};
}

double Fras::PredictQos(const sim::Topology& candidate,
                        const sim::SystemSnapshot& snapshot) {
  // Unroll the recurrent surrogate over the history window and the
  // candidate-encoded present; the sigmoid head emits normalized QoS cost.
  nn::Tape tape;
  auto state = cell_->InitialState(tape, 1);
  for (const auto& [input, qos] : history_) {
    nn::Matrix x(1, kInputWidth);
    for (std::size_t k = 0; k < input.size(); ++k) x(0, k) = input[k];
    state = cell_->Forward(tape, tape.Leaf(x), state);
  }
  const auto present = FuzzyEncode(candidate, snapshot);
  nn::Matrix x(1, kInputWidth);
  for (std::size_t k = 0; k < present.size(); ++k) x(0, k) = present[k];
  state = cell_->Forward(tape, tape.Leaf(x), state);
  return head_->Forward(tape, state.h).scalar();
}

sim::Topology Fras::PolicyRepair(
    const sim::Topology& current,
    const std::vector<sim::NodeId>& failed_brokers,
    const sim::SystemSnapshot& snapshot) {
  sim::Topology topo = current;
  std::vector<bool> alive = snapshot.alive;
  if (alive.size() != static_cast<std::size_t>(topo.num_nodes())) {
    alive.assign(static_cast<std::size_t>(topo.num_nodes()), true);
  }
  for (sim::NodeId b : failed_brokers) {
    if (static_cast<std::size_t>(b) < alive.size()) {
      alive[static_cast<std::size_t>(b)] = false;
    }
  }
  for (sim::NodeId failed : failed_brokers) {
    if (!topo.is_broker(failed)) continue;
    const auto candidates =
        core::FailureNeighbors(topo, failed, alive, core::NodeShiftOptions{});
    if (candidates.empty()) continue;
    const sim::Topology* best = &candidates.front();
    double best_cost = std::numeric_limits<double>::infinity();
    for (const auto& cand : candidates) {
      const double cost = PredictQos(cand, snapshot);
      if (cost < best_cost) {
        best_cost = cost;
        best = &cand;
      }
    }
    topo = *best;
  }
  return topo;
}

sim::Topology Fras::Repair(const sim::Topology& current,
                           const std::vector<sim::NodeId>& failed_brokers,
                           const sim::SystemSnapshot& snapshot) {
  return PolicyRepair(current, failed_brokers, snapshot);
}

void Fras::FineTuneStep() {
  // One BPTT pass over the stored window against observed QoS labels.
  nn::Tape tape;
  auto state = cell_->InitialState(tape, 1);
  nn::Value loss;
  bool first = true;
  for (const auto& [input, qos] : history_) {
    nn::Matrix x(1, kInputWidth);
    for (std::size_t k = 0; k < input.size(); ++k) x(0, k) = input[k];
    state = cell_->Forward(tape, tape.Leaf(x), state);
    nn::Value pred = head_->Forward(tape, state.h);
    nn::Value target = tape.Leaf(nn::Matrix(1, 1, qos));
    nn::Value diff = tape.Sub(pred, target);
    nn::Value sq = tape.Mul(diff, diff);
    loss = first ? sq : tape.Add(loss, sq);
    first = false;
  }
  if (first) return;
  nn::Value mean_loss =
      tape.Scale(loss, 1.0 / static_cast<double>(history_.size()));
  optimizer_->ZeroGrad();
  tape.Backward(tape.SumAll(mean_loss));
  optimizer_->Step();
}

void Fras::Observe(const sim::SystemSnapshot& snapshot) {
  const double energy_norm = snapshot.interval_energy_kwh /
                             std::max(1e-9, 16.0 * 7.3 * 300.0 / 3.6e6);
  const double qos = std::clamp(
      0.5 * energy_norm + 0.5 * snapshot.slo_rate, 0.0, 1.0);
  history_.emplace_back(FuzzyEncode(snapshot.topology, snapshot), qos);
  while (history_.size() > static_cast<std::size_t>(config_.window)) {
    history_.pop_front();
  }
  // FRAS fine-tunes its surrogate every interval — its recurring
  // overhead in Fig. 5(f).
  for (int s = 0; s < config_.finetune_steps; ++s) FineTuneStep();
  ++finetune_invocations_;
}

double Fras::MemoryFootprintMb() const {
  std::size_t params = 0;
  // NOLINTNEXTLINE(cppcoreguidelines-pro-type-const-cast)
  auto* self = const_cast<Fras*>(this);
  params += self->cell_->ParameterCount();
  params += self->head_->ParameterCount();
  // Parameters + Adam moments + BPTT activation tape over the window.
  const double bytes =
      static_cast<double>(params) * sizeof(double) * 3.0 +
      static_cast<double>(config_.window * config_.hidden * 8) * 8.0;
  return bytes / (1024.0 * 1024.0) + 0.3;
}

}  // namespace carol::baselines
