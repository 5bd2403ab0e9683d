#include "baselines/ablations.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace carol::baselines {

namespace {
constexpr int kGenNoise = 4;
constexpr int kGenInput = core::FeatureEncoder::kSchedFeatures +
                          core::FeatureEncoder::kRoleFeatures + kGenNoise;

// Both tabu-based ablations repair exactly like CAROL — core::PlanDecision:
// a random node-shift start per failed broker, then tabu search — and
// score each candidate with their own surrogate instead of the GON. Only
// the tabu budget is the ablation's; the node-shift options and the
// proactive extension (off) keep CarolConfig's defaults.
sim::Topology PlanWithSurrogate(
    const sim::Topology& current,
    const std::vector<sim::NodeId>& failed_brokers,
    const sim::SystemSnapshot& snapshot, const core::TabuConfig& tabu,
    common::Rng& rng,
    const std::function<double(const sim::Topology&)>& score_one) {
  core::CarolConfig config;
  config.tabu = tabu;
  return core::PlanDecision(
      current, failed_brokers, snapshot, config, rng,
      [&](const std::vector<sim::Topology>& frontier,
          const sim::SystemSnapshot&) {
        std::vector<double> scores;
        scores.reserve(frontier.size());
        for (const sim::Topology& g : frontier) {
          scores.push_back(score_one(g));
        }
        return scores;
      });
}

}  // namespace

std::unique_ptr<core::CarolModel> MakeAlwaysFineTune(
    core::CarolConfig config) {
  config.policy = core::FineTunePolicy::kAlways;
  auto model = std::make_unique<core::CarolModel>(config);
  model->set_name("Always-Fine-Tune");
  return model;
}

std::unique_ptr<core::CarolModel> MakeNeverFineTune(
    core::CarolConfig config) {
  config.policy = core::FineTunePolicy::kNever;
  auto model = std::make_unique<core::CarolModel>(config);
  model->set_name("Never-Fine-Tune");
  return model;
}

// ---------------------------------------------------------------- WithGAN

WithGanSurrogate::WithGanSurrogate(WithGanConfig config)
    : config_(config),
      rng_(config.seed),
      discriminator_(std::make_unique<core::GonModel>(config.discriminator)),
      pot_(config.pot) {
  generator_ = std::make_unique<nn::Mlp>(
      std::vector<std::size_t>{
          kGenInput, static_cast<std::size_t>(config_.generator_hidden),
          static_cast<std::size_t>(config_.generator_hidden),
          core::FeatureEncoder::kMetricFeatures},
      rng_, "gan.gen", nn::Activation::kSigmoid);
  gen_opt_ = std::make_unique<nn::Adam>(generator_->Parameters(),
                                        config_.generator_lr);
}

WithGanSurrogate::~WithGanSurrogate() = default;

nn::Matrix WithGanSurrogate::PredictMetrics(
    const core::EncodedState& context) {
  // One forward pass per host row: [S_i, roles_i, noise] -> M_i.
  const std::size_t h = context.num_hosts();
  nn::Matrix input(h, kGenInput);
  for (std::size_t i = 0; i < h; ++i) {
    input(i, 0) = context.s(i, 0);
    input(i, 1) = context.s(i, 1);
    input(i, 2) = context.roles(i, 0);
    input(i, 3) = context.roles(i, 1);
    for (int k = 0; k < kGenNoise; ++k) {
      input(i, 4 + static_cast<std::size_t>(k)) = 0.5;  // mean noise
    }
  }
  nn::Tape tape;
  return generator_->Forward(tape, tape.Leaf(input)).val();
}

double WithGanSurrogate::ScoreTopology(
    const sim::Topology& candidate, const sim::SystemSnapshot& snapshot) {
  const core::EncodedState ctx =
      encoder_.EncodeForTopology(snapshot, candidate);
  const nn::Matrix m = PredictMetrics(ctx);
  double energy = 0.0, slo = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    energy += m(i, core::FeatureEncoder::kEnergyColumn);
    slo += m(i, core::FeatureEncoder::kSloColumn);
  }
  const double h = std::max<std::size_t>(1, m.rows());
  return (config_.alpha * energy + config_.beta * slo) / h;
}

sim::Topology WithGanSurrogate::Repair(
    const sim::Topology& current,
    const std::vector<sim::NodeId>& failed_brokers,
    const sim::SystemSnapshot& snapshot) {
  return PlanWithSurrogate(
      current, failed_brokers, snapshot, config_.tabu, rng_,
      [&](const sim::Topology& g) { return ScoreTopology(g, snapshot); });
}

void WithGanSurrogate::TrainOffline(const workload::Trace& trace,
                                    int epochs) {
  std::vector<core::EncodedState> data;
  data.reserve(trace.size());
  for (const auto& record : trace) {
    data.push_back(encoder_.EncodeRecord(record));
  }
  // Alternating adversarial training: the discriminator trains through
  // the GON machinery; the generator learns to fool it AND to match the
  // recorded metrics (a reconstruction term stabilizes the small GAN).
  for (int epoch = 0; epoch < epochs; ++epoch) {
    discriminator_->TrainEpoch(data);
    const auto order = rng_.Permutation(data.size());
    const std::size_t take = std::min<std::size_t>(data.size(), 64);
    for (std::size_t idx = 0; idx < take; ++idx) {
      const core::EncodedState& state = data[order[idx]];
      nn::Tape tape;
      const std::size_t h = state.num_hosts();
      nn::Matrix input(h, kGenInput);
      for (std::size_t i = 0; i < h; ++i) {
        input(i, 0) = state.s(i, 0);
        input(i, 1) = state.s(i, 1);
        input(i, 2) = state.roles(i, 0);
        input(i, 3) = state.roles(i, 1);
        for (int k = 0; k < kGenNoise; ++k) {
          input(i, 4 + static_cast<std::size_t>(k)) =
              rng_.Uniform(0.0, 1.0);
        }
      }
      nn::Value fake = generator_->Forward(tape, tape.Leaf(input));
      nn::Value recon = nn::MseLoss(tape, fake, state.m);
      gen_opt_->ZeroGrad();
      tape.Backward(recon);
      gen_opt_->Step();
    }
  }
}

void WithGanSurrogate::Observe(const sim::SystemSnapshot& snapshot) {
  const core::EncodedState state = encoder_.Encode(snapshot);
  const double confidence = discriminator_->Discriminate(state);
  pot_.Update(confidence);
  gamma_.push_back(state);
  if (gamma_.size() > 64) gamma_.erase(gamma_.begin());
  if (pot_.Breach(confidence) && !gamma_.empty()) {
    discriminator_->FineTune(gamma_, config_.finetune_epochs);
    gamma_.clear();
  }
}

double WithGanSurrogate::MemoryFootprintMb() const {
  auto* self = const_cast<WithGanSurrogate*>(this);
  const double gen_params =
      static_cast<double>(self->generator_->ParameterCount()) *
      sizeof(double) * 3.0 / (1024.0 * 1024.0);
  return discriminator_->MemoryFootprintMb() + gen_params + 0.5;
}

// ---------------------------------------------- Traditional surrogate

TraditionalSurrogate::TraditionalSurrogate(
    TraditionalSurrogateConfig config)
    : config_(config), rng_(config.seed) {
  // Features: broker fraction, LEI imbalance, mean/max cpu, mean ram,
  // mean sched demand, failed fraction -> (energy_norm, slo_norm).
  net_ = std::make_unique<nn::Mlp>(
      std::vector<std::size_t>{7, static_cast<std::size_t>(config_.hidden),
                               static_cast<std::size_t>(config_.hidden), 2},
      rng_, "trad.net", nn::Activation::kSigmoid);
  optimizer_ =
      std::make_unique<nn::Adam>(net_->Parameters(), config_.learning_rate);
}

TraditionalSurrogate::~TraditionalSurrogate() = default;

std::vector<double> TraditionalSurrogate::TopologyFeatures(
    const sim::Topology& topo, const sim::SystemSnapshot& snapshot) {
  const double h = static_cast<double>(topo.num_nodes());
  double mean_cpu = 0.0, max_cpu = 0.0, mean_ram = 0.0, sched = 0.0,
         failed = 0.0;
  for (const auto& m : snapshot.hosts) {
    mean_cpu += m.cpu_util;
    max_cpu = std::max(max_cpu, m.cpu_util);
    mean_ram += m.ram_util;
    sched += m.sched_cpu_demand_mips;
    failed += m.failed ? 1.0 : 0.0;
  }
  double imbalance = 0.0;
  const auto brokers = topo.brokers();
  if (!brokers.empty()) {
    const double mean_sz = static_cast<double>(topo.worker_count()) /
                           static_cast<double>(brokers.size());
    for (sim::NodeId b : brokers) {
      imbalance += std::abs(
          static_cast<double>(topo.workers_of(b).size()) - mean_sz);
    }
  }
  return {static_cast<double>(brokers.size()) / h,
          imbalance / h,
          std::min(1.0, mean_cpu / h),
          std::min(1.0, max_cpu / 2.0),
          std::min(1.0, mean_ram / h),
          std::min(1.0, sched / (h * 5000.0)),
          failed / h};
}

std::pair<double, double> TraditionalSurrogate::PredictQos(
    const sim::Topology& candidate, const sim::SystemSnapshot& snapshot) {
  const auto features = TopologyFeatures(candidate, snapshot);
  nn::Matrix x(1, features.size());
  for (std::size_t k = 0; k < features.size(); ++k) x(0, k) = features[k];
  nn::Tape tape;
  const nn::Matrix out = net_->Forward(tape, tape.Leaf(x)).val();
  return {out(0, 0), out(0, 1)};
}

sim::Topology TraditionalSurrogate::Repair(
    const sim::Topology& current,
    const std::vector<sim::NodeId>& failed_brokers,
    const sim::SystemSnapshot& snapshot) {
  return PlanWithSurrogate(
      current, failed_brokers, snapshot, config_.tabu, rng_,
      [&](const sim::Topology& g) {
        const auto [energy, slo] = PredictQos(g, snapshot);
        return config_.alpha * energy + config_.beta * slo;
      });
}

void TraditionalSurrogate::SupervisedStep(
    const std::vector<double>& features, double energy, double slo) {
  nn::Matrix x(1, features.size());
  for (std::size_t k = 0; k < features.size(); ++k) x(0, k) = features[k];
  nn::Matrix target(1, 2);
  target(0, 0) = energy;
  target(0, 1) = slo;
  nn::Tape tape;
  nn::Value pred = net_->Forward(tape, tape.Leaf(x));
  nn::Value loss = nn::MseLoss(tape, pred, target);
  optimizer_->ZeroGrad();
  tape.Backward(loss);
  optimizer_->Step();
}

void TraditionalSurrogate::TrainOffline(const workload::Trace& trace,
                                        int epochs) {
  // Supervised regression on recorded (topology features -> QoS) pairs.
  std::vector<std::pair<std::vector<double>, std::pair<double, double>>>
      data;
  for (const auto& record : trace) {
    sim::SystemSnapshot snap;
    snap.topology = sim::Topology::FromAssignment(record.assignment);
    snap.hosts.resize(record.host_features.size());
    for (std::size_t i = 0; i < record.host_features.size(); ++i) {
      const auto& f = record.host_features[i];
      snap.hosts[i].cpu_util = f[0];
      snap.hosts[i].ram_util = f[1];
      snap.hosts[i].sched_cpu_demand_mips = f[9];
      snap.hosts[i].failed = f[12] != 0.0;
    }
    const double energy_norm =
        record.energy_kwh / std::max(1e-9, 16.0 * 7.3 * 300.0 / 3.6e6);
    data.emplace_back(TopologyFeatures(snap.topology, snap),
                      std::make_pair(std::clamp(energy_norm, 0.0, 1.0),
                                     std::clamp(record.slo_rate, 0.0, 1.0)));
  }
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (const auto idx : rng_.Permutation(data.size())) {
      SupervisedStep(data[idx].first, data[idx].second.first,
                     data[idx].second.second);
    }
  }
}

void TraditionalSurrogate::Observe(const sim::SystemSnapshot& snapshot) {
  const double energy_norm = snapshot.interval_energy_kwh /
                             std::max(1e-9, 16.0 * 7.3 * 300.0 / 3.6e6);
  recent_.emplace_back(
      TopologyFeatures(snapshot.topology, snapshot),
      std::make_pair(std::clamp(energy_norm, 0.0, 1.0),
                     std::clamp(snapshot.slo_rate, 0.0, 1.0)));
  if (recent_.size() > 64) recent_.erase(recent_.begin());
  // No confidence signal: the surrogate must fine-tune every interval
  // (the paper's stated drawback of traditional surrogates).
  for (int s = 0; s < config_.finetune_steps_per_interval; ++s) {
    const auto& [features, qos] = recent_[rng_.Choice(recent_.size())];
    SupervisedStep(features, qos.first, qos.second);
  }
}

double TraditionalSurrogate::MemoryFootprintMb() const {
  auto* self = const_cast<TraditionalSurrogate*>(this);
  return static_cast<double>(self->net_->ParameterCount()) *
             sizeof(double) * 3.0 / (1024.0 * 1024.0) +
         0.2;
}

}  // namespace carol::baselines
