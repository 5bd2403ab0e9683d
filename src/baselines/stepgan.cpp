#include "baselines/stepgan.h"

#include <algorithm>
#include <cmath>

namespace carol::baselines {

namespace {
constexpr int kFeatureWidth = 8;
}

StepGan::StepGan(StepGanConfig config)
    : config_(config),
      rng_(config.seed),
      policy_(FrasConfig{.seed = config.seed + 1}) {
  const auto flat =
      static_cast<std::size_t>(config_.window * kFeatureWidth);
  generator_ = std::make_unique<nn::Mlp>(
      std::vector<std::size_t>{static_cast<std::size_t>(config_.latent),
                               static_cast<std::size_t>(config_.hidden),
                               flat},
      rng_, "stepgan.gen", nn::Activation::kSigmoid);
  discriminator_ = std::make_unique<nn::Mlp>(
      std::vector<std::size_t>{flat,
                               static_cast<std::size_t>(config_.hidden),
                               static_cast<std::size_t>(config_.hidden / 2),
                               1},
      rng_, "stepgan.disc", nn::Activation::kSigmoid);
  gen_opt_ = std::make_unique<nn::Adam>(generator_->Parameters(),
                                        config_.learning_rate);
  disc_opt_ = std::make_unique<nn::Adam>(discriminator_->Parameters(),
                                         config_.learning_rate);
}

StepGan::~StepGan() = default;

std::vector<double> StepGan::Summarize(
    const sim::SystemSnapshot& snap) const {
  double cpu = 0, ram = 0, net = 0, slo = 0, failed = 0, max_cpu = 0;
  for (const auto& m : snap.hosts) {
    cpu += m.cpu_util;
    ram += m.ram_util;
    net += m.net_util;
    slo += m.slo_violation_rate;
    failed += m.failed ? 1.0 : 0.0;
    max_cpu = std::max(max_cpu, m.cpu_util);
  }
  const double h = std::max<std::size_t>(1, snap.hosts.size());
  return {std::min(1.0, cpu / h),
          std::min(1.0, ram / h),
          std::min(1.0, net / h),
          std::min(1.0, slo / h),
          failed / h,
          std::min(1.0, max_cpu / 2.0),
          static_cast<double>(snap.topology.broker_count()) / h,
          std::min(1.0, snap.avg_response_s / 600.0)};
}

nn::Matrix StepGan::WindowMatrix(std::size_t steps) const {
  // The time-series-to-matrix conversion: the last `steps` summaries,
  // zero-padded to the full window and flattened row-major.
  nn::Matrix flat(1, static_cast<std::size_t>(config_.window) *
                         kFeatureWidth);
  const std::size_t have = std::min(steps, window_.size());
  const std::size_t offset = window_.size() - have;
  for (std::size_t t = 0; t < have; ++t) {
    const auto& row = window_[offset + t];
    for (std::size_t k = 0; k < row.size(); ++k) {
      flat(0, t * kFeatureWidth + k) = row[k];
    }
  }
  return flat;
}

double StepGan::WindowScore() {
  if (window_.empty()) return 0.5;
  nn::Tape tape;
  return discriminator_->Forward(tape, tape.Leaf(WindowMatrix(window_.size())))
      .scalar();
}

void StepGan::TrainStep(std::size_t steps) {
  if (window_.empty()) return;
  const nn::Matrix real = WindowMatrix(steps);
  // Generator forward (fake window from noise).
  nn::Matrix noise(1, static_cast<std::size_t>(config_.latent));
  for (double& v : noise.flat()) v = rng_.Normal(0.0, 1.0);

  {
    // Discriminator update on (real, fake.detach()).
    nn::Tape tape;
    nn::Value fake = generator_->Forward(tape, tape.Leaf(noise));
    // Detached copy: the loss never reaches the generator's leaves, so
    // Backward adds nothing to its gradients.
    nn::Value fake_const = tape.Leaf(fake.val());
    nn::Value d_real =
        discriminator_->Forward(tape, tape.Leaf(real));
    nn::Value d_fake = discriminator_->Forward(tape, fake_const);
    nn::Value loss = nn::GanDiscriminatorLoss(tape, d_real, d_fake);
    disc_opt_->ZeroGrad();
    tape.Backward(loss);
    disc_opt_->Step();
  }
  {
    // Generator update: maximize log D(G(z)).
    // Backward also adds this step's gradient into the discriminator's
    // Parameter::grad; nothing reads it, because the discriminator update
    // zeroes its gradients before its own Backward.
    nn::Tape tape;
    nn::Value fake = generator_->Forward(tape, tape.Leaf(noise));
    nn::Value d_fake = discriminator_->Forward(tape, fake);
    nn::Value loss = tape.Neg(tape.Log(d_fake));
    gen_opt_->ZeroGrad();
    tape.Backward(tape.SumAll(loss));
    gen_opt_->Step();
  }
}

sim::Topology StepGan::Repair(
    const sim::Topology& current,
    const std::vector<sim::NodeId>& failed_brokers,
    const sim::SystemSnapshot& snapshot) {
  return policy_.PolicyRepair(current, failed_brokers, snapshot);
}

void StepGan::Observe(const sim::SystemSnapshot& snapshot) {
  window_.push_back(Summarize(snapshot));
  while (window_.size() > static_cast<std::size_t>(config_.window)) {
    window_.pop_front();
  }
  // Stepwise training: expanding sub-windows (1, half, full), a few
  // passes each interval.
  for (int s = 0; s < config_.train_steps_per_interval; ++s) {
    TrainStep(1);
    TrainStep(window_.size() / 2 + 1);
    TrainStep(window_.size());
  }
  policy_.Observe(snapshot);
}

double StepGan::MemoryFootprintMb() const {
  auto* self = const_cast<StepGan*>(this);
  const std::size_t params = self->generator_->ParameterCount() +
                             self->discriminator_->ParameterCount();
  // Both networks with Adam state, plus the window-matrix buffers.
  return static_cast<double>(params) * sizeof(double) * 3.0 /
             (1024.0 * 1024.0) +
         policy_.MemoryFootprintMb() + 0.5;
}

}  // namespace carol::baselines
