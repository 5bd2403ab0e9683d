#include "baselines/topomad.h"

#include <algorithm>
#include <cmath>

namespace carol::baselines {

namespace {
constexpr int kFeatureWidth = 10;
}

Topomad::Topomad(TopomadConfig config)
    : config_(config),
      rng_(config.seed),
      policy_(FrasConfig{.seed = config.seed + 1}) {
  encoder_ = std::make_unique<nn::LstmCell>(
      kFeatureWidth, static_cast<std::size_t>(config_.lstm_hidden), rng_,
      "topomad.lstm");
  mu_head_ = std::make_unique<nn::Dense>(
      static_cast<std::size_t>(config_.lstm_hidden),
      static_cast<std::size_t>(config_.latent), rng_, "topomad.mu");
  logvar_head_ = std::make_unique<nn::Dense>(
      static_cast<std::size_t>(config_.lstm_hidden),
      static_cast<std::size_t>(config_.latent), rng_, "topomad.logvar");
  decoder_ = std::make_unique<nn::Mlp>(
      std::vector<std::size_t>{static_cast<std::size_t>(config_.latent),
                               static_cast<std::size_t>(config_.lstm_hidden),
                               kFeatureWidth},
      rng_, "topomad.dec", nn::Activation::kSigmoid);
  std::vector<nn::Parameter*> params = encoder_->Parameters();
  for (auto* p : mu_head_->Parameters()) params.push_back(p);
  for (auto* p : logvar_head_->Parameters()) params.push_back(p);
  for (auto* p : decoder_->Parameters()) params.push_back(p);
  optimizer_ = std::make_unique<nn::Adam>(params, config_.learning_rate);
}

Topomad::~Topomad() = default;

std::vector<double> Topomad::Summarize(
    const sim::SystemSnapshot& snap) const {
  double cpu = 0, ram = 0, disk = 0, net = 0, slo = 0, failed = 0, max_cpu = 0;
  for (const auto& m : snap.hosts) {
    cpu += m.cpu_util;
    ram += m.ram_util;
    disk += m.disk_util;
    net += m.net_util;
    slo += m.slo_violation_rate;
    failed += m.failed ? 1.0 : 0.0;
    max_cpu = std::max(max_cpu, m.cpu_util);
  }
  const double h = std::max<std::size_t>(1, snap.hosts.size());
  return {std::min(1.0, cpu / h),
          std::min(1.0, ram / h),
          std::min(1.0, disk / h),
          std::min(1.0, net / h),
          std::min(1.0, slo / h),
          failed / h,
          std::min(1.0, max_cpu / 2.0),
          static_cast<double>(snap.topology.broker_count()) / h,
          std::min(1.0, static_cast<double>(snap.active_tasks) / 32.0),
          std::min(1.0, snap.avg_response_s / 600.0)};
}

double Topomad::AnomalyScore() {
  if (window_.empty()) return 0.0;
  // Encode the window, decode the last step, report the MSE.
  nn::Tape tape;
  auto state = encoder_->InitialState(tape, 1);
  for (const auto& row : window_) {
    nn::Matrix x(1, kFeatureWidth);
    for (std::size_t k = 0; k < row.size(); ++k) x(0, k) = row[k];
    state = encoder_->Forward(tape, tape.Leaf(x), state);
  }
  nn::Value mu = mu_head_->Forward(tape, state.h);
  nn::Value recon = decoder_->Forward(tape, mu);  // mean latent at test time
  nn::Matrix target(1, kFeatureWidth);
  for (std::size_t k = 0; k < window_.back().size(); ++k) {
    target(0, k) = window_.back()[k];
  }
  const nn::Matrix diff = recon.val() - target;
  return diff.Norm() * diff.Norm() / kFeatureWidth;
}

void Topomad::TrainStep() {
  if (window_.size() < 2) return;
  nn::Tape tape;
  auto state = encoder_->InitialState(tape, 1);
  for (const auto& row : window_) {
    nn::Matrix x(1, kFeatureWidth);
    for (std::size_t k = 0; k < row.size(); ++k) x(0, k) = row[k];
    state = encoder_->Forward(tape, tape.Leaf(x), state);
  }
  nn::Value mu = mu_head_->Forward(tape, state.h);
  nn::Value logvar = logvar_head_->Forward(tape, state.h);
  // Reparameterization: z = mu + eps * exp(0.5*logvar).
  nn::Matrix eps(1, static_cast<std::size_t>(config_.latent));
  for (double& v : eps.flat()) v = rng_.Normal(0.0, 1.0);
  nn::Value z = tape.Add(
      mu, tape.Mul(tape.Leaf(eps), tape.Exp(tape.Scale(logvar, 0.5))));
  nn::Value recon = decoder_->Forward(tape, z);
  nn::Matrix target(1, kFeatureWidth);
  for (std::size_t k = 0; k < window_.back().size(); ++k) {
    target(0, k) = window_.back()[k];
  }
  nn::Value recon_loss = nn::MseLoss(tape, recon, target);
  // KL(q || N(0,1)) = -0.5 * sum(1 + logvar - mu^2 - exp(logvar)).
  nn::Value one = tape.Leaf(
      nn::Matrix::Ones(1, static_cast<std::size_t>(config_.latent)));
  nn::Value kl_inner = tape.Sub(
      tape.Add(one, logvar), tape.Add(tape.Mul(mu, mu), tape.Exp(logvar)));
  nn::Value kl = tape.Scale(tape.SumAll(kl_inner), -0.5);
  nn::Value loss = tape.Add(recon_loss, tape.Scale(kl, 0.01));
  optimizer_->ZeroGrad();
  tape.Backward(loss);
  optimizer_->Step();
}

sim::Topology Topomad::Repair(
    const sim::Topology& current,
    const std::vector<sim::NodeId>& failed_brokers,
    const sim::SystemSnapshot& snapshot) {
  // Reconstruction error gates the (borrowed) repair policy: a reactive
  // fault-recovery scheme, the limitation the paper notes for
  // reconstruction models.
  return policy_.PolicyRepair(current, failed_brokers, snapshot);
}

void Topomad::Observe(const sim::SystemSnapshot& snapshot) {
  window_.push_back(Summarize(snapshot));
  while (window_.size() > static_cast<std::size_t>(config_.window)) {
    window_.pop_front();
  }
  for (int s = 0; s < config_.train_steps_per_interval; ++s) TrainStep();
  policy_.Observe(snapshot);
}

double Topomad::MemoryFootprintMb() const {
  auto* self = const_cast<Topomad*>(this);
  std::size_t params = self->encoder_->ParameterCount() +
                       self->mu_head_->ParameterCount() +
                       self->logvar_head_->ParameterCount() +
                       self->decoder_->ParameterCount();
  return static_cast<double>(params) * sizeof(double) * 3.0 /
             (1024.0 * 1024.0) +
         policy_.MemoryFootprintMb() + 0.3;
}

}  // namespace carol::baselines
