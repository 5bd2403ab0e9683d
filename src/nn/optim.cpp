#include "nn/optim.h"

#include <cmath>

namespace carol::nn {

void Optimizer::ZeroGrad() {
  for (Parameter* p : params_) p->grad.Fill(0.0);
}

std::size_t Optimizer::num_parameters() const {
  std::size_t total = 0;
  for (const Parameter* p : params_) total += p->value.size();
  return total;
}

Adam::Adam(std::vector<Parameter*> params, double lr, double beta1,
           double beta2, double eps, double weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.push_back(Matrix::Zeros(p->value.rows(), p->value.cols()));
    v_.push_back(Matrix::Zeros(p->value.rows(), p->value.cols()));
  }
}

void Adam::Step() {
  ++step_count_;
  const double bc1 = 1.0 - std::pow(beta1_, step_count_);
  const double bc2 = 1.0 - std::pow(beta2_, step_count_);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    auto pv = p.value.flat();
    auto pg = p.grad.flat();
    auto mi = m_[i].flat();
    auto vi = v_[i].flat();
    for (std::size_t j = 0; j < pv.size(); ++j) {
      const double g = pg[j] + weight_decay_ * pv[j];
      mi[j] = beta1_ * mi[j] + (1.0 - beta1_) * g;
      vi[j] = beta2_ * vi[j] + (1.0 - beta2_) * g * g;
      const double mhat = mi[j] / bc1;
      const double vhat = vi[j] / bc2;
      pv[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

}  // namespace carol::nn
