// First-order optimizers. The paper trains/fine-tunes the GON with Adam
// (lr 1e-4, weight decay 1e-5), and every learned baseline uses Adam too.
// Step reads Parameter::grad, which Tape::Backward accumulates into, so a
// training step is ZeroGrad, one Backward, Step.
#ifndef CAROL_NN_OPTIM_H_
#define CAROL_NN_OPTIM_H_

#include <vector>

#include "nn/layers.h"

namespace carol::nn {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Parameter*> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  // Applies one update from the accumulated Parameter::grad values.
  virtual void Step() = 0;
  void ZeroGrad();
  std::size_t num_parameters() const;

 protected:
  std::vector<Parameter*> params_;
};

// Adam with decoupled weight decay (AdamW-style, matching PyTorch's
// Adam(weight_decay=...) coupling: decay added to the gradient).
class Adam : public Optimizer {
 public:
  Adam(std::vector<Parameter*> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8, double weight_decay = 0.0);
  void Step() override;
  double learning_rate() const { return lr_; }
  void set_learning_rate(double lr) { lr_ = lr; }

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  double weight_decay_;
  long step_count_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace carol::nn

#endif  // CAROL_NN_OPTIM_H_
