// Neural-network building blocks used by the CAROL GON discriminator
// (Figure 3 of the paper: feed-forward encoders + one graph-attention layer
// + sigmoid head) and by the learned baselines (LSTM/VAE for TopoMAD, GAN
// for StepGAN and the With-GAN ablation, recurrent surrogate for FRAS).
// Each layer has one tape forward: dense layers emit fused Linear nodes,
// and the graph-attention forward is batched (one state is K = 1).
#ifndef CAROL_NN_LAYERS_H_
#define CAROL_NN_LAYERS_H_

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/autograd.h"
#include "nn/kernels.h"
#include "nn/matrix.h"

namespace carol::nn {

// A trainable tensor. Tape::Backward adds the gradients of every leaf
// this parameter was bound as into `grad` (summing across a whole
// minibatch graph); optimizers read and zero it.
struct Parameter {
  std::string name;
  Matrix value;
  Matrix grad;

  Parameter(std::string n, Matrix v)
      : name(std::move(n)),
        value(std::move(v)),
        grad(Matrix::Zeros(value.rows(), value.cols())) {}

  std::size_t size() const { return value.size(); }
};

// Base class for anything that owns Parameters. Forward passes bind
// parameters as tape leaves (Bind), and the tape adds their gradients
// into Parameter::grad at Backward. A module keeps no per-tape state:
// a tape may be destroyed right after a forward, and the module trains
// on the next tape with no clearing call.
class Module {
 public:
  virtual ~Module() = default;

  virtual std::vector<Parameter*> Parameters() = 0;

  // Total number of scalar parameters.
  std::size_t ParameterCount();
  // Parameter memory in megabytes (doubles), used by the analytic memory
  // model of Fig. 5(e).
  double ParameterMegabytes();

  void ZeroGrad();

 protected:
  // Binds `param` as a leaf on `tape`. It records a gradient, which
  // Backward adds into `param.grad`, unless the tape's current build
  // binds parameters as constants (Tape::Reset).
  Value Bind(Tape& tape, Parameter& param);
};

enum class Activation { kNone, kRelu, kTanh, kSigmoid };

// Maps a layer activation onto the fused tape-op activation kind.
FusedAct ToFusedAct(Activation act);

// Fully connected layer: y = act(x W + b), x is [N x in]. Each forward
// emits ONE fused Linear tape node (not MatMul + AddRowBroadcast +
// activation).
class Dense : public Module {
 public:
  Dense(std::size_t in, std::size_t out, common::Rng& rng,
        std::string name = "dense", Activation act = Activation::kNone);

  Value Forward(Tape& tape, Value x);
  std::vector<Parameter*> Parameters() override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }
  Activation activation() const { return act_; }

  // Tape-free forward into a caller-owned buffer (inference hot path);
  // uses the same LinearForward kernel as the fused tape op, so the
  // values are identical to Forward's.
  void ForwardInference(const Matrix& x, Matrix& out) const;

 private:
  std::size_t in_;
  std::size_t out_;
  Activation act_;
  Parameter w_;
  Parameter b_;
};

// Multi-layer perceptron with ReLU hidden activations and a configurable
// output activation. `dims` is {in, h1, ..., out}.
class Mlp : public Module {
 public:
  Mlp(const std::vector<std::size_t>& dims, common::Rng& rng,
      std::string name = "mlp", Activation output_act = Activation::kNone,
      Activation hidden_act = Activation::kRelu);

  Value Forward(Tape& tape, Value x);
  std::vector<Parameter*> Parameters() override;
  std::size_t depth() const { return layers_.size(); }

  // Tape-free forward for inference hot paths. `scratch` supplies two
  // recycled ping-pong buffers (grown on demand); the returned reference
  // points into `scratch` and stays valid until the next call.
  const Matrix& ForwardInference(const Matrix& x,
                                 std::array<Matrix, 2>& scratch) const;

 private:
  std::vector<Dense> layers_;
};

// Graph attention layer (Velickovic et al., Eq. (4) of the paper).
// Input: per-node features u [H x in] and a 0/1 adjacency matrix [H x H].
// Self-loops are added internally. Output: e [H x out], computed as
//   h_j = tanh(u_j W + b)
//   a_ij = softmax_{j in n(i)} ((h_i Wq) . h_j)
//   e_i  = sigma( sum_j a_ij h_j )
// which keeps the computation agnostic to the number of hosts, the paper's
// stated motivation for the GAT branch.
class GraphAttention : public Module {
 public:
  GraphAttention(std::size_t in, std::size_t out, common::Rng& rng,
                 std::string name = "gat");

  // Forward over K stacked states: `u` is [K*H x in] (H = rows of each
  // adjacency) and `adjacencies` has one H x H entry per state. The
  // shared linear/query projections run as ONE kernel over all K*H rows;
  // attention stays per-state (cross-state attention is impossible by
  // construction, so each state's rows equal a K = 1 call's bit for bit).
  // Returns the stacked embeddings [K*H x out].
  Value ForwardBatch(Tape& tape, Value u,
                     std::span<const Matrix* const> adjacencies);
  std::vector<Parameter*> Parameters() override;

  // Recycled buffers for ForwardInferenceBatch.
  struct InferenceScratch {
    Matrix hidden, query, hid_s, ht_s, q_s, scores, mask, attn, e_s;
  };
  // Tape-free batched forward mirroring ForwardBatch; writes the stacked
  // embeddings [K*H x out] into `out`. Kernel-for-kernel identical to the
  // tape path.
  void ForwardInferenceBatch(const Matrix& u,
                             std::span<const Matrix* const> adjacencies,
                             InferenceScratch& ws, Matrix& out) const;

 private:
  std::size_t in_;
  std::size_t out_;
  Parameter w_;
  Parameter b_;
  Parameter wq_;
};

// Standard LSTM cell; state is a pair of [N x hidden] values. Used by the
// TopoMAD (LSTM+VAE) and FRAS (recurrent surrogate) baselines.
class LstmCell : public Module {
 public:
  LstmCell(std::size_t in, std::size_t hidden, common::Rng& rng,
           std::string name = "lstm");

  struct State {
    Value h;
    Value c;
  };

  State InitialState(Tape& tape, std::size_t batch_rows);
  State Forward(Tape& tape, Value x, const State& prev);
  std::vector<Parameter*> Parameters() override;
  std::size_t hidden_size() const { return hidden_; }

 private:
  std::size_t in_;
  std::size_t hidden_;
  Parameter wx_;  // [in x 4*hidden]
  Parameter wh_;  // [hidden x 4*hidden]
  Parameter b_;   // [1 x 4*hidden]
};

// --- common losses (built from tape ops) ---

// Mean squared error between pred and a constant target.
Value MseLoss(Tape& tape, Value pred, const Matrix& target);

// Binary cross-entropy pieces used by Algorithm 1:
//   L = -[ log D(real) + log(1 - D(fake)) ]
// `d_real` / `d_fake` are 1x1 discriminator outputs in (0,1).
Value GanDiscriminatorLoss(Tape& tape, Value d_real, Value d_fake);

}  // namespace carol::nn

#endif  // CAROL_NN_LAYERS_H_
