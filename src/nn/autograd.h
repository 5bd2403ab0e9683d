// Reverse-mode automatic differentiation over Matrix values.
//
// The paper's GON surrogate needs two kinds of exact gradients:
//   * d(loss)/d(theta) for discriminator training (Algorithm 1), and
//   * d(log D)/d(M) *with respect to the input* for the optimization-based
//     generation step, Eq. (1):  M <- M + gamma * grad_M log D(M,S,G).
// A tape-based autograd gives both from the same machinery.
//
// Usage: build a computation with Tape ops, call Backward on a 1x1 output,
// then read gradients off any node handle. Nodes are appended in
// topological order, so the backward pass is a reverse sweep over the
// subgraph reachable from the seed.
//
// The tape also owns parameter gradients. Module::Bind turns a Parameter
// into a tape leaf, and the tape records the pair (leaf, &param.grad);
// Backward ends by adding each reached leaf's gradient into its
// Parameter::grad. Whether this build's parameter leaves record
// gradients at all is chosen when the build starts (Reset).
//
// Hot-path design (see src/nn/README.md):
//   * The tape is an arena: `Reset()` recycles node slots AND their matrix
//     buffers, so a tape owned by a per-interval loop (GonModel keeps one)
//     reaches a steady state with no heap traffic per forward/backward.
//   * Gradients are materialized lazily at Backward time (and zeroed only
//     for the reachable subgraph); a forward-only evaluation never touches
//     gradient storage.
//   * Fused `Linear*` ops emit one node per dense layer instead of three
//     (MatMul + AddRowBroadcast + activation), sharing the forward kernel
//     in nn/kernels.h with the tape-free inference path. The unfused ops
//     stay available as general-purpose primitives (LSTM cells, tests).
#ifndef CAROL_NN_AUTOGRAD_H_
#define CAROL_NN_AUTOGRAD_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "nn/kernels.h"
#include "nn/matrix.h"

namespace carol::nn {

class Tape;

// Lightweight handle to a tape node. Valid only while its Tape is alive
// and neither Reset nor Clear has been called since the handle was made.
class Value {
 public:
  Value() = default;

  const Matrix& val() const;
  const Matrix& grad() const;
  std::size_t rows() const { return val().rows(); }
  std::size_t cols() const { return val().cols(); }
  // Convenience for 1x1 outputs.
  double scalar() const;
  bool valid() const { return tape_ != nullptr; }
  std::size_t index() const { return idx_; }

 private:
  friend class Tape;
  Value(Tape* tape, std::size_t idx) : tape_(tape), idx_(idx) {}
  Tape* tape_ = nullptr;
  std::size_t idx_ = 0;
};

// The computation tape. Not thread-safe; use one per training thread.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // Registers an input. Leaves with requires_grad=true accumulate
  // gradients during Backward. The matrix is moved into the node.
  Value Leaf(Matrix m, bool requires_grad = false);
  // Like Leaf but copies `m` into the node's recycled buffer — the
  // allocation-free form for arena reuse (parameter leaves and the GON
  // per-interval loops use this).
  Value LeafRef(const Matrix& m, bool requires_grad = false);

  // --- arithmetic ---
  Value Add(Value a, Value b);             // same shape
  Value AddRowBroadcast(Value a, Value row);  // row is 1 x cols(a)
  Value Sub(Value a, Value b);
  Value Mul(Value a, Value b);             // Hadamard
  Value MatMul(Value a, Value b);
  Value Transpose(Value a);
  Value Scale(Value a, double s);
  Value AddScalar(Value a, double s);
  Value Neg(Value a);

  // --- fused dense layer: act(a * w + b), one node instead of three ---
  Value Linear(Value x, Value w, Value b, FusedAct act);
  Value LinearRelu(Value x, Value w, Value b) {
    return Linear(x, w, b, FusedAct::kRelu);
  }
  Value LinearSigmoid(Value x, Value w, Value b) {
    return Linear(x, w, b, FusedAct::kSigmoid);
  }
  Value LinearTanh(Value x, Value w, Value b) {
    return Linear(x, w, b, FusedAct::kTanh);
  }

  // --- elementwise nonlinearities ---
  Value Relu(Value a);
  Value Tanh(Value a);
  Value Sigmoid(Value a);
  Value Exp(Value a);
  // Natural log with inputs clamped to [kLogEps, inf) for stability.
  Value Log(Value a);

  // --- structural ---
  Value ConcatCols(Value a, Value b);
  Value ConcatRows(Value a, Value b);
  // Stacks K parts vertically in one node (linear copy cost — use this
  // instead of a ConcatRows chain, which is O(K^2)).
  Value StackRows(std::span<const Value> parts);
  Value SliceCols(Value a, std::size_t c0, std::size_t c1);
  Value SliceRows(Value a, std::size_t r0, std::size_t r1);

  // --- reductions ---
  Value SumAll(Value a);   // 1x1
  Value MeanAll(Value a);  // 1x1
  Value RowMean(Value a);  // mean over rows -> 1 x cols

  // Row-wise softmax restricted to positions where mask(r,c) == 1;
  // masked-out positions produce exactly 0. Rows with an empty mask
  // produce all zeros. Used by the graph-attention layer.
  Value MaskedRowSoftmax(Value a, Matrix mask);

  // Seeds d(output)/d(output) = 1 and sweeps the reachable subgraph,
  // then adds each recorded parameter leaf's gradient into its
  // Parameter::grad, in recording order (a leaf the sweep did not reach
  // adds nothing). `output` must be 1x1; throws std::invalid_argument
  // otherwise. Call it once per build: node gradients persist until the
  // next Reset, so a second call would add them into the parameters again.
  void Backward(Value output);

  // Recycles the tape: node count drops to zero but node slots and their
  // matrix buffers are retained for the next build. Outstanding Value
  // handles become invalid. This is the per-interval fast path.
  // `param_grads` chooses, for the build that starts, whether parameter
  // leaves record gradients; false binds them as constants, so a build
  // whose backward only needs input gradients skips every dW/db.
  void Reset(bool param_grads = true) {
    live_ = 0;
    param_leaves_.clear();
    param_grads_ = param_grads;
  }
  // Drops all nodes AND their storage; outstanding handles become
  // invalid. The next build records parameter gradients, as on a new
  // tape.
  void Clear();
  std::size_t size() const { return live_; }
  // Number of retained (live + recyclable) node slots.
  std::size_t capacity() const { return nodes_.size(); }

  // Minimum value the Log op clamps its inputs to.
  static constexpr double kLogEps = 1e-12;

 private:
  friend class Value;
  friend class Module;  // Module::Bind is the only caller of ParamLeaf

  // A leaf holding a copy of `value` whose gradient Backward adds into
  // `grad`; a constant leaf, recorded nowhere, when this build does not
  // record parameter gradients.
  Value ParamLeaf(const Matrix& value, Matrix& grad);

  struct Node {
    Matrix value;
    Matrix grad;            // lazily shaped/zeroed (see grad_ready)
    bool requires_grad = false;
    bool grad_ready = false;
    // Parent node indices (always < own index). The vector's capacity is
    // recycled with the slot, so steady-state builds stay allocation-free.
    std::vector<std::uint32_t> parents;
    // Propagates this node's grad into the parents' grads.
    std::function<void(Tape&, std::size_t)> backward;
  };

  Node& node(std::size_t idx) { return nodes_[idx]; }
  const Node& node(std::size_t idx) const { return nodes_[idx]; }

  // Takes a fresh or recycled node slot; returns its index. May grow
  // nodes_, so do not hold Node references across a call.
  std::size_t AcquireIndex();
  // Stamps parents/backward/requires_grad on an acquired slot.
  Value FinishNode(std::size_t self,
                   std::span<const std::size_t> parents,
                   std::function<void(Tape&, std::size_t)> backward);
  // Initializer-list convenience for the fixed-arity ops.
  Value FinishNodeIL(std::size_t self,
                     std::initializer_list<std::size_t> parents,
                     std::function<void(Tape&, std::size_t)> backward);
  // Shapes and zeroes the node's gradient unless already done this build.
  Matrix& GradRef(std::size_t idx);
  // Scratch matrices for backward lambdas (one lambda at a time; a
  // lambda may use both, e.g. fused Linear: dpre + W^T).
  Matrix& Scratch() { return scratch_; }
  Matrix& Scratch2() { return scratch2_; }

  std::vector<Node> nodes_;
  std::size_t live_ = 0;
  Matrix scratch_;
  Matrix scratch2_;
  // Reusable Backward scratch.
  std::vector<char> reach_;
  std::vector<std::size_t> stack_;
  // This build's parameter leaves: (node index, Parameter::grad).
  std::vector<std::pair<std::size_t, Matrix*>> param_leaves_;
  bool param_grads_ = true;
};

}  // namespace carol::nn

#endif  // CAROL_NN_AUTOGRAD_H_
