#include "nn/layers.h"

#include <stdexcept>

namespace carol::nn {

std::size_t Module::ParameterCount() {
  std::size_t total = 0;
  for (Parameter* p : Parameters()) total += p->size();
  return total;
}

double Module::ParameterMegabytes() {
  return static_cast<double>(ParameterCount() * sizeof(double)) /
         (1024.0 * 1024.0);
}

void Module::ZeroGrad() {
  for (Parameter* p : Parameters()) p->grad.Fill(0.0);
}

Value Module::Bind(Tape& tape, Parameter& param) {
  return tape.ParamLeaf(param.value, param.grad);
}

FusedAct ToFusedAct(Activation act) {
  switch (act) {
    case Activation::kNone:
      return FusedAct::kNone;
    case Activation::kRelu:
      return FusedAct::kRelu;
    case Activation::kTanh:
      return FusedAct::kTanh;
    case Activation::kSigmoid:
      return FusedAct::kSigmoid;
  }
  throw std::logic_error("ToFusedAct: unknown activation");
}

Dense::Dense(std::size_t in, std::size_t out, common::Rng& rng,
             std::string name, Activation act)
    : in_(in),
      out_(out),
      act_(act),
      w_(name + ".w", Matrix::Xavier(in, out, rng)),
      b_(name + ".b", Matrix::Zeros(1, out)) {}

Value Dense::Forward(Tape& tape, Value x) {
  if (x.cols() != in_) {
    throw std::invalid_argument("Dense::Forward: input width " +
                                std::to_string(x.cols()) + " != " +
                                std::to_string(in_));
  }
  Value w = Bind(tape, w_);
  Value b = Bind(tape, b_);
  return tape.Linear(x, w, b, ToFusedAct(act_));
}

std::vector<Parameter*> Dense::Parameters() { return {&w_, &b_}; }

void Dense::ForwardInference(const Matrix& x, Matrix& out) const {
  LinearForward(x, w_.value, b_.value, ToFusedAct(act_), out);
}

Mlp::Mlp(const std::vector<std::size_t>& dims, common::Rng& rng,
         std::string name, Activation output_act, Activation hidden_act) {
  if (dims.size() < 2) {
    throw std::invalid_argument("Mlp: need at least {in, out} dims");
  }
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool last = (i + 2 == dims.size());
    layers_.emplace_back(dims[i], dims[i + 1], rng,
                         name + ".l" + std::to_string(i),
                         last ? output_act : hidden_act);
  }
}

Value Mlp::Forward(Tape& tape, Value x) {
  Value h = x;
  for (auto& layer : layers_) h = layer.Forward(tape, h);
  return h;
}

std::vector<Parameter*> Mlp::Parameters() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer.Parameters()) out.push_back(p);
  }
  return out;
}

const Matrix& Mlp::ForwardInference(const Matrix& x,
                                    std::array<Matrix, 2>& scratch) const {
  const Matrix* in = &x;
  std::size_t which = 0;
  for (const auto& layer : layers_) {
    Matrix& out = scratch[which];
    layer.ForwardInference(*in, out);
    in = &out;
    which ^= 1;
  }
  return *in;
}

GraphAttention::GraphAttention(std::size_t in, std::size_t out,
                               common::Rng& rng, std::string name)
    : in_(in),
      out_(out),
      w_(name + ".w", Matrix::Xavier(in, out, rng)),
      b_(name + ".b", Matrix::Zeros(1, out)),
      wq_(name + ".wq", Matrix::Xavier(out, out, rng)) {}

Value GraphAttention::ForwardBatch(
    Tape& tape, Value u, std::span<const Matrix* const> adjacencies) {
  if (adjacencies.empty()) {
    throw std::invalid_argument("GraphAttention::ForwardBatch: empty batch");
  }
  const std::size_t h = adjacencies.front()->rows();
  const std::size_t k = adjacencies.size();
  for (const Matrix* adj : adjacencies) {
    if (adj->rows() != h || adj->cols() != h) {
      throw std::invalid_argument(
          "GraphAttention::ForwardBatch: adjacencies must share H x H");
    }
  }
  if (u.rows() != k * h || u.cols() != in_) {
    throw std::invalid_argument(
        "GraphAttention::ForwardBatch: u must be [K*H x in]");
  }

  Value w = Bind(tape, w_);
  Value b = Bind(tape, b_);
  Value wq = Bind(tape, wq_);

  // Shared projections over the whole stack: one kernel for K states.
  Value hidden = tape.LinearTanh(u, w, b);
  Value query = tape.MatMul(hidden, wq);

  // Attention is per-state over the row block [s*H, (s+1)*H); a state's
  // rows never attend across the block boundary, so this matches K
  // independent one-state calls exactly.
  std::vector<Value> parts;
  parts.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    Matrix mask = *adjacencies[s];
    for (std::size_t i = 0; i < h; ++i) mask(i, i) = 1.0;  // self-loops
    Value hid_s = tape.SliceRows(hidden, s * h, (s + 1) * h);
    Value q_s = tape.SliceRows(query, s * h, (s + 1) * h);
    Value scores = tape.MatMul(q_s, tape.Transpose(hid_s));
    Value attn = tape.MaskedRowSoftmax(scores, std::move(mask));
    parts.push_back(tape.Sigmoid(tape.MatMul(attn, hid_s)));
  }
  return k == 1 ? parts.front() : tape.StackRows(parts);
}

void GraphAttention::ForwardInferenceBatch(
    const Matrix& u, std::span<const Matrix* const> adjacencies,
    InferenceScratch& ws, Matrix& out) const {
  if (adjacencies.empty()) {
    throw std::invalid_argument(
        "GraphAttention::ForwardInferenceBatch: empty batch");
  }
  const std::size_t h = adjacencies.front()->rows();
  const std::size_t k = adjacencies.size();
  if (u.rows() != k * h || u.cols() != in_) {
    throw std::invalid_argument(
        "GraphAttention::ForwardInferenceBatch: u must be [K*H x in]");
  }
  out.Resize(k * h, out_);

  // Shared projections over the whole stack: one kernel for K states.
  LinearForward(u, w_.value, b_.value, FusedAct::kTanh, ws.hidden);
  Matrix::MatMulInto(ws.hidden, wq_.value, ws.query);

  // Attention is per-state over the row block [s*H, (s+1)*H), as in
  // ForwardBatch.
  for (std::size_t s = 0; s < k; ++s) {
    ws.mask.CopyFrom(*adjacencies[s]);
    for (std::size_t i = 0; i < h; ++i) ws.mask(i, i) = 1.0;  // self-loops
    ws.hid_s.CopyRowsFrom(ws.hidden, s * h, (s + 1) * h);
    ws.q_s.CopyRowsFrom(ws.query, s * h, (s + 1) * h);
    // Same transpose + blocked-product kernels as the tape path, so the
    // scores match the tape ops bit for bit.
    Matrix::TransposeInto(ws.hid_s, ws.ht_s);
    Matrix::MatMulInto(ws.q_s, ws.ht_s, ws.scores);
    MaskedRowSoftmaxForward(ws.scores, ws.mask, ws.attn);
    Matrix::MatMulInto(ws.attn, ws.hid_s, ws.e_s);
    ApplyActivationInPlace(ws.e_s, FusedAct::kSigmoid);
    std::copy(ws.e_s.flat().begin(), ws.e_s.flat().end(),
              out.flat().begin() + static_cast<std::ptrdiff_t>(s * h * out_));
  }
}

std::vector<Parameter*> GraphAttention::Parameters() {
  return {&w_, &b_, &wq_};
}

LstmCell::LstmCell(std::size_t in, std::size_t hidden, common::Rng& rng,
                   std::string name)
    : in_(in),
      hidden_(hidden),
      wx_(name + ".wx", Matrix::Xavier(in, 4 * hidden, rng)),
      wh_(name + ".wh", Matrix::Xavier(hidden, 4 * hidden, rng)),
      b_(name + ".b", Matrix::Zeros(1, 4 * hidden)) {}

LstmCell::State LstmCell::InitialState(Tape& tape, std::size_t batch_rows) {
  return State{tape.Leaf(Matrix::Zeros(batch_rows, hidden_)),
               tape.Leaf(Matrix::Zeros(batch_rows, hidden_))};
}

LstmCell::State LstmCell::Forward(Tape& tape, Value x, const State& prev) {
  if (x.cols() != in_) {
    throw std::invalid_argument("LstmCell::Forward: input width mismatch");
  }
  Value wx = Bind(tape, wx_);
  Value wh = Bind(tape, wh_);
  Value b = Bind(tape, b_);

  Value gates = tape.AddRowBroadcast(
      tape.Add(tape.MatMul(x, wx), tape.MatMul(prev.h, wh)), b);
  Value i = tape.Sigmoid(tape.SliceCols(gates, 0, hidden_));
  Value f = tape.Sigmoid(tape.SliceCols(gates, hidden_, 2 * hidden_));
  Value g = tape.Tanh(tape.SliceCols(gates, 2 * hidden_, 3 * hidden_));
  Value o = tape.Sigmoid(tape.SliceCols(gates, 3 * hidden_, 4 * hidden_));
  Value c = tape.Add(tape.Mul(f, prev.c), tape.Mul(i, g));
  Value h = tape.Mul(o, tape.Tanh(c));
  return State{h, c};
}

std::vector<Parameter*> LstmCell::Parameters() { return {&wx_, &wh_, &b_}; }

Value MseLoss(Tape& tape, Value pred, const Matrix& target) {
  Value t = tape.Leaf(target);
  Value diff = tape.Sub(pred, t);
  return tape.MeanAll(tape.Mul(diff, diff));
}

Value GanDiscriminatorLoss(Tape& tape, Value d_real, Value d_fake) {
  Value one = tape.Leaf(Matrix::Ones(1, 1));
  Value term_real = tape.Log(d_real);
  Value term_fake = tape.Log(tape.Sub(one, d_fake));
  return tape.Neg(tape.Add(term_real, term_fake));
}

}  // namespace carol::nn
