#include "nn/autograd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace carol::nn {

const Matrix& Value::val() const {
  if (tape_ == nullptr) throw std::logic_error("Value: invalid handle");
  return tape_->node(idx_).value;
}

const Matrix& Value::grad() const {
  if (tape_ == nullptr) throw std::logic_error("Value: invalid handle");
  return tape_->GradRef(idx_);
}

double Value::scalar() const {
  const Matrix& m = val();
  if (m.rows() != 1 || m.cols() != 1) {
    throw std::logic_error("Value::scalar: not a 1x1 value");
  }
  return m(0, 0);
}

std::size_t Tape::AcquireIndex() {
  if (live_ == nodes_.size()) {
    nodes_.emplace_back();
  }
  Node& n = nodes_[live_];
  n.requires_grad = false;
  n.grad_ready = false;
  n.parents.clear();  // retains capacity
  return live_++;
}

Value Tape::FinishNode(std::size_t self,
                       std::span<const std::size_t> parents,
                       std::function<void(Tape&, std::size_t)> backward) {
  Node& n = nodes_[self];
  bool needs_grad = false;
  for (std::size_t p : parents) {
    n.parents.push_back(static_cast<std::uint32_t>(p));
    needs_grad = needs_grad || nodes_[p].requires_grad;
  }
  n.requires_grad = needs_grad;
  n.backward = std::move(backward);
  return Value(this, self);
}

Value Tape::FinishNodeIL(std::size_t self,
                         std::initializer_list<std::size_t> parents,
                         std::function<void(Tape&, std::size_t)> backward) {
  return FinishNode(self,
                    std::span<const std::size_t>(parents.begin(),
                                                 parents.size()),
                    std::move(backward));
}

Matrix& Tape::GradRef(std::size_t idx) {
  Node& n = nodes_[idx];
  if (!n.grad_ready) {
    n.grad.AssignZeros(n.value.rows(), n.value.cols());
    n.grad_ready = true;
  }
  return n.grad;
}

Value Tape::Leaf(Matrix m, bool requires_grad) {
  const std::size_t self = AcquireIndex();
  Node& n = nodes_[self];
  n.value = std::move(m);
  n.requires_grad = requires_grad;
  n.backward = nullptr;
  return Value(this, self);
}

Value Tape::LeafRef(const Matrix& m, bool requires_grad) {
  const std::size_t self = AcquireIndex();
  Node& n = nodes_[self];
  n.value.CopyFrom(m);
  n.requires_grad = requires_grad;
  n.backward = nullptr;
  return Value(this, self);
}

Value Tape::ParamLeaf(const Matrix& value, Matrix& grad) {
  Value leaf = LeafRef(value, param_grads_);
  if (param_grads_) param_leaves_.emplace_back(leaf.idx_, &grad);
  return leaf;
}

Value Tape::Add(Value a, Value b) {
  const std::size_t ia = a.idx_, ib = b.idx_;
  const std::size_t self = AcquireIndex();
  nodes_[self].value.CopyFrom(nodes_[ia].value);
  nodes_[self].value.AddInPlace(nodes_[ib].value);
  return FinishNodeIL(self, {ia, ib}, [ia, ib](Tape& t, std::size_t s) {
    const Matrix& g = t.node(s).grad;
    if (t.node(ia).requires_grad) t.node(ia).grad.AddInPlace(g);
    if (t.node(ib).requires_grad) t.node(ib).grad.AddInPlace(g);
  });
}

Value Tape::AddRowBroadcast(Value a, Value row) {
  const std::size_t ia = a.idx_, ir = row.idx_;
  {
    const Matrix& av = nodes_[ia].value;
    const Matrix& rv = nodes_[ir].value;
    if (rv.rows() != 1 || rv.cols() != av.cols()) {
      throw std::invalid_argument("AddRowBroadcast: row must be 1 x cols(a)");
    }
  }
  const std::size_t self = AcquireIndex();
  {
    const Matrix& av = nodes_[ia].value;
    const Matrix& rv = nodes_[ir].value;
    Matrix& out = nodes_[self].value;
    out.CopyFrom(av);
    const double* bias = rv.flat().data();
    double* od = out.flat().data();
    for (std::size_t r = 0; r < out.rows(); ++r) {
      double* orow = od + r * out.cols();
      for (std::size_t c = 0; c < out.cols(); ++c) orow[c] += bias[c];
    }
  }
  return FinishNodeIL(self, {ia, ir}, [ia, ir](Tape& t, std::size_t s) {
    const Matrix& g = t.node(s).grad;
    if (t.node(ia).requires_grad) t.node(ia).grad.AddInPlace(g);
    if (t.node(ir).requires_grad) t.node(ir).grad.AddColumnSums(g);
  });
}

Value Tape::Sub(Value a, Value b) {
  const std::size_t ia = a.idx_, ib = b.idx_;
  const std::size_t self = AcquireIndex();
  nodes_[self].value.CopyFrom(nodes_[ia].value);
  nodes_[self].value -= nodes_[ib].value;
  return FinishNodeIL(self, {ia, ib}, [ia, ib](Tape& t, std::size_t s) {
    const Matrix& g = t.node(s).grad;
    if (t.node(ia).requires_grad) t.node(ia).grad.AddInPlace(g);
    if (t.node(ib).requires_grad) t.node(ib).grad.MulAddInPlace(g, -1.0);
  });
}

Value Tape::Mul(Value a, Value b) {
  const std::size_t ia = a.idx_, ib = b.idx_;
  const std::size_t self = AcquireIndex();
  nodes_[self].value.CopyFrom(nodes_[ia].value);
  nodes_[self].value.HadamardInPlace(nodes_[ib].value);
  return FinishNodeIL(self, {ia, ib}, [ia, ib](Tape& t, std::size_t s) {
    const Matrix& g = t.node(s).grad;
    if (t.node(ia).requires_grad) {
      t.node(ia).grad.HadamardAccum(g, t.node(ib).value);
    }
    if (t.node(ib).requires_grad) {
      t.node(ib).grad.HadamardAccum(g, t.node(ia).value);
    }
  });
}

Value Tape::MatMul(Value a, Value b) {
  const std::size_t ia = a.idx_, ib = b.idx_;
  const std::size_t self = AcquireIndex();
  Matrix::MatMulInto(nodes_[ia].value, nodes_[ib].value,
                     nodes_[self].value);
  return FinishNodeIL(self, {ia, ib}, [ia, ib](Tape& t, std::size_t s) {
    const Matrix& g = t.node(s).grad;
    if (t.node(ia).requires_grad) {
      // dA += g * B^T: transpose B into scratch once so the blocked
      // kernel can skip the exact zeros ReLU leaves in g (the transpose
      // is tiny next to the product; the scratch buffer is recycled).
      Matrix& bt = t.Scratch2();
      Matrix::TransposeInto(t.node(ib).value, bt);
      Matrix::MatMulAccum(g, bt, t.node(ia).grad);
    }
    if (t.node(ib).requires_grad) {
      // dB += A^T * g: the rank-1 row kernel skips A's ReLU zeros.
      Matrix::MatMulTransAAccum(t.node(ia).value, g, t.node(ib).grad);
    }
  });
}

Value Tape::Linear(Value x, Value w, Value b, FusedAct act) {
  const std::size_t ix = x.idx_, iw = w.idx_, ibias = b.idx_;
  const std::size_t self = AcquireIndex();
  LinearForward(nodes_[ix].value, nodes_[iw].value, nodes_[ibias].value,
                act, nodes_[self].value);
  return FinishNodeIL(self, {ix, iw, ibias}, [ix, iw, ibias, act](Tape& t, std::size_t s) {
        const Matrix& g = t.node(s).grad;
        const Matrix& y = t.node(s).value;
        // dpre = g .* act'(y) — the activations used here are all
        // expressible from the output y.
        Matrix& dpre = t.Scratch();
        const Matrix* d = &g;
        if (act != FusedAct::kNone) {
          dpre.Resize(y.rows(), y.cols());
          const double* gp = g.flat().data();
          const double* yp = y.flat().data();
          double* dp = dpre.flat().data();
          const std::size_t n = y.size();
          switch (act) {
            case FusedAct::kRelu:
              for (std::size_t i = 0; i < n; ++i) {
                dp[i] = yp[i] > 0.0 ? gp[i] : 0.0;
              }
              break;
            case FusedAct::kSigmoid:
              for (std::size_t i = 0; i < n; ++i) {
                dp[i] = gp[i] * yp[i] * (1.0 - yp[i]);
              }
              break;
            case FusedAct::kTanh:
              for (std::size_t i = 0; i < n; ++i) {
                dp[i] = gp[i] * (1.0 - yp[i] * yp[i]);
              }
              break;
            case FusedAct::kNone:
              break;
          }
          d = &dpre;
        }
        // dX += dpre * W^T via transpose + zero-skipping blocked kernel
        // (dpre inherits ReLU sparsity); dW += X^T * dpre skips X zeros.
        // Frozen-parameter forwards (input-space ascent) skip dW and db
        // entirely — the guard is the generation fast path.
        if (t.node(ix).requires_grad) {
          Matrix& wt = t.Scratch2();
          Matrix::TransposeInto(t.node(iw).value, wt);
          Matrix::MatMulAccum(*d, wt, t.node(ix).grad);
        }
        if (t.node(iw).requires_grad) {
          Matrix::MatMulTransAAccum(t.node(ix).value, *d, t.node(iw).grad);
        }
        if (t.node(ibias).requires_grad) {
          t.node(ibias).grad.AddColumnSums(*d);
        }
      });
}

Value Tape::Transpose(Value a) {
  const std::size_t ia = a.idx_;
  const std::size_t self = AcquireIndex();
  {
    const Matrix& av = nodes_[ia].value;
    Matrix& out = nodes_[self].value;
    out.Resize(av.cols(), av.rows());
    for (std::size_t r = 0; r < av.rows(); ++r) {
      for (std::size_t c = 0; c < av.cols(); ++c) out(c, r) = av(r, c);
    }
  }
  return FinishNodeIL(self, {ia}, [ia](Tape& t, std::size_t s) {
    const Matrix& g = t.node(s).grad;
    Matrix& pg = t.node(ia).grad;
    for (std::size_t r = 0; r < g.rows(); ++r) {
      for (std::size_t c = 0; c < g.cols(); ++c) pg(c, r) += g(r, c);
    }
  });
}

Value Tape::Scale(Value a, double s) {
  const std::size_t ia = a.idx_;
  const std::size_t self = AcquireIndex();
  nodes_[self].value.CopyFrom(nodes_[ia].value);
  nodes_[self].value *= s;
  return FinishNodeIL(self, {ia}, [ia, s](Tape& t, std::size_t self_) {
    t.node(ia).grad.MulAddInPlace(t.node(self_).grad, s);
  });
}

Value Tape::AddScalar(Value a, double s) {
  const std::size_t ia = a.idx_;
  const std::size_t self = AcquireIndex();
  nodes_[self].value.CopyFrom(nodes_[ia].value);
  nodes_[self].value.MapInPlaceFn([s](double v) { return v + s; });
  return FinishNodeIL(self, {ia}, [ia](Tape& t, std::size_t self_) {
    t.node(ia).grad.AddInPlace(t.node(self_).grad);
  });
}

Value Tape::Neg(Value a) { return Scale(a, -1.0); }

Value Tape::Relu(Value a) {
  const std::size_t ia = a.idx_;
  const std::size_t self = AcquireIndex();
  nodes_[self].value.CopyFrom(nodes_[ia].value);
  nodes_[self].value.MapInPlaceFn(scalar_ops::Relu);
  return FinishNodeIL(self, {ia}, [ia](Tape& t, std::size_t s) {
    const Matrix& g = t.node(s).grad;
    const Matrix& x = t.node(ia).value;
    Matrix& pg = t.node(ia).grad;
    const double* gp = g.flat().data();
    const double* xp = x.flat().data();
    double* pp = pg.flat().data();
    const std::size_t n = g.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (xp[i] > 0.0) pp[i] += gp[i];
    }
  });
}

Value Tape::Tanh(Value a) {
  const std::size_t ia = a.idx_;
  const std::size_t self = AcquireIndex();
  nodes_[self].value.CopyFrom(nodes_[ia].value);
  nodes_[self].value.MapInPlaceFn(scalar_ops::Tanh);
  return FinishNodeIL(self, {ia}, [ia](Tape& t, std::size_t s) {
    const Matrix& g = t.node(s).grad;
    const Matrix& y = t.node(s).value;
    Matrix& pg = t.node(ia).grad;
    const double* gp = g.flat().data();
    const double* yp = y.flat().data();
    double* pp = pg.flat().data();
    const std::size_t n = g.size();
    for (std::size_t i = 0; i < n; ++i) {
      pp[i] += gp[i] * (1.0 - yp[i] * yp[i]);
    }
  });
}

Value Tape::Sigmoid(Value a) {
  const std::size_t ia = a.idx_;
  const std::size_t self = AcquireIndex();
  nodes_[self].value.CopyFrom(nodes_[ia].value);
  nodes_[self].value.MapInPlaceFn(scalar_ops::Sigmoid);
  return FinishNodeIL(self, {ia}, [ia](Tape& t, std::size_t s) {
    const Matrix& g = t.node(s).grad;
    const Matrix& y = t.node(s).value;
    Matrix& pg = t.node(ia).grad;
    const double* gp = g.flat().data();
    const double* yp = y.flat().data();
    double* pp = pg.flat().data();
    const std::size_t n = g.size();
    for (std::size_t i = 0; i < n; ++i) {
      pp[i] += gp[i] * yp[i] * (1.0 - yp[i]);
    }
  });
}

Value Tape::Exp(Value a) {
  const std::size_t ia = a.idx_;
  const std::size_t self = AcquireIndex();
  nodes_[self].value.CopyFrom(nodes_[ia].value);
  nodes_[self].value.MapInPlaceFn([](double v) { return std::exp(v); });
  return FinishNodeIL(self, {ia}, [ia](Tape& t, std::size_t s) {
    t.node(ia).grad.HadamardAccum(t.node(s).grad, t.node(s).value);
  });
}

Value Tape::Log(Value a) {
  const std::size_t ia = a.idx_;
  const std::size_t self = AcquireIndex();
  nodes_[self].value.CopyFrom(nodes_[ia].value);
  nodes_[self].value.MapInPlaceFn(
      [](double v) { return std::log(std::max(v, kLogEps)); });
  return FinishNodeIL(self, {ia}, [ia](Tape& t, std::size_t s) {
    const Matrix& g = t.node(s).grad;
    const Matrix& x = t.node(ia).value;
    Matrix& pg = t.node(ia).grad;
    const double* gp = g.flat().data();
    const double* xp = x.flat().data();
    double* pp = pg.flat().data();
    const std::size_t n = g.size();
    for (std::size_t i = 0; i < n; ++i) {
      pp[i] += gp[i] / std::max(xp[i], kLogEps);
    }
  });
}

Value Tape::ConcatCols(Value a, Value b) {
  const std::size_t ia = a.idx_, ib = b.idx_;
  if (nodes_[ia].value.rows() != nodes_[ib].value.rows()) {
    throw std::invalid_argument("ConcatCols: row count mismatch");
  }
  const std::size_t ca = nodes_[ia].value.cols();
  const std::size_t self = AcquireIndex();
  {
    const Matrix& av = nodes_[ia].value;
    const Matrix& bv = nodes_[ib].value;
    Matrix& out = nodes_[self].value;
    out.Resize(av.rows(), av.cols() + bv.cols());
    for (std::size_t r = 0; r < av.rows(); ++r) {
      auto orow = out.row(r);
      std::copy(av.row(r).begin(), av.row(r).end(), orow.begin());
      std::copy(bv.row(r).begin(), bv.row(r).end(),
                orow.begin() + static_cast<std::ptrdiff_t>(ca));
    }
  }
  return FinishNodeIL(self, {ia, ib}, [ia, ib, ca](Tape& t, std::size_t s) {
    const Matrix& g = t.node(s).grad;
    const bool need_a = t.node(ia).requires_grad;
    const bool need_b = t.node(ib).requires_grad;
    for (std::size_t r = 0; r < g.rows(); ++r) {
      auto grow = g.row(r);
      if (need_a) {
        Matrix& ga = t.node(ia).grad;
        for (std::size_t c = 0; c < ca; ++c) ga(r, c) += grow[c];
      }
      if (need_b) {
        Matrix& gb = t.node(ib).grad;
        for (std::size_t c = ca; c < g.cols(); ++c) {
          gb(r, c - ca) += grow[c];
        }
      }
    }
  });
}

Value Tape::ConcatRows(Value a, Value b) {
  const std::size_t ia = a.idx_, ib = b.idx_;
  if (nodes_[ia].value.cols() != nodes_[ib].value.cols()) {
    throw std::invalid_argument("ConcatRows: column count mismatch");
  }
  const std::size_t ra = nodes_[ia].value.rows();
  const std::size_t self = AcquireIndex();
  {
    const Matrix& av = nodes_[ia].value;
    const Matrix& bv = nodes_[ib].value;
    Matrix& out = nodes_[self].value;
    out.Resize(av.rows() + bv.rows(), av.cols());
    std::copy(av.flat().begin(), av.flat().end(), out.flat().begin());
    std::copy(bv.flat().begin(), bv.flat().end(),
              out.flat().begin() +
                  static_cast<std::ptrdiff_t>(av.flat().size()));
  }
  return FinishNodeIL(self, {ia, ib}, [ia, ib, ra](Tape& t, std::size_t s) {
    const Matrix& g = t.node(s).grad;
    const double* gp = g.flat().data();
    const std::size_t na = t.node(ia).value.size();
    if (t.node(ia).requires_grad) {
      Matrix& ga = t.node(ia).grad;
      double* pa = ga.flat().data();
      for (std::size_t i = 0; i < na; ++i) pa[i] += gp[i];
    }
    if (t.node(ib).requires_grad) {
      Matrix& gb = t.node(ib).grad;
      double* pb = gb.flat().data();
      const std::size_t nb = gb.size();
      for (std::size_t i = 0; i < nb; ++i) pb[i] += gp[na + i];
    }
    (void)ra;
  });
}

Value Tape::StackRows(std::span<const Value> parts) {
  if (parts.empty()) {
    throw std::invalid_argument("StackRows: empty part list");
  }
  std::vector<std::size_t> idxs;
  idxs.reserve(parts.size());
  const std::size_t cols = nodes_[parts.front().idx_].value.cols();
  std::size_t total_rows = 0;
  for (const Value& v : parts) {
    if (v.tape_ != this) {
      throw std::invalid_argument("StackRows: value from another tape");
    }
    if (nodes_[v.idx_].value.cols() != cols) {
      throw std::invalid_argument("StackRows: column count mismatch");
    }
    total_rows += nodes_[v.idx_].value.rows();
    idxs.push_back(v.idx_);
  }
  const std::size_t self = AcquireIndex();
  {
    Matrix& out = nodes_[self].value;
    out.Resize(total_rows, cols);
    double* od = out.flat().data();
    for (std::size_t i : idxs) {
      const Matrix& part = nodes_[i].value;
      od = std::copy(part.flat().begin(), part.flat().end(), od);
    }
  }
  return FinishNode(
      self, idxs, [idxs](Tape& t, std::size_t s) {
        const Matrix& g = t.node(s).grad;
        const double* gp = g.flat().data();
        for (std::size_t i : idxs) {
          const std::size_t n = t.node(i).value.size();
          if (t.node(i).requires_grad) {
            double* pp = t.node(i).grad.flat().data();
            for (std::size_t j = 0; j < n; ++j) pp[j] += gp[j];
          }
          gp += n;
        }
      });
}

Value Tape::SliceCols(Value a, std::size_t c0, std::size_t c1) {
  const std::size_t ia = a.idx_;
  {
    const Matrix& av = nodes_[ia].value;
    if (c0 > c1 || c1 > av.cols()) {
      throw std::out_of_range("SliceCols: bad column range");
    }
  }
  const std::size_t self = AcquireIndex();
  {
    const Matrix& av = nodes_[ia].value;
    Matrix& out = nodes_[self].value;
    out.Resize(av.rows(), c1 - c0);
    for (std::size_t r = 0; r < av.rows(); ++r) {
      for (std::size_t c = c0; c < c1; ++c) out(r, c - c0) = av(r, c);
    }
  }
  return FinishNodeIL(self, {ia}, [ia, c0](Tape& t, std::size_t s) {
    const Matrix& g = t.node(s).grad;
    Matrix& pg = t.node(ia).grad;
    for (std::size_t r = 0; r < g.rows(); ++r) {
      for (std::size_t c = 0; c < g.cols(); ++c) {
        pg(r, c0 + c) += g(r, c);
      }
    }
  });
}

Value Tape::SliceRows(Value a, std::size_t r0, std::size_t r1) {
  const std::size_t ia = a.idx_;
  const std::size_t self = AcquireIndex();
  nodes_[self].value.CopyRowsFrom(nodes_[ia].value, r0, r1);
  return FinishNodeIL(self, {ia}, [ia, r0](Tape& t, std::size_t s) {
    const Matrix& g = t.node(s).grad;
    Matrix& pg = t.node(ia).grad;
    const double* gp = g.flat().data();
    double* pp = pg.flat().data() + r0 * pg.cols();
    const std::size_t n = g.size();
    for (std::size_t i = 0; i < n; ++i) pp[i] += gp[i];
  });
}

Value Tape::SumAll(Value a) {
  const std::size_t ia = a.idx_;
  const std::size_t self = AcquireIndex();
  nodes_[self].value.Resize(1, 1);
  nodes_[self].value(0, 0) = nodes_[ia].value.Sum();
  return FinishNodeIL(self, {ia}, [ia](Tape& t, std::size_t s) {
    const double g = t.node(s).grad(0, 0);
    for (double& v : t.node(ia).grad.flat()) v += g;
  });
}

Value Tape::MeanAll(Value a) {
  const std::size_t ia = a.idx_;
  const double inv =
      nodes_[ia].value.size() == 0
          ? 0.0
          : 1.0 / static_cast<double>(nodes_[ia].value.size());
  const std::size_t self = AcquireIndex();
  nodes_[self].value.Resize(1, 1);
  nodes_[self].value(0, 0) = nodes_[ia].value.MeanValue();
  return FinishNodeIL(self, {ia}, [ia, inv](Tape& t, std::size_t s) {
    const double g = t.node(s).grad(0, 0) * inv;
    for (double& v : t.node(ia).grad.flat()) v += g;
  });
}

Value Tape::RowMean(Value a) {
  const std::size_t ia = a.idx_;
  const std::size_t rows = nodes_[ia].value.rows();
  const double inv = rows == 0 ? 0.0 : 1.0 / static_cast<double>(rows);
  const std::size_t self = AcquireIndex();
  {
    const Matrix& av = nodes_[ia].value;
    Matrix& out = nodes_[self].value;
    out.AssignZeros(1, av.cols());
    out.AddColumnSums(av);
    out *= inv;
  }
  return FinishNodeIL(self, {ia}, [ia, inv](Tape& t, std::size_t s) {
    const Matrix& g = t.node(s).grad;
    Matrix& pg = t.node(ia).grad;
    const double* gp = g.flat().data();
    double* pp = pg.flat().data();
    for (std::size_t r = 0; r < pg.rows(); ++r) {
      double* prow = pp + r * pg.cols();
      for (std::size_t c = 0; c < pg.cols(); ++c) {
        prow[c] += gp[c] * inv;
      }
    }
  });
}

Value Tape::MaskedRowSoftmax(Value a, Matrix mask) {
  const std::size_t ia = a.idx_;
  const std::size_t self = AcquireIndex();
  MaskedRowSoftmaxForward(nodes_[ia].value, mask, nodes_[self].value);
  return FinishNodeIL(self, {ia}, [ia, mask = std::move(mask)](Tape& t, std::size_t s) {
        const Matrix& g = t.node(s).grad;
        const Matrix& y = t.node(s).value;
        Matrix& pg = t.node(ia).grad;
        for (std::size_t r = 0; r < y.rows(); ++r) {
          double dot = 0.0;
          for (std::size_t c = 0; c < y.cols(); ++c) {
            if (mask(r, c) != 0.0) dot += g(r, c) * y(r, c);
          }
          for (std::size_t c = 0; c < y.cols(); ++c) {
            if (mask(r, c) != 0.0) {
              pg(r, c) += y(r, c) * (g(r, c) - dot);
            }
          }
        }
      });
}

void Tape::Backward(Value output) {
  if (output.tape_ != this) {
    throw std::invalid_argument("Backward: value from another tape");
  }
  Node& out = node(output.idx_);
  if (out.value.rows() != 1 || out.value.cols() != 1) {
    throw std::invalid_argument("Backward: output must be 1x1");
  }
  // Mark the subgraph reachable from the output (iterative DFS).
  reach_.assign(live_, 0);
  stack_.clear();
  stack_.push_back(output.idx_);
  while (!stack_.empty()) {
    const std::size_t idx = stack_.back();
    stack_.pop_back();
    if (reach_[idx]) continue;
    reach_[idx] = 1;
    for (std::uint32_t p : nodes_[idx].parents) {
      if (!reach_[p]) stack_.push_back(p);
    }
  }
  // Materialize and zero gradients only where the sweep can write: the
  // reachable requires-grad subgraph (backward lambdas guard on the
  // parent's requires_grad). A forward-only tape never touches gradient
  // storage at all.
  for (std::size_t i = 0; i <= output.idx_; ++i) {
    if (reach_[i] && nodes_[i].requires_grad) GradRef(i);
  }
  GradRef(output.idx_)(0, 0) = 1.0;
  for (std::size_t i = output.idx_ + 1; i-- > 0;) {
    if (!reach_[i] || !nodes_[i].backward) continue;
    if (!nodes_[i].requires_grad) continue;
    nodes_[i].backward(*this, i);
  }
  // A reached parameter leaf requires grad, so its gradient is shaped.
  for (const auto& [idx, grad] : param_leaves_) {
    if (reach_[idx]) grad->AddInPlace(nodes_[idx].grad);
  }
}

void Tape::Clear() {
  nodes_.clear();
  live_ = 0;
  param_leaves_.clear();
  param_grads_ = true;
}

}  // namespace carol::nn
