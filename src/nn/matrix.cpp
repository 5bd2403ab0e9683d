#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace carol::nn {

namespace {

void CheckSameShape(const Matrix& a, const Matrix& b, const char* op) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch (" +
                                std::to_string(a.rows()) + "x" +
                                std::to_string(a.cols()) + " vs " +
                                std::to_string(b.rows()) + "x" +
                                std::to_string(b.cols()) + ")");
  }
}

// Blocked i-k-j product kernel: out += a * b over the flat row-major
// buffers. k is consumed in index order within and across blocks, so the
// per-element accumulation order — and therefore the floating-point
// result — is identical to the unblocked i-k-j loop.
constexpr std::size_t kBlockK = 64;
constexpr std::size_t kBlockJ = 256;

void MatMulAccumImpl(const double* a, const double* b, double* out,
                     std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t kb = 0; kb < k; kb += kBlockK) {
    const std::size_t kend = std::min(kb + kBlockK, k);
    for (std::size_t jb = 0; jb < n; jb += kBlockJ) {
      const std::size_t jend = std::min(jb + kBlockJ, n);
      for (std::size_t i = 0; i < m; ++i) {
        const double* arow = a + i * k;
        double* orow = out + i * n;
        for (std::size_t kk = kb; kk < kend; ++kk) {
          const double aik = arow[kk];
          // ReLU activations make `a` ~half exact zeros on the GON hot
          // path; skipping preserves the result (modulo signed zeros).
          if (aik == 0.0) continue;
          const double* brow = b + kk * n;
          for (std::size_t j = jb; j < jend; ++j) {
            orow[j] += aik * brow[j];
          }
        }
      }
    }
  }
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> data) {
  rows_ = data.size();
  cols_ = rows_ == 0 ? 0 : data.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : data) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Zeros(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols, 0.0);
}

Matrix Matrix::Ones(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols, 1.0);
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Randn(std::size_t rows, std::size_t cols, common::Rng& rng,
                     double mean, double stddev) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.Normal(mean, stddev);
  return m;
}

Matrix Matrix::Xavier(std::size_t fan_in, std::size_t fan_out,
                      common::Rng& rng) {
  const double limit =
      std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  Matrix m(fan_in, fan_out);
  for (double& v : m.data_) v = rng.Uniform(-limit, limit);
  return m;
}

Matrix Matrix::FromFlat(std::size_t rows, std::size_t cols,
                        std::vector<double> flat) {
  // rows * cols must not wrap: 2^32 x 2^32 would pass as 0 elements.
  if ((cols != 0 && rows > std::numeric_limits<std::size_t>::max() / cols) ||
      flat.size() != rows * cols) {
    throw std::invalid_argument("FromFlat: buffer size mismatch");
  }
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(flat);
  return m;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  return data_[r * cols_ + c];
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("Matrix::at: index out of range");
  }
  return data_[r * cols_ + c];
}

std::span<double> Matrix::row(std::size_t r) {
  return std::span<double>(data_).subspan(r * cols_, cols_);
}

std::span<const double> Matrix::row(std::size_t r) const {
  return std::span<const double>(data_).subspan(r * cols_, cols_);
}

void Matrix::Resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Matrix::AssignZeros(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

void Matrix::CopyFrom(const Matrix& src) {
  rows_ = src.rows_;
  cols_ = src.cols_;
  data_.assign(src.data_.begin(), src.data_.end());
}

void Matrix::CopyRowsFrom(const Matrix& src, std::size_t r0,
                          std::size_t r1) {
  if (r0 > r1 || r1 > src.rows_) {
    throw std::out_of_range("CopyRowsFrom: bad row range");
  }
  rows_ = r1 - r0;
  cols_ = src.cols_;
  data_.assign(src.data_.begin() + static_cast<std::ptrdiff_t>(r0 * cols_),
               src.data_.begin() + static_cast<std::ptrdiff_t>(r1 * cols_));
}

Matrix& Matrix::AddInPlace(const Matrix& other) {
  CheckSameShape(*this, other, "AddInPlace");
  const double* src = other.data_.data();
  double* dst = data_.data();
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
  return *this;
}

Matrix& Matrix::MulAddInPlace(const Matrix& other, double s) {
  CheckSameShape(*this, other, "MulAddInPlace");
  const double* src = other.data_.data();
  double* dst = data_.data();
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i] * s;
  return *this;
}

Matrix& Matrix::HadamardInPlace(const Matrix& other) {
  CheckSameShape(*this, other, "HadamardInPlace");
  const double* src = other.data_.data();
  double* dst = data_.data();
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) dst[i] *= src[i];
  return *this;
}

Matrix& Matrix::HadamardAccum(const Matrix& a, const Matrix& b) {
  CheckSameShape(*this, a, "HadamardAccum");
  CheckSameShape(a, b, "HadamardAccum");
  const double* pa = a.data_.data();
  const double* pb = b.data_.data();
  double* dst = data_.data();
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) dst[i] += pa[i] * pb[i];
  return *this;
}

Matrix& Matrix::AddColumnSums(const Matrix& src) {
  if (rows_ != 1 || cols_ != src.cols_) {
    throw std::invalid_argument("AddColumnSums: target must be 1 x cols");
  }
  double* dst = data_.data();
  for (std::size_t r = 0; r < src.rows_; ++r) {
    const double* srow = src.data_.data() + r * src.cols_;
    for (std::size_t c = 0; c < src.cols_; ++c) dst[c] += srow[c];
  }
  return *this;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  CheckSameShape(*this, other, "operator+=");
  return AddInPlace(other);
}

Matrix& Matrix::operator-=(const Matrix& other) {
  CheckSameShape(*this, other, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& v : data_) v *= scalar;
  return *this;
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix out = *this;
  out += other;
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  Matrix out = *this;
  out -= other;
  return out;
}

Matrix Matrix::operator*(double scalar) const {
  Matrix out = *this;
  out *= scalar;
  return out;
}

Matrix Matrix::Hadamard(const Matrix& other) const {
  CheckSameShape(*this, other, "Hadamard");
  Matrix out = *this;
  out.HadamardInPlace(other);
  return out;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  Matrix out;
  MatMulInto(*this, other, out);
  return out;
}

void Matrix::MatMulInto(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols_ != b.rows_) {
    throw std::invalid_argument(
        "MatMul: inner dimension mismatch (" + std::to_string(a.rows_) +
        "x" + std::to_string(a.cols_) + " * " + std::to_string(b.rows_) +
        "x" + std::to_string(b.cols_) + ")");
  }
  if (&out == &a || &out == &b) {
    throw std::invalid_argument("MatMulInto: out aliases an operand");
  }
  out.AssignZeros(a.rows_, b.cols_);
  MatMulAccumImpl(a.data_.data(), b.data_.data(), out.data_.data(),
                  a.rows_, a.cols_, b.cols_);
}

void Matrix::MatMulAccum(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols_ != b.rows_ || out.rows_ != a.rows_ || out.cols_ != b.cols_) {
    throw std::invalid_argument("MatMulAccum: shape mismatch");
  }
  if (&out == &a || &out == &b) {
    throw std::invalid_argument("MatMulAccum: out aliases an operand");
  }
  MatMulAccumImpl(a.data_.data(), b.data_.data(), out.data_.data(),
                  a.rows_, a.cols_, b.cols_);
}

void Matrix::MatMulTransAAccum(const Matrix& a, const Matrix& b,
                               Matrix& out) {
  // out[t][j] += sum_i a[i][t] * b[i][j]; a [m x k], b [m x n].
  if (a.rows_ != b.rows_ || out.rows_ != a.cols_ || out.cols_ != b.cols_) {
    throw std::invalid_argument("MatMulTransAAccum: shape mismatch");
  }
  if (&out == &a || &out == &b) {
    throw std::invalid_argument("MatMulTransAAccum: out aliases an operand");
  }
  const std::size_t m = a.rows_, k = a.cols_, n = b.cols_;
  const double* pa = a.data_.data();
  const double* pb = b.data_.data();
  double* po = out.data_.data();
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = pa + i * k;
    const double* brow = pb + i * n;
    for (std::size_t t = 0; t < k; ++t) {
      const double a_it = arow[t];
      if (a_it == 0.0) continue;  // ReLU sparsity (see MatMulAccumImpl)
      double* orow = po + t * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += a_it * brow[j];
    }
  }
}

Matrix Matrix::Transposed() const {
  Matrix out;
  TransposeInto(*this, out);
  return out;
}

void Matrix::TransposeInto(const Matrix& src, Matrix& out) {
  if (&out == &src) {
    throw std::invalid_argument("TransposeInto: out aliases src");
  }
  out.Resize(src.cols_, src.rows_);
  for (std::size_t r = 0; r < src.rows_; ++r) {
    const double* srow = src.data_.data() + r * src.cols_;
    for (std::size_t c = 0; c < src.cols_; ++c) {
      out.data_[c * src.rows_ + r] = srow[c];
    }
  }
}

Matrix Matrix::ConcatCols(const Matrix& other) const {
  if (rows_ != other.rows_) {
    throw std::invalid_argument("ConcatCols: row count mismatch");
  }
  Matrix out(rows_, cols_ + other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::copy(row(r).begin(), row(r).end(), out.row(r).begin());
    std::copy(other.row(r).begin(), other.row(r).end(),
              out.row(r).begin() + static_cast<std::ptrdiff_t>(cols_));
  }
  return out;
}

Matrix Matrix::ConcatRows(const Matrix& other) const {
  if (cols_ != other.cols_) {
    throw std::invalid_argument("ConcatRows: column count mismatch");
  }
  Matrix out(rows_ + other.rows_, cols_);
  std::copy(data_.begin(), data_.end(), out.data_.begin());
  std::copy(other.data_.begin(), other.data_.end(),
            out.data_.begin() + static_cast<std::ptrdiff_t>(data_.size()));
  return out;
}

Matrix Matrix::SliceCols(std::size_t c0, std::size_t c1) const {
  if (c0 > c1 || c1 > cols_) {
    throw std::out_of_range("SliceCols: bad column range");
  }
  Matrix out(rows_, c1 - c0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = c0; c < c1; ++c) {
      out(r, c - c0) = (*this)(r, c);
    }
  }
  return out;
}

Matrix Matrix::SliceRows(std::size_t r0, std::size_t r1) const {
  Matrix out;
  out.CopyRowsFrom(*this, r0, r1);
  return out;
}

double Matrix::Sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

double Matrix::MeanValue() const {
  return data_.empty() ? 0.0 : Sum() / static_cast<double>(data_.size());
}

double Matrix::MaxValue() const {
  return data_.empty() ? 0.0 : *std::max_element(data_.begin(), data_.end());
}

double Matrix::MinValue() const {
  return data_.empty() ? 0.0 : *std::min_element(data_.begin(), data_.end());
}

double Matrix::Norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

Matrix Matrix::RowMean() const {
  Matrix out = RowSum();
  if (rows_ > 0) out *= 1.0 / static_cast<double>(rows_);
  return out;
}

Matrix Matrix::RowSum() const {
  Matrix out(1, cols_, 0.0);
  out.AddColumnSums(*this);
  return out;
}

void Matrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

bool Matrix::AllFinite() const {
  return std::all_of(data_.begin(), data_.end(),
                     [](double v) { return std::isfinite(v); });
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  CheckSameShape(*this, other, "MaxAbsDiff");
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  }
  return worst;
}

bool Matrix::operator==(const Matrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         data_ == other.data_;
}

std::string Matrix::ToString(int max_rows, int max_cols) const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << " [";
  const std::size_t rlim = std::min<std::size_t>(rows_, max_rows);
  const std::size_t clim = std::min<std::size_t>(cols_, max_cols);
  for (std::size_t r = 0; r < rlim; ++r) {
    os << (r == 0 ? "[" : " [");
    for (std::size_t c = 0; c < clim; ++c) {
      os << (*this)(r, c);
      if (c + 1 < clim) os << ", ";
    }
    if (clim < cols_) os << ", ...";
    os << "]";
    if (r + 1 < rlim) os << "\n";
  }
  if (rlim < rows_) os << "\n ...";
  os << "]";
  return os.str();
}

}  // namespace carol::nn
