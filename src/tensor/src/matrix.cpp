#include "nvcim/tensor/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

namespace nvcim {

Matrix::Matrix(std::initializer_list<std::initializer_list<float>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    NVCIM_CHECK_MSG(r.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0f;
  return m;
}

Matrix Matrix::randn(std::size_t rows, std::size_t cols, Rng& rng, float stddev) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = static_cast<float>(rng.normal(0.0, stddev));
  return m;
}

Matrix Matrix::rand_uniform(std::size_t rows, std::size_t cols, Rng& rng, float lo, float hi) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = static_cast<float>(rng.uniform(lo, hi));
  return m;
}

Matrix Matrix::row_vector(std::vector<float> values) {
  const std::size_t n = values.size();
  return Matrix(1, n, std::move(values));
}

Matrix& Matrix::operator+=(const Matrix& o) {
  NVCIM_CHECK_MSG(same_shape(o), "shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  NVCIM_CHECK_MSG(same_shape(o), "shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Matrix& Matrix::hadamard_inplace(const Matrix& o) {
  NVCIM_CHECK_MSG(same_shape(o), "shape mismatch in hadamard");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= o.data_[i];
  return *this;
}

Matrix& Matrix::add_scaled(const Matrix& o, float s) {
  NVCIM_CHECK_MSG(same_shape(o), "shape mismatch in add_scaled");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += s * o.data_[i];
  return *this;
}

void Matrix::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t.data_[c * rows_ + r] = data_[r * cols_ + c];
  return t;
}

Matrix Matrix::reshaped(std::size_t rows, std::size_t cols) const {
  NVCIM_CHECK_MSG(rows * cols == size(),
                  "reshape " << rows_ << "x" << cols_ << " -> " << rows << "x" << cols);
  Matrix m = *this;
  m.rows_ = rows;
  m.cols_ = cols;
  return m;
}

Matrix& Matrix::reshape_inplace(std::size_t rows, std::size_t cols) {
  NVCIM_CHECK_MSG(rows * cols == size(),
                  "reshape " << rows_ << "x" << cols_ << " -> " << rows << "x" << cols);
  rows_ = rows;
  cols_ = cols;
  return *this;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

Matrix Matrix::row_slice(std::size_t begin, std::size_t end) const {
  NVCIM_CHECK_MSG(begin <= end && end <= rows_, "row_slice [" << begin << "," << end << ")");
  Matrix m(end - begin, cols_);
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(begin * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>(end * cols_), m.data_.begin());
  return m;
}

Matrix Matrix::col_slice(std::size_t begin, std::size_t end) const {
  NVCIM_CHECK_MSG(begin <= end && end <= cols_, "col_slice [" << begin << "," << end << ")");
  Matrix m(rows_, end - begin);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = begin; c < end; ++c) m(r, c - begin) = (*this)(r, c);
  return m;
}

void Matrix::set_row(std::size_t r, const Matrix& v) {
  NVCIM_CHECK_MSG(r < rows_ && v.size() == cols_, "set_row shape mismatch");
  std::copy(v.data_.begin(), v.data_.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(r * cols_));
}

float Matrix::sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return static_cast<float>(s);
}

float Matrix::mean() const {
  NVCIM_CHECK(!empty());
  return sum() / static_cast<float>(size());
}

float Matrix::min() const {
  NVCIM_CHECK(!empty());
  return *std::min_element(data_.begin(), data_.end());
}

float Matrix::max() const {
  NVCIM_CHECK(!empty());
  return *std::max_element(data_.begin(), data_.end());
}

float Matrix::max_abs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

float Matrix::frobenius_norm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(s));
}

bool Matrix::all_finite() const {
  return std::all_of(data_.begin(), data_.end(), [](float v) { return std::isfinite(v); });
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, float s) { return a *= s; }
Matrix operator*(float s, Matrix a) { return a *= s; }
Matrix hadamard(Matrix a, const Matrix& b) { return a.hadamard_inplace(b); }

namespace {
// Register tile of the A·B kernel: kTileRows output rows × kTileCols output
// columns stay in accumulators across the whole shared dimension, and each
// output element is stored once.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 32;

// C[0:R, 0:ncols] = A[0:R, :]·B[:, 0:kTileCols]. B rows are ldb apart and
// must hold kTileCols readable columns; only the first ncols are stored.
template <std::size_t R>
void gemm_tile(const float* a, std::size_t K, const float* b, std::size_t ldb, float* c,
               std::size_t ldc, std::size_t ncols) {
  float acc[R][kTileCols] = {};
  for (std::size_t k = 0; k < K; ++k) {
    const float* bk = b + k * ldb;
    for (std::size_t r = 0; r < R; ++r) {
      const float av = a[r * K + k];
      for (std::size_t j = 0; j < kTileCols; ++j) acc[r][j] = madd(av, bk[j], acc[r][j]);
    }
  }
  for (std::size_t r = 0; r < R; ++r)
    std::copy(acc[r], acc[r] + ncols, c + r * ldc);
}

// Every kTileCols-wide column strip of C, in 4-row tiles then 1-row tiles.
void gemm_strip(const float* a, std::size_t M, std::size_t K, const float* b, std::size_t ldb,
                float* c, std::size_t ldc, std::size_t ncols) {
  std::size_t i = 0;
  for (; i + kTileRows <= M; i += kTileRows)
    gemm_tile<kTileRows>(a + i * K, K, b, ldb, c + i * ldc, ldc, ncols);
  for (; i < M; ++i) gemm_tile<1>(a + i * K, K, b, ldb, c + i * ldc, ldc, ncols);
}
}  // namespace

void matmul_into(const Matrix& a, const Matrix& b, Matrix& out) {
  NVCIM_CHECK_MSG(a.cols() == b.rows(), "matmul " << a.rows() << "x" << a.cols() << " · "
                                                  << b.rows() << "x" << b.cols());
  NVCIM_CHECK_MSG(&out != &a && &out != &b, "matmul_into output must not alias an input");
  out.resize(a.rows(), b.cols());
  const std::size_t M = a.rows(), K = a.cols(), N = b.cols();
  std::size_t j = 0;
  for (; j + kTileCols <= N; j += kTileCols)
    gemm_strip(a.data(), M, K, b.data() + j, N, out.data() + j, N, kTileCols);
  if (j == N) return;
  // The N mod kTileCols tail columns go through the same tile over a
  // zero-padded copy of B's last strip; the padding columns are not stored.
  thread_local std::vector<float> tail;
  tail.assign(K * kTileCols, 0.0f);
  for (std::size_t k = 0; k < K; ++k)
    std::copy(b.data() + k * N + j, b.data() + (k + 1) * N, tail.data() + k * kTileCols);
  gemm_strip(a.data(), M, K, tail.data(), kTileCols, out.data() + j, N, N - j);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_into(a, b, c);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  NVCIM_CHECK_MSG(a.rows() == b.rows(), "matmul_tn shape mismatch");
  Matrix c(a.cols(), b.cols(), 0.0f);
  const std::size_t M = a.cols(), K = a.rows(), N = b.cols();
  for (std::size_t k = 0; k < K; ++k) {
    const float* arow = a.data() + k * M;
    const float* brow = b.data() + k * N;
    for (std::size_t i = 0; i < M; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c.data() + i * N;
      for (std::size_t j = 0; j < N; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  NVCIM_CHECK_MSG(a.cols() == b.cols(), "matmul_nt shape mismatch");
  Matrix c(a.rows(), b.rows(), 0.0f);
  const std::size_t M = a.rows(), K = a.cols(), N = b.rows();
  for (std::size_t i = 0; i < M; ++i) {
    const float* arow = a.data() + i * K;
    float* crow = c.data() + i * N;
    for (std::size_t j = 0; j < N; ++j) {
      const float* brow = b.data() + j * K;
      double s = 0.0;
      for (std::size_t k = 0; k < K; ++k) s += static_cast<double>(arow[k]) * brow[k];
      crow[j] = static_cast<float>(s);
    }
  }
  return c;
}

float dot(const Matrix& a, const Matrix& b) {
  NVCIM_CHECK_MSG(a.size() == b.size(), "dot size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    s += static_cast<double>(a.at_flat(i)) * b.at_flat(i);
  return static_cast<float>(s);
}

float cosine_similarity(const Matrix& a, const Matrix& b) {
  const float na = a.frobenius_norm();
  const float nb = b.frobenius_norm();
  if (na == 0.0f || nb == 0.0f) return 0.0f;
  return dot(a, b) / (na * nb);
}

Matrix vconcat(const Matrix& top, const Matrix& bottom) {
  NVCIM_CHECK_MSG(top.cols() == bottom.cols(), "vconcat column mismatch");
  Matrix m(top.rows() + bottom.rows(), top.cols());
  std::copy(top.data(), top.data() + top.size(), m.data());
  std::copy(bottom.data(), bottom.data() + bottom.size(), m.data() + top.size());
  return m;
}

Matrix hconcat(const Matrix& left, const Matrix& right) {
  NVCIM_CHECK_MSG(left.rows() == right.rows(), "hconcat row mismatch");
  Matrix m(left.rows(), left.cols() + right.cols());
  for (std::size_t r = 0; r < left.rows(); ++r) {
    for (std::size_t c = 0; c < left.cols(); ++c) m(r, c) = left(r, c);
    for (std::size_t c = 0; c < right.cols(); ++c) m(r, left.cols() + c) = right(r, c);
  }
  return m;
}

Matrix average_pool_flat(const Matrix& x, std::size_t scale) {
  NVCIM_CHECK(scale >= 1);
  const std::size_t n = x.size();
  if (scale == 1) return x.flattened();
  const std::size_t out = (n + scale - 1) / scale;
  Matrix p(1, out);
  for (std::size_t w = 0; w < out; ++w) {
    const std::size_t begin = w * scale;
    const std::size_t end = std::min(begin + scale, n);
    double s = 0.0;
    for (std::size_t i = begin; i < end; ++i) s += x.at_flat(i);
    p.at_flat(w) = static_cast<float>(s / static_cast<double>(end - begin));
  }
  return p;
}

Matrix average_pool_rows(const Matrix& x, std::size_t scale) {
  if (scale == 1) return x;
  Matrix p;
  average_pool_rows_into(x, scale, p);
  return p;
}

void average_pool_rows_into(const Matrix& x, std::size_t scale, Matrix& out) {
  NVCIM_CHECK(scale >= 1);
  const std::size_t n = x.cols();
  const std::size_t width = (n + scale - 1) / scale;
  out.resize(x.rows(), width);
  if (scale == 1) {
    std::copy(x.data(), x.data() + x.size(), out.data());
    return;
  }
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const float* row = x.data() + r * n;
    float* prow = out.data() + r * width;
    for (std::size_t w = 0; w < width; ++w) {
      const std::size_t begin = w * scale;
      const std::size_t end = std::min(begin + scale, n);
      double s = 0.0;
      for (std::size_t i = begin; i < end; ++i) s += row[i];
      prow[w] = static_cast<float>(s / static_cast<double>(end - begin));
    }
  }
}

namespace {

// Shared kernel of resample_rows / resample_rows_batch — one implementation
// so the serial and batched paths cannot drift apart. Writes the resampled
// n_rows×cols result into `block`.
void resample_rows_into_block(const Matrix& x, std::size_t n_rows, float* block) {
  const std::size_t cols = x.cols();
  if (x.rows() == n_rows) {
    std::copy(x.data(), x.data() + x.size(), block);
    return;
  }
  for (std::size_t i = 0; i < n_rows; ++i) {
    // Row block [begin, end) of the source mapped to output row i.
    const std::size_t begin = i * x.rows() / n_rows;
    std::size_t end = (i + 1) * x.rows() / n_rows;
    if (end <= begin) end = begin + 1;
    float* orow = block + i * cols;
    std::fill(orow, orow + cols, 0.0f);
    for (std::size_t r = begin; r < end; ++r) {
      const float* xrow = x.data() + r * cols;
      for (std::size_t c = 0; c < cols; ++c) orow[c] += xrow[c];
    }
    const float inv = 1.0f / static_cast<float>(end - begin);
    for (std::size_t c = 0; c < cols; ++c) orow[c] *= inv;
  }
}

}  // namespace

Matrix resample_rows(const Matrix& x, std::size_t n_rows) {
  NVCIM_CHECK(n_rows >= 1 && x.rows() >= 1);
  if (n_rows == x.rows()) return x;
  Matrix out(n_rows, x.cols());
  resample_rows_into_block(x, n_rows, out.data());
  return out;
}

void stack_rows_into(const std::vector<const Matrix*>& parts, Matrix& out) {
  NVCIM_CHECK_MSG(!parts.empty(), "stack_rows of nothing");
  const std::size_t cols = parts[0]->cols();
  std::size_t total = 0;
  for (const Matrix* m : parts) {
    NVCIM_CHECK_MSG(m != nullptr && m->cols() == cols, "stack_rows column mismatch");
    total += m->rows();
  }
  out.resize(total, cols);
  float* dst = out.data();
  for (const Matrix* m : parts) {
    std::copy(m->data(), m->data() + m->size(), dst);
    dst += m->size();
  }
}

Matrix stack_rows(const std::vector<const Matrix*>& parts) {
  Matrix out;
  stack_rows_into(parts, out);
  return out;
}

void resample_rows_batch(const std::vector<const Matrix*>& xs, std::size_t n_rows, Matrix& out) {
  NVCIM_CHECK_MSG(!xs.empty(), "resample_rows_batch of nothing");
  NVCIM_CHECK(n_rows >= 1);
  const std::size_t cols = xs[0]->cols();
  for (const Matrix* x : xs)
    NVCIM_CHECK_MSG(x != nullptr && x->cols() == cols && x->rows() >= 1,
                    "resample_rows_batch item shape mismatch");
  out.resize(xs.size() * n_rows, cols);
  for (std::size_t b = 0; b < xs.size(); ++b)
    resample_rows_into_block(*xs[b], n_rows, out.data() + b * n_rows * cols);
}

bool allclose(const Matrix& a, const Matrix& b, float atol, float rtol) {
  if (!a.same_shape(b)) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float x = a.at_flat(i), y = b.at_flat(i);
    if (std::fabs(x - y) > atol + rtol * std::fabs(y)) return false;
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << "Matrix(" << m.rows() << "x" << m.cols() << ")[";
  const std::size_t show = std::min<std::size_t>(m.size(), 8);
  for (std::size_t i = 0; i < show; ++i) {
    if (i) os << ", ";
    os << m.at_flat(i);
  }
  if (m.size() > show) os << ", ...";
  return os << "]";
}

}  // namespace nvcim
