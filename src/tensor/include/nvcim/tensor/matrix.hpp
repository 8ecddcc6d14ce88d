#pragma once

#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

#include "nvcim/common/check.hpp"
#include "nvcim/common/rng.hpp"

namespace nvcim {

/// Dense row-major float32 matrix — the single numeric container used by the
/// autograd tape, the LLM substrate and the crossbar simulator. Vectors are
/// represented as 1×n or n×1 matrices. The class has value semantics: copies
/// are deep, moves are cheap.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  Matrix(std::size_t rows, std::size_t cols, std::vector<float> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    NVCIM_CHECK_MSG(data_.size() == rows_ * cols_,
                    "data size " << data_.size() << " != " << rows_ << "x" << cols_);
  }
  /// Brace-construction from nested lists, e.g. Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<float>> rows);

  static Matrix zeros(std::size_t rows, std::size_t cols) { return Matrix(rows, cols, 0.0f); }
  static Matrix ones(std::size_t rows, std::size_t cols) { return Matrix(rows, cols, 1.0f); }
  static Matrix identity(std::size_t n);
  /// I.i.d. Gaussian entries.
  static Matrix randn(std::size_t rows, std::size_t cols, Rng& rng, float stddev = 1.0f);
  /// I.i.d. uniform entries in [lo, hi).
  static Matrix rand_uniform(std::size_t rows, std::size_t cols, Rng& rng, float lo, float hi);
  /// 1×n row vector from raw values.
  static Matrix row_vector(std::vector<float> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  bool same_shape(const Matrix& o) const { return rows_ == o.rows_ && cols_ == o.cols_; }

  float& operator()(std::size_t r, std::size_t c) {
    NVCIM_CHECK_MSG(r < rows_ && c < cols_, "index (" << r << "," << c << ") out of "
                                                      << rows_ << "x" << cols_);
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    NVCIM_CHECK_MSG(r < rows_ && c < cols_, "index (" << r << "," << c << ") out of "
                                                      << rows_ << "x" << cols_);
    return data_[r * cols_ + c];
  }
  float& at_flat(std::size_t i) { return data_[i]; }
  float at_flat(std::size_t i) const { return data_[i]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  const std::vector<float>& storage() const { return data_; }

  // ---- In-place elementwise ----
  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(float s);
  Matrix& hadamard_inplace(const Matrix& o);
  Matrix& add_scaled(const Matrix& o, float s);  ///< this += s * o
  void fill(float v);

  // ---- Shape ----
  Matrix transposed() const;
  Matrix reshaped(std::size_t rows, std::size_t cols) const;
  /// Reinterpret the existing storage as rows×cols (element count preserved).
  Matrix& reshape_inplace(std::size_t rows, std::size_t cols);
  /// Resize storage to rows×cols; meant for reusable output/scratch buffers
  /// (no reallocation when the element count shrinks or stays put). The
  /// flat row-major storage keeps its prefix and zero-fills any growth, so
  /// with `cols` unchanged existing rows are kept and appended rows are 0;
  /// any other reshape leaves the contents unspecified.
  void resize(std::size_t rows, std::size_t cols);
  /// Rows [begin, end) as a new matrix.
  Matrix row_slice(std::size_t begin, std::size_t end) const;
  /// Columns [begin, end) as a new matrix.
  Matrix col_slice(std::size_t begin, std::size_t end) const;
  /// Single row as 1×cols matrix.
  Matrix row(std::size_t r) const { return row_slice(r, r + 1); }
  void set_row(std::size_t r, const Matrix& v);
  /// Flatten to a 1×(rows*cols) row vector.
  Matrix flattened() const { return reshaped(1, size()); }

  // ---- Reductions ----
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  float max_abs() const;
  float frobenius_norm() const;

  bool all_finite() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

// ---- Free-function algebra ----
Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, float s);
Matrix operator*(float s, Matrix a);
Matrix hadamard(Matrix a, const Matrix& b);

/// The multiply-add of matmul_into(): std::fma where the target has FMA,
/// `acc + a * b` otherwise, so its rounding never depends on whether the
/// compiler contracts (-O0 builds do not). A hand-written loop that must
/// equal a matmul_into() product bit for bit accumulates with it too.
inline float madd(float a, float b, float acc) {
#ifdef __FMA__
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

/// C = A·B. Shapes checked. See matmul_into() for the kernel.
Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A·B written into caller storage — no allocation when `out` already
/// has the right element count (prior contents are ignored). The kernel
/// holds a 4-row × 32-column output tile in registers across the whole
/// shared dimension and stores it once; leftover rows run as 1-row tiles and
/// leftover columns through the same 32-wide tile over a zero-padded copy of
/// B. Each output element is one chain of madd() over k in ascending order
/// from +0, so the result is bit-identical to the textbook i-k-j madd() loop
/// that skips zeros of A whenever B is finite (a skipped 0·inf is NaN
/// here). The one exception is a sign of zero: on FMA targets a sum that
/// underflows to −0 reads +0 after a later zero term.
void matmul_into(const Matrix& a, const Matrix& b, Matrix& out);
/// C = Aᵀ·B without materializing the transpose.
Matrix matmul_tn(const Matrix& a, const Matrix& b);
/// C = A·Bᵀ without materializing the transpose.
Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// Flattened inner product; shapes must match elementwise.
float dot(const Matrix& a, const Matrix& b);
/// Cosine similarity of the flattened matrices; 0 if either has zero norm.
float cosine_similarity(const Matrix& a, const Matrix& b);

/// Vertical concatenation (same column count).
Matrix vconcat(const Matrix& top, const Matrix& bottom);
/// Horizontal concatenation (same row count).
Matrix hconcat(const Matrix& left, const Matrix& right);

/// Non-overlapping average pooling with window `scale` applied along the
/// flattened vector (the Pool_i(x) operator of the paper's Eq. 5). The tail
/// window may be shorter. scale==1 returns a flattened copy.
Matrix average_pool_flat(const Matrix& x, std::size_t scale);

/// Row-wise batch of average_pool_flat: pools each row of a B×n matrix
/// independently, producing B×⌈n/scale⌉. Row b equals
/// average_pool_flat(x.row(b), scale) bit-for-bit.
Matrix average_pool_rows(const Matrix& x, std::size_t scale);

/// average_pool_rows() into caller storage — allocation-free once `out` is
/// warm. Bit-identical to average_pool_rows().
void average_pool_rows_into(const Matrix& x, std::size_t scale, Matrix& out);

/// Resample a matrix to exactly `n_rows` rows by averaging contiguous row
/// blocks (n_rows < rows) or nearest-row repetition (n_rows > rows). Used to
/// put variable-length query embeddings into the fixed virtual-token shape.
Matrix resample_rows(const Matrix& x, std::size_t n_rows);

/// Stack the rows of several same-width matrices into one tall matrix.
Matrix stack_rows(const std::vector<const Matrix*>& parts);
/// stack_rows() into caller storage — allocation-free once `out` is warm.
void stack_rows_into(const std::vector<const Matrix*>& parts, Matrix& out);

/// Batched resample_rows: resample each xs[b] (variable rows, shared cols)
/// to `n_rows` rows and stack the results into a (B·n_rows)×cols matrix
/// written into `out`. Block b is bit-identical to resample_rows(*xs[b],
/// n_rows); no per-item temporaries are allocated.
void resample_rows_batch(const std::vector<const Matrix*>& xs, std::size_t n_rows, Matrix& out);

bool allclose(const Matrix& a, const Matrix& b, float atol = 1e-5f, float rtol = 1e-5f);

std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace nvcim
