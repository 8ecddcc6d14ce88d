#pragma once

#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

#include "nvcim/tensor/matrix.hpp"

namespace nvcim::autograd {

class Tape;

// tanh-approximation GELU (Hendrycks & Gimpel, 2016), in its sigmoid form:
//   0.5·x·(1 + tanh u) = x / (1 + e^(−2u)),  u = kGeluC·(x + kGeluA·x³),
// with u computed in float. e^(−2u) is a branch-free float kernel: −2u
// clamped to [−87, 89], Cody–Waite reduction by ln 2, a degree-6 polynomial,
// 2ⁿ through the exponent bits; it saturates to +inf from −2u ≈ 88.4 on.
// Against a double-precision evaluation of the same formula the error is at
// most 1e-6 absolute on [−8, 8] and at most 32 ulp on [−3, 8].
// Special values: ±0 → ±0, NaN → NaN, +inf → +inf, x ≥ 10 → x exactly,
// finite x ≤ −10 → a value in [−2e-37, −0], and −inf → NaN (−inf / +inf).
inline constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
inline constexpr float kGeluA = 0.044715f;

/// GELU of one value. Defined in the same translation unit as gelu_inplace,
/// so the two agree bit for bit.
float gelu_value(float x);

/// GELU in place over n floats: the one compiled loop every GELU in the
/// program runs through (Tape::gelu, nn::gelu_inplace), so the tape and the
/// tape-free forwards are bit-identical by construction.
void gelu_inplace(float* x, std::size_t n);

/// Lightweight handle to a node on a Tape. Vars are only valid for the
/// lifetime of the tape that created them and become dangling after
/// Tape::clear().
class Var {
 public:
  Var() = default;
  Var(Tape* tape, std::size_t index) : tape_(tape), index_(index) {}

  bool valid() const { return tape_ != nullptr; }
  std::size_t index() const { return index_; }
  Tape* tape() const { return tape_; }

  const Matrix& value() const;
  const Matrix& grad() const;

 private:
  Tape* tape_ = nullptr;
  std::size_t index_ = 0;
};

/// Reverse-mode automatic differentiation over Matrix values.
///
/// Usage: create leaves with Tape::leaf(), compose with the op methods, call
/// backward() on a scalar (1×1) result, then read gradients from the leaves.
/// The tape is rebuilt every training step (define-by-run); call clear()
/// between steps to release the graph.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Register a leaf. requires_grad leaves accumulate gradients in backward().
  Var leaf(Matrix value, bool requires_grad = false);

  /// Drop all nodes (invalidates outstanding Vars).
  void clear();
  std::size_t node_count() const { return nodes_.size(); }

  // ---- elementwise / scalar ----
  Var add(Var a, Var b);
  Var sub(Var a, Var b);
  Var mul(Var a, Var b);              ///< Hadamard product
  Var scale(Var a, float s);
  Var add_const(Var a, Matrix c);     ///< a + constant (e.g. causal mask)
  Var relu(Var a);
  Var gelu(Var a);                    ///< tanh-approximation GELU, via gelu_inplace
  Var tanh_op(Var a);
  Var square(Var a);

  // ---- linear algebra ----
  Var matmul(Var a, Var b);           ///< A·B
  Var matmul_nt(Var a, Var b);        ///< A·Bᵀ (attention scores)
  Var add_row_broadcast(Var a, Var bias);  ///< bias is 1×cols, added to each row

  // ---- shape ----
  Var concat_rows(Var top, Var bottom);
  Var concat_cols(Var left, Var right);
  Var slice_rows(Var a, std::size_t begin, std::size_t end);
  Var slice_cols(Var a, std::size_t begin, std::size_t end);
  Var reshape(Var a, std::size_t rows, std::size_t cols);

  // ---- nn primitives ----
  /// Row-wise softmax.
  Var row_softmax(Var a);
  /// Row-wise layer normalization with learnable 1×cols gain and bias.
  Var layernorm(Var a, Var gain, Var bias, float eps = 1e-5f);
  /// Gather rows of `table` at `ids` (embedding lookup).
  Var embedding(Var table, const std::vector<int>& ids);
  /// Mean over all elements -> 1×1.
  Var mean_all(Var a);
  /// Mean softmax cross-entropy of row logits vs integer targets -> 1×1.
  /// Rows whose target is negative are ignored (masked positions).
  Var cross_entropy(Var logits, const std::vector<int>& targets);
  /// Mean squared error against a constant target -> 1×1.
  Var mse(Var pred, Matrix target);

  /// Accumulate gradients of `result` (must be 1×1) into every
  /// requires_grad node reachable from it. Gradients are zeroed first.
  void backward(Var result);

  const Matrix& value(Var v) const;
  const Matrix& grad(Var v) const;
  /// True if backward() deposited a gradient on this node.
  bool has_grad(Var v) const;

 private:
  struct Node {
    Matrix value;
    Matrix grad;               // lazily sized on backward
    bool requires_grad = false;
    bool grad_alloc = false;
    std::function<void()> backward_fn;  // empty for leaves
  };

  Var make(Matrix value, bool requires_grad, std::function<void()> backward_fn);
  Matrix& grad_ref(std::size_t idx);
  void accumulate(std::size_t idx, const Matrix& g);

  std::vector<Node> nodes_;
};

}  // namespace nvcim::autograd
