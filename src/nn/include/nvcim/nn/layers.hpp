#pragma once

#include <optional>
#include <vector>

#include "nvcim/nn/param.hpp"

namespace nvcim::nn {

using autograd::Var;

/// Affine map y = x·W + b.
class Linear {
 public:
  Linear() = default;
  Linear(std::size_t in, std::size_t out, Rng& rng, const std::string& name);

  Var forward(Binder& bind, Var x);
  /// Tape-free forward into caller storage: one matmul_into, then the bias
  /// add. Bit-identical to forward()'s value; allocation-free once `out` is
  /// warm. Each output row depends only on its input row.
  void forward_into(const Matrix& x, Matrix& out) const;
  void collect(ParamSet& ps);

  std::size_t in_features() const { return w.value.rows(); }
  std::size_t out_features() const { return w.value.cols(); }

  Param w;  ///< in × out
  Param b;  ///< 1 × out
};

/// Row-wise layer normalization with learnable gain/bias.
class LayerNorm {
 public:
  LayerNorm() = default;
  LayerNorm(std::size_t dim, const std::string& name);

  Var forward(Binder& bind, Var x);
  /// Tape-free forward into caller storage, row by row with the arithmetic
  /// of Tape::layernorm. Bit-identical to forward()'s value.
  void forward_into(const Matrix& x, Matrix& out) const;
  void collect(ParamSet& ps);

  Param gain;  ///< 1 × dim
  Param bias;  ///< 1 × dim
};

/// Optional per-layer key/value prefix (prefix tuning / P-tuning v2): the
/// rows of `key`/`value` are prepended to this layer's K and V, and queries
/// may attend to them at every position.
struct KvPrefix {
  Matrix key;    ///< n_prefix × d_model
  Matrix value;  ///< n_prefix × d_model
};

/// Multi-head causal self-attention over a S×D sequence, with optional
/// KV-prefix injection. Heads are realized by column-slicing the fused
/// Q/K/V projections.
class MultiHeadSelfAttention {
 public:
  MultiHeadSelfAttention() = default;
  MultiHeadSelfAttention(std::size_t d_model, std::size_t n_heads, Rng& rng,
                         const std::string& name);

  /// `prefix`, if present, contributes extra attendable KV rows. The prefix
  /// is bound as trainable iff `prefix_trainable` (used during prefix
  /// tuning); the bindings are appended to `prefix_bindings` when given.
  Var forward(Binder& bind, Var x, const KvPrefix* prefix = nullptr);

  /// Variant used by prefix tuning: prefix K/V supplied as live tape vars so
  /// the caller can differentiate through them.
  Var forward_with_prefix_vars(Binder& bind, Var x, std::optional<Var> prefix_k,
                               std::optional<Var> prefix_v);

  void collect(ParamSet& ps);

  std::size_t n_heads() const { return n_heads_; }
  std::size_t d_model() const { return wq.in_features(); }

  Linear wq, wk, wv, wo;

 private:
  std::size_t n_heads_ = 1;
};

/// Position-wise feed-forward: Linear → GELU → Linear, hidden = ratio·d.
class FeedForward {
 public:
  FeedForward() = default;
  FeedForward(std::size_t d_model, std::size_t hidden, Rng& rng, const std::string& name);

  Var forward(Binder& bind, Var x);
  void collect(ParamSet& ps);

  Linear fc1, fc2;
};

/// Pre-LN transformer decoder block: x += Attn(LN(x)); x += FFN(LN(x)).
class TransformerBlock {
 public:
  TransformerBlock() = default;
  TransformerBlock(std::size_t d_model, std::size_t n_heads, std::size_t ffn_hidden, Rng& rng,
                   const std::string& name);

  Var forward(Binder& bind, Var x, const KvPrefix* prefix = nullptr);
  Var forward_with_prefix_vars(Binder& bind, Var x, std::optional<Var> prefix_k,
                               std::optional<Var> prefix_v);
  void collect(ParamSet& ps);

  LayerNorm ln1, ln2;
  MultiHeadSelfAttention attn;
  FeedForward ffn;
};

/// Elementwise GELU in place, bit-identical to Tape::gelu's value because
/// both call the same loop, autograd::gelu_inplace.
void gelu_inplace(Matrix& m);

/// Additive causal mask for S query rows over (P+S) key columns, where the
/// first P columns (the prefix) are visible to every query.
Matrix causal_mask(std::size_t seq, std::size_t n_prefix);

}  // namespace nvcim::nn
