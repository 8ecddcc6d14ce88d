#include "nvcim/nn/layers.hpp"

#include <cmath>

namespace nvcim::nn {

Linear::Linear(std::size_t in, std::size_t out, Rng& rng, const std::string& name)
    : w(xavier_init(in, out, rng), name + ".w"), b(Matrix(1, out, 0.0f), name + ".b") {}

Var Linear::forward(Binder& bind, Var x) {
  autograd::Tape& t = bind.tape();
  return t.add_row_broadcast(t.matmul(x, bind(w)), bind(b));
}

void Linear::forward_into(const Matrix& x, Matrix& out) const {
  matmul_into(x, w.value, out);
  const float* bias = b.value.data();
  for (std::size_t r = 0; r < out.rows(); ++r) {
    float* row = out.data() + r * out.cols();
    for (std::size_t c = 0; c < out.cols(); ++c) row[c] += bias[c];
  }
}

void Linear::collect(ParamSet& ps) {
  ps.add(w);
  ps.add(b);
}

LayerNorm::LayerNorm(std::size_t dim, const std::string& name)
    : gain(Matrix(1, dim, 1.0f), name + ".gain"), bias(Matrix(1, dim, 0.0f), name + ".bias") {}

Var LayerNorm::forward(Binder& bind, Var x) {
  return bind.tape().layernorm(x, bind(gain), bind(bias));
}

void LayerNorm::forward_into(const Matrix& x, Matrix& out) const {
  constexpr float eps = 1e-5f;  // Tape::layernorm's default, which forward() uses
  const std::size_t R = x.rows(), C = x.cols();
  NVCIM_CHECK(gain.value.cols() == C && &out != &x);
  out.resize(R, C);
  const float* gn = gain.value.data();
  const float* bs = bias.value.data();
  for (std::size_t r = 0; r < R; ++r) {
    const float* xr = x.data() + r * C;
    float* yr = out.data() + r * C;
    double mu = 0.0;
    for (std::size_t c = 0; c < C; ++c) mu += xr[c];
    mu /= static_cast<double>(C);
    double var = 0.0;
    for (std::size_t c = 0; c < C; ++c) {
      const double d = xr[c] - mu;
      var += d * d;
    }
    var /= static_cast<double>(C);
    const float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
    for (std::size_t c = 0; c < C; ++c) {
      const float xhat = (xr[c] - static_cast<float>(mu)) * istd;
      yr[c] = gn[c] * xhat + bs[c];
    }
  }
}

void LayerNorm::collect(ParamSet& ps) {
  ps.add(gain);
  ps.add(bias);
}

void gelu_inplace(Matrix& m) {
  for (std::size_t i = 0; i < m.size(); ++i) m.at_flat(i) = autograd::gelu_value(m.at_flat(i));
}

Matrix causal_mask(std::size_t seq, std::size_t n_prefix) {
  Matrix m(seq, n_prefix + seq, 0.0f);
  constexpr float neg_inf = -1e9f;
  for (std::size_t i = 0; i < seq; ++i)
    for (std::size_t j = n_prefix + i + 1; j < n_prefix + seq; ++j) m(i, j) = neg_inf;
  return m;
}

MultiHeadSelfAttention::MultiHeadSelfAttention(std::size_t d_model, std::size_t n_heads, Rng& rng,
                                               const std::string& name)
    : wq(d_model, d_model, rng, name + ".wq"),
      wk(d_model, d_model, rng, name + ".wk"),
      wv(d_model, d_model, rng, name + ".wv"),
      wo(d_model, d_model, rng, name + ".wo"),
      n_heads_(n_heads) {
  NVCIM_CHECK_MSG(d_model % n_heads == 0, "d_model must be divisible by n_heads");
}

Var MultiHeadSelfAttention::forward(Binder& bind, Var x, const KvPrefix* prefix) {
  std::optional<Var> pk, pv;
  if (prefix != nullptr) {
    pk = bind.tape().leaf(prefix->key, false);
    pv = bind.tape().leaf(prefix->value, false);
  }
  return forward_with_prefix_vars(bind, x, pk, pv);
}

Var MultiHeadSelfAttention::forward_with_prefix_vars(Binder& bind, Var x, std::optional<Var> pk,
                                                     std::optional<Var> pv) {
  autograd::Tape& t = bind.tape();
  const std::size_t seq = x.value().rows();
  const std::size_t d = d_model();
  const std::size_t dh = d / n_heads_;
  NVCIM_CHECK(pk.has_value() == pv.has_value());

  Var q = wq.forward(bind, x);
  Var k = wk.forward(bind, x);
  Var v = wv.forward(bind, x);

  std::size_t n_prefix = 0;
  if (pk) {
    NVCIM_CHECK_MSG(pk->value().cols() == d && pv->value().cols() == d,
                    "prefix K/V must have d_model columns");
    n_prefix = pk->value().rows();
    k = t.concat_rows(*pk, k);
    v = t.concat_rows(*pv, v);
  }

  const Matrix mask = causal_mask(seq, n_prefix);
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));

  std::optional<Var> heads;
  for (std::size_t h = 0; h < n_heads_; ++h) {
    Var qh = t.slice_cols(q, h * dh, (h + 1) * dh);
    Var kh = t.slice_cols(k, h * dh, (h + 1) * dh);
    Var vh = t.slice_cols(v, h * dh, (h + 1) * dh);
    Var scores = t.scale(t.matmul_nt(qh, kh), inv_sqrt_dh);
    Var attn = t.row_softmax(t.add_const(scores, mask));
    Var oh = t.matmul(attn, vh);
    heads = heads ? t.concat_cols(*heads, oh) : oh;
  }
  return wo.forward(bind, *heads);
}

void MultiHeadSelfAttention::collect(ParamSet& ps) {
  wq.collect(ps);
  wk.collect(ps);
  wv.collect(ps);
  wo.collect(ps);
}

FeedForward::FeedForward(std::size_t d_model, std::size_t hidden, Rng& rng,
                         const std::string& name)
    : fc1(d_model, hidden, rng, name + ".fc1"), fc2(hidden, d_model, rng, name + ".fc2") {}

Var FeedForward::forward(Binder& bind, Var x) {
  return fc2.forward(bind, bind.tape().gelu(fc1.forward(bind, x)));
}

void FeedForward::collect(ParamSet& ps) {
  fc1.collect(ps);
  fc2.collect(ps);
}

TransformerBlock::TransformerBlock(std::size_t d_model, std::size_t n_heads,
                                   std::size_t ffn_hidden, Rng& rng, const std::string& name)
    : ln1(d_model, name + ".ln1"),
      ln2(d_model, name + ".ln2"),
      attn(d_model, n_heads, rng, name + ".attn"),
      ffn(d_model, ffn_hidden, rng, name + ".ffn") {}

Var TransformerBlock::forward(Binder& bind, Var x, const KvPrefix* prefix) {
  autograd::Tape& t = bind.tape();
  Var h = t.add(x, attn.forward(bind, ln1.forward(bind, x), prefix));
  return t.add(h, ffn.forward(bind, ln2.forward(bind, h)));
}

Var TransformerBlock::forward_with_prefix_vars(Binder& bind, Var x, std::optional<Var> pk,
                                               std::optional<Var> pv) {
  autograd::Tape& t = bind.tape();
  Var h = t.add(x, attn.forward_with_prefix_vars(bind, ln1.forward(bind, x), pk, pv));
  return t.add(h, ffn.forward(bind, ln2.forward(bind, h)));
}

void TransformerBlock::collect(ParamSet& ps) {
  ln1.collect(ps);
  ln2.collect(ps);
  attn.collect(ps);
  ffn.collect(ps);
}

}  // namespace nvcim::nn
