#include "nvcim/llm/model.hpp"

#include <algorithm>
#include <cmath>

namespace nvcim::llm {

TrainExample make_example(const std::vector<int>& input, const std::vector<int>& completion,
                          const std::vector<int>& prefix) {
  TrainExample ex;
  ex.prefix_tokens = prefix;
  ex.tokens = input;
  ex.tokens.insert(ex.tokens.end(), completion.begin(), completion.end());
  ex.targets.assign(ex.tokens.size(), -1);
  // Position j predicts tokens[j+1]; train on predictions of completion tokens.
  const std::size_t n_in = input.size();
  NVCIM_CHECK_MSG(n_in >= 1, "input must be non-empty");
  for (std::size_t j = n_in - 1; j + 1 < ex.tokens.size(); ++j)
    ex.targets[j] = ex.tokens[j + 1];
  return ex;
}

TinyLM::TinyLM(TinyLmConfig cfg, std::uint64_t seed) : cfg_(cfg) {
  NVCIM_CHECK(cfg_.vocab > 0 && cfg_.d_model > 0 && cfg_.n_layers > 0);
  Rng rng(seed);
  tok_emb_ = nn::Param(nn::scaled_normal_init(cfg_.vocab, cfg_.d_model, cfg_.d_model, rng),
                       "tok_emb");
  pos_emb_ = nn::Param(nn::scaled_normal_init(cfg_.max_seq, cfg_.d_model, cfg_.d_model, rng),
                       "pos_emb");
  blocks_.reserve(cfg_.n_layers);
  for (std::size_t l = 0; l < cfg_.n_layers; ++l)
    blocks_.emplace_back(cfg_.d_model, cfg_.n_heads, cfg_.ffn_hidden, rng,
                         "block" + std::to_string(l));
  final_ln_ = nn::LayerNorm(cfg_.d_model, "final_ln");
  lm_head_ = nn::Linear(cfg_.d_model, cfg_.vocab, rng, "lm_head");
}

nn::ParamSet TinyLM::params() {
  nn::ParamSet ps;
  ps.add(tok_emb_);
  ps.add(pos_emb_);
  for (auto& b : blocks_) b.collect(ps);
  final_ln_.collect(ps);
  lm_head_.collect(ps);
  return ps;
}

Var TinyLM::forward_hidden(nn::Binder& bind, const std::vector<int>& tokens,
                           std::optional<Var> soft_prompt, const KvPrefixVars* kv_prefixes,
                           std::optional<Var> embed_delta, std::size_t& n_soft_out) {
  autograd::Tape& t = bind.tape();
  NVCIM_CHECK_MSG(!tokens.empty(), "empty token sequence");
  if (kv_prefixes != nullptr)
    NVCIM_CHECK_MSG(kv_prefixes->size() == cfg_.n_layers, "one KV prefix per layer required");

  Var table = bind(tok_emb_);
  if (embed_delta) table = t.add(table, *embed_delta);
  Var x = t.embedding(table, tokens);

  std::size_t n_soft = 0;
  if (soft_prompt) {
    NVCIM_CHECK_MSG(soft_prompt->value().cols() == cfg_.d_model,
                    "soft prompt must have d_model columns");
    n_soft = soft_prompt->value().rows();
    x = t.concat_rows(*soft_prompt, x);
  }
  n_soft_out = n_soft;

  NVCIM_CHECK_MSG(n_soft <= cfg_.prompt_slots,
                  "soft prompt length " << n_soft << " exceeds prompt_slots "
                                        << cfg_.prompt_slots);
  NVCIM_CHECK_MSG(cfg_.prompt_slots + tokens.size() <= cfg_.max_seq,
                  "sequence length exceeds max_seq " << cfg_.max_seq);
  // Prompt rows right-align into the reserved slot region [0, prompt_slots);
  // real tokens always sit at positions >= prompt_slots.
  std::vector<int> pos_ids(n_soft + tokens.size());
  for (std::size_t i = 0; i < n_soft; ++i)
    pos_ids[i] = static_cast<int>(cfg_.prompt_slots - n_soft + i);
  for (std::size_t i = 0; i < tokens.size(); ++i)
    pos_ids[n_soft + i] = static_cast<int>(cfg_.prompt_slots + i);
  x = t.add(x, t.embedding(bind(pos_emb_), pos_ids));

  for (std::size_t l = 0; l < blocks_.size(); ++l) {
    if (kv_prefixes != nullptr) {
      const auto& [pk, pv] = (*kv_prefixes)[l];
      x = blocks_[l].forward_with_prefix_vars(bind, x, pk, pv);
    } else {
      x = blocks_[l].forward_with_prefix_vars(bind, x, std::nullopt, std::nullopt);
    }
  }
  return final_ln_.forward(bind, x);
}

Var TinyLM::logits(nn::Binder& bind, const std::vector<int>& tokens,
                   std::optional<Var> soft_prompt, const KvPrefixVars* kv_prefixes,
                   std::optional<Var> embed_delta) {
  std::size_t n_soft = 0;
  Var h = forward_hidden(bind, tokens, soft_prompt, kv_prefixes, embed_delta, n_soft);
  Var z = lm_head_.forward(bind, h);
  if (n_soft > 0) z = bind.tape().slice_rows(z, n_soft, n_soft + tokens.size());
  return z;
}

Var TinyLM::loss(nn::Binder& bind, const TrainExample& ex, std::optional<Var> soft_prompt,
                 const KvPrefixVars* kv_prefixes, std::optional<Var> embed_delta) {
  NVCIM_CHECK_MSG(ex.tokens.size() == ex.targets.size(), "tokens/targets length mismatch");
  if (!ex.prefix_tokens.empty()) {
    NVCIM_CHECK_MSG(!soft_prompt.has_value(),
                    "cannot combine prefix_tokens with an explicit soft prompt");
    soft_prompt = bind.tape().embedding(bind(tok_emb_), ex.prefix_tokens);
  }
  Var z = logits(bind, ex.tokens, soft_prompt, kv_prefixes, embed_delta);
  return bind.tape().cross_entropy(z, ex.targets);
}

Matrix TinyLM::logits_inference(const std::vector<int>& tokens, const Matrix* soft_prompt,
                                const KvPrefixValues* kv_prefixes,
                                const Matrix* embed_delta) const {
  auto* self = const_cast<TinyLM*>(this);
  autograd::Tape tape;
  nn::Binder bind(tape, /*frozen=*/true);
  std::optional<Var> sp;
  if (soft_prompt != nullptr) sp = tape.leaf(*soft_prompt, false);
  std::optional<Var> ed;
  if (embed_delta != nullptr) ed = tape.leaf(*embed_delta, false);
  KvPrefixVars kv_vars;
  const KvPrefixVars* kv_ptr = nullptr;
  if (kv_prefixes != nullptr) {
    for (const auto& p : *kv_prefixes)
      kv_vars.emplace_back(tape.leaf(p.key, false), tape.leaf(p.value, false));
    kv_ptr = &kv_vars;
  }
  Var z = self->logits(bind, tokens, sp, kv_ptr, ed);
  return z.value();
}

namespace {

void check_label_ids(const std::vector<int>& label_ids, std::size_t vocab) {
  NVCIM_CHECK(!label_ids.empty());
  for (const int id : label_ids)
    NVCIM_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < vocab,
                    "label id " << id << " out of vocab " << vocab);
}

// Index into `label_ids` of the highest logit in `row`; ties keep the first.
std::size_t argmax_label(const float* row, const std::vector<int>& label_ids) {
  std::size_t best = 0;
  float best_logit = -1e30f;
  for (std::size_t i = 0; i < label_ids.size(); ++i) {
    const float v = row[static_cast<std::size_t>(label_ids[i])];
    if (v > best_logit) {
      best_logit = v;
      best = i;
    }
  }
  return best;
}

// argmax_label() of every row of `z`.
std::vector<std::size_t> argmax_labels(const Matrix& z, const std::vector<int>& label_ids) {
  std::vector<std::size_t> out(z.rows());
  for (std::size_t b = 0; b < out.size(); ++b)
    out[b] = argmax_label(z.data() + b * z.cols(), label_ids);
  return out;
}

// Causal attention of one query row over `n_pre` prompt key/value rows
// (pk, pv) and then `n_own` of the sequence's own rows (k, v), all heads,
// written to out[0, d); rows are d wide. Bit-identical to the tape's masked
// forward over the concatenated [prompt; tokens] rows: keys in the same
// order, scores as Tape::matmul_nt, then scale, then the mask's + 0;
// softmax as Tape::row_softmax; the weighted sum as matmul_into, with its
// madd. The masked keys are never visited: their exp underflows to exactly
// 0, which adds nothing to the denominator, and a 0·v term leaves
// matmul_into's sum unchanged.
void attend_row(const float* q, const float* pk, const float* pv, std::size_t n_pre,
                const float* k, const float* v, std::size_t n_own, std::size_t d,
                std::size_t n_heads, std::vector<float>& scores, std::vector<double>& exps,
                float* out) {
  const std::size_t dh = d / n_heads, n_keys = n_pre + n_own;
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));
  const auto key = [&](const float* pre, const float* own, std::size_t j) {
    return j < n_pre ? pre + j * d : own + (j - n_pre) * d;
  };
  std::fill(out, out + d, 0.0f);
  for (std::size_t c0 = 0; c0 < d; c0 += dh) {
    float mx = -1e30f;
    for (std::size_t j = 0; j < n_keys; ++j) {
      const float* kr = key(pk, k, j) + c0;
      double dot = 0.0;
      for (std::size_t t = 0; t < dh; ++t) dot += static_cast<double>(q[c0 + t]) * kr[t];
      scores[j] = static_cast<float>(dot) * inv_sqrt_dh + 0.0f;
      mx = std::max(mx, scores[j]);
    }
    double denom = 0.0;
    for (std::size_t j = 0; j < n_keys; ++j) {
      exps[j] = std::exp(static_cast<double>(scores[j] - mx));
      denom += exps[j];
    }
    float* o = out + c0;
    for (std::size_t j = 0; j < n_keys; ++j) {
      const float p = static_cast<float>(exps[j] / denom);
      if (p == 0.0f) continue;
      const float* vr = key(pv, v, j) + c0;
      for (std::size_t t = 0; t < dh; ++t) o[t] = madd(p, vr[t], o[t]);
    }
  }
}

// Rows row0[b + 1] - 1 (each sequence's last row) of `x`, stacked into `out`.
void gather_last_rows(const Matrix& x, const std::vector<std::size_t>& row0, Matrix& out) {
  const std::size_t B = row0.size() - 1, C = x.cols();
  out.resize(B, C);
  for (std::size_t b = 0; b < B; ++b) {
    const float* src = x.data() + (row0[b + 1] - 1) * C;
    std::copy(src, src + C, out.data() + b * C);
  }
}

// Rows [r0, r1) of `src` into `dst`.
void copy_rows(const Matrix& src, std::size_t r0, std::size_t r1, Matrix& dst) {
  dst.resize(r1 - r0, src.cols());
  std::copy(src.data() + r0 * src.cols(), src.data() + r1 * src.cols(), dst.data());
}

// Stacked embedding rows for the tape-free forward: s.x row `row` is `e`
// plus positional row `pos`.
void add_embedding_row(const Matrix& pos_emb, const float* e, std::size_t pos, std::size_t row,
                       TinyLM::Scratch& s) {
  const std::size_t d = s.x.cols();
  const float* p = pos_emb.data() + pos * d;
  float* dst = s.x.data() + row * d;
  for (std::size_t c = 0; c < d; ++c) dst[c] = e[c] + p[c];
}

// ln1, wk and wv of one block over every row of s.x.
void kv_forward(const nn::TransformerBlock& block, TinyLM::Scratch& s) {
  block.ln1.forward_into(s.x, s.ln);
  block.attn.wk.forward_into(s.ln, s.k);
  block.attn.wv.forward_into(s.ln, s.v);
}

// One tape-free transformer block (block index `layer`) over s.x. Sequence
// b's rows attend first to the rows of its prompt K/V for this block
// (`kvs[b]`; none when that is null or `kvs` is empty), then causally to
// its own rows. With `last_only` the residual stream and queries shrink to
// each sequence's last row; K and V still cover every row, and stay in s.k
// and s.v afterwards.
void block_forward(const nn::TransformerBlock& block, std::size_t layer,
                   const std::vector<const TinyLM::PromptKv*>& kvs, bool last_only,
                   TinyLM::Scratch& s) {
  kv_forward(block, s);
  if (last_only) {
    gather_last_rows(s.ln, s.row0, s.gather);
    std::swap(s.ln, s.gather);
    gather_last_rows(s.x, s.row0, s.gather);
    std::swap(s.x, s.gather);
  }
  block.attn.wq.forward_into(s.ln, s.q);
  const std::size_t d = s.x.cols();
  s.ctx.resize(s.q.rows(), d);
  std::size_t r = 0;  // query row
  for (std::size_t b = 0; b + 1 < s.row0.size(); ++b) {
    const TinyLM::PromptKv* kv = kvs.empty() ? nullptr : kvs[b];
    const float* pk = kv != nullptr ? kv->k[layer].data() : nullptr;
    const float* pv = kv != nullptr ? kv->v[layer].data() : nullptr;
    const std::size_t n_pre = kv != nullptr ? kv->rows : 0;
    const float* k = s.k.data() + s.row0[b] * d;
    const float* v = s.v.data() + s.row0[b] * d;
    const std::size_t n = s.row0[b + 1] - s.row0[b];
    for (std::size_t i = last_only ? n - 1 : 0; i < n; ++i, ++r)
      attend_row(s.q.data() + r * d, pk, pv, n_pre, k, v, i + 1, d, block.attn.n_heads(),
                 s.scores, s.exps, s.ctx.data() + r * d);
  }
  block.attn.wo.forward_into(s.ctx, s.proj);
  s.x += s.proj;
  block.ln2.forward_into(s.x, s.ln);
  block.ffn.fc1.forward_into(s.ln, s.hidden);
  nn::gelu_inplace(s.hidden);
  block.ffn.fc2.forward_into(s.hidden, s.proj);
  s.x += s.proj;
}

}  // namespace

std::size_t TinyLM::classify(const std::vector<int>& tokens, const std::vector<int>& label_ids,
                             const Matrix* soft_prompt, const KvPrefixValues* kv_prefixes,
                             const Matrix* embed_delta) const {
  check_label_ids(label_ids, cfg_.vocab);
  const Matrix z = logits_inference(tokens, soft_prompt, kv_prefixes, embed_delta);
  return argmax_label(z.data() + (z.rows() - 1) * z.cols(), label_ids);
}

void TinyLM::check_tokens(const std::vector<int>& tokens, bool positioned) const {
  NVCIM_CHECK_MSG(!tokens.empty(), "empty token sequence");
  for (const int tok : tokens)
    NVCIM_CHECK_MSG(tok >= 0 && static_cast<std::size_t>(tok) < cfg_.vocab,
                    "token id " << tok << " out of vocab " << cfg_.vocab);
  if (positioned)
    NVCIM_CHECK_MSG(cfg_.prompt_slots + tokens.size() <= cfg_.max_seq,
                    "sequence length " << tokens.size() << " plus " << cfg_.prompt_slots
                                       << " prompt slots exceeds max_seq " << cfg_.max_seq);
}

void TinyLM::prompt_kv_batch(const std::vector<const Matrix*>& prompts,
                             std::vector<PromptKv>& outs, Scratch& s) const {
  const std::size_t d = cfg_.d_model, L = blocks_.size();
  s.row0.assign(1, 0);
  std::size_t max_rows = 0;
  for (const Matrix* p : prompts) {
    std::size_t n = 0;
    if (p != nullptr) {
      NVCIM_CHECK_MSG(p->cols() == d, "soft prompt must have d_model columns");
      n = p->rows();
    }
    NVCIM_CHECK_MSG(n <= cfg_.prompt_slots,
                    "soft prompt length " << n << " exceeds prompt_slots " << cfg_.prompt_slots);
    s.row0.push_back(s.row0.back() + n);
    max_rows = std::max(max_rows, n);
  }
  s.scores.resize(max_rows);
  s.exps.resize(max_rows);

  // Prompt rows right-align into the reserved slots [0, prompt_slots), as in
  // forward_hidden.
  s.x.resize(s.row0.back(), d);
  for (std::size_t b = 0; b < prompts.size(); ++b) {
    const std::size_t n = s.row0[b + 1] - s.row0[b];
    for (std::size_t i = 0; i < n; ++i)
      add_embedding_row(pos_emb_.value, prompts[b]->data() + i * d, cfg_.prompt_slots - n + i,
                        s.row0[b] + i, s);
  }

  outs.resize(prompts.size());
  for (std::size_t b = 0; b < prompts.size(); ++b) {
    outs[b].rows = s.row0[b + 1] - s.row0[b];
    outs[b].k.resize(L);
    outs[b].v.resize(L);
  }
  // Nothing after the last block's K/V reaches a token row, so that block
  // stops there.
  for (std::size_t l = 0; l < L; ++l) {
    if (l + 1 < L)
      block_forward(blocks_[l], l, {}, /*last_only=*/false, s);
    else
      kv_forward(blocks_[l], s);
    for (std::size_t b = 0; b < prompts.size(); ++b) {
      copy_rows(s.k, s.row0[b], s.row0[b + 1], outs[b].k[l]);
      copy_rows(s.v, s.row0[b], s.row0[b + 1], outs[b].v[l]);
    }
  }
}

const Matrix& TinyLM::last_logits_batch(const std::vector<const std::vector<int>*>& seqs,
                                        const std::vector<const PromptKv*>& kvs,
                                        Scratch& s) const {
  NVCIM_CHECK_MSG(kvs.size() == seqs.size(), "one prompt K/V (or null) per sequence");
  const std::size_t d = cfg_.d_model;
  // The tape path gets some of these checks from bounds-checked element
  // access; the raw-pointer forward below needs every one made up front.
  s.row0.assign(1, 0);
  std::size_t max_keys = 0;
  for (std::size_t b = 0; b < seqs.size(); ++b) {
    NVCIM_CHECK_MSG(seqs[b] != nullptr, "null token sequence");
    check_tokens(*seqs[b], /*positioned=*/true);
    const std::size_t n_tok = seqs[b]->size();
    std::size_t n_pre = 0;
    if (const PromptKv* kv = kvs[b]) {
      NVCIM_CHECK_MSG(kv->k.size() == blocks_.size() && kv->v.size() == blocks_.size(),
                      "prompt K/V has " << kv->k.size() << "/" << kv->v.size()
                                        << " blocks, model has " << blocks_.size());
      n_pre = kv->rows;
      NVCIM_CHECK_MSG(n_pre <= cfg_.prompt_slots, "prompt K/V length "
                                                      << n_pre << " exceeds prompt_slots "
                                                      << cfg_.prompt_slots);
      for (std::size_t l = 0; l < blocks_.size(); ++l)
        NVCIM_CHECK_MSG(kv->k[l].rows() == n_pre && kv->k[l].cols() == d &&
                            kv->v[l].rows() == n_pre && kv->v[l].cols() == d,
                        "prompt K/V block " << l << " must be " << n_pre << " × d_model");
    }
    s.row0.push_back(s.row0.back() + n_tok);
    max_keys = std::max(max_keys, n_pre + n_tok);
  }
  s.scores.resize(max_keys);
  s.exps.resize(max_keys);

  // Embed token rows only; tokens start at prompt_slots (as in
  // forward_hidden).
  s.x.resize(s.row0.back(), d);
  for (std::size_t b = 0; b < seqs.size(); ++b)
    for (std::size_t i = 0; i < seqs[b]->size(); ++i)
      add_embedding_row(pos_emb_.value,
                        tok_emb_.value.data() + static_cast<std::size_t>((*seqs[b])[i]) * d,
                        cfg_.prompt_slots + i, s.row0[b] + i, s);

  for (std::size_t l = 0; l < blocks_.size(); ++l)
    block_forward(blocks_[l], l, kvs, /*last_only=*/l + 1 == blocks_.size(), s);
  final_ln_.forward_into(s.x, s.ln);
  lm_head_.forward_into(s.ln, s.logits);
  return s.logits;
}

const Matrix& TinyLM::last_logits_batch(const std::vector<const std::vector<int>*>& seqs,
                                        const std::vector<const Matrix*>& soft_prompts,
                                        Scratch& s) const {
  NVCIM_CHECK_MSG(soft_prompts.size() == seqs.size(), "one soft prompt (or null) per sequence");
  prompt_kv_batch(soft_prompts, s.kv, s);
  s.kv_ptrs.clear();
  for (const PromptKv& kv : s.kv) s.kv_ptrs.push_back(&kv);
  return last_logits_batch(seqs, s.kv_ptrs, s);
}

std::vector<std::size_t> TinyLM::classify_batch(const std::vector<const std::vector<int>*>& seqs,
                                                const std::vector<int>& label_ids,
                                                const std::vector<const PromptKv*>& kvs,
                                                Scratch& scratch) const {
  check_label_ids(label_ids, cfg_.vocab);
  return argmax_labels(last_logits_batch(seqs, kvs, scratch), label_ids);
}

std::vector<std::size_t> TinyLM::classify_batch(
    const std::vector<const std::vector<int>*>& seqs, const std::vector<int>& label_ids,
    const std::vector<const Matrix*>& soft_prompts, Scratch* scratch) const {
  check_label_ids(label_ids, cfg_.vocab);
  Scratch local;
  return argmax_labels(
      last_logits_batch(seqs, soft_prompts, scratch != nullptr ? *scratch : local), label_ids);
}

std::vector<int> TinyLM::generate(const std::vector<int>& prompt, std::size_t max_new_tokens,
                                  float temperature, Rng& rng, int eos_id,
                                  const Matrix* soft_prompt, const KvPrefixValues* kv_prefixes,
                                  const Matrix* embed_delta) const {
  std::vector<int> seq = prompt;
  std::vector<int> out;
  for (std::size_t step = 0; step < max_new_tokens; ++step) {
    if (cfg_.prompt_slots + seq.size() + 1 > cfg_.max_seq) break;
    const Matrix z = logits_inference(seq, soft_prompt, kv_prefixes, embed_delta);
    const std::size_t last = z.rows() - 1;
    int next = 0;
    if (temperature <= 1e-6f) {
      float best = -1e30f;
      for (std::size_t c = 0; c < z.cols(); ++c)
        if (z(last, c) > best) {
          best = z(last, c);
          next = static_cast<int>(c);
        }
    } else {
      // Temperature softmax sampling.
      float mx = -1e30f;
      for (std::size_t c = 0; c < z.cols(); ++c) mx = std::max(mx, z(last, c));
      std::vector<double> p(z.cols());
      double denom = 0.0;
      for (std::size_t c = 0; c < z.cols(); ++c) {
        p[c] = std::exp(static_cast<double>((z(last, c) - mx) / temperature));
        denom += p[c];
      }
      double u = rng.uniform() * denom;
      for (std::size_t c = 0; c < z.cols(); ++c) {
        u -= p[c];
        if (u <= 0.0) {
          next = static_cast<int>(c);
          break;
        }
      }
    }
    if (next == eos_id) break;
    out.push_back(next);
    seq.push_back(next);
  }
  return out;
}

Matrix TinyLM::embed(const std::vector<int>& tokens) const {
  Matrix e;
  embed_into(tokens, e);
  return e;
}

void TinyLM::embed_into(const std::vector<int>& tokens, Matrix& out) const {
  out.resize(tokens.size(), cfg_.d_model);
  const float* table = tok_emb_.value.data();
  for (std::size_t r = 0; r < tokens.size(); ++r) {
    NVCIM_CHECK(tokens[r] >= 0 && static_cast<std::size_t>(tokens[r]) < cfg_.vocab);
    const float* src = table + static_cast<std::size_t>(tokens[r]) * cfg_.d_model;
    std::copy(src, src + cfg_.d_model, out.data() + r * cfg_.d_model);
  }
}

std::vector<Matrix> TinyLM::embed_batch(const std::vector<const std::vector<int>*>& seqs) const {
  std::vector<Matrix> out;
  embed_batch_into(seqs, out);
  return out;
}

void TinyLM::embed_batch_into(const std::vector<const std::vector<int>*>& seqs,
                              std::vector<Matrix>& out) const {
  out.resize(seqs.size());
  for (std::size_t b = 0; b < seqs.size(); ++b) {
    NVCIM_CHECK_MSG(seqs[b] != nullptr, "embed_batch: null sequence");
    embed_into(*seqs[b], out[b]);
  }
}

Matrix TinyLM::embed_mean(const std::vector<int>& tokens) const {
  const Matrix e = embed(tokens);
  Matrix m(1, cfg_.d_model, 0.0f);
  for (std::size_t r = 0; r < e.rows(); ++r)
    for (std::size_t c = 0; c < e.cols(); ++c) m(0, c) += e(r, c);
  m *= 1.0f / static_cast<float>(e.rows());
  return m;
}

void quantize_weights(TinyLM& model, int bits) {
  NVCIM_CHECK_MSG(bits >= 2 && bits <= 16, "quantization bits out of range");
  const float qmax = static_cast<float>((1 << (bits - 1)) - 1);
  auto quantize = [&](Matrix& w) {
    const float ma = w.max_abs();
    if (ma == 0.0f) return;
    const float scale = ma / qmax;
    for (std::size_t i = 0; i < w.size(); ++i)
      w.at_flat(i) = std::round(w.at_flat(i) / scale) * scale;
  };
  nn::ParamSet ps = model.params();
  for (nn::Param* p : ps.all()) {
    // Quantize weight matrices and embedding tables; leave LayerNorm
    // gains/biases and Linear biases in full precision (GPTQ convention).
    const std::string& n = p->name;
    const bool is_weight = n.size() >= 2 && n.compare(n.size() - 2, 2, ".w") == 0;
    const bool is_embedding = n == "tok_emb" || n == "pos_emb";
    if (is_weight || is_embedding) quantize(p->value);
  }
}

}  // namespace nvcim::llm
