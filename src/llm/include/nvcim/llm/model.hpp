#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "nvcim/llm/example.hpp"
#include "nvcim/nn/layers.hpp"
#include "nvcim/nn/optim.hpp"

namespace nvcim::llm {

using autograd::Var;

struct TinyLmConfig {
  std::size_t vocab = 64;
  std::size_t d_model = 32;
  std::size_t n_layers = 2;
  std::size_t n_heads = 4;
  std::size_t ffn_hidden = 64;
  std::size_t max_seq = 96;  ///< covers prompt_slots + input + completion
  /// Reserved positional slots for soft prompts. Real tokens always occupy
  /// positions ≥ prompt_slots (with or without a prompt), so prepending
  /// virtual tokens never shifts the token positions out of the pretraining
  /// distribution; prompts right-align into the reserved region.
  std::size_t prompt_slots = 16;
};

/// Per-layer trainable key/value prefix vars, as used by prefix tuning and
/// P-tuning v2 ("deep prompts").
using KvPrefixVars = std::vector<std::pair<Var, Var>>;

/// Frozen per-layer KV prefix values for inference.
using KvPrefixValues = std::vector<nn::KvPrefix>;

/// Decoder-only causal transformer LM, small enough to pretrain in-process.
/// Serves as the "edge LLM" substrate: the backbone is frozen during prompt
/// tuning and only externally supplied virtual-token leaves receive
/// gradients.
class TinyLM {
 public:
  TinyLM(TinyLmConfig cfg, std::uint64_t seed);

  const TinyLmConfig& config() const { return cfg_; }
  /// Fresh registry of non-owning pointers to every parameter. Rebuilt per
  /// call so the model keeps value semantics (moves don't dangle a cached
  /// registry).
  nn::ParamSet params();
  std::size_t parameter_count() { return params().parameter_count(); }

  /// Full differentiable forward. Returns logits rows aligned with `tokens`
  /// (soft-prompt positions are sliced off). Optional adapters:
  ///   - `soft_prompt`: n_sp×d rows prepended at the embedding level;
  ///   - `kv_prefixes`: per-layer KV rows (size must equal n_layers);
  ///   - `embed_delta`: additive V×d correction to the embedding table
  ///     (DEPT-style low-rank update, already materialized by the caller).
  Var logits(nn::Binder& bind, const std::vector<int>& tokens,
             std::optional<Var> soft_prompt = std::nullopt,
             const KvPrefixVars* kv_prefixes = nullptr,
             std::optional<Var> embed_delta = std::nullopt);

  /// Mean next-token cross-entropy of `ex` under the adapters.
  Var loss(nn::Binder& bind, const TrainExample& ex,
           std::optional<Var> soft_prompt = std::nullopt,
           const KvPrefixVars* kv_prefixes = nullptr,
           std::optional<Var> embed_delta = std::nullopt);

  // ---- Inference conveniences (build & drop a private tape) ----

  /// Logits matrix for the whole sequence.
  Matrix logits_inference(const std::vector<int>& tokens, const Matrix* soft_prompt = nullptr,
                          const KvPrefixValues* kv_prefixes = nullptr,
                          const Matrix* embed_delta = nullptr) const;

  /// Index into `label_ids` of the highest-logit label at the last position.
  /// Runs the full tape forward (logits_inference); it is the reference the
  /// tape-free classify_batch() is tested against, and supports KV prefixes
  /// and embedding deltas, which classify_batch() does not.
  std::size_t classify(const std::vector<int>& tokens, const std::vector<int>& label_ids,
                       const Matrix* soft_prompt = nullptr,
                       const KvPrefixValues* kv_prefixes = nullptr,
                       const Matrix* embed_delta = nullptr) const;

  /// A soft prompt's per-block keys and values: the prompt rows come first
  /// and attend only to each other, so in every block their K/V depend on
  /// the prompt alone. Built once by prompt_kv_batch(), then read by every
  /// token forward that runs under the prompt.
  struct PromptKv {
    std::size_t rows = 0;      ///< prompt rows (≤ prompt_slots)
    std::vector<Matrix> k, v;  ///< one rows × d_model matrix per block
  };

  /// Reusable buffers of the tape-free forward. One per thread: the model
  /// stays const and shareable while looping callers (serving workers) stop
  /// allocating once the buffers are warm. Used by both the prompt K/V
  /// build and the token forward.
  struct Scratch {
    Matrix x;       ///< residual stream: every sequence's rows, stacked
    Matrix ln;      ///< LayerNorm output
    Matrix q, k, v;
    Matrix ctx;     ///< concatenated attention-head outputs
    Matrix proj;    ///< wo / fc2 output
    Matrix hidden;  ///< fc1 + GELU output
    Matrix gather;  ///< last-row gather target
    Matrix logits;  ///< B × vocab
    std::vector<std::size_t> row0;  ///< sequence b owns stacked rows [row0[b], row0[b+1])
    std::vector<float> scores;      ///< one attention row
    std::vector<double> exps;
    std::vector<PromptKv> kv;  ///< the soft-prompt overloads' per-prompt K/V
    std::vector<const PromptKv*> kv_ptrs;
  };

  /// Per-block K/V of each soft prompt: `outs` is resized to one PromptKv
  /// per prompt. A stacked, tape-free forward of the prompt rows at their
  /// right-aligned positions: every block but the last runs in full; the
  /// last runs only ln1, wk and wv. `prompts[b]` may be nullptr (a PromptKv
  /// of 0 rows). Throws nvcim::Error on malformed input.
  void prompt_kv_batch(const std::vector<const Matrix*>& prompts, std::vector<PromptKv>& outs,
                       Scratch& scratch) const;

  /// Last-position logits of each sequence under its prompt K/V, as a
  /// B × vocab matrix held in `scratch`. Only token rows are stacked, so
  /// each row-wise layer runs once over the group's tokens; causal attention
  /// runs per sequence without a mask, over the prompt's K/V rows and then
  /// the sequence's own; the last block computes queries, attention, FFN and
  /// the head only for each sequence's last row. Row b is bit-identical to
  /// the last row of logits_inference(*seqs[b], prompt) when `kvs[b]` was
  /// built from that prompt. `kvs[b]` may be nullptr for a promptless
  /// sequence. Throws nvcim::Error on malformed input, before any
  /// arithmetic.
  const Matrix& last_logits_batch(const std::vector<const std::vector<int>*>& seqs,
                                  const std::vector<const PromptKv*>& kvs,
                                  Scratch& scratch) const;

  /// last_logits_batch() under soft prompts: prompt_kv_batch() into
  /// `scratch`, then the token forward. `soft_prompts[b]` may be nullptr.
  const Matrix& last_logits_batch(const std::vector<const std::vector<int>*>& seqs,
                                  const std::vector<const Matrix*>& soft_prompts,
                                  Scratch& scratch) const;

  /// Batched classify() over last_logits_batch(): entry b is
  /// classify(*seqs[b], label_ids, prompt) for the prompt `kvs[b]` was built
  /// from, bit-for-bit. With a warm `scratch` the forward allocates nothing.
  std::vector<std::size_t> classify_batch(const std::vector<const std::vector<int>*>& seqs,
                                          const std::vector<int>& label_ids,
                                          const std::vector<const PromptKv*>& kvs,
                                          Scratch& scratch) const;

  /// classify_batch() under soft prompts: entry b is
  /// classify(*seqs[b], label_ids, soft_prompts[b]), bit-for-bit.
  std::vector<std::size_t> classify_batch(const std::vector<const std::vector<int>*>& seqs,
                                          const std::vector<int>& label_ids,
                                          const std::vector<const Matrix*>& soft_prompts,
                                          Scratch* scratch = nullptr) const;

  /// Autoregressive sampling with softmax temperature (0 = greedy).
  std::vector<int> generate(const std::vector<int>& prompt, std::size_t max_new_tokens,
                            float temperature, Rng& rng, int eos_id,
                            const Matrix* soft_prompt = nullptr,
                            const KvPrefixValues* kv_prefixes = nullptr,
                            const Matrix* embed_delta = nullptr) const;

  /// Token-embedding rows for a sequence (no positions); this is the E(x)
  /// the framework clusters on and uses as the retrieval query.
  Matrix embed(const std::vector<int>& tokens) const;

  /// embed() written into caller storage — allocation-free once `out` is
  /// warm. Bit-identical to embed().
  void embed_into(const std::vector<int>& tokens, Matrix& out) const;

  /// Batched embed(): one table gather per sequence in a single pass.
  /// Result b is bit-identical to embed(*seqs[b]).
  std::vector<Matrix> embed_batch(const std::vector<const std::vector<int>*>& seqs) const;

  /// embed_batch() into caller storage — steady-state allocation-free when
  /// `out` (and its element matrices) are warm.
  void embed_batch_into(const std::vector<const std::vector<int>*>& seqs,
                        std::vector<Matrix>& out) const;

  /// Mean-pooled single-row embedding of a sequence.
  Matrix embed_mean(const std::vector<int>& tokens) const;

  // Direct parameter access (used by weight quantization and tests).
  nn::Param& token_embedding() { return tok_emb_; }
  nn::Param& positional_embedding() { return pos_emb_; }
  std::vector<nn::TransformerBlock>& blocks() { return blocks_; }
  nn::Linear& lm_head() { return lm_head_; }

 private:
  Var forward_hidden(nn::Binder& bind, const std::vector<int>& tokens,
                     std::optional<Var> soft_prompt, const KvPrefixVars* kv_prefixes,
                     std::optional<Var> embed_delta, std::size_t& n_soft_out);

  TinyLmConfig cfg_;
  nn::Param tok_emb_;  ///< vocab × d
  nn::Param pos_emb_;  ///< max_seq × d
  std::vector<nn::TransformerBlock> blocks_;
  nn::LayerNorm final_ln_;
  nn::Linear lm_head_;
};

/// Round every Linear weight matrix (and the embedding tables) of the model
/// to a symmetric `bits`-bit grid — the stand-in for a GPTQ-quantized edge
/// checkpoint (Mistral-7B-GPTQ profile).
void quantize_weights(TinyLM& model, int bits);

}  // namespace nvcim::llm
