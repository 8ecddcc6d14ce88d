#pragma once

#include <memory>
#include <vector>

#include "nvcim/cluster/kmeans.hpp"
#include "nvcim/compress/autoencoder.hpp"
#include "nvcim/core/noise.hpp"
#include "nvcim/data/lamp.hpp"
#include "nvcim/eval/metrics.hpp"
#include "nvcim/llm/model.hpp"
#include "nvcim/llm/tuners.hpp"
#include "nvcim/mitigation/methods.hpp"
#include "nvcim/retrieval/search.hpp"

namespace nvcim::core {

/// End-to-end configuration of NVCiM-PT for one deployment.
struct FrameworkConfig {
  cluster::KSelectionConfig k_select;
  cluster::KMeansConfig kmeans;
  llm::TunerConfig tuner;              ///< OVT prompt-tuning recipe
  bool noise_aware = true;             ///< enable NT (Eq. 4) during PT
  NoiseBandConfig noise_bands;         ///< Eq. 4 parameters
  compress::AutoencoderConfig autoencoder;  ///< input_dim overwritten from the model
  cim::CrossbarConfig crossbar;        ///< 384×128, 2-bit cells by default
  nvm::VariationModel variation;       ///< device + global σ
  retrieval::Algorithm retrieval_algorithm = retrieval::Algorithm::SSA;
  retrieval::ScaledSearchConfig ssa;
  mitigation::Kind payload_mitigation = mitigation::Kind::None;
  std::uint64_t seed = 99;
};

/// Reusable buffers for the batched encode path (typically one per serving
/// worker): per-query embeddings, the stacked resampled rows and the
/// autoencoder's hidden-layer scratch, so steady-state batches stop
/// churning temporaries.
struct EncodeScratch {
  std::vector<const std::vector<int>*> seqs;
  std::vector<Matrix> embeds;
  std::vector<const Matrix*> parts;
  Matrix stacked;
  compress::Autoencoder::Scratch autoencoder;
};

/// The serve-side half of one user's deployment, produced by
/// NvcimPtFramework::export_deployment(). Owns everything a serving engine
/// needs to answer queries for this user — the encoded retrieval keys, the
/// noisy NVM read-back payload codes, and the (shared) autoencoder — while
/// the heavyweight training machinery stays behind in the framework. The
/// frozen LLM backbone is deliberately NOT owned: one TinyLM is shared
/// across every deployment of a serving engine.
struct TrainedDeployment {
  std::vector<Matrix> keys;          ///< clean encoded OVT codes (retrieval keys)
  std::vector<Matrix> stored_codes;  ///< noisy NVM read-backs (decode on demand)
  std::vector<std::size_t> domains;  ///< ground-truth domain per OVT (diagnostics)
  std::shared_ptr<const compress::Autoencoder> autoencoder;
  std::size_t n_virtual_tokens = 0;

  std::size_t n_ovts() const { return keys.size(); }

  /// Encoded fixed-shape representation of a query — identical to what the
  /// exporting framework's query_representation() produced.
  Matrix query_representation(const llm::TinyLM& model, const data::Sample& query) const;

  /// Batched query_representation over deployments that share one
  /// autoencoder (and virtual-token count): embeds every query, resamples
  /// each to n_virtual_tokens rows, stacks the rows, and runs a single
  /// autoencoder-encode GEMM for the whole group — one GEMM serving many
  /// tenants. Returns a B×(n_virtual_tokens·code_dim) matrix whose row b is
  /// bit-identical to
  /// deps[b]->query_representation(model, *queries[b]).flattened().
  static Matrix query_representation_batch(const llm::TinyLM& model,
                                           const std::vector<const TrainedDeployment*>& deps,
                                           const std::vector<const data::Sample*>& queries,
                                           EncodeScratch* scratch = nullptr);

  /// Decode the stored (noisy) payload code of OVT `idx` into the soft
  /// prompt inference uses — identical to the exporting framework's
  /// restored_prompts()[idx].
  Matrix decode_prompt(std::size_t idx) const;
};

/// The NVCiM-assisted prompt-tuning framework (paper Fig. 3), owning the
/// full loop for one user deployment:
///  training mode  — representative selection (RS) over a full buffer,
///                   noise-aware prompt tuning (NT) of one OVT per
///                   representative, autoencoder refresh on the leftovers,
///                   encoding and NVM storage of the OVTs (payload through
///                   the configured mitigation path, retrieval keys in the
///                   SSA/MIPS crossbar banks);
///  inference mode — encode the query embedding, retrieve the best OVT via
///                   in-memory search, decode it and run the frozen LLM with
///                   it as the soft prompt.
class NvcimPtFramework {
 public:
  NvcimPtFramework(llm::TinyLM& model, const data::LampTask& task, FrameworkConfig cfg);

  /// Pretrain the autoencoder on task-domain embeddings (the paper pretrains
  /// it on user-generated data before deployment).
  void initialize_autoencoder(std::size_t n_samples);

  /// Training mode: consume a full buffer. May be called repeatedly; OVTs
  /// accumulate and the NVM store is rewritten.
  void train_from_buffer(const std::vector<data::Sample>& buffer);

  /// Train/serve split: move the trained serving state (keys, stored payload
  /// codes, domains) out into a TrainedDeployment for a serving engine to
  /// own. The framework returns to its untrained state (n_stored_ovts() ==
  /// 0) and may be retrained. The deployment *shares* the autoencoder
  /// (copy-on-write: the framework clones its own copy before the next
  /// mutating train step), so deployments exported from the same encoder
  /// snapshot alias one object — a serving engine can fuse their encode
  /// GEMMs — while later retraining still cannot disturb live serving.
  TrainedDeployment export_deployment();

  /// Inference mode.
  std::size_t retrieve_index(const data::Sample& query);
  std::size_t classify(const data::Sample& query);
  std::vector<int> generate(const data::Sample& query, Rng& rng);
  /// Task-appropriate score for one query: classification → 0/1 correctness,
  /// generation → ROUGE-1 F1.
  double evaluate(const data::Sample& query, Rng& rng);

  // ---- Introspection (tests / diagnostics) ----
  std::size_t n_stored_ovts() const { return restored_prompts_.size(); }
  const std::vector<Matrix>& restored_prompts() const { return restored_prompts_; }
  const std::vector<std::size_t>& ovt_domains() const { return ovt_domains_; }
  /// Encoded fixed-shape representation of a query (what retrieval sees).
  Matrix query_representation(const data::Sample& query) const;
  const compress::Autoencoder& autoencoder() const { return *autoenc_; }
  std::size_t last_selected_k() const { return last_k_; }

 private:
  Matrix encode_tokens(const Matrix& rows) const;
  /// Clone the autoencoder if an exported deployment still shares it, so a
  /// mutating train step never touches an encoder a live engine is reading.
  void ensure_private_autoencoder();

  llm::TinyLM* model_;
  const data::LampTask* task_;
  FrameworkConfig cfg_;
  Rng rng_;
  std::shared_ptr<compress::Autoencoder> autoenc_;
  std::unique_ptr<retrieval::CimRetriever> retriever_;
  std::unique_ptr<mitigation::MitigationMethod> mitigation_;

  std::vector<Matrix> ovt_payload_codes_;   ///< clean encoded OVTs (write targets)
  std::vector<Matrix> stored_codes_;        ///< noisy NVM read-backs (decode inputs)
  std::vector<Matrix> restored_prompts_;    ///< decoded NVM read-backs (what inference uses)
  std::vector<std::size_t> ovt_domains_;    ///< ground-truth domain per OVT (diagnostics)
  std::size_t last_k_ = 0;
};

}  // namespace nvcim::core
