#pragma once

#include <memory>
#include <vector>

#include "nvcim/cim/accelerator.hpp"
#include "nvcim/tensor/matrix.hpp"

namespace nvcim::retrieval {

enum class Algorithm { MIPS, SSA };

/// Configuration of the paper's Scaled Search Algorithm (Eq. 5): average
/// pooling at scales {1, 2, 4} with weights {1.0, 0.8, 0.6}.
struct ScaledSearchConfig {
  std::vector<std::size_t> scales{1, 2, 4};
  std::vector<float> weights{1.0f, 0.8f, 0.6f};
};

/// Exact (CPU, noise-free) Weighted Multi-Scale Dot Product between two
/// same-size matrices (flattened).
float wmsdp(const Matrix& e, const Matrix& p, const ScaledSearchConfig& cfg = {});

/// Exact CPU retrieval references (used as ground truth in tests).
std::size_t mips_retrieve_exact(const Matrix& query, const std::vector<Matrix>& keys);
std::size_t ssa_retrieve_exact(const Matrix& query, const std::vector<Matrix>& keys,
                               const ScaledSearchConfig& cfg = {});

/// In-memory retrieval engine: stores the (encoded) OVT keys in NVCiM
/// crossbars and answers nearest-key queries through noisy crossbar GEMMs.
/// For SSA, each pooling scale occupies its own accelerator bank holding the
/// pooled copies of every key (the paper's "Scale & Copy" layout, Fig. 4).
class CimRetriever {
 public:
  struct Config {
    Algorithm algorithm = Algorithm::SSA;
    ScaledSearchConfig ssa;
    cim::CrossbarConfig crossbar;
    nvm::VariationModel variation;
    cim::ProgramOptions program;
  };

  explicit CimRetriever(Config cfg) : cfg_(std::move(cfg)) {}

  /// Store keys (each flattened internally; all must share the shape of the
  /// first). Reprogramming with a new set replaces the old one.
  void store(const std::vector<Matrix>& keys, Rng& rng);

  /// Mutable storage (the layout of every ShardedOvtStore shard): create
  /// empty per-scale banks sized for `capacity` keys of `key_size` flattened
  /// elements. Keys are then
  /// programmed column-by-column with program_keys() — each key carries its
  /// own quantization scale and a position-derived noise stream, so
  /// programming the same keys at the same columns is bit-identical whether
  /// it happens in one pass or incrementally, and untouched columns never
  /// change. n_keys() reports the capacity (score-row width) in this mode.
  void store_mutable(std::size_t key_size, std::size_t capacity, const Rng& rng);

  /// Program `keys` into key columns [col_begin, col_begin + keys.size())
  /// of every scale bank (each key pooled per scale first, exactly as
  /// store() lays keys out). Requires store_mutable() and capacity.
  void program_keys(std::size_t col_begin, const std::vector<Matrix>& keys);

  /// Grow mutable capacity to at least `n` key columns (whole subarrays).
  void ensure_capacity(std::size_t n);

  /// Similarity score of the query against every stored key.
  Matrix scores(const Matrix& query);
  /// Index of the best-scoring key.
  std::size_t retrieve(const Matrix& query);

  /// Batched scores: each row of `queries` (B×key_size, flattened queries)
  /// is scored against every stored key in one MVM pass per bank, returning
  /// B×n_keys. Row b equals scores(queries.row(b)) bit-for-bit.
  Matrix scores_batch(const Matrix& queries);

  /// Reusable buffers for scores_batch_into(): the pooled query block for
  /// one bank, that bank's raw scores, and the accelerator's tile scratch.
  struct Scratch {
    Matrix pooled;
    Matrix bank_scores;
    cim::Accelerator::BatchScratch acc;
  };

  /// scores_batch() written into caller storage with caller scratch —
  /// bit-identical results, no per-batch allocations once the scratch is
  /// warm. `out` is resized to B×n_keys.
  void scores_batch_into(const Matrix& queries, Matrix& out, Scratch& scratch);

  /// With `candidates` (per-query bitmaps over the n_keys key columns), each
  /// scale bank scores only candidate columns — the IVF-style phase-2 exact
  /// rerank. Candidate entries of `out` are bit-identical to the unmasked
  /// pass; non-candidate entries are exact 0 or the exact full-pass value
  /// (block-granular masking), so callers must argmax over candidates only.
  void scores_batch_into(const Matrix& queries, Matrix& out, Scratch& scratch,
                         const cim::CandidateSet* candidates);
  /// Batched retrieve over pre-flattened query rows.
  std::vector<std::size_t> retrieve_batch(const Matrix& queries);
  /// Flatten a query list into the B×key_size layout scores_batch expects.
  Matrix pack_queries(const std::vector<Matrix>& queries) const;

  std::size_t n_keys() const { return n_keys_; }
  cim::OpCounters counters() const;

  // -- Device-fault model ---------------------------------------------------
  // Every scale bank shares the same column-tile geometry (identical
  // capacity and crossbar config), so subarray and column indices address
  // all banks at once: a fault hits a key column in every bank holding a
  // pooled copy of it, and a probe aggregates deviations across banks.

  /// Column-tile subarrays per bank (the scrub/quarantine addressing unit).
  std::size_t n_subarrays() const;
  std::size_t cols_per_subarray() const;

  /// Pin stuck cells in key column `col` of every scale bank. Returns total
  /// cells clamped across banks.
  std::size_t inject_column_fault(std::size_t col, nvm::FaultKind kind,
                                  std::size_t cells_per_segment, std::uint64_t seed);

  /// Kill subarray `subarray` in every scale bank.
  void kill_subarray(std::size_t subarray);

  /// Retention drift across every bank (see Crossbar::advance_age).
  void set_drift_rate(double rate_per_tick);
  void advance_age(std::uint64_t ticks);

  /// Golden probe of key column `col`, aggregated over scale banks.
  cim::ColumnProbe probe_column(std::size_t col) const;

 private:
  void init_bank_layout();

  Config cfg_;
  bool mutable_mode_ = false;
  std::size_t n_keys_ = 0;
  std::size_t key_size_ = 0;
  // One accelerator per scale (MIPS uses a single scale-1 bank).
  std::vector<std::unique_ptr<cim::Accelerator>> banks_;
  std::vector<std::size_t> bank_scales_;
  std::vector<float> bank_weights_;
};

}  // namespace nvcim::retrieval
