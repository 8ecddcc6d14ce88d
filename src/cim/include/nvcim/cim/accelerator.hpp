#pragma once

#include <utility>
#include <vector>

#include "nvcim/cim/crossbar.hpp"
#include "nvcim/cim/quant.hpp"

namespace nvcim::cim {

/// A bank of subarrays holding a key matrix for in-memory similarity search:
/// keys are stored column-wise (Kᵀ, shape len×n_keys) across a grid of
/// 384×128 tiles, and query(x) computes x·Kᵀ — one inner product per stored
/// key — entirely through the noisy crossbar MVMs. Every cell is written
/// with a single pulse (write-verify is SWV's, on Crossbar::program).
class Accelerator {
 public:
  Accelerator(CrossbarConfig cfg, nvm::VariationModel var) : cfg_(cfg), var_(var) {}

  /// Store `keys` (n_keys × len, one key per row). Quantizes to int16 with a
  /// single global scale and programs every tile. May be called again to
  /// restore with different contents.
  void store(const Matrix& keys, Rng& rng);

  /// Mutable storage (serving shards): reset the bank and grow it through
  /// ensure_capacity() to `capacity_cols` blank key columns (rounded up to
  /// whole subarrays) for keys of length `key_len`. Columns
  /// are then programmed individually with program_keys(): each key gets its
  /// OWN symmetric quantization scale and a noise stream derived from `base`
  /// and its (subarray, column) position — so a column's stored cells are a
  /// pure function of (key values, position, base stream), independent of
  /// every other column and of programming order. Programming the same keys
  /// at the same columns therefore yields bit-identical crossbars whether it
  /// happens at build time or one admit at a time, and (re)programming one
  /// column never perturbs the others.
  void init_mutable(std::size_t key_len, std::size_t capacity_cols, const Rng& base);

  /// Program `keys` (n × len, one key per row) into columns
  /// [col_begin, col_begin + n). Requires init_mutable() and enough
  /// capacity (grow first with ensure_capacity()). Reprogramming an
  /// occupied column overwrites it. Every key is quantized once, then each
  /// touched (row band, column tile) subarray programs its whole column span
  /// in one Crossbar::program_columns call. Each column draws from its own
  /// (subarray, column)-derived stream, so a span programs bit-identically
  /// to the same keys programmed one call at a time, in any order.
  void program_keys(const Matrix& keys, std::size_t col_begin);

  /// Grow capacity to at least `n_cols` key columns by appending blank
  /// column subarrays (init_mutable() starts from an empty bank and grows
  /// it here too). Existing columns (cells, scales) are untouched.
  void ensure_capacity(std::size_t n_cols);

  /// Inner products of the 1×len query against every stored key (1×n_keys),
  /// computed via crossbar MVM; result is dequantized back to float scale.
  Matrix query(const Matrix& x);

  /// Batched variant: B×len queries → B×n_keys scores in one pass over the
  /// tile grid (B queries per MVM activation instead of one). Row b equals
  /// query(x.row(b)) bit-for-bit; the win is wall-clock, not semantics.
  Matrix query_batch(const Matrix& x);

  /// Reusable buffers for query_batch_into(): the column slice of the query
  /// block fed to one row tile and one tile's partial result. Warm scratch
  /// makes the batched query path allocation-free.
  struct BatchScratch {
    Matrix xs;
    Matrix part;
  };

  /// query_batch() written into caller storage with caller scratch —
  /// bit-identical results, zero steady-state allocations. `y` is resized to
  /// B×n_keys.
  ///
  /// With `spans` (each row's key span, inside n_keys), `y` is the pass's
  /// compact B × spans->width() block, row b's column j holding key
  /// begin(b) + j: a column tile runs only when some row's span reaches it,
  /// the kernel computes there only each row's own blocks (see
  /// Crossbar::matvec_batch_into), and only the compact block is
  /// accumulated and scaled. Computed entries are bit-identical to the
  /// unmasked pass.
  void query_batch_into(const Matrix& x, Matrix& y, BatchScratch& scratch,
                        const PassSpans* spans = nullptr);

  /// Noise-free reference result for diagnostics.
  Matrix query_ideal(const Matrix& x) const;

  std::size_t n_keys() const { return n_keys_; }
  std::size_t key_len() const { return key_len_; }
  std::size_t n_tiles() const { return tiles_.size(); }

  OpCounters counters() const;
  void reset_counters();

  const CrossbarConfig& config() const { return cfg_; }
  const nvm::VariationModel& variation() const { return var_; }

  // -- Device-fault model ---------------------------------------------------
  // Faults are addressed at the column-tile subarray granularity — the unit
  // a physical array fails at. A global key column spans one column tile
  // across every row tile; injection and probing visit all its segments.

  /// Column-tile subarrays (the fault/scrub/quarantine addressing unit).
  std::size_t n_subarrays() const { return col_tiles_; }
  std::size_t cols_per_subarray() const { return cfg_.cols; }

  /// Pin `cells_per_segment` observable cells per (row tile, column)
  /// segment of global key column `col`. Returns total cells clamped.
  std::size_t inject_column_fault(std::size_t col, nvm::FaultKind kind,
                                  std::size_t cells_per_segment, std::uint64_t seed);

  /// Kill every row tile of column-tile subarray `subarray`: all its key
  /// columns stick at zero conductance and ignore further programming.
  void kill_subarray(std::size_t subarray);
  bool subarray_killed(std::size_t subarray) const;

  /// Retention drift across the whole bank (see Crossbar::advance_age).
  void set_drift_rate(double rate_per_tick);
  void advance_age(std::uint64_t ticks);

  /// Golden probe of global key column `col`, aggregated over row tiles.
  ColumnProbe probe_column(std::size_t col) const;

 private:
  /// Dequantize the integer-scale score block into `y`: one global scale in
  /// immutable mode, per-key scales (0 for unprogrammed columns) of each
  /// row's own keys in mutable mode.
  void apply_scales(Matrix& y, const PassSpans* spans) const;

  /// The subarray of row band `rt` in column tile `ct`.
  const Crossbar& tile(std::size_t rt, std::size_t ct) const {
    return tiles_[ct * row_tiles_ + rt];
  }
  Crossbar& tile(std::size_t rt, std::size_t ct) {
    return const_cast<Crossbar&>(std::as_const(*this).tile(rt, ct));
  }

  CrossbarConfig cfg_;
  nvm::VariationModel var_;
  Matrix keys_ref_;  ///< dequantized reference of what was stored
  float scale_ = 1.0f;
  std::size_t n_keys_ = 0;
  std::size_t key_len_ = 0;
  std::size_t row_tiles_ = 0;
  std::size_t col_tiles_ = 0;
  /// Column-tile-major [col_tile][row_tile]: a column tile's row bands are
  /// adjacent, so growing the bank appends tiles and moves none. Read
  /// through tile().
  std::vector<Crossbar> tiles_;
  // Mutable (lifecycle) mode: per-key-column quantization scales and the
  // base noise stream that per-(subarray, column) programming streams are
  // split from. In this mode every tile spans the full subarray width,
  // n_keys_ is the capacity (score-row width), not the occupied count, and
  // keys_ref_ and col_scale_ grow by appending zeroed columns.
  bool mutable_mode_ = false;
  Rng base_rng_;
  std::vector<float> col_scale_;  ///< per column; 0 until first programmed
};

}  // namespace nvcim::cim
