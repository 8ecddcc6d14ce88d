#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "nvcim/cim/faults.hpp"
#include "nvcim/cim/pass_spans.hpp"
#include "nvcim/nvm/device.hpp"
#include "nvcim/nvm/faults.hpp"
#include "nvcim/tensor/matrix.hpp"

namespace nvcim::cim {

/// Geometry and conversion parameters of one NVCiM subarray. The defaults
/// follow the paper: 384×128 subarrays of 2-bit cells holding int16 values
/// as G+ − G− pairs, which bit-slices to 8 cell planes per polarity. The
/// cell layout is fixed (see Crossbar).
struct CrossbarConfig {
  std::size_t rows = 384;
  std::size_t cols = 128;
  std::size_t value_bits = 16;  ///< integer precision of stored values
  std::size_t adc_bits = 8;     ///< 0 = ideal (no ADC quantization)

  std::size_t levels() const;    ///< 2^Crossbar::kBitsPerCell
  std::size_t n_slices() const;  ///< magnitude bits / kBitsPerCell, rounded up
};

/// Write-verify options of Crossbar::program, the path SWV drives
/// (mitigation::SelectiveWriteVerify); every other write is single-pulse.
struct ProgramOptions {
  double verify_tolerance = 0.0;       ///< 0 disables write-verify
  std::size_t max_write_iterations = 1;
  /// Optional rows×cols mask: entries > 0 get write-verify (SWV's
  /// "selective"); entries == 0 use a single blind write.
  const Matrix* verify_mask = nullptr;
};

/// Counters accumulated across operations, consumed by the PerfModel.
/// They track the *logical* operation schedule: slice planes whose cells are
/// exactly zero are elided by the simulator (their contribution is exactly
/// zero), but the counters still advance as if the plane had been activated,
/// so cost accounting is independent of which simulation shortcuts fire.
/// A Crossbar advances its counters with relaxed atomic adds, so passes and
/// span writes running at once on one subarray each add their whole share:
/// once they are joined, every field is the exact sum of the serial runs.
struct OpCounters {
  std::size_t subarray_activations = 0;  ///< one slice-plane MVM each
  std::size_t adc_conversions = 0;
  std::size_t cells_programmed = 0;
  std::size_t write_pulses = 0;

  OpCounters& operator+=(const OpCounters& o) {
    subarray_activations += o.subarray_activations;
    adc_conversions += o.adc_conversions;
    cells_programmed += o.cells_programmed;
    write_pulses += o.write_pulses;
    return *this;
  }
};

/// Functional model of a single NVM crossbar subarray with bit-sliced,
/// differential multi-level cells: a G+ cell holds a value's positive part
/// and a G− cell its negative part (ISAAC/PRIME). Programming draws the
/// per-cell conductance noise once (spatial variation persists across
/// reads); the analog MVM then reads those noisy conductances, with
/// per-slice ADC quantization.
///
/// Storage is block-major: each slice plane is cut into column blocks of
/// kBlockColumns keys, and each block is one contiguous stripe of
/// `active_rows × kAccumulatorLanes` floats, a row's [G+ G−] pairs side by
/// side. The fused MVM kernel sweeps a block down one unit-stride stripe and
/// feeds both polarities' accumulators in a single pass. A plane's last block
/// is padded to full width by cells that are never written and stay exactly
/// 0. Per-slice shift factors (2^(s·kBitsPerCell)) and all-zero-slice flags
/// are precomputed at program time.
///
/// Concurrency: passes keep their buffers in caller scratch and advance the
/// counters atomically, so readers never exclude each other; span writes
/// may run beside them where no pass reads the written blocks. Everything
/// else (init, program, faults, drift, probes, counter resets) needs the
/// subarray to itself.
class Crossbar {
 public:
  static constexpr std::size_t kBitsPerCell = 2;  ///< per NVM cell, as in the paper
  static constexpr std::size_t kPitch = 2;  ///< floats per key column: [G+ G−]
  /// Width (in interleaved accumulator lanes) of the fused kernel's register
  /// blocks, and so of one row of a block stripe in the cell layout.
  static constexpr std::size_t kAccumulatorLanes = 32;
  /// Key columns per accumulator block, the granularity candidate masking
  /// prunes at. The one derivation of that width: the store aligns slots to
  /// it and routing counts examined work in it, as the kernel computes.
  static constexpr std::size_t kBlockColumns = kAccumulatorLanes / kPitch;

  explicit Crossbar(CrossbarConfig cfg = {}) : cfg_(cfg) {}

  /// Per-pass kernel buffers, owned by the caller so that passes over one
  /// subarray can run at once: the per-query ADC LSB, the gathered query
  /// rows of each column block and the pass's live slice planes. Warm
  /// scratch makes a pass allocation-free.
  struct Scratch {
    std::vector<double> lsb;
    std::vector<std::size_t> block_rows;   ///< rows needing each block, block-major
    std::vector<std::size_t> block_start;  ///< block bk's rows: [start[bk], start[bk+1])
    std::vector<std::size_t> live_slices;  ///< slices not all-zero, ascending
  };

  const CrossbarConfig& config() const { return cfg_; }

  /// Program an integer matrix (entries in [-qmax, qmax], exact integers)
  /// of shape at most rows×cols. Smaller matrices occupy the top-left corner.
  /// Every cell draws from the one stream `rng`, in rows → columns → slices
  /// order (slices ascending, G+ before G− within a slice); write-verify
  /// (`opts`, SWV's path) re-draws a cell before moving on. The matrix is
  /// validated before any cell is written.
  void program(const Matrix& int_values, const nvm::VariationModel& var, Rng& rng,
               const ProgramOptions& opts = {});

  /// Allocate an unprogrammed active_rows×active_cols region: every cell is
  /// exactly zero (it was never pulsed), so unprogrammed columns contribute
  /// exactly zero to the MVM. The entry point of the mutable (lifecycle)
  /// storage path — columns are then written with program_columns().
  void init_blank(std::size_t active_rows, std::size_t active_cols);

  /// (Re)program a span of columns [col_begin, col_begin + n) in place.
  /// `int_values` is n×active_rows (row j holds column col_begin + j's
  /// integer values) and `rngs` points at n per-column noise streams, one
  /// per column in span order. The caller owns the noise streams: passing
  /// per-(subarray, column) derived Rngs makes each column's programmed
  /// cells a pure function of (position, values, stream) — independent of
  /// span boundaries, programming order and every other column — which is
  /// what keeps untouched columns bit-identical across admits and lets an
  /// incremental program reproduce a from-scratch one exactly. Other
  /// columns' cells are not touched. The whole span is validated before any
  /// cell is written.
  ///
  /// Draw order: one pulse per cell; column j draws only from rngs[j], rows
  /// ascending, slices ascending, G+ before G−. The kernel walks the span one
  /// column block at a time, then rows → slices → the block's span columns,
  /// so each block stripe is written unit-stride while every stream keeps
  /// that order.
  ///
  /// Writes touch only the span's cells, their pristine shadow, the atomic
  /// slice flags and counters, and read the stuck-cell map: spans of
  /// disjoint columns may be written at once, and beside passes that read
  /// none of their blocks (see matvec_batch_into), but not beside fault
  /// injection, kill, drift or probes.
  void program_columns(const Matrix& int_values, std::size_t col_begin,
                       const nvm::VariationModel& var, Rng* rngs);

  /// y = x · W for x of shape m×r (r = programmed rows). Returns m×c in the
  /// stored-integer scale. Non-const: accumulates op counters. A plain
  /// per-query, per-column double-precision loop over the cells: the scalar
  /// oracle the fused kernel is tested against.
  Matrix matvec(const Matrix& x);

  /// Batched y = x · W with identical semantics (and bit-identical results:
  /// the per-accumulator addition order over rows and the per-output order
  /// over slices are preserved) but a fused cache-friendly kernel — per
  /// column block, input rows stream down the block's contiguous [G+ G−]
  /// stripes into adjacent per-column accumulators in one unit-stride pass,
  /// so one sweep serves both polarities of up to four (query, slice plane)
  /// pairs: four queries of one plane, two of two planes, or one query of
  /// four planes. Counters advance exactly as B calls to matvec would.
  Matrix matvec_batch(const Matrix& x);

  /// matvec_batch() written into caller storage — allocation-free once `y`
  /// is warm. Bit-identical to matvec_batch().
  ///
  /// With `spans`, `y` is the pass's compact rows × spans->width() block and
  /// column c here is key `col_offset + c`: each row computes only the
  /// kBlockColumns-wide blocks of its own span's columns in this subarray
  /// (on a routed pass, those holding one of its candidates) and writes its
  /// span columns to y(r, col_offset + c − begin(r)); everything else stays
  /// exact 0. The kernel gathers each block's rows itself, so neither the
  /// batch's row order nor the other rows' spans change what a row computes,
  /// and computed entries are bit-identical to the unmasked kernel —
  /// skipping a block never reorders another block's accumulation.
  /// Counters follow each row's own work: subarray activations for each row
  /// that reads a block here, ADC conversions for each computed (row,
  /// column) pair, so a row's cost never depends on its batch-mates.
  ///
  /// A pass reads the cells, slice flags and shift factors and writes only
  /// `y`, `scratch` and the atomic counters, so passes with distinct `y` and
  /// `scratch` may run at once. They may also run beside program_columns()
  /// of columns in blocks no row of the pass reads: the kernel loads whole
  /// kBlockColumns blocks, neighbours' lanes included.
  void matvec_batch_into(const Matrix& x, Matrix& y, Scratch& scratch,
                         const PassSpans* spans = nullptr, std::size_t col_offset = 0);
  /// The same with one-off scratch.
  void matvec_batch_into(const Matrix& x, Matrix& y, const PassSpans* spans = nullptr,
                         std::size_t col_offset = 0) {
    Scratch scratch;
    matvec_batch_into(x, y, scratch, spans, col_offset);
  }

  /// Cell-wise readback of the stored values: reconstructs each integer from
  /// its (noisy) analog slice levels. This models reading a payload matrix
  /// back out of NVM storage.
  Matrix read_values() const;

  std::size_t active_rows() const { return active_rows_; }
  std::size_t active_cols() const { return active_cols_; }

  /// Analog level of one programmed cell (slice s, row r, col c, polarity),
  /// read through the block-major layout; the zero padding of a partial
  /// last block is not addressable here. Diagnostic accessor used by
  /// bit-identity tests and benches.
  float cell_level(std::size_t s, std::size_t r, std::size_t c, bool negative) const {
    return cells_[cell_index(s, r, c) + (negative ? 1 : 0)];
  }

  /// True when every cell of slice `s` (both polarities) is exactly zero, so
  /// the MVM elides the plane. Only fires for noise-free programming.
  bool slice_is_zero(std::size_t s) const { return relaxed_load(slice_zero_[s]) != 0; }

  /// Snapshot of the op counters (each field read atomically).
  OpCounters counters() const;
  void reset_counters() { counters_ = {}; }

  // -- Device-fault model ---------------------------------------------------
  // Every programmed cell keeps a `pristine` shadow: the analog level it
  // would hold absent faults (the golden reference of the scrub probes).
  // Stuck cells are clamped to an extreme level and stay clamped across
  // re-programming — a write pulse cannot move a stuck cell — while drift
  // multiplies live cells away from their pristine levels until the next
  // refresh write. A full re-init (init_blank / program) models swapping in
  // a fresh array and clears all faults.

  /// Pin `n_cells` cells of column `col` at the stuck level, chosen
  /// deterministically from `seed` among cells whose fault-free level
  /// differs from the stuck level (so every injected fault is observable).
  /// Returns the number of cells actually clamped (may be < n_cells when
  /// the column has too few observable candidates).
  std::size_t inject_column_fault(std::size_t col, nvm::FaultKind kind,
                                  std::size_t n_cells, std::uint64_t seed);

  /// Whole-subarray kill switch: every cell sticks at zero conductance and
  /// no longer responds to programming.
  void kill();
  bool killed() const { return killed_; }
  std::size_t n_stuck_cells() const { return stuck_.size(); }

  /// Retention drift: advance the array's age by `ticks`, decaying every
  /// live (non-stuck, nonzero) cell by drift_factor(rate, ticks). Pristine
  /// levels are untouched, so probes see the decay; re-programming a cell
  /// refreshes it.
  void set_drift_rate(double rate_per_tick) { drift_rate_ = rate_per_tick; }
  double drift_rate() const { return drift_rate_; }
  void advance_age(std::uint64_t ticks);
  std::uint64_t age() const { return age_; }

  /// Golden probe of one column: compare each analog cell against its
  /// pristine level. Fault-free columns probe clean exactly (programming
  /// noise is frozen at write time and recorded in the shadow), so any
  /// deviation is a fault or drift — detection has no false positives.
  ColumnProbe probe_column(std::size_t col) const;

 private:
  /// Pin one flat cell index at `level`, keeping the slice-zero flags
  /// consistent with the clamped value.
  void clamp_cell(std::size_t idx, float level);

  double adc_quantize(double analog, double full_scale) const;

  // Relaxed atomic access to the plain fields that concurrent passes and
  // span writes share — the slice flags and the counters (std::atomic_ref
  // before C++20): each access is indivisible and every add lands, with no
  // ordering implied.
  template <class T>
  static T relaxed_load(const T& v) {
    return __atomic_load_n(&v, __ATOMIC_RELAXED);
  }
  template <class T>
  static void relaxed_add(T& v, T x) {
    __atomic_fetch_add(&v, x, __ATOMIC_RELAXED);
  }
  /// Advance the counters by `d`, field by field.
  void count(const OpCounters& d);
  /// A nonzero level landed in slice `s`: clear its all-zero flag. A flag
  /// only ever goes 1 → 0 after init, and a pass that still reads 1 skips a
  /// plane whose cells in its own columns are exactly zero, so its result
  /// is the same either way.
  void mark_nonzero(std::size_t s) {
    if (relaxed_load(slice_zero_[s])) __atomic_store_n(&slice_zero_[s], 0, __ATOMIC_RELAXED);
  }

  /// Per-call write tables and pulse count (defined in crossbar.cpp).
  struct CellWriter;

  /// Validate one entry before any cell is written: integer-valued and
  /// within int<value_bits>.
  void check_value(double vf) const;

  /// Program slice `s` of value `v` into the cell pair at flat index `idx`
  /// — G+ then G− from `rng` — writing the cell and its pristine shadow in
  /// one pass, re-pulsing each cell when `verify` is set; a stuck cell keeps
  /// its pinned level. The one per-cell write of both programming paths.
  /// Returns true when either stored cell is nonzero.
  bool write_cell(std::size_t idx, long v, std::size_t s, CellWriter& w, Rng& rng, bool verify);

  std::size_t n_blocks() const { return (active_cols_ + kBlockColumns - 1) / kBlockColumns; }
  std::size_t slice_stride() const { return n_blocks() * active_rows_ * kAccumulatorLanes; }
  /// Flat index of cell pair (s, r, c)'s G+ cell, its G− cell next to it:
  /// slice → column block → row → lane. The one layout formula.
  std::size_t cell_index(std::size_t s, std::size_t r, std::size_t c) const {
    return s * slice_stride() + (c / kBlockColumns * active_rows_ + r) * kAccumulatorLanes +
           c % kBlockColumns * kPitch;
  }

  void fused_matvec(const Matrix& x, Matrix& y, Scratch& scratch, const PassSpans* spans,
                    std::size_t col_offset);

  CrossbarConfig cfg_;
  /// Analog cell levels (0..levels-1 plus noise), block-major
  /// ([slice][column block][row][kAccumulatorLanes], see cell_index): each
  /// block's rows form one contiguous stripe, and the lanes past the last
  /// real column of a partial block are padding that stays exactly 0.
  std::vector<float> cells_;
  std::vector<double> slice_shift_;        ///< 2^(s·kBitsPerCell)
  /// Slice plane is exactly all-zero. Read and cleared with relaxed atomics
  /// (see mark_nonzero).
  std::vector<std::uint8_t> slice_zero_;
  std::size_t active_rows_ = 0;
  std::size_t active_cols_ = 0;
  OpCounters counters_;  ///< advanced by count(), read by counters()
  /// Fault-free shadow of cells_ (same block-major indexing and zero
  /// padding): what each cell would hold absent stuck faults and drift. The
  /// scrub probes' golden reference.
  std::vector<float> pristine_;
  /// Stuck cells: flat cells_ index → pinned analog level. Overrides every
  /// subsequent write of that cell.
  std::unordered_map<std::size_t, float> stuck_;
  double drift_rate_ = 0.0;
  std::uint64_t age_ = 0;
  bool killed_ = false;
};

inline std::size_t CrossbarConfig::levels() const {
  return std::size_t{1} << Crossbar::kBitsPerCell;
}
inline std::size_t CrossbarConfig::n_slices() const {  // the sign lives in the G+/G− pair
  return (value_bits - 1 + Crossbar::kBitsPerCell - 1) / Crossbar::kBitsPerCell;
}

}  // namespace nvcim::cim
