#include "nvcim/cim/crossbar.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "nvcim/cim/quant.hpp"

namespace nvcim::cim {

namespace {

/// A probed cell counts as deviant when it differs from its pristine level
/// by more than this (analog level units). Programming noise is frozen at
/// write time and recorded in the shadow, so fault-free cells probe exactly
/// clean; the epsilon only absorbs float round-off.
constexpr double kProbeEps = 1e-6;

}  // namespace

/// Per-call write state: the per-nibble target level and sigma that
/// nvm::program_cell derives per cell, built once through the same functions
/// (so every value is identical), the write-verify limits of program()
/// (single-pulse by default), plus the write pulses the call issued.
struct Crossbar::CellWriter {
  CellWriter(const CrossbarConfig& cfg, const nvm::VariationModel& var,
             const ProgramOptions& opts = {})
      : denorm(static_cast<double>(cfg.levels() - 1)),
        tolerance(opts.verify_tolerance),
        max_iterations(opts.max_write_iterations) {
    NVCIM_CHECK_MSG(var.device.n_levels == cfg.levels(),
                    "device level count must match the " << kBitsPerCell << "-bit cells");
    if (tolerance > 0.0) NVCIM_CHECK(max_iterations >= 1);
    for (std::size_t nibble = 0; nibble < cfg.levels(); ++nibble) {
      const std::size_t level =
          nvm::nearest_level(static_cast<double>(nibble) / denorm, var.device.n_levels);
      target.push_back(static_cast<double>(level) /
                       static_cast<double>(var.device.n_levels - 1));
      sigma.push_back(var.effective_sigma(level));
    }
  }

  /// Program one cell to `nibble`: the draw of nvm::program_cell, repeated
  /// as nvm::write_verify_cell does when `verify` is set. Returns the stored
  /// analog level.
  float write(long nibble, Rng& rng, bool verify) {
    const double t = target[static_cast<std::size_t>(nibble)];
    const double sg = sigma[static_cast<std::size_t>(nibble)];
    double g = std::clamp(t + rng.normal(0.0, sg), 0.0, 1.0);
    std::size_t n = 1;
    if (verify) {
      while (n < max_iterations && !(std::fabs(g - t) <= tolerance)) {
        g = std::clamp(t + rng.normal(0.0, sg), 0.0, 1.0);
        ++n;
      }
    }
    pulses += n;
    return static_cast<float>(g * denorm);
  }

  std::vector<double> target, sigma;
  double denorm;
  double tolerance;
  std::size_t max_iterations;
  std::size_t pulses = 0;
};

void Crossbar::check_value(double vf) const {
  NVCIM_CHECK_MSG(std::fabs(vf - std::round(vf)) < 1e-3, "crossbar expects integer-valued entries");
  const long v = static_cast<long>(std::llround(vf));
  NVCIM_CHECK_MSG(std::labs(v) <= qmax_for_bits(static_cast<int>(cfg_.value_bits)),
                  "value " << v << " exceeds int" << cfg_.value_bits);
}

bool Crossbar::write_cell(std::size_t idx, long v, std::size_t s, CellWriter& w, Rng& rng,
                          bool verify) {
  const long mask = static_cast<long>(cfg_.levels()) - 1;
  const std::size_t shift = s * kBitsPerCell;
  float* cell = cells_.data() + idx;
  float* shadow = pristine_.data() + idx;
  shadow[0] = cell[0] = w.write(((v > 0 ? v : 0) >> shift) & mask, rng, verify);
  shadow[1] = cell[1] = w.write(((v < 0 ? -v : 0) >> shift) & mask, rng, verify);
  if (!stuck_.empty()) {
    // Stuck cells ignore the write pulse: the fresh level lands in the
    // pristine shadow (what the cell SHOULD hold) but the analog cell
    // stays pinned — which is exactly what a scrub probe then sees.
    for (std::size_t p = 0; p < kPitch; ++p) {
      const auto it = stuck_.find(idx + p);
      if (it != stuck_.end()) cell[p] = it->second;
    }
  }
  return cell[0] != 0.0f || cell[1] != 0.0f;
}

void Crossbar::program(const Matrix& int_values, const nvm::VariationModel& var, Rng& rng,
                       const ProgramOptions& opts) {
  NVCIM_CHECK_MSG(int_values.rows() <= cfg_.rows && int_values.cols() <= cfg_.cols,
                  "matrix " << int_values.rows() << "x" << int_values.cols()
                            << " exceeds subarray " << cfg_.rows << "x" << cfg_.cols);
  CellWriter w(cfg_, var, opts);
  for (std::size_t i = 0; i < int_values.size(); ++i) check_value(int_values.at_flat(i));
  init_blank(int_values.rows(), int_values.cols());

  // One stream in r → c → s order, G+ before G− within a cell.
  const std::size_t S = cfg_.n_slices();
  for (std::size_t r = 0; r < active_rows_; ++r) {
    for (std::size_t c = 0; c < active_cols_; ++c) {
      const long v = static_cast<long>(std::llround(int_values(r, c)));
      const bool verify =
          opts.verify_tolerance > 0.0 &&
          (opts.verify_mask == nullptr || (*opts.verify_mask)(r, c) > 0.0f);
      for (std::size_t s = 0; s < S; ++s)
        if (write_cell(cell_index(s, r, c), v, s, w, rng, verify)) mark_nonzero(s);
    }
  }
  OpCounters d;
  d.cells_programmed = active_rows_ * active_cols_ * S * kPitch;
  d.write_pulses = w.pulses;
  count(d);
}

void Crossbar::init_blank(std::size_t active_rows, std::size_t active_cols) {
  NVCIM_CHECK_MSG(active_rows > 0 && active_rows <= cfg_.rows &&
                      active_cols > 0 && active_cols <= cfg_.cols,
                  "region " << active_rows << "x" << active_cols << " exceeds subarray "
                            << cfg_.rows << "x" << cfg_.cols);
  active_rows_ = active_rows;
  active_cols_ = active_cols;
  const std::size_t S = cfg_.n_slices();
  cells_.assign(S * slice_stride(), 0.0f);
  slice_shift_.resize(S);
  for (std::size_t s = 0; s < S; ++s)
    slice_shift_[s] = std::ldexp(1.0, static_cast<int>(s * kBitsPerCell));
  // Every cell is exactly zero (never pulsed): all slices start elided.
  // write_cell clears a slice's flag the moment a nonzero analog
  // level lands in it — monotonic, so the flag is only ever conservative.
  slice_zero_.assign(S, 1);
  // Re-initializing the region models swapping in a fresh physical array:
  // the pristine shadow resets with the cells and accumulated faults clear.
  pristine_.assign(S * slice_stride(), 0.0f);
  stuck_.clear();
  killed_ = false;
  age_ = 0;
}

void Crossbar::program_columns(const Matrix& int_values, std::size_t col_begin,
                               const nvm::VariationModel& var, Rng* rngs) {
  NVCIM_CHECK_MSG(active_rows_ > 0, "crossbar region not initialized");
  const std::size_t n = int_values.rows();
  NVCIM_CHECK_MSG(n > 0 && col_begin + n <= active_cols_,
                  "columns [" << col_begin << ", " << col_begin + n << ") out of range");
  NVCIM_CHECK_MSG(int_values.cols() == active_rows_,
                  "column values must be Nx" << active_rows_);
  CellWriter w(cfg_, var);
  // Validate the whole span up front, so a bad value can never leave the
  // span half-programmed.
  for (std::size_t i = 0; i < int_values.size(); ++i) check_value(int_values.at_flat(i));

  // One column block's run of the span at a time, then rows → slices → the
  // run's columns: unit-stride writes along each block stripe with only S
  // stripes live, while every column still draws from its own stream in
  // rows-ascending, slices-ascending, G+-before-G− order — so a column's
  // cells are a pure function of (values, position, its own stream),
  // whatever span it was written in.
  const std::size_t S = cfg_.n_slices();
  constexpr std::size_t P = kPitch;
  const std::size_t col_end = col_begin + n;
  long row[kBlockColumns];
  for (std::size_t c0 = col_begin; c0 < col_end;) {
    const std::size_t c1 = std::min(col_end, (c0 / kBlockColumns + 1) * kBlockColumns);
    const std::size_t j0 = c0 - col_begin, nj = c1 - c0;
    for (std::size_t r = 0; r < active_rows_; ++r) {
      for (std::size_t j = 0; j < nj; ++j)
        row[j] = static_cast<long>(std::llround(int_values(j0 + j, r)));
      for (std::size_t s = 0; s < S; ++s) {
        const std::size_t base = cell_index(s, r, c0);
        bool nonzero = false;
        for (std::size_t j = 0; j < nj; ++j)
          nonzero |= write_cell(base + j * P, row[j], s, w, rngs[j0 + j], false);
        if (nonzero) mark_nonzero(s);
      }
    }
    c0 = c1;
  }
  OpCounters d;
  d.cells_programmed = n * active_rows_ * S * P;
  d.write_pulses = w.pulses;
  count(d);
}

void Crossbar::count(const OpCounters& d) {
  relaxed_add(counters_.subarray_activations, d.subarray_activations);
  relaxed_add(counters_.adc_conversions, d.adc_conversions);
  relaxed_add(counters_.cells_programmed, d.cells_programmed);
  relaxed_add(counters_.write_pulses, d.write_pulses);
}

OpCounters Crossbar::counters() const {
  OpCounters c;
  c.subarray_activations = relaxed_load(counters_.subarray_activations);
  c.adc_conversions = relaxed_load(counters_.adc_conversions);
  c.cells_programmed = relaxed_load(counters_.cells_programmed);
  c.write_pulses = relaxed_load(counters_.write_pulses);
  return c;
}

void Crossbar::clamp_cell(std::size_t idx, float level) {
  stuck_[idx] = level;
  cells_[idx] = level;
  const std::size_t s = idx / slice_stride();
  // A nonzero clamp makes the plane non-elidable; a zero clamp leaves the
  // (conservative) flag alone — the cell really does read zero.
  if (level != 0.0f) mark_nonzero(s);
}

std::size_t Crossbar::inject_column_fault(std::size_t col, nvm::FaultKind kind,
                                          std::size_t n_cells, std::uint64_t seed) {
  NVCIM_CHECK_MSG(active_rows_ > 0, "crossbar region not initialized");
  NVCIM_CHECK_MSG(col < active_cols_, "column " << col << " out of range");
  if (n_cells == 0) return 0;
  const float level = static_cast<float>(nvm::stuck_level(kind, cfg_.levels()));
  // Candidates: cells of the column whose fault-free level differs from the
  // stuck level — pinning one of those is guaranteed observable.
  std::vector<std::size_t> cand;
  const std::size_t S = cfg_.n_slices();
  constexpr std::size_t P = kPitch;
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t r = 0; r < active_rows_; ++r) {
      const std::size_t base = cell_index(s, r, col);
      for (std::size_t p = 0; p < P; ++p) {
        const std::size_t idx = base + p;
        if (stuck_.find(idx) == stuck_.end() &&
            std::fabs(pristine_[idx] - level) > 1e-6f)
          cand.push_back(idx);
      }
    }
  }
  if (cand.empty()) return 0;
  Rng rng(seed);
  const std::size_t k = std::min(n_cells, cand.size());
  for (const std::size_t pick : rng.sample_without_replacement(cand.size(), k))
    clamp_cell(cand[pick], level);
  return k;
}

void Crossbar::kill() {
  NVCIM_CHECK_MSG(active_rows_ > 0, "crossbar region not initialized");
  killed_ = true;
  // Real cells only: the zero padding of a partial block is not a cell.
  const std::size_t S = cfg_.n_slices();
  for (std::size_t s = 0; s < S; ++s)
    for (std::size_t r = 0; r < active_rows_; ++r)
      for (std::size_t c = 0; c < active_cols_; ++c)
        for (std::size_t p = 0; p < kPitch; ++p) clamp_cell(cell_index(s, r, c) + p, 0.0f);
}

void Crossbar::advance_age(std::uint64_t ticks) {
  NVCIM_CHECK_MSG(active_rows_ > 0, "crossbar region not initialized");
  age_ += ticks;
  const double f = nvm::drift_factor(drift_rate_, ticks);
  if (f == 1.0) return;
  // Each cell decays on its own, so a plane is walked flat; its zero
  // padding is skipped with every other zero cell.
  const std::size_t S = cfg_.n_slices();
  for (std::size_t s = 0; s < S; ++s) {
    if (slice_is_zero(s)) continue;  // all-zero plane: nothing to decay
    for (std::size_t idx = s * slice_stride(); idx < (s + 1) * slice_stride(); ++idx) {
      if (cells_[idx] == 0.0f) continue;  // zero decays to zero
      if (!stuck_.empty() && stuck_.find(idx) != stuck_.end()) continue;
      cells_[idx] = static_cast<float>(static_cast<double>(cells_[idx]) * f);
    }
  }
}

ColumnProbe Crossbar::probe_column(std::size_t col) const {
  NVCIM_CHECK_MSG(active_rows_ > 0, "crossbar region not initialized");
  NVCIM_CHECK_MSG(col < active_cols_, "column " << col << " out of range");
  ColumnProbe pr;
  const std::size_t S = cfg_.n_slices();
  constexpr std::size_t P = kPitch;
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t r = 0; r < active_rows_; ++r) {
      const std::size_t base = cell_index(s, r, col);
      for (std::size_t p = 0; p < P; ++p) {
        const double dev = std::fabs(static_cast<double>(cells_[base + p]) -
                                     static_cast<double>(pristine_[base + p]));
        ++pr.cells;
        if (dev > kProbeEps) ++pr.deviant;
        if (dev > pr.max_deviation) pr.max_deviation = dev;
      }
    }
  }
  return pr;
}

Matrix Crossbar::read_values() const {
  NVCIM_CHECK_MSG(active_rows_ > 0, "crossbar not programmed");
  const std::size_t S = cfg_.n_slices();
  Matrix out(active_rows_, active_cols_, 0.0f);
  for (std::size_t s = 0; s < S; ++s) {
    const double shift = slice_shift_[s];
    if (slice_is_zero(s)) continue;
    for (std::size_t r = 0; r < active_rows_; ++r) {
      for (std::size_t c = 0; c < active_cols_; ++c) {
        const float* cell = cells_.data() + cell_index(s, r, c);
        const double v = static_cast<double>(cell[0]) - cell[1];
        out(r, c) += static_cast<float>(shift * v);
      }
    }
  }
  return out;
}

double Crossbar::adc_quantize(double analog, double full_scale) const {
  if (cfg_.adc_bits == 0 || full_scale <= 0.0) return analog;
  const double n_codes = static_cast<double>((1ull << cfg_.adc_bits) - 1);
  const double lsb = full_scale / n_codes;
  return std::round(analog / lsb) * lsb;
}

Matrix Crossbar::matvec(const Matrix& x) {
  NVCIM_CHECK_MSG(active_rows_ > 0, "crossbar not programmed");
  NVCIM_CHECK_MSG(x.cols() == active_rows_, "input width " << x.cols() << " != programmed rows "
                                                           << active_rows_);
  const std::size_t S = cfg_.n_slices();
  const double denorm = static_cast<double>(cfg_.levels() - 1);
  constexpr std::size_t P = kPitch;
  Matrix y(x.rows(), active_cols_, 0.0f);
  OpCounters d;
  d.subarray_activations = x.rows() * S * P;
  d.adc_conversions = x.rows() * S * P * active_cols_;
  count(d);

  for (std::size_t m = 0; m < x.rows(); ++m) {
    // ADC full scale: the worst-case column current given this input vector
    // (Σ|x_i| times the max cell level), per NeuroSim's input-referred model.
    double abs_in = 0.0;
    for (std::size_t i = 0; i < x.cols(); ++i) abs_in += std::fabs(x(m, i));
    const double full_scale = abs_in * denorm;

    for (std::size_t s = 0; s < S; ++s) {
      const double shift = slice_shift_[s];
      if (slice_is_zero(s)) continue;  // contributes exactly zero
      for (std::size_t c = 0; c < active_cols_; ++c) {
        double acc_pos = 0.0, acc_neg = 0.0;
        for (std::size_t r = 0; r < active_rows_; ++r) {
          const float* cell = cells_.data() + cell_index(s, r, c);
          acc_pos += static_cast<double>(x(m, r)) * cell[0];
          acc_neg += static_cast<double>(x(m, r)) * cell[1];
        }
        const double v =
            adc_quantize(acc_pos, full_scale) - adc_quantize(acc_neg, full_scale);
        y(m, c) += static_cast<float>(shift * v);
      }
    }
  }
  return y;
}

// The kernel's tiles are sized for 16 zmm accumulators. Where AVX-512 is on,
// GCC still prefers 256-bit vectors, and a lone row's four-slice tile would
// then take all 32 ymm registers and spill; ask for 512-bit ones here. Every
// operation is lane-wise, so the width moves no bit.
#if defined(__AVX512F__) && defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC target("prefer-vector-width=512")
#endif

namespace {

constexpr std::size_t kBlk = Crossbar::kAccumulatorLanes;

/// One register tile of the fused kernel: T gathered query rows (`idx` into
/// `x`) swept down the `rows × kBlk` stripes of one block in U live slice
/// planes (`slices`, ascending; plane s's stripe starts at `block + s *
/// stride`), each accumulator summing rows 0..rows-1 in ascending order from
/// zero, then `fold(m, s, acc)` per query and slice with the slices in
/// ascending order. T·U ≤ 4 accumulator blocks take 16 zmm registers, so a
/// lone row still keeps 16 independent chains in flight. The body has one
/// fixed width the compiler keeps in vector registers: the lanes of a
/// partial block past its last column are zero padding, so they only sum
/// products with 0, and the fold never writes them.
template <std::size_t T, std::size_t U, class Fold>
void sweep_tile(const Matrix& x, const std::size_t* idx, const float* block, std::size_t stride,
                const std::size_t* slices, std::size_t rows, Fold&& fold) {
  static_assert(T * U <= 4, "a tile holds at most four accumulator blocks");
  const float* xs[T];
  for (std::size_t t = 0; t < T; ++t) xs[t] = x.data() + idx[t] * x.cols();
  const float* stripes[U];
  for (std::size_t u = 0; u < U; ++u) stripes[u] = block + slices[u] * stride;
  double acc[U][T][kBlk] = {};
  for (std::size_t r = 0; r < rows; ++r) {
    double v[T];
    for (std::size_t t = 0; t < T; ++t) v[t] = xs[t][r];
    for (std::size_t u = 0; u < U; ++u) {
      const float* stripe = stripes[u] + r * kBlk;
      for (std::size_t j = 0; j < kBlk; ++j) {
        const double p = stripe[j];
        for (std::size_t t = 0; t < T; ++t) acc[u][t][j] += v[t] * p;
      }
    }
  }
  for (std::size_t u = 0; u < U; ++u)
    for (std::size_t t = 0; t < T; ++t) fold(idx[t], slices[u], acc[u][t]);
}

/// T rows over all `n_live` live slices of one block: U planes per tile,
/// then the leftover planes in one narrower tile.
template <std::size_t T, std::size_t U, class Fold>
void sweep_slices(const Matrix& x, const std::size_t* idx, const float* block,
                  std::size_t stride, const std::size_t* live, std::size_t n_live,
                  std::size_t rows, Fold&& fold) {
  for (; n_live >= U; live += U, n_live -= U)
    sweep_tile<T, U>(x, idx, block, stride, live, rows, fold);
  if constexpr (U > 1) {
    if (n_live > 0) sweep_slices<T, U - 1>(x, idx, block, stride, live, n_live, rows, fold);
  }
}

}  // namespace

/// Fused slice kernel, iterated column block → tile of gathered query rows →
/// live slice planes: each block's stripes are swept once per register tile
/// (the scalar matvec() re-streams every plane per query), feeding resident
/// kBlk-wide accumulators, then one ADC/shift pass with a hoisted per-query
/// LSB folds each row's block into its output row. A tile is rows × slices
/// with at most four accumulator blocks: 4-row tiles take one slice at a
/// time, a 3-row remainder too, a 2-row remainder two slices, and a lone row
/// four. Tenants own disjoint blocks, so most blocks are read by one row,
/// and its four planes give the sweep the independent chains that one plane
/// lacks. It is bit-identical to matvec() because (a) every accumulator
/// element still sums rows r = 0..R-1 in ascending order starting from
/// zero, and (b) every output element lies in exactly one block, whose
/// tiles fold its per-slice contributions in ascending slice order — only
/// which independent (query, slice, column) sums are formed together
/// changed, so neither the batch's row order nor its grouping into tiles
/// moves a bit. The cells are stored block-major, so each plane's share of a
/// tile is one contiguous `rows × kBlk` stripe.
void Crossbar::fused_matvec(const Matrix& x, Matrix& y, Scratch& scratch,
                            const PassSpans* spans, std::size_t col_offset) {
  const std::size_t S = cfg_.n_slices();
  const std::size_t B = x.rows();
  const double denorm = static_cast<double>(cfg_.levels() - 1);
  constexpr std::size_t P = kPitch;

  // Row walk: each row lists only the blocks of its own keys here (its span,
  // or unmasked this subarray's columns), skipping on a routed pass the
  // blocks that hold none of its candidates. Entries are bk * B + m, so one
  // sort buckets them block-major with rows ascending: a row enters only the
  // tiles of the blocks it reads, whatever its batch-mates read. Key k of
  // row m lands in output column k − (its first key).
  //
  // A row that reads a block also gets its ADC full scale: the worst-case
  // column current given that input vector (Σ|x_i| times the max cell
  // level), per NeuroSim's input-referred model, with the LSB (full_scale /
  // n_codes) hoisted — identical operands to the per-element adc_quantize()
  // computation. fold() reads only the LSBs of rows that read here.
  const auto keys = [&](std::size_t m) {
    return spans != nullptr ? std::pair{spans->begin(m), spans->end(m)}
                            : std::pair{col_offset, col_offset + active_cols_};
  };
  const bool adc_on = cfg_.adc_bits != 0;
  const double n_codes = static_cast<double>((1ull << cfg_.adc_bits) - 1);
  const std::size_t n_blk = n_blocks();
  std::vector<double>& lsb = scratch.lsb;
  std::vector<std::size_t>& block_rows = scratch.block_rows;
  std::vector<std::size_t>& block_start = scratch.block_start;
  lsb.resize(B);
  block_rows.clear();
  std::size_t computed_cols = 0, reading_rows = 0;
  for (std::size_t m = 0; m < B; ++m) {
    const auto [kb, ke] = keys(m);
    const std::size_t hi = std::min(ke, col_offset + active_cols_);
    const std::size_t before = block_rows.size();
    for (std::size_t k = std::max(kb, col_offset); k < hi;) {
      const std::size_t bk = (k - col_offset) / kBlockColumns;
      const std::size_t k1 = std::min(hi, col_offset + (bk + 1) * kBlockColumns);
      if (spans == nullptr || spans->any_candidate(m, k - kb, k1 - kb)) {
        block_rows.push_back(bk * B + m);
        computed_cols += std::min(active_cols_, (bk + 1) * kBlockColumns) - bk * kBlockColumns;
      }
      k = k1;
    }
    if (block_rows.size() == before) continue;
    ++reading_rows;
    const float* xrow = x.data() + m * x.cols();
    double abs_in = 0.0;
    for (std::size_t i = 0; i < x.cols(); ++i) abs_in += std::fabs(xrow[i]);
    const double fullscale = abs_in * denorm;
    lsb[m] = adc_on && fullscale > 0.0 ? fullscale / n_codes : 0.0;
  }
  std::sort(block_rows.begin(), block_rows.end());
  block_start.assign(n_blk + 1, 0);
  for (std::size_t& e : block_rows) {
    ++block_start[e / B + 1];
    e %= B;
  }
  std::partial_sum(block_start.begin(), block_start.end(), block_start.begin());

  // A plane activation is shared by every column of the wave, so each row
  // that reads a block here pays one per slice and polarity; ADC conversions
  // advance for each computed (row, column) pair, so pruning shows up in the
  // cost model exactly where the hardware saves — column reads.
  OpCounters d;
  d.subarray_activations = reading_rows * S * P;
  d.adc_conversions = S * P * computed_cols;
  count(d);

  // The pass's live slices, each flag read once: an all-zero plane
  // contributes exactly zero. A flag only ever goes 1 → 0, and a pass that
  // still reads 1 skips a plane that is zero in its own columns (see
  // mark_nonzero).
  std::vector<std::size_t>& live = scratch.live_slices;
  live.clear();
  for (std::size_t s = 0; s < S; ++s)
    if (!slice_is_zero(s)) live.push_back(s);
  const std::size_t n_live = live.size();
  const std::size_t stride = slice_stride();

  for (std::size_t bk = 0; bk < n_blk; ++bk) {
    const std::size_t c_lo = bk * kBlockColumns;
    const std::size_t nc = std::min(kBlockColumns, active_cols_ - c_lo);
    // ADC + shift fold of one query's accumulator block of slice s into its
    // output row: quantize the block into a contiguous array first (the
    // vectorizable libm-free round), then take the G+ − G− differences of
    // the row's columns in the block. Like matvec(), it must subtract
    // rounded products: an FMA that fused a product into the subtraction
    // would move bits.
    const auto fold = [&](std::size_t m, std::size_t s, const double* acc) {
      const double lsb_m = lsb[m];
      const double shift = slice_shift_[s];
      double q[kBlk];
      if (lsb_m > 0.0) {
        for (std::size_t j = 0; j < kBlk; ++j) q[j] = round_half_away(acc[j] / lsb_m) * lsb_m;
      } else {
        for (std::size_t j = 0; j < kBlk; ++j) q[j] = acc[j];
      }
      const auto [kb, ke] = keys(m);
      const std::size_t k_lo = col_offset + c_lo;
      float* yrow = y.data() + m * y.cols();
      for (std::size_t k = std::max(k_lo, kb); k < std::min(k_lo + nc, ke); ++k) {
        const std::size_t j = k - k_lo;
        yrow[k - kb] += static_cast<float>(shift * (q[P * j] - q[P * j + 1]));
      }
    };
    const float* block = cells_.data() + cell_index(0, 0, c_lo);
    const std::size_t* idx = block_rows.data() + block_start[bk];
    const std::size_t* end = block_rows.data() + block_start[bk + 1];
    for (; end - idx >= 4; idx += 4)
      sweep_slices<4, 1>(x, idx, block, stride, live.data(), n_live, active_rows_, fold);
    switch (end - idx) {
      case 3:
        sweep_slices<3, 1>(x, idx, block, stride, live.data(), n_live, active_rows_, fold);
        break;
      case 2:
        sweep_slices<2, 2>(x, idx, block, stride, live.data(), n_live, active_rows_, fold);
        break;
      case 1:
        sweep_slices<1, 4>(x, idx, block, stride, live.data(), n_live, active_rows_, fold);
        break;
      default: break;
    }
  }
}

#if defined(__AVX512F__) && defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif

void Crossbar::matvec_batch_into(const Matrix& x, Matrix& y, Scratch& scratch,
                                 const PassSpans* spans, std::size_t col_offset) {
  NVCIM_CHECK_MSG(active_rows_ > 0, "crossbar not programmed");
  NVCIM_CHECK_MSG(x.cols() == active_rows_, "input width " << x.cols() << " != programmed rows "
                                                           << active_rows_);
  NVCIM_CHECK_MSG(spans == nullptr || spans->rows() == x.rows(),
                  "pass spans cover " << spans->rows() << " rows, batch has " << x.rows());
  y.resize(x.rows(), spans != nullptr ? spans->width() : active_cols_);
  y.fill(0.0f);
  fused_matvec(x, y, scratch, spans, col_offset);
}

Matrix Crossbar::matvec_batch(const Matrix& x) {
  Matrix y;
  matvec_batch_into(x, y);
  return y;
}

}  // namespace nvcim::cim
