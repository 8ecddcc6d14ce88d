#include "nvcim/cim/crossbar.hpp"

#include <algorithm>
#include <cmath>

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
/// (so every value is identical), plus the write pulses the call issued.
struct Crossbar::CellWriter {
  CellWriter(const CrossbarConfig& cfg, const nvm::VariationModel& var,
             const ProgramOptions& opts)
      : denorm(static_cast<double>(cfg.levels() - 1)),
        tolerance(opts.verify_tolerance),
        max_iterations(opts.max_write_iterations) {
    NVCIM_CHECK_MSG(var.device.n_levels == cfg.levels(),
                    "device level count must match bits_per_cell");
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
  NVCIM_CHECK_MSG(cfg_.differential || v >= 0,
                  "non-differential crossbar requires non-negative values");
}

bool Crossbar::write_cell(std::size_t idx, long v, std::size_t s, CellWriter& w, Rng& rng,
                          bool verify) {
  const long mask = static_cast<long>(cfg_.levels()) - 1;
  const std::size_t shift = s * cfg_.bits_per_cell;
  float* cell = cells_.data() + idx;
  float* shadow = pristine_.data() + idx;
  shadow[0] = cell[0] = w.write(((v > 0 ? v : 0) >> shift) & mask, rng, verify);
  if (cfg_.differential)
    shadow[1] = cell[1] = w.write(((v < 0 ? -v : 0) >> shift) & mask, rng, verify);
  if (!stuck_.empty()) {
    // Stuck cells ignore the write pulse: the fresh level lands in the
    // pristine shadow (what the cell SHOULD hold) but the analog cell
    // stays pinned — which is exactly what a scrub probe then sees.
    auto it = stuck_.find(idx);
    if (it != stuck_.end()) cell[0] = it->second;
    if (cfg_.differential) {
      it = stuck_.find(idx + 1);
      if (it != stuck_.end()) cell[1] = it->second;
    }
  }
  return cell[0] != 0.0f || (cfg_.differential && cell[1] != 0.0f);
}

void Crossbar::program(const Matrix& int_values, const nvm::VariationModel& var, Rng& rng,
                       const ProgramOptions& opts) {
  NVCIM_CHECK_MSG(int_values.rows() <= cfg_.rows && int_values.cols() <= cfg_.cols,
                  "matrix " << int_values.rows() << "x" << int_values.cols()
                            << " exceeds subarray " << cfg_.rows << "x" << cfg_.cols);
  CellWriter w(cfg_, var, opts);
  for (std::size_t i = 0; i < int_values.size(); ++i) check_value(int_values.at_flat(i));
  init_blank(int_values.rows(), int_values.cols());
  reference_ = int_values;

  // One stream in r → c → s order, G+ before G− within a cell.
  const std::size_t S = cfg_.n_slices();
  for (std::size_t r = 0; r < active_rows_; ++r) {
    for (std::size_t c = 0; c < active_cols_; ++c) {
      const long v = static_cast<long>(std::llround(int_values(r, c)));
      const bool verify =
          opts.verify_tolerance > 0.0 &&
          (opts.verify_mask == nullptr || (*opts.verify_mask)(r, c) > 0.0f);
      for (std::size_t s = 0; s < S; ++s)
        if (write_cell(s * slice_stride() + r * row_stride() + c * pitch(), v, s, w, rng, verify))
          slice_zero_[s] = 0;
    }
  }
  counters_.cells_programmed += active_rows_ * active_cols_ * S * pitch();
  counters_.write_pulses += w.pulses;
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
    slice_shift_[s] = std::ldexp(1.0, static_cast<int>(s * cfg_.bits_per_cell));
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
  reference_ = Matrix(active_rows_, active_cols_, 0.0f);
}

void Crossbar::program_columns(const Matrix& int_values, std::size_t col_begin,
                               const nvm::VariationModel& var, Rng* rngs,
                               const ProgramOptions& opts) {
  NVCIM_CHECK_MSG(active_rows_ > 0, "crossbar region not initialized");
  const std::size_t n = int_values.rows();
  NVCIM_CHECK_MSG(n > 0 && col_begin + n <= active_cols_,
                  "columns [" << col_begin << ", " << col_begin + n << ") out of range");
  NVCIM_CHECK_MSG(int_values.cols() == active_rows_,
                  "column values must be Nx" << active_rows_);
  NVCIM_CHECK_MSG(opts.verify_mask == nullptr,
                  "verify_mask is not supported on column programming");
  CellWriter w(cfg_, var, opts);
  // Validate the whole span up front, so a bad value can never leave the
  // span half-programmed.
  for (std::size_t i = 0; i < int_values.size(); ++i) check_value(int_values.at_flat(i));
  const bool verify = opts.verify_tolerance > 0.0;

  // Rows → slices → span columns: unit-stride writes along each row, while
  // every column still draws from its own stream in rows-ascending,
  // slices-ascending, G+-before-G− order — so a column's cells are a pure
  // function of (values, position, its own stream), whatever span it was
  // written in.
  const std::size_t S = cfg_.n_slices();
  const std::size_t P = pitch();
  std::vector<long> row(n);
  for (std::size_t r = 0; r < active_rows_; ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = static_cast<long>(std::llround(int_values(j, r)));
      reference_(r, col_begin + j) = static_cast<float>(row[j]);
    }
    for (std::size_t s = 0; s < S; ++s) {
      const std::size_t base = s * slice_stride() + r * row_stride() + col_begin * P;
      bool nonzero = false;
      for (std::size_t j = 0; j < n; ++j)
        nonzero |= write_cell(base + j * P, row[j], s, w, rngs[j], verify);
      if (nonzero) slice_zero_[s] = 0;
    }
  }
  counters_.cells_programmed += n * active_rows_ * S * P;
  counters_.write_pulses += w.pulses;
}

void Crossbar::clamp_cell(std::size_t idx, float level) {
  stuck_[idx] = level;
  cells_[idx] = level;
  const std::size_t s = idx / slice_stride();
  // A nonzero clamp makes the plane non-elidable; a zero clamp leaves the
  // (conservative) flag alone — the cell really does read zero.
  if (level != 0.0f) slice_zero_[s] = 0;
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
  const std::size_t P = pitch();
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t r = 0; r < active_rows_; ++r) {
      const std::size_t base = s * slice_stride() + r * row_stride() + col * P;
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
  for (std::size_t idx = 0; idx < cells_.size(); ++idx) clamp_cell(idx, 0.0f);
}

void Crossbar::advance_age(std::uint64_t ticks) {
  NVCIM_CHECK_MSG(active_rows_ > 0, "crossbar region not initialized");
  age_ += ticks;
  const double f = nvm::drift_factor(drift_rate_, ticks);
  if (f == 1.0) return;
  const std::size_t S = cfg_.n_slices();
  const std::size_t P = pitch();
  for (std::size_t s = 0; s < S; ++s) {
    if (slice_zero_[s]) continue;  // all-zero plane: nothing to decay
    for (std::size_t r = 0; r < active_rows_; ++r) {
      for (std::size_t c = 0; c < active_cols_; ++c) {
        const std::size_t base = s * slice_stride() + r * row_stride() + c * P;
        for (std::size_t p = 0; p < P; ++p) {
          const std::size_t idx = base + p;
          if (cells_[idx] == 0.0f) continue;  // zero decays to zero
          if (!stuck_.empty() && stuck_.find(idx) != stuck_.end()) continue;
          cells_[idx] = static_cast<float>(static_cast<double>(cells_[idx]) * f);
        }
      }
    }
  }
}

ColumnProbe Crossbar::probe_column(std::size_t col) const {
  NVCIM_CHECK_MSG(active_rows_ > 0, "crossbar region not initialized");
  NVCIM_CHECK_MSG(col < active_cols_, "column " << col << " out of range");
  ColumnProbe pr;
  const std::size_t S = cfg_.n_slices();
  const std::size_t P = pitch();
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t r = 0; r < active_rows_; ++r) {
      const std::size_t base = s * slice_stride() + r * row_stride() + col * P;
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
  const std::size_t P = pitch();
  Matrix out(active_rows_, active_cols_, 0.0f);
  for (std::size_t s = 0; s < S; ++s) {
    const double shift = slice_shift_[s];
    if (slice_zero_[s]) continue;
    for (std::size_t r = 0; r < active_rows_; ++r) {
      const float* row = cells_.data() + s * slice_stride() + r * row_stride();
      for (std::size_t c = 0; c < active_cols_; ++c) {
        double v = row[c * P];
        if (cfg_.differential) v -= row[c * P + 1];
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
  const std::size_t P = pitch();
  Matrix y(x.rows(), active_cols_, 0.0f);

  for (std::size_t m = 0; m < x.rows(); ++m) {
    // ADC full scale: the worst-case column current given this input vector
    // (Σ|x_i| times the max cell level), per NeuroSim's input-referred model.
    double abs_in = 0.0;
    for (std::size_t i = 0; i < x.cols(); ++i) abs_in += std::fabs(x(m, i));
    const double full_scale = abs_in * denorm;

    for (std::size_t s = 0; s < S; ++s) {
      const double shift = slice_shift_[s];
      counters_.subarray_activations += P;
      counters_.adc_conversions += P * active_cols_;
      if (slice_zero_[s]) continue;  // contributes exactly zero
      const float* plane = cells_.data() + s * slice_stride();
      for (std::size_t c = 0; c < active_cols_; ++c) {
        double acc_pos = 0.0, acc_neg = 0.0;
        const float* cell = plane + c * P;
        for (std::size_t r = 0; r < active_rows_; ++r, cell += row_stride()) {
          acc_pos += static_cast<double>(x(m, r)) * cell[0];
          if (cfg_.differential) acc_neg += static_cast<double>(x(m, r)) * cell[1];
        }
        const double v =
            adc_quantize(acc_pos, full_scale) - adc_quantize(acc_neg, full_scale);
        y(m, c) += static_cast<float>(shift * v);
      }
    }
  }
  return y;
}

/// Fused slice kernel, iterated slice-major with register/L1 blocking: each
/// slice's interleaved [G+ G−] plane is swept once per query tile (the
/// scalar matvec() re-streams every plane per query), feeding a resident
/// kTile×kBlk accumulator block, then one ADC/shift pass with a hoisted
/// per-query LSB folds the block into the output rows. It is bit-identical
/// to matvec() because (a) every accumulator element
/// still sums rows r = 0..R-1 in ascending order starting from zero, and
/// (b) each output element still receives its per-slice contributions in
/// ascending slice order — only the interleaving of independent (query,
/// column) partial sums changed.
void Crossbar::fused_matvec(const Matrix& x, Matrix& y, const CandidateSet* candidates,
                            std::size_t col_offset) {
  const std::size_t S = cfg_.n_slices();
  const std::size_t B = x.rows();
  const double denorm = static_cast<double>(cfg_.levels() - 1);
  const std::size_t P = pitch();
  const std::size_t lane = row_stride();

  // ADC full scale per query row: the worst-case column current given that
  // input vector (Σ|x_i| times the max cell level), per NeuroSim's
  // input-referred model. The LSB (full_scale / n_codes) is hoisted here —
  // identical operands to the per-element adc_quantize() computation.
  fullscale_.resize(B);
  lsb_.resize(B);
  const bool adc_on = cfg_.adc_bits != 0;
  const double n_codes = static_cast<double>((1ull << cfg_.adc_bits) - 1);
  for (std::size_t m = 0; m < B; ++m) {
    const float* xrow = x.data() + m * x.cols();
    double abs_in = 0.0;
    for (std::size_t i = 0; i < x.cols(); ++i) abs_in += std::fabs(xrow[i]);
    fullscale_[m] = abs_in * denorm;
    lsb_[m] = adc_on && fullscale_[m] > 0.0 ? fullscale_[m] / n_codes : 0.0;
  }

  // Register blocking: kTile queries × kBlk accumulator columns per pass.
  // The four per-query blocks live in vector registers across the entire
  // row sweep (a kernel that re-loads and re-stores a full accumulator lane
  // every row is bound by that L1 traffic, not by the FMAs),
  // each plane element is loaded once per query tile and feeds all four
  // queries' FMAs, and each pass reads a kBlk-wide column stripe of the
  // plane exactly once. Iteration order over (query, column block) changes
  // only WHICH element's sum is formed when; every accumulator element
  // still sums rows r = 0..R-1 in ascending order starting from zero,
  // exactly as matvec()'s per-column loop — so results are bit-identical.
  constexpr std::size_t kTile = 4;
  constexpr std::size_t kBlk = kAccumulatorLanes;
  const std::size_t rows = active_rows_;

  // Candidate masking: one byte per (query, column block) saying whether any
  // candidate key lands in that block's output columns. kBlk interleaved
  // accumulators cover kBlk/P output columns, so block boundaries align with
  // whole columns and a cleared byte skips the block's entire row sweep.
  const std::size_t n_blocks = (lane + kBlk - 1) / kBlk;
  const bool masked = candidates != nullptr;
  std::size_t computed_cols = masked ? 0 : B * active_cols_;
  if (masked) {
    block_need_.assign(B * n_blocks, 0);
    for (std::size_t m = 0; m < B; ++m) {
      for (std::size_t bk = 0; bk < n_blocks; ++bk) {
        const std::size_t c_lo = bk * kBlk / P;
        const std::size_t c_hi = std::min(active_cols_, ((bk + 1) * kBlk + P - 1) / P);
        // Columns beyond the candidate set's width (possible when a mutable
        // store grew after the bitmap was routed) are never candidates.
        const std::size_t k_lo = col_offset + c_lo;
        const std::size_t k_hi = std::min(col_offset + c_hi, candidates->n_keys);
        if (k_lo < k_hi && candidates->any_in_range(m, k_lo, k_hi)) {
          block_need_[m * n_blocks + bk] = 1;
          computed_cols += c_hi - c_lo;
        }
      }
    }
  }
  const auto need = [&](std::size_t m, std::size_t k0) {
    return !masked || block_need_[m * n_blocks + k0 / kBlk] != 0;
  };

  // Subarray activations follow the input-side schedule (a plane activation
  // is shared by every column of the wave); ADC conversions advance only for
  // computed (query, column) pairs, so candidate pruning shows up in the
  // cost model exactly where the hardware saves — column reads.
  counters_.subarray_activations += B * S * P;
  counters_.adc_conversions += S * P * computed_cols;

  // ADC + shift fold of one query's accumulator block into its output row.
  const auto fold = [&](std::size_t m, const double* bt, std::size_t k0, std::size_t kb,
                        double shift) {
    const double lsb = lsb_[m];
    const auto quantize = [lsb](double analog) {
      return lsb > 0.0 ? std::round(analog / lsb) * lsb : analog;
    };
    float* yrow = y.data() + m * active_cols_;
    if (cfg_.differential) {
      for (std::size_t j = 0; j < kb; j += 2) {
        const double v = quantize(bt[j]) - quantize(bt[j + 1]);
        yrow[(k0 + j) / 2] += static_cast<float>(shift * v);
      }
    } else {
      for (std::size_t j = 0; j < kb; ++j)
        yrow[k0 + j] += static_cast<float>(shift * quantize(bt[j]));
    }
  };

  for (std::size_t s = 0; s < S; ++s) {
    if (slice_zero_[s]) continue;  // contributes exactly zero
    const double shift = slice_shift_[s];
    const float* plane = cells_.data() + s * slice_stride();
    std::size_t m0 = 0;
    for (; m0 + kTile <= B; m0 += kTile) {
      const float* x0 = x.data() + (m0 + 0) * x.cols();
      const float* x1 = x.data() + (m0 + 1) * x.cols();
      const float* x2 = x.data() + (m0 + 2) * x.cols();
      const float* x3 = x.data() + (m0 + 3) * x.cols();
      std::size_t k0 = 0;
      for (; k0 + kBlk <= lane; k0 += kBlk) {
        const bool n0 = need(m0 + 0, k0), n1 = need(m0 + 1, k0);
        const bool n2 = need(m0 + 2, k0), n3 = need(m0 + 3, k0);
        if (!(n0 || n1 || n2 || n3)) continue;  // no candidate in this block
        double b0[kBlk] = {}, b1[kBlk] = {}, b2[kBlk] = {}, b3[kBlk] = {};
        const float* col = plane + k0;
        for (std::size_t r = 0; r < rows; ++r, col += lane) {
          const double v0 = x0[r], v1 = x1[r], v2 = x2[r], v3 = x3[r];
          for (std::size_t j = 0; j < kBlk; ++j) {
            const double p = col[j];
            b0[j] += v0 * p;
            b1[j] += v1 * p;
            b2[j] += v2 * p;
            b3[j] += v3 * p;
          }
        }
        if (n0) fold(m0 + 0, b0, k0, kBlk, shift);
        if (n1) fold(m0 + 1, b1, k0, kBlk, shift);
        if (n2) fold(m0 + 2, b2, k0, kBlk, shift);
        if (n3) fold(m0 + 3, b3, k0, kBlk, shift);
      }
      if (k0 < lane) {  // column remainder, full query tile
        const bool n0 = need(m0 + 0, k0), n1 = need(m0 + 1, k0);
        const bool n2 = need(m0 + 2, k0), n3 = need(m0 + 3, k0);
        if (!(n0 || n1 || n2 || n3)) continue;
        const std::size_t kb = lane - k0;
        double b0[kBlk] = {}, b1[kBlk] = {}, b2[kBlk] = {}, b3[kBlk] = {};
        const float* col = plane + k0;
        for (std::size_t r = 0; r < rows; ++r, col += lane) {
          const double v0 = x0[r], v1 = x1[r], v2 = x2[r], v3 = x3[r];
          for (std::size_t j = 0; j < kb; ++j) {
            const double p = col[j];
            b0[j] += v0 * p;
            b1[j] += v1 * p;
            b2[j] += v2 * p;
            b3[j] += v3 * p;
          }
        }
        if (n0) fold(m0 + 0, b0, k0, kb, shift);
        if (n1) fold(m0 + 1, b1, k0, kb, shift);
        if (n2) fold(m0 + 2, b2, k0, kb, shift);
        if (n3) fold(m0 + 3, b3, k0, kb, shift);
      }
    }
    for (; m0 < B; ++m0) {  // query remainder, one query at a time
      const float* xq = x.data() + m0 * x.cols();
      for (std::size_t k0 = 0; k0 < lane; k0 += kBlk) {
        if (!need(m0, k0)) continue;
        const std::size_t kb = std::min(kBlk, lane - k0);
        double b0[kBlk] = {};
        const float* col = plane + k0;
        for (std::size_t r = 0; r < rows; ++r, col += lane) {
          const double v0 = xq[r];
          for (std::size_t j = 0; j < kb; ++j) b0[j] += v0 * col[j];
        }
        fold(m0, b0, k0, kb, shift);
      }
    }
  }
}

void Crossbar::matvec_batch_into(const Matrix& x, Matrix& y, const CandidateSet* candidates,
                                 std::size_t col_offset) {
  NVCIM_CHECK_MSG(active_rows_ > 0, "crossbar not programmed");
  NVCIM_CHECK_MSG(x.cols() == active_rows_, "input width " << x.cols() << " != programmed rows "
                                                           << active_rows_);
  if (candidates != nullptr) {
    NVCIM_CHECK_MSG(candidates->n_queries == x.rows(),
                    "candidate set covers " << candidates->n_queries << " queries, batch has "
                                            << x.rows());
    // The candidate set may be NARROWER than this subarray's column span: a
    // mutable store can grow capacity after a batch routed its bitmaps
    // against an earlier epoch. Columns beyond n_keys are simply never
    // candidates (they belong to users admitted after the batch pinned).
  }
  y.resize(x.rows(), active_cols_);
  y.fill(0.0f);
  fused_matvec(x, y, candidates, col_offset);
}

Matrix Crossbar::matvec_batch(const Matrix& x) {
  Matrix y;
  matvec_batch_into(x, y);
  return y;
}

}  // namespace nvcim::cim
