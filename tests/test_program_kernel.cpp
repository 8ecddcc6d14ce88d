// Crossbar write-kernel oracle: every cell written by Crossbar::program and
// Crossbar::program_columns must equal a scalar loop that calls
// nvm::program_cell (or, for program()'s write-verify, nvm::write_verify_cell)
// once per cell, slice and polarity in the documented draw order:
//
//  - program_columns: one pulse per cell; column j draws only from its own
//    stream, rows ascending, slices ascending, G+ before G−;
//  - program: one stream over rows → columns → slices, G+ before G−.
//
// This is the write kernel's oracle, as scalar matvec is the fused MVM
// kernel's: the kernel's loop order and hoisted per-nibble tables may change,
// the bits may not. Counters, golden probes and the stuck-cell model are
// checked alongside.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "nvcim/cim/crossbar.hpp"
#include "nvcim/cim/quant.hpp"

namespace nvcim {
namespace {

const nvm::VariationModel kVar{nvm::fefet3(), 0.1};

/// Expected cells of a crossbar region, indexed like Crossbar::cell_level.
struct Oracle {
  Oracle(const cim::CrossbarConfig& cfg, std::size_t rows, std::size_t cols)
      : cfg(cfg), rows(rows), cols(cols), cells(cfg.n_slices() * rows * cols * 2, 0.0f) {}

  float& at(std::size_t s, std::size_t r, std::size_t c, bool neg) {
    return cells[((s * rows + r) * cols + c) * 2 + (neg ? 1 : 0)];
  }

  /// Program value `v` into every slice of cell (r, c) from `rng`, one
  /// scalar nvm call per cell and polarity.
  void program_value(std::size_t r, std::size_t c, long v, Rng& rng, bool verify,
                     const cim::ProgramOptions& opts) {
    const double denorm = static_cast<double>(cfg.levels() - 1);
    const long mask = static_cast<long>(cfg.levels()) - 1;
    const long pos = v > 0 ? v : 0, neg = v < 0 ? -v : 0;
    const auto draw = [&](long nibble) {
      const double normalized = static_cast<double>(nibble) / denorm;
      if (!verify) {
        ++pulses;
        return static_cast<float>(nvm::program_cell(normalized, kVar, rng) * denorm);
      }
      const nvm::WriteVerifyResult wv = nvm::write_verify_cell(
          normalized, kVar, rng, opts.verify_tolerance, opts.max_write_iterations);
      pulses += wv.pulses;
      return static_cast<float>(wv.conductance * denorm);
    };
    for (std::size_t s = 0; s < cfg.n_slices(); ++s) {
      const std::size_t shift = s * cim::Crossbar::kBitsPerCell;
      at(s, r, c, false) = draw((pos >> shift) & mask);
      at(s, r, c, true) = draw((neg >> shift) & mask);
      cells_programmed += 2;
    }
  }

  cim::CrossbarConfig cfg;
  std::size_t rows, cols;
  std::vector<float> cells;
  std::size_t cells_programmed = 0, pulses = 0;
};

/// Random exact integers in the crossbar's value range, with some zeros so
/// all-zero nibbles occur.
long random_value(const cim::CrossbarConfig& cfg, Rng& rng) {
  const long vmax = cim::qmax_for_bits(static_cast<int>(cfg.value_bits));
  if (rng.uniform_index(8) == 0) return 0;
  const long mag = static_cast<long>(rng.uniform_index(static_cast<std::size_t>(vmax) + 1));
  return rng.uniform_index(2) == 0 ? -mag : mag;
}

std::uint32_t bits_of(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

void expect_cells_match(const cim::Crossbar& xb, Oracle& oracle) {
  for (std::size_t s = 0; s < oracle.cfg.n_slices(); ++s)
    for (std::size_t r = 0; r < oracle.rows; ++r)
      for (std::size_t c = 0; c < oracle.cols; ++c)
        for (const bool neg : {false, true}) {
          ASSERT_EQ(xb.cell_level(s, r, c, neg), oracle.at(s, r, c, neg))
              << "slice " << s << " cell (" << r << ", " << c << ") neg=" << neg;
        }
}

/// Program an unaligned span [3, 10) of a 13×12 region with per-column
/// streams, then compare against the scalar oracle.
TEST(ProgramKernel, ColumnsMatchScalarOracleDifferential) {
  cim::CrossbarConfig cfg;
  cfg.rows = 13;
  cfg.cols = 12;
  const std::size_t col0 = 3, n = 7;
  const Rng base(9001);
  Rng vr(1);
  Matrix vals(n, cfg.rows);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t r = 0; r < cfg.rows; ++r)
      vals(j, r) = static_cast<float>(random_value(cfg, vr));

  cim::Crossbar xb(cfg);
  xb.init_blank(cfg.rows, cfg.cols);
  std::vector<Rng> streams;
  for (std::size_t j = 0; j < n; ++j) streams.push_back(base.split(j));
  xb.program_columns(vals, col0, kVar, streams.data());

  Oracle oracle(cfg, cfg.rows, cfg.cols);
  for (std::size_t j = 0; j < n; ++j) {
    Rng stream = base.split(j);
    for (std::size_t r = 0; r < cfg.rows; ++r)
      oracle.program_value(r, col0 + j, static_cast<long>(vals(j, r)), stream, false, {});
  }
  expect_cells_match(xb, oracle);  // columns outside the span stay exactly 0
  EXPECT_EQ(xb.counters().cells_programmed, oracle.cells_programmed);
  EXPECT_EQ(xb.counters().write_pulses, oracle.pulses);
  EXPECT_EQ(oracle.pulses, oracle.cells_programmed);  // one pulse per cell
  for (std::size_t c = 0; c < cfg.cols; ++c)
    EXPECT_EQ(xb.probe_column(c).deviant, 0u) << "column " << c;
}

cim::ProgramOptions write_verify() {
  cim::ProgramOptions opts;
  opts.verify_tolerance = 0.05;
  opts.max_write_iterations = 4;
  return opts;
}

TEST(ProgramKernel, ProgramMatchesSingleStreamOracle) {
  cim::CrossbarConfig cfg;
  cfg.rows = 16;
  cfg.cols = 12;
  const std::size_t rows = 11, cols = 9;  // top-left corner of the subarray
  Rng vr(3);
  Matrix vals(rows, cols);
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals.at_flat(i) = static_cast<float>(random_value(cfg, vr));
  Matrix mask(rows, cols, 0.0f);
  for (std::size_t i = 0; i < mask.size(); i += 3) mask.at_flat(i) = 1.0f;

  for (int variant = 0; variant < 3; ++variant) {
    cim::ProgramOptions opts;
    if (variant > 0) opts = write_verify();
    if (variant == 2) opts.verify_mask = &mask;  // selective write-verify
    cim::Crossbar xb(cfg);
    Rng rng(17);
    xb.program(vals, kVar, rng, opts);

    Oracle oracle(cfg, rows, cols);
    Rng stream(17);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c) {
        const bool verify = variant > 0 && (variant == 1 || mask(r, c) > 0.0f);
        oracle.program_value(r, c, static_cast<long>(vals(r, c)), stream, verify, opts);
      }
    SCOPED_TRACE("variant " + std::to_string(variant));
    expect_cells_match(xb, oracle);
    EXPECT_EQ(xb.counters().cells_programmed, oracle.cells_programmed);
    EXPECT_EQ(xb.counters().write_pulses, oracle.pulses);
    for (std::size_t c = 0; c < cols; ++c) EXPECT_EQ(xb.probe_column(c).deviant, 0u);
    // The stream is left exactly where the scalar loop left it.
    EXPECT_EQ(rng.next_u64(), stream.next_u64());
  }
}

TEST(ProgramKernel, StuckCellStaysPinnedWhileItsShadowUpdates) {
  cim::CrossbarConfig cfg;
  cfg.rows = 12;
  cfg.cols = 8;
  const std::size_t col = 5;
  const Rng base(123);
  Rng vr(4);
  const auto program_all = [&](cim::Crossbar& xb, Oracle& oracle, std::uint64_t salt) {
    Matrix vals(cfg.cols, cfg.rows);
    for (std::size_t i = 0; i < vals.size(); ++i)
      vals.at_flat(i) = static_cast<float>(random_value(cfg, vr));
    std::vector<Rng> streams;
    for (std::size_t c = 0; c < cfg.cols; ++c) streams.push_back(base.split(salt + c));
    xb.program_columns(vals, 0, kVar, streams.data());
    for (std::size_t c = 0; c < cfg.cols; ++c) {
      Rng stream = base.split(salt + c);
      for (std::size_t r = 0; r < cfg.rows; ++r)
        oracle.program_value(r, c, static_cast<long>(vals(c, r)), stream, false, {});
    }
  };

  cim::Crossbar xb(cfg);
  xb.init_blank(cfg.rows, cfg.cols);
  Oracle first(cfg, cfg.rows, cfg.cols);
  program_all(xb, first, 0);
  const float stuck = static_cast<float>(nvm::stuck_level(nvm::FaultKind::StuckAtOn, cfg.levels()));
  const std::size_t pinned = xb.inject_column_fault(col, nvm::FaultKind::StuckAtOn, 20, 7);
  ASSERT_EQ(pinned, 20u);

  // Reprogram every column with fresh values and streams.
  Oracle second(cfg, cfg.rows, cfg.cols);
  program_all(xb, second, 1000);
  std::size_t differing = 0;
  double max_dev = 0.0;
  for (std::size_t s = 0; s < cfg.n_slices(); ++s)
    for (std::size_t r = 0; r < cfg.rows; ++r)
      for (std::size_t c = 0; c < cfg.cols; ++c)
        for (const bool neg : {false, true}) {
          const float got = xb.cell_level(s, r, c, neg);
          const float want = second.at(s, r, c, neg);
          if (got == want) continue;
          // Only stuck cells of the faulted column may differ, and they read
          // the stuck level, not the fresh write.
          ASSERT_EQ(c, col) << "slice " << s << " cell (" << r << ", " << c << ")";
          ASSERT_EQ(got, stuck);
          ++differing;
          max_dev = std::max(max_dev, std::fabs(static_cast<double>(stuck) - want));
        }
  EXPECT_GT(differing, 0u);
  EXPECT_LE(differing, pinned);
  EXPECT_EQ(xb.n_stuck_cells(), pinned);
  // The pristine shadow took the fresh write: the probe sees exactly the
  // stuck cells whose new level differs from the pin, by exactly that much.
  const cim::ColumnProbe probe = xb.probe_column(col);
  EXPECT_EQ(probe.deviant, differing);
  EXPECT_EQ(probe.max_deviation, max_dev);
  for (std::size_t c = 0; c < cfg.cols; ++c) {
    if (c != col) {
      EXPECT_EQ(xb.probe_column(c).deviant, 0u) << "column " << c;
    }
  }
}

TEST(ProgramKernel, OutOfRangeValueInSpanWritesNothing) {
  cim::CrossbarConfig cfg;
  cfg.rows = 10;
  cfg.cols = 6;
  const Rng base(55);
  Rng vr(5);
  cim::Crossbar xb(cfg);
  xb.init_blank(cfg.rows, cfg.cols);
  {
    Matrix vals(cfg.cols, cfg.rows);
    for (std::size_t i = 0; i < vals.size(); ++i)
      vals.at_flat(i) = static_cast<float>(random_value(cfg, vr));
    std::vector<Rng> streams;
    for (std::size_t c = 0; c < cfg.cols; ++c) streams.push_back(base.split(c));
    xb.program_columns(vals, 0, kVar, streams.data());
  }
  const cim::Crossbar before = xb;

  // A span whose last column holds a value beyond int16: valid columns
  // first, so a kernel that validated while writing would already have
  // written three columns when it hit the bad one.
  Matrix bad(4, cfg.rows);
  for (std::size_t i = 0; i < bad.size(); ++i)
    bad.at_flat(i) = static_cast<float>(random_value(cfg, vr));
  bad(3, cfg.rows - 1) = -40000.0f;
  std::vector<Rng> streams;
  for (std::size_t j = 0; j < 4; ++j) streams.push_back(base.split(100 + j));
  EXPECT_THROW(xb.program_columns(bad, 1, kVar, streams.data()), Error);

  for (std::size_t s = 0; s < cfg.n_slices(); ++s)
    for (std::size_t r = 0; r < cfg.rows; ++r)
      for (std::size_t c = 0; c < cfg.cols; ++c)
        for (const bool neg : {false, true})
          ASSERT_EQ(xb.cell_level(s, r, c, neg), before.cell_level(s, r, c, neg))
              << "slice " << s << " cell (" << r << ", " << c << ") neg=" << neg;
  EXPECT_EQ(xb.counters().cells_programmed, before.counters().cells_programmed);
  EXPECT_EQ(xb.counters().write_pulses, before.counters().write_pulses);
}

/// One span [13, 37) of a 40-column region crosses three 16-column blocks
/// (a partial head, one whole block, a partial tail). Written in one
/// program_columns call it must equal the same columns written one call
/// each, cell for cell and score for score; columns outside it stay 0.
TEST(ProgramKernel, SpanAcrossBlockBoundariesMatchesColumnAtATime) {
  cim::CrossbarConfig cfg;
  cfg.rows = 24;
  cfg.cols = 40;
  const std::size_t col0 = 13, n = 24;
  const Rng base(4242);
  Rng vr(6);
  Matrix vals(n, cfg.rows);
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals.at_flat(i) = static_cast<float>(random_value(cfg, vr));

  cim::Crossbar span(cfg), single(cfg);
  span.init_blank(cfg.rows, cfg.cols);
  single.init_blank(cfg.rows, cfg.cols);
  std::vector<Rng> streams;
  for (std::size_t j = 0; j < n; ++j) streams.push_back(base.split(col0 + j));
  span.program_columns(vals, col0, kVar, streams.data());
  for (std::size_t j = 0; j < n; ++j) {
    Matrix one(1, cfg.rows);
    for (std::size_t r = 0; r < cfg.rows; ++r) one(0, r) = vals(j, r);
    Rng stream = base.split(col0 + j);
    single.program_columns(one, col0 + j, kVar, &stream);
  }

  for (std::size_t s = 0; s < cfg.n_slices(); ++s)
    for (std::size_t r = 0; r < cfg.rows; ++r)
      for (std::size_t c = 0; c < cfg.cols; ++c)
        for (const bool neg : {false, true}) {
          const float got = span.cell_level(s, r, c, neg);
          ASSERT_EQ(got, single.cell_level(s, r, c, neg))
              << "slice " << s << " cell (" << r << ", " << c << ") neg=" << neg;
          if (c < col0 || c >= col0 + n) {
            ASSERT_EQ(got, 0.0f) << "slice " << s << " cell (" << r << ", " << c << ")";
          }
        }
  EXPECT_EQ(span.counters().cells_programmed, single.counters().cells_programmed);
  EXPECT_EQ(span.counters().write_pulses, single.counters().write_pulses);

  Rng qr(7);
  const Matrix x = Matrix::randn(5, cfg.rows, qr);
  const Matrix ys = span.matvec_batch(x), y1 = single.matvec_batch(x);
  ASSERT_EQ(ys.size(), y1.size());
  for (std::size_t i = 0; i < ys.size(); ++i)
    ASSERT_EQ(bits_of(ys.at_flat(i)), bits_of(y1.at_flat(i))) << "score " << i;
}

/// The cells are stored in whole 16-column blocks, so a region whose width
/// is not a multiple of 16 carries padding. None of it may show: not in the
/// stuck-cell count, the golden probes, the readback or the kernel.
TEST(CrossbarLayout, PartialBlockPaddingIsInvisible) {
  for (const std::size_t cols : {1, 15, 16, 17, 37, 128}) {
    for (const std::size_t rows : {1, 24, 96}) {
      SCOPED_TRACE(::testing::Message() << rows << "x" << cols);
      cim::CrossbarConfig cfg;
      cfg.rows = rows;
      cfg.cols = cols;
      const std::size_t S = cfg.n_slices();
      Rng vr(rows * 1000 + cols);
      Matrix vals(rows, cols);
      for (std::size_t i = 0; i < vals.size(); ++i)
        vals.at_flat(i) = static_cast<float>(random_value(cfg, vr));

      cim::Crossbar exact(cfg);
      Rng er(1);
      exact.program(vals, {nvm::fefet3(), 0.0}, er);
      EXPECT_TRUE(allclose(exact.read_values(), vals, 1e-3f, 0.0f));

      cim::Crossbar noisy(cfg);
      Rng nr(2);
      noisy.program(vals, kVar, nr);
      for (std::size_t c = 0; c < cols; ++c) {
        const cim::ColumnProbe probe = noisy.probe_column(c);
        EXPECT_EQ(probe.cells, S * rows * 2) << "column " << c;
        EXPECT_EQ(probe.deviant, 0u) << "column " << c;
      }

      Rng qr(3);
      const Matrix x = Matrix::randn(5, rows, qr);
      cim::Crossbar scalar = noisy;
      noisy.reset_counters();
      scalar.reset_counters();
      const Matrix yb = noisy.matvec_batch(x), ys = scalar.matvec(x);
      ASSERT_EQ(yb.size(), ys.size());
      for (std::size_t i = 0; i < yb.size(); ++i)
        ASSERT_EQ(bits_of(yb.at_flat(i)), bits_of(ys.at_flat(i))) << "score " << i;
      EXPECT_EQ(noisy.counters().subarray_activations, scalar.counters().subarray_activations);
      EXPECT_EQ(noisy.counters().adc_conversions, scalar.counters().adc_conversions);

      noisy.kill();
      EXPECT_EQ(noisy.n_stuck_cells(), S * rows * cols * 2);
    }
  }
}

}  // namespace
}  // namespace nvcim
