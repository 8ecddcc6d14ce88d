#include "nvcim/cim/accelerator.hpp"

#include <algorithm>

namespace nvcim::cim {

void Accelerator::store(const Matrix& keys, Rng& rng) {
  NVCIM_CHECK_MSG(keys.rows() > 0 && keys.cols() > 0, "empty key matrix");
  mutable_mode_ = false;
  col_scale_.clear();
  n_keys_ = keys.rows();
  key_len_ = keys.cols();

  QuantizedMatrix q = quantize_symmetric(keys, static_cast<int>(cfg_.value_bits));
  scale_ = q.scale;
  keys_ref_ = q.q * q.scale;

  const Matrix kt = q.q.transposed();  // len × n_keys
  row_tiles_ = (key_len_ + cfg_.rows - 1) / cfg_.rows;
  col_tiles_ = (n_keys_ + cfg_.cols - 1) / cfg_.cols;
  tiles_.assign(row_tiles_ * col_tiles_, Crossbar(cfg_));
  for (std::size_t rt = 0; rt < row_tiles_; ++rt) {
    const std::size_t r0 = rt * cfg_.rows;
    const std::size_t r1 = std::min(r0 + cfg_.rows, key_len_);
    for (std::size_t ct = 0; ct < col_tiles_; ++ct) {
      const std::size_t c0 = ct * cfg_.cols;
      const std::size_t c1 = std::min(c0 + cfg_.cols, n_keys_);
      Rng tile_rng = rng.split(rt * 7919 + ct);
      tile(rt, ct).program(kt.row_slice(r0, r1).col_slice(c0, c1), var_, tile_rng);
    }
  }
}

void Accelerator::init_mutable(std::size_t key_len, std::size_t capacity_cols, const Rng& base) {
  NVCIM_CHECK_MSG(key_len > 0 && capacity_cols > 0, "empty mutable store");
  mutable_mode_ = true;
  base_rng_ = base;
  key_len_ = key_len;
  row_tiles_ = (key_len_ + cfg_.rows - 1) / cfg_.rows;
  col_tiles_ = 0;
  n_keys_ = 0;
  tiles_.clear();
  col_scale_.clear();
  keys_ref_.resize(0, key_len_);
  ensure_capacity(capacity_cols);
}

void Accelerator::ensure_capacity(std::size_t n_cols) {
  NVCIM_CHECK_MSG(mutable_mode_, "ensure_capacity requires init_mutable");
  if (n_cols <= n_keys_) return;
  // Capacity rounds up to whole subarrays and every tile spans the full
  // column width. Tiles are stored column-tile-major, so growth only appends
  // each new column tile's row bands: the cell layout (and hence the MVM
  // arithmetic) of existing columns is invariant under growth.
  const std::size_t new_ct = (n_cols + cfg_.cols - 1) / cfg_.cols;
  tiles_.reserve(row_tiles_ * new_ct);
  for (; col_tiles_ < new_ct; ++col_tiles_) {
    for (std::size_t rt = 0; rt < row_tiles_; ++rt) {
      tiles_.emplace_back(cfg_);
      tiles_.back().init_blank(std::min(cfg_.rows, key_len_ - rt * cfg_.rows), cfg_.cols);
    }
  }
  n_keys_ = col_tiles_ * cfg_.cols;
  col_scale_.resize(n_keys_, 0.0f);
  keys_ref_.resize(n_keys_, key_len_);  // appended rows are zero
}

void Accelerator::program_keys(const Matrix& keys, std::size_t col_begin) {
  NVCIM_CHECK_MSG(mutable_mode_, "program_keys requires init_mutable");
  NVCIM_CHECK_MSG(keys.rows() > 0 && keys.cols() == key_len_,
                  "keys must be Nx" << key_len_);
  const std::size_t n = keys.rows();
  NVCIM_CHECK_MSG(col_begin + n <= n_keys_,
                  "columns [" << col_begin << ", " << col_begin + n
                              << ") exceed capacity " << n_keys_);
  // Quantize every key once (the per-KEY scale is the bit-identity anchor:
  // it must not depend on which keys share the batch).
  Matrix qall(n, key_len_);
  for (std::size_t j = 0; j < n; ++j) {
    const QuantizedMatrix q =
        quantize_symmetric(keys.row(j), static_cast<int>(cfg_.value_bits));
    col_scale_[col_begin + j] = q.scale;
    for (std::size_t i = 0; i < key_len_; ++i) {
      qall(j, i) = q.q(0, i);
      keys_ref_(col_begin + j, i) = q.q(0, i) * q.scale;
    }
  }
  // Tile-major: one program_columns call per touched (row band, column
  // tile), with the span's segment matrix and per-column streams built once.
  Matrix seg;
  std::vector<Rng> rngs;
  for (std::size_t rt = 0; rt < row_tiles_; ++rt) {
    const std::size_t r0 = rt * cfg_.rows;
    const std::size_t r1 = std::min(r0 + cfg_.rows, key_len_);
    for (std::size_t ct = col_begin / cfg_.cols; ct * cfg_.cols < col_begin + n; ++ct) {
      const std::size_t c0 = std::max(col_begin, ct * cfg_.cols);
      const std::size_t c1 = std::min(col_begin + n, (ct + 1) * cfg_.cols);
      const std::size_t span = c1 - c0;
      seg.resize(span, r1 - r0);
      rngs.clear();
      rngs.reserve(span);
      for (std::size_t c = c0; c < c1; ++c) {
        const std::size_t j = c - col_begin;
        for (std::size_t i = r0; i < r1; ++i) seg(c - c0, i - r0) = qall(j, i);
        // One stream per (row band, global column): a column's draws never
        // depend on batch composition, programming order or what else is or
        // was programmed — the bit-identity anchor of the lifecycle path.
        rngs.push_back(base_rng_.split(rt * 0x100000001B3ull + c));
      }
      tile(rt, ct).program_columns(seg, c0 % cfg_.cols, var_, rngs.data());
    }
  }
}

void Accelerator::apply_scales(Matrix& y, const PassSpans* spans) const {
  if (!mutable_mode_) {
    y *= scale_;
    return;
  }
  for (std::size_t b = 0; b < y.rows(); ++b) {
    float* row = y.data() + b * y.cols();
    const float* scale = col_scale_.data() + (spans != nullptr ? spans->begin(b) : 0);
    const std::size_t n = spans != nullptr ? spans->end(b) - spans->begin(b) : y.cols();
    for (std::size_t c = 0; c < n; ++c) row[c] *= scale[c];
  }
}

Matrix Accelerator::query(const Matrix& x) {
  NVCIM_CHECK_MSG(!tiles_.empty(), "no keys stored");
  NVCIM_CHECK_MSG(x.rows() == 1 && x.cols() == key_len_,
                  "query must be 1x" << key_len_);
  Matrix y(1, n_keys_, 0.0f);
  for (std::size_t rt = 0; rt < row_tiles_; ++rt) {
    const std::size_t r0 = rt * cfg_.rows;
    const std::size_t r1 = std::min(r0 + cfg_.rows, key_len_);
    const Matrix xs = x.col_slice(r0, r1);
    for (std::size_t ct = 0; ct < col_tiles_; ++ct) {
      const std::size_t c0 = ct * cfg_.cols;
      Matrix part = tile(rt, ct).matvec(xs);
      for (std::size_t c = 0; c < part.cols(); ++c) y(0, c0 + c) += part(0, c);
    }
  }
  apply_scales(y, nullptr);
  return y;
}

Matrix Accelerator::query_batch(const Matrix& x) {
  Matrix y;
  BatchScratch scratch;
  query_batch_into(x, y, scratch);
  return y;
}

void Accelerator::query_batch_into(const Matrix& x, Matrix& y, BatchScratch& scratch,
                                   const PassSpans* spans) {
  NVCIM_CHECK_MSG(!tiles_.empty(), "no keys stored");
  NVCIM_CHECK_MSG(x.rows() >= 1 && x.cols() == key_len_,
                  "queries must be Bx" << key_len_);
  const std::size_t B = x.rows();
  if (spans != nullptr) {
    NVCIM_CHECK_MSG(spans->rows() == B, "pass spans cover " << spans->rows()
                                                            << " rows, batch has " << B);
    for (std::size_t b = 0; b < B; ++b)
      NVCIM_CHECK_MSG(spans->end(b) <= n_keys_, "span [" << spans->begin(b) << ", "
                                                        << spans->end(b) << ") of row " << b
                                                        << " exceeds " << n_keys_ << " keys");
  }
  y.resize(B, spans != nullptr ? spans->width() : n_keys_);
  y.fill(0.0f);
  for (std::size_t rt = 0; rt < row_tiles_; ++rt) {
    const std::size_t r0 = rt * cfg_.rows;
    const std::size_t r1 = std::min(r0 + cfg_.rows, key_len_);
    // Single row tile: feed the query block straight through, no column copy.
    const Matrix* xs = &x;
    if (row_tiles_ > 1) {
      scratch.xs.resize(B, r1 - r0);
      for (std::size_t b = 0; b < B; ++b)
        std::copy(x.data() + b * key_len_ + r0, x.data() + b * key_len_ + r1,
                  scratch.xs.data() + b * (r1 - r0));
      xs = &scratch.xs;
    }
    for (std::size_t ct = 0; ct < col_tiles_; ++ct) {
      const std::size_t c0 = ct * cfg_.cols;
      if (spans != nullptr && !spans->reaches(c0, c0 + cfg_.cols)) continue;
      tile(rt, ct).matvec_batch_into(*xs, scratch.part, scratch.kernel, spans, c0);
      const Matrix& part = scratch.part;
      if (spans != nullptr) {
        y += part;  // compact like y; the columns of other tiles add exact 0
      } else {
        for (std::size_t b = 0; b < B; ++b)
          for (std::size_t c = 0; c < part.cols(); ++c) y(b, c0 + c) += part(b, c);
      }
    }
  }
  apply_scales(y, spans);
}

Matrix Accelerator::query_ideal(const Matrix& x) const {
  NVCIM_CHECK_MSG(keys_ref_.rows() == n_keys_, "no keys stored");
  return matmul_nt(x, keys_ref_);
}

std::size_t Accelerator::inject_column_fault(std::size_t col, nvm::FaultKind kind,
                                             std::size_t cells_per_segment,
                                             std::uint64_t seed) {
  NVCIM_CHECK_MSG(!tiles_.empty(), "no keys stored");
  NVCIM_CHECK_MSG(col < n_keys_, "column " << col << " out of range");
  const std::size_t ct = col / cfg_.cols;
  std::size_t clamped = 0;
  for (std::size_t rt = 0; rt < row_tiles_; ++rt)
    clamped += tile(rt, ct).inject_column_fault(
        col % cfg_.cols, kind, cells_per_segment, seed ^ (rt * 0x9E3779B97F4A7C15ull));
  return clamped;
}

void Accelerator::kill_subarray(std::size_t subarray) {
  NVCIM_CHECK_MSG(subarray < col_tiles_, "subarray " << subarray << " out of range");
  for (std::size_t rt = 0; rt < row_tiles_; ++rt)
    tile(rt, subarray).kill();
}

bool Accelerator::subarray_killed(std::size_t subarray) const {
  NVCIM_CHECK_MSG(subarray < col_tiles_, "subarray " << subarray << " out of range");
  return tile(0, subarray).killed();
}

void Accelerator::set_drift_rate(double rate_per_tick) {
  for (Crossbar& t : tiles_) t.set_drift_rate(rate_per_tick);
}

void Accelerator::advance_age(std::uint64_t ticks) {
  for (Crossbar& t : tiles_) t.advance_age(ticks);
}

ColumnProbe Accelerator::probe_column(std::size_t col) const {
  NVCIM_CHECK_MSG(!tiles_.empty(), "no keys stored");
  NVCIM_CHECK_MSG(col < n_keys_, "column " << col << " out of range");
  const std::size_t ct = col / cfg_.cols;
  ColumnProbe pr;
  for (std::size_t rt = 0; rt < row_tiles_; ++rt)
    pr += tile(rt, ct).probe_column(col % cfg_.cols);
  return pr;
}

OpCounters Accelerator::counters() const {
  OpCounters c;
  for (const Crossbar& t : tiles_) c += t.counters();
  return c;
}

void Accelerator::reset_counters() {
  for (Crossbar& t : tiles_) t.reset_counters();
}

}  // namespace nvcim::cim
