#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "nvcim/common/check.hpp"

namespace nvcim::cim {

/// One retrieval pass over the key columns of a bank: query row r scores
/// only keys [begin(r), end(r)) — its tenant's slot — and every layer writes
/// a compact rows() × width() score block whose column j of row r is key
/// begin(r) + j (columns past a row's span stay exact 0). On routed passes a
/// mask narrows each span to the router's shortlist; unmasked, every span
/// key is a candidate. The fused kernel prunes at accumulator-block
/// granularity: a block holding no candidate of its row is skipped, so its
/// span columns come back exact 0, while a computed block's non-candidate
/// columns carry their exact scores — callers argmax over candidates only.
class PassSpans {
 public:
  /// No rows, no mask.
  void clear() {
    spans_.clear();
    mask_.clear();
    width_ = 0;
  }

  /// Append a row scoring keys [begin, end) (an empty span scores nothing).
  void add_row(std::size_t begin, std::size_t end) {
    NVCIM_CHECK_MSG(begin <= end, "reversed span [" << begin << ", " << end << ")");
    NVCIM_CHECK_MSG(mask_.empty(), "rows must be added before the candidate mask");
    spans_.push_back({begin, end});
    width_ = std::max(width_, end - begin);
  }

  /// Start a routed mask over the current rows: no key is a candidate.
  void clear_candidates() { mask_.assign(spans_.size() * width_, 0); }
  /// Mark key begin(r) + j a candidate of row r (after clear_candidates()).
  void set_candidate(std::size_t r, std::size_t j) {
    NVCIM_CHECK_MSG(j < end(r) - begin(r), "candidate " << j << " outside row " << r << "'s span");
    mask_[r * width_ + j] = 1;
  }

  std::size_t rows() const { return spans_.size(); }
  /// Widest span: the column count of the compact score block.
  std::size_t width() const { return width_; }
  std::size_t begin(std::size_t r) const { return spans_[r].first; }
  std::size_t end(std::size_t r) const { return spans_[r].second; }

  /// True when some row's span overlaps keys [lo, hi).
  bool reaches(std::size_t lo, std::size_t hi) const {
    for (const auto& [b, e] : spans_)
      if (std::max(b, lo) < std::min(e, hi)) return true;
    return false;
  }
  /// True when key begin(r) + j is a candidate of row r.
  bool candidate(std::size_t r, std::size_t j) const {
    return j < end(r) - begin(r) && (mask_.empty() || mask_[r * width_ + j] != 0);
  }
  /// True when some key begin(r) + j, j in [j_lo, j_hi), is a candidate.
  bool any_candidate(std::size_t r, std::size_t j_lo, std::size_t j_hi) const {
    j_hi = std::min(j_hi, end(r) - begin(r));
    if (mask_.empty()) return j_lo < j_hi;
    for (std::size_t j = j_lo; j < j_hi; ++j)
      if (mask_[r * width_ + j] != 0) return true;
    return false;
  }
  /// Candidates of row r.
  std::size_t count_row(std::size_t r) const {
    std::size_t n = 0;
    for (std::size_t j = 0; j < end(r) - begin(r); ++j) n += candidate(r, j) ? 1 : 0;
    return n;
  }

 private:
  std::vector<std::pair<std::size_t, std::size_t>> spans_;  ///< [begin, end) per row
  /// Row-major rows() × width() flags (bytes, not packed bits: the kernel
  /// reads them in per-block loops); empty when unmasked.
  std::vector<std::uint8_t> mask_;
  std::size_t width_ = 0;
};

}  // namespace nvcim::cim
