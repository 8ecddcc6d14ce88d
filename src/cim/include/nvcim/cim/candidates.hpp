#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "nvcim/common/check.hpp"

namespace nvcim::cim {

/// Per-query candidate bitmaps over the key columns of an accelerator: bit
/// (q, k) set means query row q still needs an exact crossbar score for key
/// column k. Produced by a phase-1 router (k-means centroid ranking + low-bit
/// sketch prefilter in the serving store) or, for exact retrieval, by setting
/// each row's whole tenant slot (set_range), and consumed by the fused MVM
/// kernel, which sweeps each accumulator column block only for the rows with
/// a candidate in it. A clear column comes back as exact 0 when its block
/// holds no candidate of its row, and as its exact score otherwise — callers
/// must argmax over candidates only.
struct CandidateSet {
  std::size_t n_queries = 0;
  std::size_t n_keys = 0;
  /// Row-major n_queries × n_keys flags (bytes, not packed bits: the kernel
  /// reads them in tight per-block loops and byte loads beat bit twiddling
  /// at these sizes).
  std::vector<std::uint8_t> bits;

  /// Reset to n_queries × n_keys with every bit clear.
  void reset(std::size_t queries, std::size_t keys) {
    n_queries = queries;
    n_keys = keys;
    bits.assign(queries * keys, 0);
  }

  void set(std::size_t q, std::size_t k) { bits[q * n_keys + k] = 1; }

  /// Set every key in [begin, end) for query q (an empty span is a no-op).
  void set_range(std::size_t q, std::size_t begin, std::size_t end) {
    NVCIM_CHECK_MSG(q < n_queries && begin <= end && end <= n_keys,
                    "span [" << begin << ", " << end << ") of row " << q << " exceeds "
                             << n_queries << "x" << n_keys << " candidate set");
    std::fill(bits.begin() + q * n_keys + begin, bits.begin() + q * n_keys + end, 1);
  }
  bool test(std::size_t q, std::size_t k) const { return bits[q * n_keys + k] != 0; }
  const std::uint8_t* row(std::size_t q) const { return bits.data() + q * n_keys; }

  /// Candidates in one query row.
  std::size_t count_row(std::size_t q) const {
    std::size_t n = 0;
    const std::uint8_t* r = row(q);
    for (std::size_t k = 0; k < n_keys; ++k) n += r[k];
    return n;
  }

  /// Total candidates across every query row.
  std::size_t count() const {
    std::size_t n = 0;
    for (const std::uint8_t b : bits) n += b;
    return n;
  }

  /// True when any key in [begin, end) is a candidate for query q.
  bool any_in_range(std::size_t q, std::size_t begin, std::size_t end) const {
    const std::uint8_t* r = row(q);
    for (std::size_t k = begin; k < end; ++k)
      if (r[k] != 0) return true;
    return false;
  }
};

}  // namespace nvcim::cim
