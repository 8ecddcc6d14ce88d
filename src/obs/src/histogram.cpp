#include "nvcim/obs/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "nvcim/common/check.hpp"

namespace nvcim::obs {

namespace {

void atomic_add(std::atomic<double>& a, double d) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(HistogramConfig cfg)
    : cfg_(cfg),
      buckets_(1 + cfg.octaves * cfg.sub_buckets),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  NVCIM_CHECK_MSG(cfg_.min_value > 0.0, "histogram min_value must be positive");
  NVCIM_CHECK_MSG(cfg_.sub_buckets > 0 && cfg_.octaves > 0, "histogram needs buckets");
}

std::size_t Histogram::bucket_index(double value) const {
  if (!(value > cfg_.min_value)) return 0;  // underflow; also catches NaN
  int exp = 0;
  // scaled = frac * 2^exp with frac in [0.5, 1); scaled > 1 ⇒ octave = exp - 1.
  const double frac = std::frexp(value / cfg_.min_value, &exp);
  const std::size_t octave = static_cast<std::size_t>(exp - 1);
  if (octave >= cfg_.octaves) return buckets_.size() - 1;  // overflow clamp
  const double within = frac * 2.0 - 1.0;  // position in [0, 1) across the octave
  std::size_t sub = static_cast<std::size_t>(within * static_cast<double>(cfg_.sub_buckets));
  sub = std::min(sub, cfg_.sub_buckets - 1);
  return 1 + octave * cfg_.sub_buckets + sub;
}

double Histogram::bucket_lower(std::size_t i) const {
  if (i == 0) return 0.0;
  const std::size_t octave = (i - 1) / cfg_.sub_buckets;
  const std::size_t sub = (i - 1) % cfg_.sub_buckets;
  return cfg_.min_value * std::ldexp(1.0, static_cast<int>(octave)) *
         (1.0 + static_cast<double>(sub) / static_cast<double>(cfg_.sub_buckets));
}

double Histogram::bucket_upper(std::size_t i) const {
  if (i == 0) return cfg_.min_value;
  const std::size_t octave = (i - 1) / cfg_.sub_buckets;
  const std::size_t sub = (i - 1) % cfg_.sub_buckets;
  return cfg_.min_value * std::ldexp(1.0, static_cast<int>(octave)) *
         (1.0 + static_cast<double>(sub + 1) / static_cast<double>(cfg_.sub_buckets));
}

void Histogram::record(double value) {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  atomic_min(min_, value);
  atomic_max(max_, value);
}

void Histogram::merge_from(const Histogram& other) {
  NVCIM_CHECK_MSG(cfg_.min_value == other.cfg_.min_value &&
                      cfg_.sub_buckets == other.cfg_.sub_buckets &&
                      cfg_.octaves == other.cfg_.octaves,
                  "histogram merge requires identical bucket layouts");
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n > 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  atomic_add(sum_, other.sum());
  if (other.count() > 0) {
    atomic_min(min_, other.min());
    atomic_max(max_, other.max());
  }
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::value_at_quantile(double q) const {
  // Snapshot the buckets once so the walk is self-consistent even with
  // concurrent writers.
  std::vector<std::uint64_t> counts(buckets_.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const double lo = min_.load(std::memory_order_relaxed);
  const double hi = max_.load(std::memory_order_relaxed);
  if (q <= 0.0) return lo;
  if (q >= 1.0) return hi;
  return quantile_in_buckets(counts, total, q, lo, hi);
}

double Histogram::quantile_in_buckets(const std::vector<std::uint64_t>& counts,
                                      std::uint64_t total, double q, double lo,
                                      double hi) const {
  std::uint64_t target =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  target = std::max<std::uint64_t>(1, std::min(target, total));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= target) {
      // Rank-interpolate within the bucket rather than returning its
      // midpoint: when a tail's samples all land in one bucket, a midpoint
      // (clamped to [lo, hi]) collapses every tail quantile to the same
      // value — p95 == p99 even though the ranks differ. Interpolating by
      // rank keeps distinct quantiles distinct (monotone in q) while
      // staying inside both the bucket and the recorded [lo, hi] support,
      // so single-value distributions still come back exact.
      const std::uint64_t before = seen - counts[i];
      const double frac = static_cast<double>(target - before) /
                          static_cast<double>(counts[i]);
      const double blo = std::max(bucket_lower(i), lo);
      const double bhi = std::min(bucket_upper(i), hi);
      return blo + frac * std::max(0.0, bhi - blo);
    }
  }
  return hi;  // unreachable (target <= total)
}

}  // namespace nvcim::obs
