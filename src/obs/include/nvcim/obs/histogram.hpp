#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace nvcim::obs {

/// Shape of a log-linear histogram: `octaves` powers of two starting at
/// `min_value`, each split into `sub_buckets` linear buckets, plus one
/// underflow bucket for values <= min_value. Values beyond the last octave
/// clamp into the final bucket. With 32 sub-buckets the relative width of
/// any bucket is <= 1/32 ≈ 3.1%, so a rank-interpolated estimate is within
/// ~3.1% of any value in the bucket — comfortably inside the 5% percentile
/// error bound the serving stats promise.
struct HistogramConfig {
  double min_value = 1e-3;       ///< smallest resolvable value (1 µs in ms units)
  std::size_t sub_buckets = 32;  ///< linear buckets per octave
  std::size_t octaves = 28;      ///< 1e-3 ms … ~134 s of dynamic range
};

/// Fixed-bucket log-linear latency histogram (HdrHistogram-style): lock-free
/// concurrent recording into atomic buckets, O(buckets) percentile queries
/// and bucket-exact merging — the primitive that replaces the serving
/// engine's sort-under-mutex exact-latency vector. Recording is wait-free
/// per bucket; queries snapshot bucket counts with relaxed loads, so a
/// percentile read concurrent with writers is approximate in the obvious
/// way (it sees some prefix of the in-flight records).
class Histogram {
 public:
  explicit Histogram(HistogramConfig cfg = HistogramConfig{});

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Record one value. Negative / NaN values land in the underflow bucket.
  void record(double value);

  /// Bucket-wise accumulate `other` into this histogram. Both must share
  /// one HistogramConfig (checked).
  void merge_from(const Histogram& other);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest recorded value (exact, not bucketed); 0 when empty.
  double min() const;
  double max() const;
  double mean() const;

  /// Value at quantile q in [0, 1]: rank-interpolated within the bucket
  /// holding the q-th record, clamped to the exact [min, max] seen — so
  /// distinct quantiles sharing one bucket stay distinct (monotone in q).
  /// 0 when empty.
  double value_at_quantile(double q) const;

  /// The rank walk behind every value_at_quantile: the value at quantile
  /// q in (0, 1) of `counts` (buckets of this geometry, summing to
  /// `total` > 0), rank-interpolated within the bucket holding the q-th
  /// record, with that bucket's bounds clamped to [lo, hi]. A window, which
  /// has no exact min/max, passes ±infinity.
  double quantile_in_buckets(const std::vector<std::uint64_t>& counts, std::uint64_t total,
                             double q, double lo, double hi) const;

  std::size_t n_buckets() const { return buckets_.size(); }
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Bucket i covers (lower(i), upper(i)]; bucket 0 is (-inf, min_value].
  double bucket_lower(std::size_t i) const;
  double bucket_upper(std::size_t i) const;
  std::size_t bucket_index(double value) const;

  const HistogramConfig& config() const { return cfg_; }

 private:
  HistogramConfig cfg_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

}  // namespace nvcim::obs
