#include "nvcim/obs/window.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "nvcim/obs/metrics.hpp"

namespace nvcim::obs {

namespace {

// Counters are monotone, but the snapshots are built from relaxed atomic
// reads taken at different instants — saturate instead of wrapping.
std::uint64_t sat_sub(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : 0;
}

}  // namespace

HistogramSnapshot HistogramSnapshot::of(const Histogram& h) {
  HistogramSnapshot s;
  s.counts.resize(h.n_buckets());
  for (std::size_t i = 0; i < s.counts.size(); ++i) s.counts[i] = h.bucket_count(i);
  s.count = h.count();
  s.sum = h.sum();
  return s;
}

WindowDelta::WindowDelta(const Histogram* geometry, std::vector<std::uint64_t> counts,
                         std::uint64_t count, double sum, double span_ms)
    : geom_(geometry),
      counts_(std::move(counts)),
      count_(count),
      sum_(sum),
      span_ms_(span_ms) {}

double WindowDelta::value_at_quantile(double q) const {
  if (geom_ == nullptr || counts_.empty()) return 0.0;
  std::uint64_t total = 0;
  for (std::uint64_t c : counts_) total += c;
  if (total == 0) return 0.0;
  // No exact min/max exists for a window, so q = 0 / 1 return the bounds of
  // the first / last occupied bucket instead.
  if (q <= 0.0) {
    for (std::size_t i = 0; i < counts_.size(); ++i)
      if (counts_[i] > 0) return geom_->bucket_lower(i);
  }
  if (q >= 1.0) {
    for (std::size_t i = counts_.size(); i-- > 0;)
      if (counts_[i] > 0) return geom_->bucket_upper(i);
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return geom_->quantile_in_buckets(counts_, total, q, -kInf, kInf);
}

std::uint64_t WindowDelta::count_le(double v) const {
  if (geom_ == nullptr || counts_.empty()) return 0;
  const std::size_t idx = std::min(geom_->bucket_index(v), counts_.size() - 1);
  std::uint64_t n = 0;
  for (std::size_t i = 0; i <= idx; ++i) n += counts_[i];
  return n;
}

HistogramWindow::HistogramWindow(const Histogram* source, WindowConfig cfg)
    : src_(source), cfg_(cfg) {}

bool HistogramWindow::advance(double now_ms) {
  bool pushed = false;
  if (!started_) {
    started_ = true;
    start_ms_ = now_ms;
    ring_.push_back(Entry{now_ms, HistogramSnapshot::of(*src_)});
    pushed = true;
  } else if (now_ms >= ring_.back().ts_ms + cfg_.bucket_ms) {
    ring_.push_back(Entry{now_ms, HistogramSnapshot::of(*src_)});
    pushed = true;
  }
  // Keep the newest entry that is already older than retention — it is the
  // baseline for the widest window; everything before it is dead history.
  while (ring_.size() >= 2 && ring_[1].ts_ms <= now_ms - cfg_.retention_ms) {
    ring_.pop_front();
  }
  return pushed;
}

WindowDelta HistogramWindow::delta(double now_ms, double window_ms) const {
  const HistogramSnapshot live = HistogramSnapshot::of(*src_);
  const HistogramSnapshot* base = nullptr;
  double base_ts = started_ ? start_ms_ : now_ms;
  const double cutoff = now_ms - window_ms;
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if (it->ts_ms <= cutoff) {
      base = &it->snap;
      base_ts = it->ts_ms;
      break;
    }
  }
  if (base == nullptr && !ring_.empty()) {
    base = &ring_.front().snap;  // warm-up: delta since the oldest snapshot
    base_ts = ring_.front().ts_ms;
  }
  std::vector<std::uint64_t> counts(live.counts.size());
  std::uint64_t count = live.count;
  double sum = live.sum;
  if (base != nullptr) {
    for (std::size_t i = 0; i < counts.size(); ++i)
      counts[i] = sat_sub(live.counts[i], base->counts[i]);
    count = sat_sub(live.count, base->count);
    sum = std::max(0.0, live.sum - base->sum);
  } else {
    counts = live.counts;
  }
  return WindowDelta(src_, std::move(counts), count, sum,
                     std::max(0.0, now_ms - base_ts));
}

CounterWindow::CounterWindow(const Counter* source, WindowConfig cfg)
    : src_(source), cfg_(cfg) {}

bool CounterWindow::advance(double now_ms) {
  bool pushed = false;
  if (!started_) {
    started_ = true;
    start_ms_ = now_ms;
    ring_.push_back(Entry{now_ms, src_->value()});
    pushed = true;
  } else if (now_ms >= ring_.back().ts_ms + cfg_.bucket_ms) {
    ring_.push_back(Entry{now_ms, src_->value()});
    pushed = true;
  }
  while (ring_.size() >= 2 && ring_[1].ts_ms <= now_ms - cfg_.retention_ms) {
    ring_.pop_front();
  }
  return pushed;
}

CounterWindow::Delta CounterWindow::delta(double now_ms, double window_ms) const {
  const double live = src_->value();
  const Entry* base = nullptr;
  double base_ts = started_ ? start_ms_ : now_ms;
  const double cutoff = now_ms - window_ms;
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if (it->ts_ms <= cutoff) {
      base = &*it;
      break;
    }
  }
  if (base == nullptr && !ring_.empty()) base = &ring_.front();
  Delta d;
  if (base != nullptr) {
    d.value = std::max(0.0, live - base->value);
    base_ts = base->ts_ms;
  } else {
    d.value = live;
  }
  d.span_ms = std::max(0.0, now_ms - base_ts);
  return d;
}

}  // namespace nvcim::obs
