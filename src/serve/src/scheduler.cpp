#include "nvcim/serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace nvcim::serve {

namespace {

/// In-tenant ordering: tightest deadline first, then higher priority, then
/// arrival. Total and strict on distinct requests (seq is unique).
bool more_urgent(const QueuedRequest& a, const QueuedRequest& b) {
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  if (a.priority != b.priority) return a.priority > b.priority;
  return a.seq < b.seq;
}

double seconds_between(QueuedRequest::Clock::time_point a, QueuedRequest::Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

QueuedRequest::Clock::duration checked_ms(double ms, const char* what) {
  using Duration = QueuedRequest::Clock::duration;
  const std::chrono::duration<double, std::milli> d(ms);
  // NaN fails both comparisons, +inf the second. Half the range: steady-
  // clock time points count from boot, far below the other half, so
  // now() + d stays representable.
  NVCIM_CHECK_MSG(ms >= 0.0 && d < Duration::max() / 2,
                  what << " must be a finite, non-negative millisecond count within the "
                       << "clock's range, got " << ms);
  return std::chrono::duration_cast<Duration>(d);
}

RequestScheduler::RequestScheduler(SchedulerConfig cfg) : cfg_(cfg) {
  if (cfg_.quantum == 0) cfg_.quantum = 1;
  checked_ms(cfg_.urgency_window_ms, "urgency_window_ms");
}

RequestScheduler::Tenant& RequestScheduler::tenant(std::size_t user_id) {
  auto it = tenants_.find(user_id);
  if (it != tenants_.end()) return it->second;
  Tenant t;
  t.tokens = static_cast<double>(cfg_.quantum);  // full burst on first sight
  return tenants_.emplace(user_id, std::move(t)).first->second;
}

void RequestScheduler::ring_add(std::size_t user_id) {
  Tenant& t = tenants_.at(user_id);
  if (t.in_ring) return;
  ring_.push_back(user_id);
  t.in_ring = true;
}

void RequestScheduler::ring_remove(std::size_t user_id) {
  Tenant& t = tenants_.at(user_id);
  if (!t.in_ring) return;
  const auto it = std::find(ring_.begin(), ring_.end(), user_id);
  const std::size_t idx = static_cast<std::size_t>(it - ring_.begin());
  ring_.erase(it);
  if (ring_pos_ > idx) --ring_pos_;
  if (!ring_.empty() && ring_pos_ >= ring_.size()) ring_pos_ = 0;
  t.in_ring = false;
  t.deficit = 0;  // credit does not survive going idle (classic DRR)
}

void RequestScheduler::refill(Tenant& t, Clock::time_point now, double burst) {
  if (t.rate_rps <= 0.0) return;
  if (t.last_refill == Clock::time_point{}) {
    t.last_refill = now;
  } else if (now > t.last_refill) {
    t.tokens = std::min(burst, t.tokens + t.rate_rps * seconds_between(t.last_refill, now));
    t.last_refill = now;
  }
}

bool RequestScheduler::take_token(Tenant& t, Clock::time_point now, double burst) {
  if (t.rate_rps <= 0.0) return true;
  refill(t, now, burst);
  if (t.tokens < 1.0) return false;
  t.tokens -= 1.0;
  return true;
}

std::size_t RequestScheduler::queued_for(std::size_t user_id) const {
  const auto it = tenants_.find(user_id);
  return it == tenants_.end() ? 0 : it->second.q.size();
}

void RequestScheduler::push(QueuedRequest req, Clock::time_point now) {
  (void)now;
  req.seq = next_seq_++;
  const std::size_t uid = req.user_id;
  Tenant& t = tenant(uid);
  // Insert sorted by urgency. Appends stay O(1) for the common
  // no-deadline/equal-priority stream (everything later sorts later).
  auto it = std::upper_bound(t.q.begin(), t.q.end(), req,
                             [](const QueuedRequest& a, const QueuedRequest& b) {
                               return more_urgent(a, b);
                             });
  t.q.insert(it, std::move(req));
  ring_add(uid);
  ++size_;
}

RequestScheduler::Clock::time_point RequestScheduler::next_deadline() const {
  Clock::time_point best = QueuedRequest::kNoDeadline;
  for (const auto& [uid, t] : tenants_) {
    (void)uid;
    // Urgency-sorted: the front carries the tenant's tightest deadline.
    if (!t.q.empty()) best = std::min(best, t.q.front().deadline);
  }
  return best;
}

std::vector<QueuedRequest> RequestScheduler::take_expired(Clock::time_point now) {
  std::vector<QueuedRequest> expired;
  if (size_ == 0) return expired;
  for (auto& [uid, t] : tenants_) {
    // Urgency-sorted: the expired requests are a prefix of the queue.
    while (!t.q.empty() && t.q.front().has_deadline() && t.q.front().deadline < now)
      pop_front_into(t, expired);
    if (t.q.empty()) ring_remove(uid);
  }
  return expired;
}

void RequestScheduler::pop_front_into(Tenant& t, std::vector<QueuedRequest>& out) {
  out.push_back(std::move(t.q.front()));
  t.q.pop_front();
  --size_;
}

std::vector<QueuedRequest> RequestScheduler::pop_batch(std::size_t max_batch,
                                                       Clock::time_point now) {
  std::vector<QueuedRequest> out;
  out.reserve(std::min(max_batch, size_));
  const double burst = static_cast<double>(cfg_.quantum);
  const auto urgent_cutoff =
      now + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(cfg_.urgency_window_ms));

  // Phase 1 — critical EDF pull: requests whose deadline falls inside the
  // urgency window go first, tightest deadline across ALL tenants, ahead of
  // the round-robin rotation. This is what turns "the batch forms against
  // the tightest live deadline" from a per-tenant property into a global one.
  while (out.size() < max_batch) {
    Tenant* best = nullptr;
    std::size_t best_uid = 0;
    const QueuedRequest* best_req = nullptr;
    for (auto& [uid, t] : tenants_) {
      if (t.q.empty()) continue;
      const QueuedRequest& front = t.q.front();
      if (!front.has_deadline() || front.deadline > urgent_cutoff) continue;
      if (best_req == nullptr || more_urgent(front, *best_req)) {
        best_req = &front;
        best = &t;
        best_uid = uid;
      }
    }
    if (best == nullptr) break;
    if (!take_token(*best, now, burst)) {
      // Rate limits are strict: even a critical deadline cannot launder a
      // tenant past its bucket. Skip the tenant for this batch by treating
      // its front as non-critical — cheapest way is to stop the pull when
      // the most urgent tenant is throttled (others get their DRR turn).
      break;
    }
    pop_front_into(*best, out);
    if (best->q.empty()) ring_remove(best_uid);
  }

  // Phase 2 — deficit round-robin over the remaining tenants: each visited
  // tenant earns `quantum` credit and dequeues while it has credit, tokens
  // and the batch has room. A full lap with no progress means everything
  // left is rate-limited — stop rather than spin.
  while (out.size() < max_batch && !ring_.empty()) {
    bool progressed = false;
    const std::size_t lap = ring_.size();
    for (std::size_t step = 0; step < lap && out.size() < max_batch; ++step) {
      if (ring_.empty()) break;
      if (ring_pos_ >= ring_.size()) ring_pos_ = 0;
      const std::size_t uid = ring_[ring_pos_];
      Tenant& t = tenants_.at(uid);
      t.deficit += cfg_.quantum;
      while (t.deficit > 0 && !t.q.empty() && out.size() < max_batch) {
        if (!take_token(t, now, burst)) break;
        pop_front_into(t, out);
        --t.deficit;
        progressed = true;
      }
      if (t.q.empty()) {
        ring_remove(uid);  // adjusts ring_pos_; do not advance
      } else {
        t.deficit = std::min(t.deficit, cfg_.quantum);  // cap banked credit
        ++ring_pos_;
      }
    }
    if (!progressed) break;
  }
  return out;
}

bool RequestScheduler::cancel(std::uint64_t id, QueuedRequest* out) {
  for (auto& [uid, t] : tenants_) {
    for (auto it = t.q.begin(); it != t.q.end(); ++it) {
      if (it->id != id) continue;
      if (out != nullptr) *out = std::move(*it);
      t.q.erase(it);
      --size_;
      if (t.q.empty()) ring_remove(uid);
      return true;
    }
  }
  return false;
}

std::vector<QueuedRequest> RequestScheduler::drain() {
  std::vector<QueuedRequest> out;
  out.reserve(size_);
  for (auto& [uid, t] : tenants_) {
    for (QueuedRequest& r : t.q) out.push_back(std::move(r));
    t.q.clear();
    ring_remove(uid);
  }
  // Deterministic hand-off order (arrival) regardless of map iteration.
  std::sort(out.begin(), out.end(),
            [](const QueuedRequest& a, const QueuedRequest& b) { return a.seq < b.seq; });
  size_ = 0;
  return out;
}

void RequestScheduler::set_rate_limit(std::size_t user_id, double rps) {
  // NaN fails the comparison; +inf would make the refill clock-tick bound.
  NVCIM_CHECK_MSG(rps >= 0.0 && std::isfinite(rps),
                  "rate limit must be a finite, non-negative requests/second, got " << rps);
  Tenant& t = tenant(user_id);
  t.rate_rps = rps;
  t.tokens = std::min(t.tokens, static_cast<double>(cfg_.quantum));
}

}  // namespace nvcim::serve
