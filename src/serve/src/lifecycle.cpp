#include "nvcim/serve/lifecycle.hpp"

#include <algorithm>

namespace nvcim::serve {

// ---------------------------------------------------------------------------
// EpochTracker
// ---------------------------------------------------------------------------

void EpochTracker::Guard::release() {
  if (tracker_ != nullptr) tracker_->leave(epoch_);
  tracker_ = nullptr;
}

EpochTracker::Guard EpochTracker::pin(std::uint64_t epoch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++active_[epoch];
  }
  return Guard(this, epoch);
}

void EpochTracker::leave(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(epoch);
  NVCIM_CHECK_MSG(it != active_.end() && it->second > 0, "epoch " << epoch << " not pinned");
  if (--it->second == 0) active_.erase(it);
}

std::uint64_t EpochTracker::min_active(std::uint64_t fallback) const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_.empty() ? fallback : active_.begin()->first;
}

// ---------------------------------------------------------------------------
// TenantDirectory
// ---------------------------------------------------------------------------

std::uint64_t TenantDirectory::update(const std::function<void(TenantSnapshot&)>& fn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto next = std::make_shared<TenantSnapshot>(*current_);
  next->epoch = current_->epoch + 1;
  fn(*next);
  current_ = std::move(next);
  return current_->epoch;
}

// ---------------------------------------------------------------------------
// SlotAllocator
// ---------------------------------------------------------------------------

namespace {
std::size_t round_up(std::size_t v, std::size_t align) {
  return align <= 1 ? v : (v + align - 1) / align * align;
}
}  // namespace

std::size_t SlotAllocator::allocate(std::size_t n, std::uint64_t safe_epoch, std::size_t align) {
  NVCIM_CHECK_MSG(n > 0, "cannot allocate an empty slot");
  // First fit over reclaimable free ranges. The scan is deterministic
  // (ranges sorted by begin), so identical allocation histories produce
  // identical placements — the property the from-scratch bit-identity
  // tests lean on.
  for (std::size_t i = 0; i < free_.size(); ++i) {
    FreeRange& r = free_[i];
    if (r.freed_epoch > safe_epoch) continue;  // a pinned reader may still see it
    const std::size_t begin = round_up(r.begin, align);
    if (begin + n > r.end) continue;
    const FreeRange taken = r;
    // Carve [begin, begin+n); the leading alignment sliver and the trailing
    // remainder stay free with the original epoch tag.
    std::vector<FreeRange> pieces;
    if (begin > taken.begin) pieces.push_back({taken.begin, begin, taken.freed_epoch});
    if (begin + n < taken.end) pieces.push_back({begin + n, taken.end, taken.freed_epoch});
    free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
    free_.insert(free_.begin() + static_cast<std::ptrdiff_t>(i), pieces.begin(), pieces.end());
    occupied_ += n;
    return begin;
  }
  const std::size_t begin = round_up(tail_, align);
  if (begin > tail_) insert_free(tail_, begin, 0);  // alignment gap, reusable at once
  tail_ = begin + n;
  occupied_ += n;
  return begin;
}

void SlotAllocator::release(std::size_t begin, std::size_t end, std::uint64_t freed_epoch) {
  NVCIM_CHECK_MSG(begin < end && end <= tail_, "bad release [" << begin << ", " << end << ")");
  occupied_ -= end - begin;
  // Quarantined columns never return to the free list: hand back only the
  // clean sub-ranges of the released slot.
  std::size_t b = begin;
  for (const auto& q : quarantine_) {
    if (q.second <= b) continue;
    if (q.first >= end) break;
    if (b < q.first) insert_free(b, std::min(q.first, end), freed_epoch);
    b = std::max(b, q.second);
    if (b >= end) return;
  }
  if (b < end) insert_free(b, end, freed_epoch);
}

void SlotAllocator::quarantine(std::size_t begin, std::size_t end) {
  NVCIM_CHECK_MSG(begin < end, "bad quarantine [" << begin << ", " << end << ")");
  // Drop the quarantined intersection of the free list.
  std::vector<FreeRange> kept;
  kept.reserve(free_.size() + 1);
  for (const FreeRange& r : free_) {
    if (r.end <= begin || r.begin >= end) {
      kept.push_back(r);
      continue;
    }
    if (r.begin < begin) kept.push_back({r.begin, begin, r.freed_epoch});
    if (r.end > end) kept.push_back({end, r.end, r.freed_epoch});
  }
  free_ = std::move(kept);
  // Keep every quarantined range below the tail, so the tail-bump path can
  // never re-enter it; the clean run in front stays allocatable.
  if (end > tail_) {
    if (tail_ < begin) insert_free(tail_, begin, 0);
    tail_ = end;
  }
  // Merge into the quarantine list, counting only newly covered columns.
  std::size_t b = begin, e = end, already = 0;
  std::vector<std::pair<std::size_t, std::size_t>> merged;
  merged.reserve(quarantine_.size() + 1);
  for (const auto& q : quarantine_) {
    if (q.second < b || q.first > e) {
      merged.push_back(q);
      continue;
    }
    const std::size_t lo = std::max(begin, q.first);
    const std::size_t hi = std::min(end, q.second);
    if (lo < hi) already += hi - lo;
    b = std::min(b, q.first);
    e = std::max(e, q.second);
  }
  merged.push_back({b, e});
  std::sort(merged.begin(), merged.end());
  quarantine_ = std::move(merged);
  quarantined_cols_ += (end - begin) - already;
}

bool SlotAllocator::is_quarantined(std::size_t begin, std::size_t end) const {
  for (const auto& q : quarantine_) {
    if (q.second <= begin) continue;
    if (q.first >= end) break;
    return true;
  }
  return false;
}

void SlotAllocator::insert_free(std::size_t begin, std::size_t end, std::uint64_t freed_epoch) {
  auto it = std::lower_bound(free_.begin(), free_.end(), begin,
                             [](const FreeRange& r, std::size_t b) { return r.begin < b; });
  it = free_.insert(it, {begin, end, freed_epoch});
  // Coalesce with neighbours; the merged range keeps the *younger* (larger)
  // epoch tag — reuse waits for the most recently freed piece, never less.
  if (it != free_.begin()) {
    auto prev = it - 1;
    if (prev->end == it->begin) {
      prev->end = it->end;
      prev->freed_epoch = std::max(prev->freed_epoch, it->freed_epoch);
      it = free_.erase(it) - 1;
    }
  }
  auto next = it + 1;
  if (next != free_.end() && it->end == next->begin) {
    it->end = next->end;
    it->freed_epoch = std::max(it->freed_epoch, next->freed_epoch);
    free_.erase(next);
  }
}

// ---------------------------------------------------------------------------
// Rebalance planning
// ---------------------------------------------------------------------------

std::vector<Migration> plan_rebalance(const std::vector<std::size_t>& shard_occupied,
                                      const std::unordered_map<std::size_t, UserSlot>& slots,
                                      double tolerance, std::size_t max_migrations) {
  std::vector<Migration> plan;
  if (shard_occupied.size() < 2 || slots.empty()) return plan;

  std::vector<std::size_t> occ = shard_occupied;
  // Users of each shard sorted by size then id, so planning is deterministic.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> by_shard(occ.size());
  for (const auto& [user, slot] : slots)
    by_shard[slot.shard].emplace_back(slot.n_keys(), user);
  for (auto& users : by_shard) std::sort(users.begin(), users.end());

  std::size_t total = 0;
  for (const std::size_t o : occ) total += o;
  const double mean = static_cast<double>(total) / static_cast<double>(occ.size());

  while (plan.size() < max_migrations) {
    std::size_t hi = 0, lo = 0;
    for (std::size_t s = 1; s < occ.size(); ++s) {
      if (occ[s] > occ[hi]) hi = s;
      if (occ[s] < occ[lo]) lo = s;
    }
    if (static_cast<double>(occ[hi]) <= (1.0 + tolerance) * mean) break;
    if (by_shard[hi].empty()) break;
    // Move the user whose size comes closest to halving the hi/lo gap
    // without overshooting past the mean in either direction.
    const std::size_t gap = occ[hi] - occ[lo];
    std::size_t pick = by_shard[hi].size();
    for (std::size_t i = 0; i < by_shard[hi].size(); ++i) {
      const std::size_t sz = by_shard[hi][i].first;
      if (2 * sz > gap) break;  // sorted ascending: everything after overshoots
      pick = i;                 // largest size with 2·sz <= gap
    }
    if (pick == by_shard[hi].size()) break;  // every user overshoots — stop
    const auto [size, user] = by_shard[hi][pick];
    by_shard[hi].erase(by_shard[hi].begin() + static_cast<std::ptrdiff_t>(pick));
    occ[hi] -= size;
    occ[lo] += size;
    plan.push_back({user, hi, lo, size});
  }
  return plan;
}

}  // namespace nvcim::serve
