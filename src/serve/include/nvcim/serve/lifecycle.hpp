#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "nvcim/common/check.hpp"
#include "nvcim/tensor/matrix.hpp"

namespace nvcim::serve {

/// Online tenant lifecycle knobs: with `enabled`, the sharded store keeps its
/// crossbars mutable after build() — users can be admitted and evicted while
/// serving, and the rebalancer can migrate slot ranges between shards. The
/// mutable store programs every key column independently (per-key
/// quantization scale, per-(tile, column) programming-noise stream), so
/// admitting a user later is bit-identical to having built the store with
/// that user from scratch, and untouched users' columns never change.
///
/// Fixed store behaviour (constants in ovt_store.cpp): a fresh build
/// provisions 1.5× its key columns, rounded up to whole subarrays; rebalance()
/// plans at most 4 migrations while a shard holds more than 1.25 × the mean;
/// routed slots start on an accumulator-block boundary; admission spans are
/// at most 32 columns wide and never cross a subarray.
struct LifecycleConfig {
  bool enabled = false;
  /// Write-behind admission: ServingEngine::admit() publishes the tenant's
  /// slot as PENDING and returns immediately; column programming runs as
  /// worker-pool aux tasks in per-subarray batches, and the tenant flips to
  /// live (queryable) only once every span is programmed. Deferred admission
  /// is bit-identical to synchronous admission (same per-column streams).
  /// Off = the same spans run on the calling thread.
  bool write_behind = false;
  /// Backpressure bound on the write-behind path: at most this many
  /// admissions may be in flight (staged, not yet live) at once.
  /// A non-blocking admit() returns an invalid handle beyond it; a blocking
  /// one waits for a slot.
  std::size_t max_pending_admissions = 8;
};

/// A user's placement: shard index plus its key-column range within the
/// shard's crossbars.
struct UserSlot {
  std::size_t shard = 0;
  std::size_t begin = 0;  ///< first key index within the shard
  std::size_t end = 0;    ///< one past the last key index
  std::size_t n_keys() const { return end - begin; }
};

/// Phase-1 routing state of one user: cluster membership in CSR form
/// (user-local key indices, cluster-grouped) plus the quantized centroid
/// sketch plane. Immutable once built; snapshots share it by pointer, so a
/// router refresh swaps the pointer without touching readers.
struct UserRouter {
  std::vector<std::uint32_t> member_begin;  ///< k+1 offsets into members
  std::vector<std::uint32_t> members;       ///< user-local key indices
  Matrix centroid_sketch;                   ///< k × key_size, low-bit ints
};

/// One epoch-versioned view of the tenant directory: who exists, where each
/// user's slot lives, that user's candidate router, and how wide each
/// shard's crossbars were at publish time. Snapshots are immutable; an
/// in-flight batch pins one and serves every stage against it, so a
/// concurrent admit/evict/migration can never tear a batch's view.
struct TenantSnapshot {
  std::uint64_t epoch = 0;
  std::unordered_map<std::size_t, UserSlot> slots;
  std::unordered_map<std::size_t, std::shared_ptr<const UserRouter>> routers;
  /// Score-row width of each shard at this epoch (crossbar capacity
  /// columns). Candidate bitmaps are sized against this, never against the
  /// live width, which may have grown since.
  std::vector<std::size_t> shard_capacity;
  /// Users staged by a write-behind admission whose columns are still being
  /// programmed: the slot is allocated and published (so placement and
  /// reclamation see it), but the tenant is not yet queryable and the
  /// rebalancer must not migrate it.
  std::unordered_set<std::size_t> pending;

  bool has_user(std::size_t user_id) const { return slots.count(user_id) > 0; }
  /// Queryable: the slot exists AND its columns are fully programmed.
  bool is_live(std::size_t user_id) const {
    return has_user(user_id) && pending.count(user_id) == 0;
  }
  const UserSlot& slot(std::size_t user_id) const {
    auto it = slots.find(user_id);
    NVCIM_CHECK_MSG(it != slots.end(), "unknown user " << user_id);
    return it->second;
  }
};

/// Tracks which directory epochs still have pinned readers, so freed slot
/// ranges are only reprogrammed once every batch that could still read them
/// has drained — the quiesce-free half of the migration protocol (epoch-
/// based reclamation, sized for short-lived batch pins).
class EpochTracker {
 public:
  /// RAII pin of one epoch; movable so pins can ride inside batch state.
  class Guard {
   public:
    Guard() = default;
    Guard(EpochTracker* tracker, std::uint64_t epoch) : tracker_(tracker), epoch_(epoch) {}
    Guard(Guard&& o) noexcept : tracker_(o.tracker_), epoch_(o.epoch_) { o.tracker_ = nullptr; }
    Guard& operator=(Guard&& o) noexcept {
      release();
      tracker_ = o.tracker_;
      epoch_ = o.epoch_;
      o.tracker_ = nullptr;
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { release(); }
    void release();

   private:
    EpochTracker* tracker_ = nullptr;
    std::uint64_t epoch_ = 0;
  };

  Guard pin(std::uint64_t epoch);
  /// Smallest epoch still pinned, or `fallback` when none is. A slot range
  /// freed at epoch F is reusable once min_active(current) >= F: every
  /// remaining reader then holds a snapshot in which the slot is gone.
  std::uint64_t min_active(std::uint64_t fallback) const;

 private:
  friend class Guard;
  void leave(std::uint64_t epoch);

  mutable std::mutex mu_;
  std::map<std::uint64_t, std::size_t> active_;  ///< epoch → pin count
};

/// Epoch-versioned user → shard/slot map with copy-on-write snapshots:
/// readers acquire() the current immutable snapshot (cheap shared_ptr copy),
/// writers clone it, mutate the clone and publish it with a bumped epoch.
class TenantDirectory {
 public:
  TenantDirectory() : current_(std::make_shared<TenantSnapshot>()) {}

  std::shared_ptr<const TenantSnapshot> acquire() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }
  std::uint64_t epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_->epoch;
  }
  /// Clone-mutate-publish: `fn` edits a copy of the current snapshot; the
  /// copy is published with epoch + 1. Returns the published epoch.
  /// Routers are shared by pointer, so the clone is O(users) map copies.
  std::uint64_t update(const std::function<void(TenantSnapshot&)>& fn);

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const TenantSnapshot> current_;
};

/// A pinned, epoch-consistent view of the directory: the snapshot plus the
/// epoch pin that defers slot reuse while this view is alive. One per
/// in-flight batch.
struct PinnedDirectory {
  std::shared_ptr<const TenantSnapshot> snap;
  EpochTracker::Guard guard;

  bool has_user(std::size_t user_id) const { return snap->has_user(user_id); }
  const UserSlot& slot(std::size_t user_id) const { return snap->slot(user_id); }
};

/// Per-shard key-column allocator: contiguous slot ranges carved from a
/// growing tail, with an epoch-tagged free list so evicted ranges are only
/// handed out again once every pinned reader of the old epoch has drained.
/// Adjacent free ranges coalesce (taking the younger epoch tag, the safe
/// direction).
class SlotAllocator {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Allocate `n` columns at an `align`-column boundary: first-fit over
  /// reclaimable free ranges (freed_epoch <= safe_epoch), else bump the
  /// tail (recording any alignment gap as immediately-reusable free space).
  std::size_t allocate(std::size_t n, std::uint64_t safe_epoch, std::size_t align);
  /// Return [begin, end) to the free list, reusable once every reader
  /// pinned before `freed_epoch` drains.
  void release(std::size_t begin, std::size_t end, std::uint64_t freed_epoch);

  /// Permanently remove [begin, end) from the allocatable space (a failed
  /// subarray's columns). The quarantined intersection of the free list is
  /// dropped, later release()s of overlapping slots drop their quarantined
  /// part, and tail growth never re-enters the range (any clean run in
  /// front of a range straddling the tail stays allocatable free space).
  /// Quarantined columns count as neither occupied nor free.
  void quarantine(std::size_t begin, std::size_t end);
  /// True when [begin, end) intersects a quarantined range.
  bool is_quarantined(std::size_t begin, std::size_t end) const;

  std::size_t occupied() const { return occupied_; }  ///< allocated key columns
  std::size_t tail() const { return tail_; }          ///< high-water column
  std::size_t free_ranges() const { return free_.size(); }
  std::size_t quarantined() const { return quarantined_cols_; }

 private:
  struct FreeRange {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::uint64_t freed_epoch = 0;
  };
  /// Insert one clean (non-quarantined) range into the free list, keeping
  /// it sorted and coalescing with neighbours.
  void insert_free(std::size_t begin, std::size_t end, std::uint64_t freed_epoch);

  std::vector<FreeRange> free_;  ///< sorted by begin, non-overlapping
  /// Quarantined column ranges, sorted by begin, disjoint.
  std::vector<std::pair<std::size_t, std::size_t>> quarantine_;
  std::size_t tail_ = 0;
  std::size_t occupied_ = 0;
  std::size_t quarantined_cols_ = 0;
};

/// One planned user migration (executed by ShardedOvtStore::migrate_user).
struct Migration {
  std::size_t user_id = 0;
  std::size_t from_shard = 0;
  std::size_t to_shard = 0;
  std::size_t n_keys = 0;
};

/// Pure planning half of shard rebalancing: given per-shard occupied key
/// counts and the user slots, pick users to move from overloaded to
/// underloaded shards until every shard is within tolerance of the mean (or
/// the migration budget is spent). "Within" is inclusive: a shard holding
/// exactly (1 + tolerance) × the mean is not overloaded. Deterministic: ties
/// break toward lower shard/user ids.
std::vector<Migration> plan_rebalance(const std::vector<std::size_t>& shard_occupied,
                                      const std::unordered_map<std::size_t, UserSlot>& slots,
                                      double tolerance, std::size_t max_migrations);

}  // namespace nvcim::serve
