#include "nvcim/serve/ovt_store.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <thread>

#include "nvcim/cim/quant.hpp"

namespace nvcim::serve {

namespace {

/// Bit width of the centroid and query sketches. Sketches only rank
/// centroids; they never contribute to the returned scores.
constexpr int kSketchBits = 6;
/// Crossbar capacity a fresh lifecycle build provisions over its allocator
/// tail, so early admits land in pre-provisioned subarray columns instead of
/// growing the tile grid. Capacity always rounds up to whole subarrays.
constexpr double kCapacityFactor = 1.5;
/// rebalance() plans migrations while the most-loaded shard holds more than
/// (1 + kRebalanceTolerance) × the mean occupied keys. The bound is
/// inclusive: a shard at exactly 1.25 × the mean is within tolerance.
constexpr double kRebalanceTolerance = 0.25;
/// Migrations per rebalance() cycle; each reprograms one user's columns, so
/// this bounds the serving interference of one cycle.
constexpr std::size_t kMaxMigrationsPerCycle = 4;
/// Widest programming span of the column writer. Spans never cross a
/// subarray; the cap also splits a wide slot inside one subarray, so one
/// admission fans out across several workers instead of serializing on one,
/// and no write holds a shard lock for more than 32 columns. Per-column
/// noise streams are position-derived, so any split programs identical cells.
constexpr std::size_t kProgramSpanCols = 32;

retrieval::CimRetriever::Config retriever_config(const OvtStoreConfig& cfg) {
  retrieval::CimRetriever::Config rcfg;
  rcfg.algorithm = cfg.algorithm;
  rcfg.ssa = cfg.ssa;
  rcfg.crossbar = cfg.crossbar;
  rcfg.variation = cfg.variation;
  return rcfg;
}

/// Run fn(0) … fn(n − 1) on min(n, hardware threads) threads, the caller
/// being one of them. Every thread is joined before this returns; if any
/// call threw, the exception of the lowest failing index is rethrown.
template <typename Fn>
void run_per_shard(std::size_t n, const Fn& fn) {
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t n_threads =
      std::min<std::size_t>(n, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> helpers;
  helpers.reserve(n_threads);
  for (std::size_t t = 1; t < n_threads; ++t) {
    try {
      helpers.emplace_back(drain);
    } catch (...) {
      break;  // no thread to spare: the caller drains the rest
    }
  }
  drain();
  for (std::thread& t : helpers) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace

ShardedOvtStore::ShardedOvtStore(OvtStoreConfig cfg) : cfg_(std::move(cfg)) {
  NVCIM_CHECK_MSG(cfg_.n_shards > 0, "store needs at least one shard");
  shards_.reserve(cfg_.n_shards);
  for (std::size_t s = 0; s < cfg_.n_shards; ++s) shards_.push_back(std::make_unique<Shard>());
  degraded_cols_.resize(cfg_.n_shards);
  subarray_health_.resize(cfg_.n_shards);
  subarray_stuck_.resize(cfg_.n_shards);
}

std::size_t ShardedOvtStore::slot_align() const {
  if (!cfg_.two_phase.enabled) return 1;
  // Block-aligned slots only help when subarray boundaries are themselves
  // block-aligned (true for the paper geometry: 128-column subarrays, 16-
  // column accumulator blocks).
  constexpr std::size_t block = cim::Crossbar::kBlockColumns;
  return cfg_.crossbar.cols % block == 0 ? block : 1;
}

std::size_t ShardedOvtStore::choose_shard_locked(std::optional<std::size_t> exclude) const {
  // Quarantined columns count toward load: a shard with retired hardware
  // looks fuller, steering new placements toward healthy shards.
  const auto load = [this](std::size_t s) {
    return shards_[s]->allocator.occupied() + shards_[s]->allocator.quarantined();
  };
  std::size_t target = shards_.size();
  for (std::size_t s = 0; s < shards_.size(); ++s)
    if (s != exclude && (target == shards_.size() || load(s) < load(target))) target = s;
  return target;
}

void ShardedOvtStore::add_user(std::size_t user_id, const std::vector<Matrix>& keys) {
  if (built_) {
    NVCIM_CHECK_MSG(cfg_.lifecycle.enabled,
                    "store already built; users must be added before build() "
                    "(enable LifecycleConfig for live admission)");
    admit_user(user_id, keys);
    return;
  }
  NVCIM_CHECK_MSG(!keys.empty(), "user " << user_id << " has no keys");
  NVCIM_CHECK_MSG(!has_user(user_id), "user " << user_id << " already registered");
  if (key_size_ == 0) key_size_ = keys[0].size();
  for (const Matrix& k : keys)
    NVCIM_CHECK_MSG(k.size() == key_size_, "keys must share a common size");

  // Same placement path live admits use, so a from-scratch build and an
  // incremental one walk identical allocator histories.
  UserSlot slot;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    slot.shard = choose_shard_locked();
    slot.begin = shards_[slot.shard]->allocator.allocate(keys.size(), 0, slot_align());
    slot.end = slot.begin + keys.size();
    user_keys_[user_id] = keys;
  }
  registration_order_.push_back(user_id);
  directory_.update([&](TenantSnapshot& t) { t.slots[user_id] = slot; });
}

std::shared_ptr<const UserRouter> ShardedOvtStore::build_router(
    std::size_t user_id, const std::vector<Matrix>& keys) const {
  const std::size_t n = keys.size();
  const std::size_t key_size = keys[0].size();

  std::vector<Matrix> points;
  points.reserve(n);
  for (const Matrix& k : keys) points.push_back(k.flattened());

  const std::size_t k = std::min(cluster::select_k(n, cfg_.two_phase.k_select), n);
  cluster::KMeansConfig kmcfg = cfg_.two_phase.kmeans;
  // Deterministic, distinct stream per user: routing must not depend on
  // registration or build order.
  kmcfg.seed = kmcfg.seed + 0x9E3779B97F4A7C15ull * (user_id + 1);
  const cluster::KMeansResult km = cluster::kmeans(points, k, kmcfg);

  // Compact away empty clusters: k-means can re-seed a cluster in its final
  // iteration and converge before any point lands in it. Probing an empty
  // centroid would waste an nprobe slot — and at nprobe = 1 could produce
  // an empty candidate set.
  std::vector<std::uint32_t> remap(km.k, 0);
  std::vector<std::size_t> kept;
  {
    std::vector<std::size_t> counts(km.k, 0);
    for (const std::size_t a : km.assignment) ++counts[a];
    for (std::size_t c = 0; c < km.k; ++c) {
      if (counts[c] == 0) continue;
      remap[c] = static_cast<std::uint32_t>(kept.size());
      kept.push_back(c);
    }
  }

  auto router = std::make_shared<UserRouter>();
  router->member_begin.assign(kept.size() + 1, 0);
  for (const std::size_t a : km.assignment) ++router->member_begin[remap[a] + 1];
  for (std::size_t c = 0; c < kept.size(); ++c)
    router->member_begin[c + 1] += router->member_begin[c];
  router->members.resize(n);
  std::vector<std::uint32_t> cursor(router->member_begin.begin(),
                                    router->member_begin.end() - 1);
  for (std::size_t i = 0; i < n; ++i)
    router->members[cursor[remap[km.assignment[i]]]++] = static_cast<std::uint32_t>(i);

  // Low-bit sketch plane over the centroids. Only the integer grid matters:
  // ranking by q(x)·q(c) is scale-invariant (symmetric quantization scales
  // are positive), so the scale is dropped.
  Matrix centroid_mat(kept.size(), key_size);
  for (std::size_t c = 0; c < kept.size(); ++c)
    centroid_mat.set_row(c, km.centroids[kept[c]]);
  router->centroid_sketch = cim::quantize_symmetric(centroid_mat, kSketchBits).q;
  return router;
}

void ShardedOvtStore::ensure_shard_capacity_locked(std::size_t shard, std::size_t need) {
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.retriever == nullptr) {
    s.retriever = std::make_unique<retrieval::CimRetriever>(retriever_config(cfg_));
    s.retriever->store_mutable(key_size_, need, shard_base_rng_[shard]);
  } else if (s.retriever->n_keys() < need) {
    s.retriever->ensure_capacity(need);
  }
  s.capacity.store(s.retriever->n_keys(), std::memory_order_release);
}

std::vector<std::pair<std::size_t, std::size_t>> ShardedOvtStore::write_spans(
    std::size_t begin, std::size_t end) const {
  // Each span visits a single row-tile column range (what
  // Accelerator::program_keys hoists per-visit work out of).
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t c0 = begin; c0 < end;) {
    const std::size_t c1 = std::min(
        {end, (c0 / cfg_.crossbar.cols + 1) * cfg_.crossbar.cols, c0 + kProgramSpanCols});
    spans.emplace_back(c0, c1);
    c0 = c1;
  }
  return spans;
}

void ShardedOvtStore::write_keys(std::size_t shard, std::size_t begin, const Matrix* keys,
                                 std::size_t n) {
  Shard& s = *shards_[shard];
  for (const auto& [c0, c1] : write_spans(begin, begin + n)) {
    const std::vector<Matrix> span(keys + (c0 - begin), keys + (c1 - begin));
    // One span's column writes exclude this shard's MVM passes; other
    // shards keep serving, and readers of this one wait for 32 columns at
    // most.
    std::lock_guard<std::mutex> lock(s.mu);
    NVCIM_CHECK_MSG(s.retriever != nullptr, "shard " << shard << " not provisioned");
    s.retriever->program_keys(c0, span);
  }
}

void ShardedOvtStore::build(Rng& rng) {
  NVCIM_CHECK_MSG(!built_, "store already built");
  NVCIM_CHECK_MSG(!registration_order_.empty(), "no users registered");
  const auto snap = directory_.acquire();
  routed_ = cfg_.two_phase.enabled;

  // Per-shard noise bases are derived for every shard up front (even ones
  // still empty): a later admit into an empty shard must draw the same
  // streams a from-scratch build would have.
  shard_base_rng_.clear();
  for (std::size_t s = 0; s < shards_.size(); ++s)
    shard_base_rng_.push_back(rng.split(0x5A4D0ull + s));

  // Shards share no state while they are programmed — each has its own
  // retriever and noise base, and routers are seeded per user — so they
  // build in parallel, and every shard's crossbars and routers are exactly
  // those of a serial build.
  std::vector<std::vector<std::size_t>> users(shards_.size());
  for (const std::size_t user : registration_order_) users[snap->slot(user).shard].push_back(user);
  std::vector<RouterList> routers(shards_.size());
  run_per_shard(shards_.size(),
                [&](std::size_t s) { build_shard(s, *snap, users[s], routers[s]); });

  directory_.update([&](TenantSnapshot& t) {
    t.routers.clear();
    for (auto& shard_routers : routers)
      for (auto& [user, router] : shard_routers) t.routers[user] = std::move(router);
    t.shard_capacity.clear();
    for (const auto& shard : shards_)
      t.shard_capacity.push_back(shard->capacity.load(std::memory_order_acquire));
  });
  built_ = true;
}

void ShardedOvtStore::build_shard(std::size_t s, const TenantSnapshot& snap,
                                  const std::vector<std::size_t>& users, RouterList& routers) {
  const std::size_t tail = shards_[s]->allocator.tail();
  if (tail == 0) return;  // more shards than users (so far)
  // Only a lifecycle store admits after build, so only it gets headroom.
  const std::size_t capacity =
      cfg_.lifecycle.enabled
          ? std::max(tail, static_cast<std::size_t>(
                               std::ceil(static_cast<double>(tail) * kCapacityFactor)))
          : tail;
  ensure_shard_capacity_locked(s, capacity);
  // The capacity covers the allocator tail, so every slot fits. Per-key
  // scales and per-column noise streams make the cells independent of how
  // the writer groups columns.
  for (const std::size_t user : users) {
    const std::vector<Matrix>& keys = user_keys_.at(user);
    write_keys(s, snap.slot(user).begin, keys.data(), keys.size());
  }
  if (routed_)
    for (const std::size_t user : users)
      routers.emplace_back(user, build_router(user, user_keys_.at(user)));
}

// ---------------------------------------------------------------------------
// Online tenant lifecycle
// ---------------------------------------------------------------------------

void ShardedOvtStore::admit_user(std::size_t user_id, const std::vector<Matrix>& keys) {
  // Synchronous admission rides the staged protocol end to end, so the
  // write-behind path cannot drift from it: same placement, same spans,
  // same per-column streams — the only difference is which thread programs.
  const StagedAdmission staged = stage_admit(user_id, keys);
  try {
    for (std::size_t i = 0; i < staged.spans.size(); ++i) program_span(staged, i);
  } catch (...) {
    abort_admit(user_id);
    throw;
  }
  commit_admit(user_id);
}

ShardedOvtStore::StagedAdmission ShardedOvtStore::stage_admit(std::size_t user_id,
                                                              const std::vector<Matrix>& keys) {
  NVCIM_CHECK_MSG(cfg_.lifecycle.enabled, "tenant lifecycle disabled in this store");
  NVCIM_CHECK_MSG(built_, "stage_admit requires a built store (use add_user before build())");
  NVCIM_CHECK_MSG(!keys.empty(), "user " << user_id << " has no keys");
  for (const Matrix& k : keys)
    NVCIM_CHECK_MSG(k.size() == key_size_, "keys must share a common size");

  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  NVCIM_CHECK_MSG(!directory_.acquire()->has_user(user_id),
                  "user " << user_id << " already registered");
  const std::size_t shard = choose_shard_locked();
  // A freed range is reusable only when every reader pinned before its
  // freeing epoch has drained — otherwise an in-flight batch could read a
  // column mid-reprogram.
  const std::uint64_t safe = epochs_.min_active(directory_.epoch());
  const std::size_t begin = shards_[shard]->allocator.allocate(keys.size(), safe, slot_align());
  // Provision crossbar capacity up front, under the staging lock: the span
  // tasks then only ever write existing subarrays, so deferred programming
  // can never race a tile-grid grow triggered by a later admission.
  ensure_shard_capacity_locked(shard, begin + keys.size());

  std::shared_ptr<const UserRouter> router;
  if (routed_) {
    router = build_router(user_id, keys);
    ++router_refreshes_;
  }
  user_keys_[user_id] = keys;
  directory_.update([&](TenantSnapshot& t) {
    t.slots[user_id] = UserSlot{shard, begin, begin + keys.size()};
    if (router != nullptr) t.routers[user_id] = router;
    t.shard_capacity[shard] = shards_[shard]->capacity.load(std::memory_order_acquire);
    // Published but pending: placement and reclamation see the slot, the
    // query path does not (is_live() is false until commit_admit()).
    t.pending.insert(user_id);
  });

  StagedAdmission staged;
  staged.user_id = user_id;
  staged.shard = shard;
  staged.begin = begin;
  staged.keys = std::make_shared<const std::vector<Matrix>>(keys);
  // The writer's own spans, so each staged span is one write_keys() span.
  staged.spans = write_spans(begin, begin + keys.size());
  return staged;
}

void ShardedOvtStore::program_span(const StagedAdmission& staged, std::size_t idx) {
  NVCIM_CHECK_MSG(idx < staged.spans.size(), "span " << idx << " out of range");
  const auto [c0, c1] = staged.spans[idx];
  write_keys(staged.shard, c0, staged.keys->data() + (c0 - staged.begin), c1 - c0);
}

void ShardedOvtStore::commit_admit(std::size_t user_id) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  NVCIM_CHECK_MSG(directory_.acquire()->pending.count(user_id) > 0,
                  "user " << user_id << " has no staged admission");
  directory_.update([&](TenantSnapshot& t) { t.pending.erase(user_id); });
}

void ShardedOvtStore::abort_admit(std::size_t user_id) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  const auto snap = directory_.acquire();
  if (!snap->has_user(user_id) || snap->pending.count(user_id) == 0) return;
  const UserSlot slot = snap->slot(user_id);
  const std::uint64_t freed_epoch = directory_.update([&](TenantSnapshot& t) {
    t.slots.erase(user_id);
    t.routers.erase(user_id);
    t.pending.erase(user_id);
  });
  shards_[slot.shard]->allocator.release(slot.begin, slot.end, freed_epoch);
  user_keys_.erase(user_id);
}

bool ShardedOvtStore::user_live(std::size_t user_id) const {
  return directory_.acquire()->is_live(user_id);
}

void ShardedOvtStore::evict_user(std::size_t user_id) {
  NVCIM_CHECK_MSG(cfg_.lifecycle.enabled, "tenant lifecycle disabled in this store");
  NVCIM_CHECK_MSG(built_, "store not built");
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  const auto snap = directory_.acquire();
  const UserSlot slot = snap->slot(user_id);  // throws for unknown users
  NVCIM_CHECK_MSG(snap->pending.count(user_id) == 0,
                  "user " << user_id << " has a staged admission in flight — "
                          << "join it (AdmissionHandle::wait) before evicting");
  // Unpublish first, then free: the range's reuse is deferred past every
  // reader still pinned to an epoch that contains the slot.
  const std::uint64_t freed_epoch = directory_.update([&](TenantSnapshot& t) {
    t.slots.erase(user_id);
    t.routers.erase(user_id);
  });
  shards_[slot.shard]->allocator.release(slot.begin, slot.end, freed_epoch);
  user_keys_.erase(user_id);
}

void ShardedOvtStore::migrate_user(std::size_t user_id, std::size_t to_shard) {
  NVCIM_CHECK_MSG(cfg_.lifecycle.enabled, "tenant lifecycle disabled in this store");
  NVCIM_CHECK_MSG(built_, "store not built");
  NVCIM_CHECK_MSG(to_shard < shards_.size(), "shard " << to_shard << " out of range");
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  const auto snap = directory_.acquire();
  const UserSlot from = snap->slot(user_id);
  NVCIM_CHECK_MSG(from.shard != to_shard, "user " << user_id << " already on shard " << to_shard);
  NVCIM_CHECK_MSG(snap->pending.count(user_id) == 0,
                  "user " << user_id << " has a staged admission in flight");
  const std::vector<Matrix>& keys = user_keys_.at(user_id);

  // Program-then-publish-then-free: the new columns are fully programmed
  // before any reader can be routed to them, old-epoch readers keep scoring
  // the old columns, and the old range only becomes reusable once they
  // drain. No quiesce anywhere.
  const std::uint64_t safe = epochs_.min_active(directory_.epoch());
  const std::size_t begin =
      shards_[to_shard]->allocator.allocate(keys.size(), safe, slot_align());
  ensure_shard_capacity_locked(to_shard, begin + keys.size());
  write_keys(to_shard, begin, keys.data(), keys.size());
  const std::uint64_t freed_epoch = directory_.update([&](TenantSnapshot& t) {
    t.slots[user_id] = UserSlot{to_shard, begin, begin + keys.size()};
    // The router is slot-local (member indices are user-local), so migration
    // never re-clusters — router refresh stays incremental by construction.
    t.shard_capacity[to_shard] = shards_[to_shard]->capacity.load(std::memory_order_acquire);
  });
  shards_[from.shard]->allocator.release(from.begin, from.end, freed_epoch);
}

std::vector<Migration> ShardedOvtStore::plan_rebalance() const {
  NVCIM_CHECK_MSG(cfg_.lifecycle.enabled, "tenant lifecycle disabled in this store");
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  std::vector<std::size_t> occupied;
  occupied.reserve(shards_.size());
  for (const auto& s : shards_) occupied.push_back(s->allocator.occupied());
  const auto snap = directory_.acquire();
  if (snap->pending.empty())
    return serve::plan_rebalance(occupied, snap->slots, kRebalanceTolerance,
                                 kMaxMigrationsPerCycle);
  // A mid-programming tenant cannot migrate (its columns are still being
  // written) — plan only over settled slots.
  std::unordered_map<std::size_t, UserSlot> movable = snap->slots;
  for (const std::size_t u : snap->pending) movable.erase(u);
  return serve::plan_rebalance(occupied, movable, kRebalanceTolerance, kMaxMigrationsPerCycle);
}

PinnedDirectory ShardedOvtStore::pin() const {
  PinnedDirectory p;
  for (;;) {
    p.snap = directory_.acquire();
    p.guard = epochs_.pin(p.snap->epoch);
    // The acquire→pin pair is not atomic: a publish landing between the two
    // steps could free — and, since min_active() cannot see the pin yet,
    // immediately hand out — a slot this snapshot still references. If the
    // epoch moved, drop the stale pin (guard reassignment releases it) and
    // retry; once the epoch is unchanged AFTER the pin registered, any
    // later free carries a younger epoch and defers to this guard.
    if (directory_.epoch() == p.snap->epoch) return p;
  }
}

std::size_t ShardedOvtStore::shard_occupied(std::size_t shard) const {
  NVCIM_CHECK_MSG(shard < shards_.size(), "shard " << shard << " out of range");
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  return shards_[shard]->allocator.occupied();
}

std::size_t ShardedOvtStore::router_refreshes() const {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  return router_refreshes_;
}

// ---------------------------------------------------------------------------
// Directory reads
// ---------------------------------------------------------------------------

std::size_t ShardedOvtStore::n_users() const { return directory_.acquire()->slots.size(); }

std::size_t ShardedOvtStore::n_keys() const {
  const auto snap = directory_.acquire();
  std::size_t n = 0;
  for (const auto& [id, slot] : snap->slots) {
    (void)id;
    n += slot.n_keys();
  }
  return n;
}

bool ShardedOvtStore::has_user(std::size_t user_id) const {
  return directory_.acquire()->has_user(user_id);
}

ShardedOvtStore::UserSlot ShardedOvtStore::slot(std::size_t user_id) const {
  return directory_.acquire()->slot(user_id);
}

std::size_t ShardedOvtStore::shard_keys(std::size_t shard) const {
  NVCIM_CHECK_MSG(built_, "store not built");
  NVCIM_CHECK_MSG(shard < shards_.size(), "shard " << shard << " out of range");
  return shards_[shard]->capacity.load(std::memory_order_acquire);
}

std::size_t ShardedOvtStore::router_k(std::size_t user_id) const {
  const auto snap = directory_.acquire();
  auto it = snap->routers.find(user_id);
  NVCIM_CHECK_MSG(it != snap->routers.end(), "no router for user " << user_id);
  return it->second->member_begin.size() - 1;
}

// ---------------------------------------------------------------------------
// Query path
// ---------------------------------------------------------------------------

void ShardedOvtStore::slot_spans(const TenantSnapshot& snap, std::size_t shard,
                                 const std::vector<std::size_t>& row_users,
                                 cim::PassSpans& out) {
  out.clear();
  for (std::size_t b = 0; b < row_users.size(); ++b) {
    const UserSlot& us = snap.slot(row_users[b]);
    NVCIM_CHECK_MSG(us.shard == shard, "query row " << b << " targets shard " << us.shard
                                                    << ", not " << shard);
    out.add_row(us.begin, us.end);
  }
}

std::size_t ShardedOvtStore::route_candidates(const TenantSnapshot& snap, std::size_t shard,
                                              const Matrix& queries,
                                              const std::vector<std::size_t>& row_users,
                                              cim::PassSpans& out, RouteScratch& rs) const {
  NVCIM_CHECK_MSG(built_, "store not built");
  NVCIM_CHECK_MSG(routed(), "two-phase retrieval not enabled at build time");
  NVCIM_CHECK_MSG(queries.rows() == row_users.size(), "one user per query row required");
  NVCIM_CHECK_MSG(shard < snap.shard_capacity.size(), "shard " << shard << " out of range");
  const std::size_t B = queries.rows();
  const std::size_t key_size = queries.cols();
  slot_spans(snap, shard, row_users, out);
  out.clear_candidates();

  const float qmax = static_cast<float>(cim::qmax_for_bits(kSketchBits));
  rs.qsketch.resize(key_size);

  for (std::size_t b = 0; b < B; ++b) {
    const UserRouter& router = *snap.routers.at(row_users[b]);
    const std::size_t k = router.member_begin.size() - 1;

    // Sketch the query at the same bit width as the stored planes.
    const float* q = queries.data() + b * key_size;
    float ma = 0.0f;
    for (std::size_t i = 0; i < key_size; ++i) ma = std::max(ma, std::fabs(q[i]));
    const float scale = ma > 0.0f ? ma / qmax : 1.0f;
    for (std::size_t i = 0; i < key_size; ++i) rs.qsketch[i] = std::round(q[i] / scale);

    // Rank centroids by the sketch inner product (the cheap phase-1 GEMM:
    // k × key_size multiply-adds per query, vs shard_keys × key_size for
    // the exact pass).
    rs.centroid_scores.resize(k);
    for (std::size_t c = 0; c < k; ++c) {
      const float* cent = router.centroid_sketch.data() + c * key_size;
      float s = 0.0f;
      for (std::size_t i = 0; i < key_size; ++i) s += rs.qsketch[i] * cent[i];
      rs.centroid_scores[c] = s;
    }
    const std::size_t np =
        (cfg_.two_phase.nprobe == 0 || cfg_.two_phase.nprobe >= k) ? k : cfg_.two_phase.nprobe;
    rs.order.resize(k);
    for (std::size_t c = 0; c < k; ++c) rs.order[c] = static_cast<std::uint32_t>(c);
    std::partial_sort(rs.order.begin(), rs.order.begin() + np, rs.order.end(),
                      [&rs](std::uint32_t a, std::uint32_t c) {
                        return rs.centroid_scores[a] > rs.centroid_scores[c];
                      });

    // Expand the probed clusters to member keys (user-local indices, which
    // are the span's columns).
    for (std::size_t p = 0; p < np; ++p) {
      const std::uint32_t c = rs.order[p];
      for (std::uint32_t m = router.member_begin[c]; m < router.member_begin[c + 1]; ++m)
        out.set_candidate(b, router.members[m]);
    }
    NVCIM_CHECK_MSG(out.any_candidate(b, 0, out.width()),
                    "router produced an empty candidate set");
  }

  // Block-granular examined count, mirroring the kernel: columns tile into
  // crossbar subarrays of cfg_.crossbar.cols, and within a tile candidate
  // work rounds up to accumulator blocks of Crossbar::kBlockColumns output
  // columns. Each row walks the blocks of its own slot and counts those
  // holding one of its candidates.
  const std::size_t tile_cols = cfg_.crossbar.cols;
  const std::size_t width = snap.shard_capacity[shard];
  constexpr std::size_t block_cols = cim::Crossbar::kBlockColumns;
  std::size_t examined = 0;
  for (std::size_t b = 0; b < B; ++b) {
    const std::size_t k0 = out.begin(b);
    for (std::size_t c = k0; c < out.end(b);) {
      const std::size_t t0 = c / tile_cols * tile_cols;
      const std::size_t c0 = t0 + (c - t0) / block_cols * block_cols;
      const std::size_t c1 = std::min({c0 + block_cols, t0 + tile_cols, width});
      if (out.any_candidate(b, c - k0, c1 - k0)) examined += c1 - c0;
      c = c1;
    }
  }
  return examined;
}

Matrix ShardedOvtStore::shard_scores(std::size_t shard, const Matrix& queries) {
  Matrix out;
  retrieval::CimRetriever::Scratch scratch;
  shard_scores_into(shard, queries, out, scratch);
  return out;
}

void ShardedOvtStore::shard_scores_into(std::size_t shard, const Matrix& queries, Matrix& out,
                                        retrieval::CimRetriever::Scratch& scratch,
                                        const cim::PassSpans* spans) {
  NVCIM_CHECK_MSG(built_, "store not built");
  NVCIM_CHECK_MSG(shard < shards_.size(), "shard " << shard << " out of range");
  Shard& s = *shards_[shard];
  // The retriever pointer is read under the shard lock: lifecycle admits
  // may create it (empty shard) or grow it concurrently.
  std::lock_guard<std::mutex> lock(s.mu);
  NVCIM_CHECK_MSG(s.retriever != nullptr, "shard " << shard << " holds no keys");
  s.retriever->scores_batch_into(queries, out, scratch, spans);
}

std::size_t ShardedOvtStore::retrieve_user(std::size_t user_id, const Matrix& query) {
  NVCIM_CHECK_MSG(built_, "store not built");
  // Pin like the batch path does: between reading the slot and scoring it,
  // a concurrent migrate-then-admit could otherwise reprogram the columns
  // under this reader.
  const PinnedDirectory pinned = pin();
  const UserSlot us = pinned.slot(user_id);
  Shard& s = *shards_[us.shard];
  std::lock_guard<std::mutex> lock(s.mu);
  NVCIM_CHECK_MSG(s.retriever != nullptr, "shard " << us.shard << " holds no keys");
  const Matrix scores = s.retriever->scores(query);
  return best_in_slot(scores, 0, us);
}

std::size_t ShardedOvtStore::best_in_slot(const Matrix& scores, std::size_t row,
                                          const UserSlot& slot) {
  NVCIM_CHECK_MSG(slot.end <= scores.cols(), "slot exceeds score row");
  NVCIM_CHECK_MSG(slot.n_keys() > 0, "empty slot");
  std::size_t best = slot.begin;
  for (std::size_t i = slot.begin + 1; i < slot.end; ++i)
    if (scores(row, i) > scores(row, best)) best = i;
  return best - slot.begin;
}

std::size_t ShardedOvtStore::best_candidate(const Matrix& scores, std::size_t row,
                                            const cim::PassSpans& spans) {
  NVCIM_CHECK_MSG(spans.width() <= scores.cols(), "spans exceed score row");
  const std::size_t n = spans.end(row) - spans.begin(row);
  std::size_t best = n;  // sentinel: no candidate seen yet
  for (std::size_t j = 0; j < n; ++j) {
    if (!spans.candidate(row, j)) continue;
    if (best == n || scores(row, j) > scores(row, best)) best = j;
  }
  NVCIM_CHECK_MSG(best != n, "no candidate inside the user's slot");
  return best;
}

cim::OpCounters ShardedOvtStore::counters() const {
  cim::OpCounters c;
  for (const auto& s : shards_) {
    // Bank queries mutate the counters, so reading them takes the same
    // per-shard lock as shard_scores().
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->retriever != nullptr) c += s->retriever->counters();
  }
  return c;
}

// ---------------------------------------------------------------------------
// Device-fault tolerance
// ---------------------------------------------------------------------------

std::size_t ShardedOvtStore::shard_subarrays(std::size_t shard) const {
  NVCIM_CHECK_MSG(shard < shards_.size(), "shard " << shard << " out of range");
  return shards_[shard]->capacity.load(std::memory_order_acquire) / cols_per_subarray();
}

std::size_t ShardedOvtStore::inject_column_fault(std::size_t shard, std::size_t col,
                                                 nvm::FaultKind kind, std::size_t n_cells,
                                                 std::uint64_t seed) {
  NVCIM_CHECK_MSG(shard < shards_.size(), "shard " << shard << " out of range");
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  NVCIM_CHECK_MSG(s.retriever != nullptr, "shard " << shard << " not provisioned");
  return s.retriever->inject_column_fault(col, kind, n_cells, seed);
}

void ShardedOvtStore::kill_subarray(std::size_t shard, std::size_t sub) {
  NVCIM_CHECK_MSG(shard < shards_.size(), "shard " << shard << " out of range");
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  NVCIM_CHECK_MSG(s.retriever != nullptr, "shard " << shard << " not provisioned");
  s.retriever->kill_subarray(sub);
}

void ShardedOvtStore::set_drift_rate(double rate_per_tick) {
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->retriever != nullptr) s->retriever->set_drift_rate(rate_per_tick);
  }
}

void ShardedOvtStore::advance_age(std::uint64_t ticks) {
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->retriever != nullptr) s->retriever->advance_age(ticks);
  }
}

ScrubReport ShardedOvtStore::scrub_subarray(std::size_t shard, std::size_t sub) {
  NVCIM_CHECK_MSG(built_, "store not built");
  NVCIM_CHECK_MSG(shard < shards_.size(), "shard " << shard << " out of range");
  ScrubReport report;
  if (subarray_quarantined(shard, sub)) {  // retired — its columns no longer serve
    report.health = SubarrayHealth::Failed;
    return report;
  }
  const std::size_t cols = cols_per_subarray();
  const std::size_t begin = sub * cols, end = begin + cols;
  Shard& s = *shards_[shard];
  // Individually-retired columns (stuck hardware pulled from the placement
  // pool) stay physically deviant forever: skip them, or every pass would
  // re-flag the same dead column and pump the subarray's stuck count toward
  // quarantine. Snapshot the retired set first — lifecycle_mu_ precedes
  // s.mu in the lock order, and a column retiring between snapshot and
  // probe is benign (flagged once more, skipped next pass).
  std::vector<bool> retired(cols, false);
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    for (std::size_t c = begin; c < end; ++c)
      retired[c - begin] = s.allocator.is_quarantined(c, c + 1);
  }
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.retriever == nullptr || end > s.retriever->n_keys()) return report;
    for (std::size_t c = begin; c < end; ++c) {
      if (retired[c - begin]) continue;
      ++report.columns_probed;
      if (s.retriever->probe_column(c).deviant > 0) report.degraded.push_back(c);
    }
  }
  {
    std::lock_guard<std::mutex> h(health_mu_);
    auto& dset = degraded_cols_[shard];
    // Re-probe supersedes the previous verdict for every column visited.
    for (std::size_t c = begin; c < end; ++c) dset.erase(c);
    for (const std::size_t c : report.degraded) dset.insert(c);
    if (report.degraded.empty())
      subarray_health_[shard].erase(sub);  // Healthy is the map's default
    else
      subarray_health_[shard][sub] = SubarrayHealth::Degraded;
  }
  report.health = report.degraded.empty() ? SubarrayHealth::Healthy : SubarrayHealth::Degraded;
  return report;
}

std::vector<std::size_t> ShardedOvtStore::repair_columns(std::size_t shard,
                                                         const std::vector<std::size_t>& cols) {
  NVCIM_CHECK_MSG(cfg_.lifecycle.enabled, "tenant lifecycle disabled in this store");
  NVCIM_CHECK_MSG(shard < shards_.size(), "shard " << shard << " out of range");
  std::vector<std::size_t> stuck;
  if (cols.empty()) return stuck;
  // The lifecycle lock stabilizes the directory and the retained keys for
  // the whole pass; the writer takes the shard lock per span, so serving on
  // this shard is excluded per span, not per pass.
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  const auto snap = directory_.acquire();
  // One write per run of adjacent columns of one tenant. Per-column noise
  // streams and per-key quantization scales make the rewrite bit-identical
  // to the original programming — drifted or disturbed cells land back on
  // their pristine levels exactly. An unowned deviant column has nothing to
  // rewrite it from.
  for (std::size_t i = 0; i < cols.size();) {
    const std::optional<std::size_t> user = snap->owner(shard, cols[i]);
    if (!user) {
      ++i;
      continue;
    }
    const UserSlot& slot = snap->slot(*user);
    std::size_t j = i + 1;
    while (j < cols.size() && cols[j] == cols[j - 1] + 1 && cols[j] < slot.end) ++j;
    write_keys(shard, cols[i], &user_keys_.at(*user)[cols[i] - slot.begin], j - i);
    i = j;
  }
  // A stuck cell survives the rewrite either way — the re-probe decides.
  Shard& s = *shards_[shard];
  for (const std::size_t col : cols) {
    std::lock_guard<std::mutex> slock(s.mu);
    NVCIM_CHECK_MSG(s.retriever != nullptr, "shard " << shard << " not provisioned");
    if (s.retriever->probe_column(col).deviant > 0) stuck.push_back(col);
  }
  {
    std::lock_guard<std::mutex> h(health_mu_);
    auto& dset = degraded_cols_[shard];
    for (const std::size_t col : cols) dset.erase(col);
    for (const std::size_t col : stuck) dset.insert(col);
  }
  return stuck;
}

ScrubOutcome ShardedOvtStore::scrub_and_repair(std::size_t shard, std::size_t sub,
                                               const ScrubPolicy& policy) {
  ScrubOutcome out;
  const ScrubReport report = scrub_subarray(shard, sub);
  out.columns_probed = report.columns_probed;
  out.columns_degraded = report.degraded.size();
  out.health = report.health;
  if (report.degraded.empty()) return out;

  const std::vector<std::size_t> stuck = repair_columns(shard, report.degraded);
  out.columns_repaired = report.degraded.size() - stuck.size();
  out.columns_stuck = stuck.size();
  if (stuck.empty()) {
    std::lock_guard<std::mutex> h(health_mu_);
    subarray_health_[shard].erase(sub);
    out.health = SubarrayHealth::Healthy;
    return out;
  }

  // Stuck columns are bad hardware: retire each from the placement pool
  // (later releases of overlapping slots drop the quarantined part), and
  // plan migrations for the tenants still sitting on them.
  std::vector<std::pair<std::size_t, std::size_t>> moves;  // user → target shard
  std::size_t stuck_total = 0;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    const auto snap = directory_.acquire();
    std::unordered_set<std::size_t> owners;
    for (const std::size_t col : stuck) {
      shards_[shard]->allocator.quarantine(col, col + 1);
      const std::optional<std::size_t> user = snap->owner(shard, col);
      if (user && shards_.size() > 1 && snap->pending.count(*user) == 0 &&
          owners.insert(*user).second)
        moves.emplace_back(*user, choose_shard_locked(shard));
    }
    std::lock_guard<std::mutex> h(health_mu_);
    stuck_total = (subarray_stuck_[shard][sub] += stuck.size());
  }

  // Migrations run without the lifecycle lock held — migrate_user takes it
  // itself (program-then-publish-then-free, no quiesce). Until a tenant has
  // moved, its stuck columns stay in the degraded set, so its responses keep
  // carrying the degraded flag rather than failing.
  for (const auto& [user, target] : moves) {
    migrate_user(user, target);
    out.migrated_users.push_back(user);
  }
  {
    // Retire the stuck columns of migrated (or unowned) slots from the
    // degraded set; columns whose tenant could not move stay flagged.
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    const auto snap = directory_.acquire();
    std::lock_guard<std::mutex> h(health_mu_);
    auto& dset = degraded_cols_[shard];
    for (const std::size_t col : stuck)
      if (!snap->owner(shard, col)) dset.erase(col);
    subarray_health_[shard][sub] = SubarrayHealth::Degraded;
  }
  out.health = SubarrayHealth::Degraded;

  if (stuck_total >= policy.quarantine_after) {
    quarantine_subarray(shard, sub);
    out.quarantined = true;
    out.health = SubarrayHealth::Failed;
  }
  return out;
}

void ShardedOvtStore::quarantine_subarray(std::size_t shard, std::size_t sub) {
  NVCIM_CHECK_MSG(cfg_.lifecycle.enabled, "tenant lifecycle disabled in this store");
  NVCIM_CHECK_MSG(shard < shards_.size(), "shard " << shard << " out of range");
  const std::size_t cols = cols_per_subarray();
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    shards_[shard]->allocator.quarantine(sub * cols, (sub + 1) * cols);
  }
  std::lock_guard<std::mutex> h(health_mu_);
  subarray_health_[shard][sub] = SubarrayHealth::Failed;
}

bool ShardedOvtStore::subarray_quarantined(std::size_t shard, std::size_t sub) const {
  // Health-map Failed, not allocator intersection: a single retired column
  // must not mark its whole subarray as quarantined.
  return subarray_health(shard, sub) == SubarrayHealth::Failed;
}

SubarrayHealth ShardedOvtStore::subarray_health(std::size_t shard, std::size_t sub) const {
  NVCIM_CHECK_MSG(shard < shards_.size(), "shard " << shard << " out of range");
  std::lock_guard<std::mutex> h(health_mu_);
  const auto it = subarray_health_[shard].find(sub);
  return it == subarray_health_[shard].end() ? SubarrayHealth::Healthy : it->second;
}

std::size_t ShardedOvtStore::degraded_columns(std::size_t shard) const {
  NVCIM_CHECK_MSG(shard < shards_.size(), "shard " << shard << " out of range");
  std::lock_guard<std::mutex> h(health_mu_);
  return degraded_cols_[shard].size();
}

bool ShardedOvtStore::user_degraded(std::size_t user_id) const {
  const auto snap = directory_.acquire();
  const auto it = snap->slots.find(user_id);
  if (it == snap->slots.end()) return false;
  const UserSlot& slot = it->second;
  std::lock_guard<std::mutex> h(health_mu_);
  const auto& dset = degraded_cols_[slot.shard];
  if (dset.empty()) return false;
  for (const std::size_t col : dset)
    if (col >= slot.begin && col < slot.end) return true;
  return false;
}

}  // namespace nvcim::serve
