// Online tenant lifecycle (PR 5): live admission/eviction, epoch-versioned
// directory, shard rebalancing and incremental router refresh.
//
//  - slot allocator: alignment, coalescing (alignment gaps included),
//    epoch-deferred reuse
//  - rebalance planning moves users from overloaded to underloaded shards
//  - incremental program_keys() is bit-identical to a from-scratch program
//    of the same keys at the same columns, and never perturbs other columns
//  - a user admitted after build() retrieves identically to a from-scratch
//    build containing that user; untouched users stay bit-identical across
//    admit/evict/migrate (nprobe = all included)
//  - a lifecycle-off build places and programs exactly as a lifecycle-on
//    one and differs only in having no capacity headroom
//  - evicted slots are reused by later admits — unless a pinned epoch still
//    covers them, in which case reuse is deferred until the pin drops
//  - two-phase recall stays >= 0.95 for users admitted via router refresh
//  - the engine serves through admits/evictions/rebalances (parallel shard
//    fan-out on), with lifecycle counters in EngineStats
//  - submit() under OverloadPolicy::Reject returns an invalid handle
//    instead of blocking on a full queue
//  - add_user() after build(): hard error without lifecycle, live admission
//    with it.
//
// The engine suites run under ASan/TSan in CI (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <vector>

#include "nvcim/serve/engine.hpp"

namespace nvcim {
namespace {

// ---------------------------------------------------------------------------
// SlotAllocator / rebalance planning (pure logic).
// ---------------------------------------------------------------------------

TEST(LifecycleAllocator, TailBumpAlignmentAndGapReuse) {
  serve::SlotAllocator a;
  EXPECT_EQ(a.allocate(5, 0, 1), 0u);
  // Aligned allocation skips to the next block boundary; the gap is free.
  EXPECT_EQ(a.allocate(6, 0, 8), 8u);
  EXPECT_EQ(a.occupied(), 11u);
  EXPECT_EQ(a.tail(), 14u);
  // The 3-column alignment gap [5, 8) is immediately reusable.
  EXPECT_EQ(a.allocate(3, 0, 1), 5u);
  EXPECT_EQ(a.occupied(), 14u);
}

TEST(LifecycleAllocator, ReleaseCoalescesAndReuses) {
  serve::SlotAllocator a;
  const std::size_t s0 = a.allocate(4, 0, 1);
  const std::size_t s1 = a.allocate(4, 0, 1);
  const std::size_t s2 = a.allocate(4, 0, 1);
  (void)s2;
  a.release(s0, s0 + 4, 1);
  a.release(s1, s1 + 4, 2);
  EXPECT_EQ(a.free_ranges(), 1u);  // [0, 8) coalesced
  // The merged range carries the younger epoch (2): not reusable at safe=1,
  // so the allocation bumps the tail…
  EXPECT_EQ(a.allocate(8, 1, 1), 12u);
  // …but at safe=2 the coalesced range is handed out.
  EXPECT_EQ(a.allocate(8, 2, 1), 0u);
}

TEST(LifecycleAllocator, EpochDefersReuse) {
  serve::SlotAllocator a;
  const std::size_t s0 = a.allocate(4, 0, 1);
  a.allocate(4, 0, 1);
  a.release(s0, s0 + 4, /*freed_epoch=*/5);
  // A reader pinned at epoch 3 may still score those columns: allocate must
  // bump the tail instead.
  EXPECT_EQ(a.allocate(4, /*safe_epoch=*/3, 1), 8u);
  // Once every pin >= 5, the freed range is handed out again.
  EXPECT_EQ(a.allocate(4, /*safe_epoch=*/5, 1), 0u);
}

TEST(SlotAllocator, AlignmentGapCoalescesWithFreedTail) {
  serve::SlotAllocator a;
  EXPECT_EQ(a.allocate(5, 0, 16), 0u);
  a.release(0, 5, 1);
  // Not reclaimable at safe epoch 0: bump the tail past the gap [5, 16),
  // which merges with the freed [0, 5) into one range tagged epoch 1.
  EXPECT_EQ(a.allocate(16, 0, 16), 16u);
  EXPECT_EQ(a.free_ranges(), 1u);
  // Once epoch 1 drains, the merged [0, 16) takes a whole aligned slot.
  EXPECT_EQ(a.allocate(16, 1, 16), 0u);
  EXPECT_EQ(a.tail(), 32u);
  EXPECT_EQ(a.free_ranges(), 0u);
}

TEST(LifecyclePlan, MovesUsersFromOverloadedToUnderloaded) {
  std::unordered_map<std::size_t, serve::UserSlot> slots;
  slots[0] = {0, 0, 8};
  slots[1] = {0, 8, 16};
  slots[2] = {0, 16, 24};
  slots[3] = {1, 0, 2};
  const auto plan = serve::plan_rebalance({24, 2}, slots, 0.25, 4);
  ASSERT_FALSE(plan.empty());
  std::size_t occ0 = 24, occ1 = 2;
  for (const auto& m : plan) {
    EXPECT_EQ(m.from_shard, 0u);
    EXPECT_EQ(m.to_shard, 1u);
    occ0 -= m.n_keys;
    occ1 += m.n_keys;
  }
  // Within tolerance of the mean (13) afterwards.
  EXPECT_LE(static_cast<double>(std::max(occ0, occ1)), 1.25 * 13.0 + 1e-9);
}

TEST(LifecyclePlan, BalancedLoadPlansNothing) {
  std::unordered_map<std::size_t, serve::UserSlot> slots;
  slots[0] = {0, 0, 8};
  slots[1] = {1, 0, 8};
  EXPECT_TRUE(serve::plan_rebalance({8, 8}, slots, 0.25, 4).empty());
}

// "Within tolerance" is inclusive: mean 8, bound (1 + 0.25) × 8 = 10.
TEST(LifecyclePlan, ShardExactlyAtToleranceBoundPlansNothing) {
  std::unordered_map<std::size_t, serve::UserSlot> slots;
  slots[0] = {0, 0, 2};  // movable: 2 · 2 <= the 4-key gap
  slots[1] = {0, 2, 10};
  slots[2] = {1, 0, 6};
  EXPECT_TRUE(serve::plan_rebalance({10, 6}, slots, 0.25, 4).empty());
}

TEST(LifecyclePlan, ShardJustAboveToleranceBoundPlansAMigration) {
  std::unordered_map<std::size_t, serve::UserSlot> slots;
  slots[0] = {0, 0, 2};
  slots[1] = {0, 2, 11};
  slots[2] = {1, 0, 5};
  const auto plan = serve::plan_rebalance({11, 5}, slots, 0.25, 4);
  ASSERT_EQ(plan.size(), 1u);  // 11 → 9 is back inside the bound of 10
  EXPECT_EQ(plan[0].user_id, 0u);
  EXPECT_EQ(plan[0].from_shard, 0u);
  EXPECT_EQ(plan[0].to_shard, 1u);
  EXPECT_EQ(plan[0].n_keys, 2u);
}

// ---------------------------------------------------------------------------
// Retriever-level incremental programming.
// ---------------------------------------------------------------------------

std::vector<Matrix> random_keys(std::size_t n, std::size_t rows, std::size_t cols, Rng& rng) {
  std::vector<Matrix> keys;
  for (std::size_t i = 0; i < n; ++i)
    keys.push_back(Matrix::rand_uniform(rows, cols, rng, -1.0f, 1.0f));
  return keys;
}

retrieval::CimRetriever::Config small_retriever_config() {
  retrieval::CimRetriever::Config cfg;
  cfg.crossbar.rows = 48;
  cfg.crossbar.cols = 8;  // several column subarrays at these key counts
  cfg.variation = {nvm::fefet3(), 0.1};
  return cfg;
}

TEST(LifecycleRetriever, IncrementalProgramBitIdenticalToFromScratch) {
  Rng kr(101);
  const std::vector<Matrix> a = random_keys(5, 4, 8, kr);
  const std::vector<Matrix> b = random_keys(7, 4, 8, kr);

  const Rng base(2024);
  retrieval::CimRetriever inc(small_retriever_config());
  inc.store_mutable(32, 6, base);
  inc.program_keys(0, a);

  Rng qr(102);
  const Matrix queries = Matrix::randn(3, 32, qr);
  retrieval::CimRetriever::Scratch s1, s2;
  Matrix before;
  inc.scores_batch_into(queries, before, s1);

  // Grow and program B behind A: A's columns must not change a single bit.
  inc.ensure_capacity(5 + b.size());
  inc.program_keys(5, b);
  Matrix after;
  inc.scores_batch_into(queries, after, s2);
  for (std::size_t q = 0; q < 3; ++q)
    for (std::size_t c = 0; c < 5; ++c)
      ASSERT_EQ(before(q, c), after(q, c)) << "untouched column " << c;

  // From-scratch store programming A and B in ONE pass at the same columns:
  // bit-identical everywhere, including B's columns.
  retrieval::CimRetriever scratch(small_retriever_config());
  scratch.store_mutable(32, 5 + b.size(), base);
  std::vector<Matrix> ab = a;
  ab.insert(ab.end(), b.begin(), b.end());
  scratch.program_keys(0, ab);
  retrieval::CimRetriever::Scratch s3;
  Matrix fresh;
  scratch.scores_batch_into(queries, fresh, s3);
  ASSERT_EQ(fresh.cols(), after.cols());
  for (std::size_t q = 0; q < 3; ++q)
    for (std::size_t c = 0; c < 5 + b.size(); ++c)
      ASSERT_EQ(fresh(q, c), after(q, c)) << "column " << c;

  // Unprogrammed capacity columns score exactly zero.
  for (std::size_t c = 5 + b.size(); c < after.cols(); ++c)
    EXPECT_EQ(after(0, c), 0.0f) << "free column " << c;
}

// ---------------------------------------------------------------------------
// Store-level lifecycle.
// ---------------------------------------------------------------------------

serve::OvtStoreConfig lifecycle_store_config(std::size_t shards, bool two_phase = false) {
  serve::OvtStoreConfig cfg;
  cfg.n_shards = shards;
  cfg.crossbar.rows = 64;
  cfg.crossbar.cols = 16;
  cfg.variation = {nvm::fefet3(), 0.1};
  cfg.lifecycle.enabled = true;
  cfg.two_phase.enabled = two_phase;
  return cfg;
}

TEST(LifecycleStore, AdmitAfterBuildMatchesFromScratchBuild) {
  Rng kr(301);
  std::vector<std::vector<Matrix>> keys;
  for (std::size_t u = 0; u < 6; ++u) keys.push_back(random_keys(4, 4, 8, kr));

  serve::ShardedOvtStore inc(lifecycle_store_config(2));
  for (std::size_t u = 0; u < 4; ++u) inc.add_user(u, keys[u]);
  Rng r1(7);
  inc.build(r1);
  inc.admit_user(4, keys[4]);
  inc.admit_user(5, keys[5]);

  serve::ShardedOvtStore scratch(lifecycle_store_config(2));
  for (std::size_t u = 0; u < 6; ++u) scratch.add_user(u, keys[u]);
  Rng r2(7);
  scratch.build(r2);
  // A fresh build provisions ⌈1.5 × tail⌉ columns, rounded up to whole
  // 16-column subarrays: 12 packed keys → 18 → 32 (without headroom, 16).
  for (std::size_t s = 0; s < 2; ++s) {
    const std::size_t tail = scratch.shard_occupied(s);  // unaligned slots pack
    ASSERT_EQ(tail, 12u) << "shard " << s;
    const std::size_t want = static_cast<std::size_t>(std::ceil(1.5 * static_cast<double>(tail)));
    EXPECT_EQ(scratch.shard_keys(s), (want + 15) / 16 * 16) << "shard " << s;
  }

  Rng qr(302);
  for (std::size_t u = 0; u < 6; ++u) {
    const auto si = inc.slot(u);
    const auto ss = scratch.slot(u);
    ASSERT_EQ(si.shard, ss.shard) << "user " << u;
    ASSERT_EQ(si.begin, ss.begin) << "user " << u;
    ASSERT_EQ(si.end, ss.end) << "user " << u;
    // Same placement + per-column programming ⇒ bit-identical slot scores.
    const Matrix queries = Matrix::randn(2, 32, qr);
    const Matrix yi = inc.shard_scores(si.shard, queries);
    const Matrix ys = scratch.shard_scores(ss.shard, queries);
    for (std::size_t q = 0; q < 2; ++q)
      for (std::size_t c = si.begin; c < si.end; ++c)
        ASSERT_EQ(yi(q, c), ys(q, c)) << "user " << u << " column " << c;
    for (const Matrix& k : keys[u])
      ASSERT_EQ(inc.retrieve_user(u, k), scratch.retrieve_user(u, k)) << "user " << u;
  }
}

TEST(LifecycleStore, LifecycleOffBuildMatchesLifecycleOnOnOccupiedColumns) {
  // Lifecycle changes the build-time headroom only: the same users under the
  // same seed land in the same slots and program the same cells either way.
  Rng kr(305);
  std::vector<std::vector<Matrix>> keys;
  for (std::size_t u = 0; u < 7; ++u) keys.push_back(random_keys(3 + u % 5, 4, 8, kr));

  for (const bool two_phase : {false, true}) {
    SCOPED_TRACE(two_phase ? "two-phase (block-aligned slots)" : "exact (packed slots)");
    serve::OvtStoreConfig off_cfg = lifecycle_store_config(2, two_phase);
    off_cfg.lifecycle.enabled = false;
    serve::ShardedOvtStore off(off_cfg);
    serve::ShardedOvtStore on(lifecycle_store_config(2, two_phase));
    for (std::size_t u = 0; u < keys.size(); ++u) {
      off.add_user(u, keys[u]);
      on.add_user(u, keys[u]);
    }
    Rng r1(17), r2(17);
    off.build(r1);
    on.build(r2);

    Rng qr(306);
    const Matrix queries = Matrix::randn(4, 32, qr);
    for (std::size_t s = 0; s < 2; ++s) {
      std::size_t placed = 0, tail = 0;
      std::vector<bool> occupied(off.shard_keys(s), false);
      for (std::size_t u = 0; u < keys.size(); ++u) {
        const auto slot = off.slot(u);
        const auto slot_on = on.slot(u);
        ASSERT_EQ(slot.shard, slot_on.shard) << "user " << u;
        ASSERT_EQ(slot.begin, slot_on.begin) << "user " << u;
        ASSERT_EQ(slot.end, slot_on.end) << "user " << u;
        if (slot.shard != s) continue;
        placed += slot.n_keys();
        tail = std::max(tail, slot.end);
        ASSERT_LE(slot.end, occupied.size()) << "user " << u;
        for (std::size_t c = slot.begin; c < slot.end; ++c) occupied[c] = true;
      }
      ASSERT_GT(placed, 0u) << "shard " << s;
      EXPECT_EQ(off.shard_occupied(s), placed) << "shard " << s;
      EXPECT_GT(off.shard_subarrays(s), 0u) << "shard " << s;
      // No headroom: the tail rounded up to whole 16-column subarrays.
      EXPECT_EQ(off.shard_keys(s), (tail + 15) / 16 * 16) << "shard " << s;

      const Matrix y_off = off.shard_scores(s, queries);
      const Matrix y_on = on.shard_scores(s, queries);
      for (std::size_t q = 0; q < queries.rows(); ++q)
        for (std::size_t c = 0; c < occupied.size(); ++c)
          if (occupied[c]) {
            ASSERT_EQ(y_off(q, c), y_on(q, c)) << "shard " << s << " column " << c;
          }
    }
  }
}

TEST(LifecycleStore, UntouchedUsersBitIdenticalAcrossAdmitEvictMigrate) {
  Rng kr(311);
  std::vector<std::vector<Matrix>> keys;
  for (std::size_t u = 0; u < 4; ++u) keys.push_back(random_keys(4, 4, 8, kr));

  serve::ShardedOvtStore store(lifecycle_store_config(2));
  for (std::size_t u = 0; u < 4; ++u) store.add_user(u, keys[u]);
  Rng br(9);
  store.build(br);

  Rng qr(312);
  const Matrix queries = Matrix::randn(3, 32, qr);
  const auto capture = [&](std::size_t u) {
    const auto slot = store.slot(u);
    const Matrix y = store.shard_scores(slot.shard, queries);
    Matrix out(queries.rows(), slot.n_keys());
    for (std::size_t q = 0; q < queries.rows(); ++q)
      for (std::size_t c = 0; c < slot.n_keys(); ++c) out(q, c) = y(q, slot.begin + c);
    return out;
  };
  const Matrix u0 = capture(0), u2 = capture(2);

  store.admit_user(50, random_keys(6, 4, 8, kr));   // admit
  store.evict_user(1);                              // evict a neighbour
  const std::size_t other = store.slot(3).shard == 0 ? 1 : 0;
  store.migrate_user(3, other);                     // migrate another tenant

  const Matrix u0b = capture(0), u2b = capture(2);
  ASSERT_TRUE(u0.same_shape(u0b));
  for (std::size_t i = 0; i < u0.size(); ++i) ASSERT_EQ(u0.at_flat(i), u0b.at_flat(i));
  ASSERT_TRUE(u2.same_shape(u2b));
  for (std::size_t i = 0; i < u2.size(); ++i) ASSERT_EQ(u2.at_flat(i), u2b.at_flat(i));
}

TEST(LifecycleStore, EvictedSlotReusedByLaterAdmit) {
  Rng kr(321);
  serve::ShardedOvtStore store(lifecycle_store_config(1));
  for (std::size_t u = 0; u < 3; ++u) store.add_user(u, random_keys(4, 4, 8, kr));
  Rng br(11);
  store.build(br);

  const auto old_slot = store.slot(1);
  store.evict_user(1);
  // No pinned readers: the freed range is immediately reusable.
  store.admit_user(7, random_keys(4, 4, 8, kr));
  const auto new_slot = store.slot(7);
  EXPECT_EQ(new_slot.shard, old_slot.shard);
  EXPECT_EQ(new_slot.begin, old_slot.begin);
  EXPECT_EQ(new_slot.end, old_slot.end);
}

TEST(LifecycleStore, PinnedEpochDefersSlotReuse) {
  Rng kr(331);
  serve::ShardedOvtStore store(lifecycle_store_config(1));
  for (std::size_t u = 0; u < 3; ++u) store.add_user(u, random_keys(4, 4, 8, kr));
  Rng br(13);
  store.build(br);
  const auto old_slot = store.slot(0);

  {
    // An in-flight "batch" pins the epoch that still contains user 0.
    const serve::PinnedDirectory pinned = store.pin();
    store.evict_user(0);
    store.admit_user(8, random_keys(4, 4, 8, kr));
    // The pinned reader could still be scoring user 0's columns: the admit
    // must NOT land on them.
    const auto s8 = store.slot(8);
    EXPECT_FALSE(s8.begin == old_slot.begin && s8.shard == old_slot.shard)
        << "slot reused while a reader was pinned";
    // The pinned snapshot still resolves the evicted user.
    EXPECT_TRUE(pinned.has_user(0));
  }
  // Pin released: the next admit reclaims the freed range.
  store.admit_user(9, random_keys(4, 4, 8, kr));
  const auto s9 = store.slot(9);
  EXPECT_EQ(s9.shard, old_slot.shard);
  EXPECT_EQ(s9.begin, old_slot.begin);
}

TEST(LifecycleStore, AddUserAfterBuildRoutesToAdmission) {
  Rng kr(341);
  serve::ShardedOvtStore store(lifecycle_store_config(2));
  store.add_user(0, random_keys(4, 4, 8, kr));
  Rng br(15);
  store.build(br);
  // With the lifecycle subsystem, post-build add_user IS live admission.
  const std::vector<Matrix> keys = random_keys(4, 4, 8, kr);
  store.add_user(1, keys);
  EXPECT_TRUE(store.has_user(1));
  (void)store.retrieve_user(1, keys[0]);
  // Misuse still hard-errors: duplicate ids, unknown evictions.
  EXPECT_THROW(store.add_user(1, keys), Error);
  EXPECT_THROW(store.evict_user(99), Error);
}

TEST(LifecycleStore, RebalanceMovesLoadBetweenShards) {
  Rng kr(351);
  serve::ShardedOvtStore store(lifecycle_store_config(2));
  for (std::size_t u = 0; u < 4; ++u) store.add_user(u, random_keys(4, 4, 8, kr));
  Rng br(17);
  store.build(br);
  // Unbalance: evict everything on shard 1.
  for (std::size_t u = 0; u < 4; ++u)
    if (store.slot(u).shard == 1) store.evict_user(u);
  ASSERT_GT(store.shard_occupied(0), 0u);
  ASSERT_EQ(store.shard_occupied(1), 0u);

  const auto plan = store.plan_rebalance();
  ASSERT_FALSE(plan.empty());
  for (const auto& m : plan) store.migrate_user(m.user_id, m.to_shard);
  EXPECT_GT(store.shard_occupied(1), 0u);
  // Migrated users still retrieve through their new shard.
  for (const auto& m : plan) (void)store.retrieve_user(m.user_id, Matrix::randn(4, 8, kr));
}

// ---------------------------------------------------------------------------
// Two-phase router refresh on admission.
// ---------------------------------------------------------------------------

/// Clustered keys (noisy prototype copies), the regime the router exploits.
std::vector<Matrix> clustered_keys(std::size_t protos, std::size_t per_proto, Rng& rng) {
  std::vector<Matrix> centers;
  for (std::size_t p = 0; p < protos; ++p)
    centers.push_back(Matrix::rand_uniform(4, 8, rng, -1.0f, 1.0f));
  std::vector<Matrix> keys;
  for (std::size_t p = 0; p < protos; ++p)
    for (std::size_t j = 0; j < per_proto; ++j) {
      Matrix k = centers[p];
      k += Matrix::randn(4, 8, rng, 0.05f);
      keys.push_back(k);
    }
  return keys;
}

TEST(LifecycleRouter, AdmittedUserRecallAtLeast095AndNprobeAllExact) {
  Rng kr(401);
  serve::OvtStoreConfig cfg = lifecycle_store_config(2, /*two_phase=*/true);
  cfg.two_phase.nprobe = 2;
  serve::ShardedOvtStore store(cfg);
  for (std::size_t u = 0; u < 4; ++u) store.add_user(u, clustered_keys(4, 4, kr));
  Rng br(19);
  store.build(br);
  ASSERT_TRUE(store.routed());

  // Router refresh: admitted users get a freshly clustered router; nobody
  // else's router is touched (per-user routers — incremental by design).
  const std::size_t before = store.router_refreshes();
  store.admit_user(10, clustered_keys(4, 4, kr));
  store.admit_user(11, clustered_keys(4, 4, kr));
  EXPECT_EQ(store.router_refreshes(), before + 2);

  Rng qr(402);
  std::size_t matches = 0, total = 0;
  serve::ShardedOvtStore::RouteScratch rs;
  retrieval::CimRetriever::Scratch sc1, sc2;
  for (const std::size_t u : {10ul, 11ul}) {
    const auto slot = store.slot(u);
    for (int t = 0; t < 24; ++t) {
      const Matrix q = Matrix::randn(1, 32, qr);
      cim::PassSpans cand;
      store.route_candidates(*store.pin().snap, slot.shard, q, {u}, cand, rs);
      Matrix masked, exact;
      store.shard_scores_into(slot.shard, q, masked, sc1, &cand);
      store.shard_scores_into(slot.shard, q, exact, sc2);
      const std::size_t routed =
          serve::ShardedOvtStore::best_candidate(masked, 0, cand);
      const std::size_t truth = serve::ShardedOvtStore::best_in_slot(exact, 0, slot);
      matches += routed == truth ? 1 : 0;
      ++total;
    }
    EXPECT_GE(store.router_k(u), 2u);
  }
  EXPECT_GE(static_cast<double>(matches) / static_cast<double>(total), 0.95);

  // nprobe = all on an admitted user: candidates cover the slot, winners
  // bit-identical to the exact pass.
  serve::OvtStoreConfig all_cfg = lifecycle_store_config(2, true);
  all_cfg.two_phase.nprobe = 0;
  serve::ShardedOvtStore all_store(all_cfg);
  Rng kr2(401);
  for (std::size_t u = 0; u < 4; ++u) all_store.add_user(u, clustered_keys(4, 4, kr2));
  Rng br2(19);
  all_store.build(br2);
  all_store.admit_user(10, clustered_keys(4, 4, kr2));
  const auto slot = all_store.slot(10);
  for (int t = 0; t < 8; ++t) {
    const Matrix q = Matrix::randn(1, 32, qr);
    cim::PassSpans cand;
    all_store.route_candidates(*all_store.pin().snap, slot.shard, q, {10ul}, cand, rs);
    EXPECT_EQ(cand.count_row(0), slot.n_keys());
    Matrix masked, exact;
    all_store.shard_scores_into(slot.shard, q, masked, sc1, &cand);
    all_store.shard_scores_into(slot.shard, q, exact, sc2);
    EXPECT_EQ(serve::ShardedOvtStore::best_candidate(masked, 0, cand),
              serve::ShardedOvtStore::best_in_slot(exact, 0, slot));
  }
}

// ---------------------------------------------------------------------------
// Engine-level lifecycle (threaded; runs under ASan/TSan in CI).
// ---------------------------------------------------------------------------

llm::TinyLM lifecycle_model(std::size_t vocab, std::uint64_t seed) {
  llm::TinyLmConfig cfg;
  cfg.vocab = vocab;
  cfg.d_model = 16;
  cfg.n_layers = 1;
  cfg.n_heads = 2;
  cfg.ffn_hidden = 32;
  cfg.max_seq = 40;
  cfg.prompt_slots = 8;
  return llm::TinyLM(cfg, seed);
}

struct LifecycleEngineFixture {
  data::LampTask task{data::lamp1_config()};
  llm::TinyLM model;
  std::shared_ptr<const compress::Autoencoder> autoencoder;

  LifecycleEngineFixture() : model(lifecycle_model(task.vocab_size(), 21)) {
    compress::AutoencoderConfig acfg;
    acfg.input_dim = 16;
    acfg.code_dim = 24;
    acfg.hidden_dim = 32;
    autoencoder = std::make_shared<const compress::Autoencoder>(acfg);
  }

  core::TrainedDeployment make_deployment(std::size_t user, std::size_t n_keys = 6) {
    core::TrainedDeployment d;
    d.autoencoder = autoencoder;
    d.n_virtual_tokens = 4;
    Rng rng(5000 + user);
    for (std::size_t k = 0; k < n_keys; ++k) {
      d.keys.push_back(Matrix::rand_uniform(4, 24, rng, -1.0f, 1.0f));
      d.stored_codes.push_back(Matrix::rand_uniform(4, 24, rng, -1.0f, 1.0f));
      d.domains.push_back(k);
    }
    return d;
  }

  serve::ServingConfig config(std::size_t shards, std::size_t threads, std::size_t batch) {
    serve::ServingConfig cfg;
    cfg.n_shards = shards;
    cfg.n_threads = threads;
    cfg.max_batch = batch;
    cfg.crossbar.rows = 96;
    cfg.crossbar.cols = 32;
    cfg.variation = {nvm::fefet3(), 0.1};
    cfg.lifecycle.enabled = true;
    cfg.seed = 2026;
    return cfg;
  }

  data::Sample query(Rng& rng) {
    return task.sample(rng.uniform_index(task.config().n_domains), rng);
  }
};

TEST(LifecycleEngine, AdmitAndEvictWhileServing) {
  LifecycleEngineFixture f;
  serve::ServingEngine engine(f.model, f.task, f.config(2, 2, 8));
  for (std::size_t u = 0; u < 4; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();

  // Reference answers for an untouched user, before any churn.
  Rng qr(501);
  std::vector<data::Sample> probes;
  std::vector<std::size_t> expected;
  for (int t = 0; t < 6; ++t) {
    probes.push_back(f.query(qr));
    expected.push_back(engine.retrieve_serial(0, probes.back()));
  }

  // Live admission mid-serve: the new user is immediately servable.
  engine.admit(100, f.make_deployment(100));
  std::vector<std::future<serve::Response>> futures;
  for (int t = 0; t < 8; ++t)
    futures.push_back(engine.submit(serve::Request{100, f.query(qr)}).take_future());
  for (auto& fu : futures) {
    const serve::Response r = fu.get();
    EXPECT_EQ(r.user_id, 100u);
    EXPECT_LT(r.ovt_index, engine.deployment(100).n_ovts());
  }
  // Admitted results match the serial reference path (same banks).
  const data::Sample probe100 = f.query(qr);
  EXPECT_EQ(engine.submit(serve::Request{100, probe100}).get().ovt_index,
            engine.retrieve_serial(100, probe100));

  // Live eviction: in-flight traffic drains, then submits are rejected.
  engine.evict_user(2);
  EXPECT_THROW(engine.submit(serve::Request{2, f.query(qr)}).get(), serve::UnknownUser);
  EXPECT_FALSE(engine.store().has_user(2));

  // Untouched users are bit-identical through the whole churn.
  for (std::size_t t = 0; t < probes.size(); ++t) {
    EXPECT_EQ(engine.retrieve_serial(0, probes[t]), expected[t]) << "probe " << t;
    EXPECT_EQ(engine.submit(serve::Request{0, probes[t]}).get().ovt_index, expected[t])
        << "probe " << t;
  }

  const serve::StatsSnapshot s = engine.stats();
  EXPECT_EQ(s.users_admitted, 1u);
  EXPECT_EQ(s.users_evicted, 1u);
  engine.stop();
}

TEST(LifecycleEngine, RebalanceDuringParallelServingKeepsResults) {
  LifecycleEngineFixture f;
  serve::ServingConfig cfg = f.config(2, 4, 8);
  serve::ServingEngine engine(f.model, f.task, cfg);
  for (std::size_t u = 0; u < 6; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();

  // Unbalance shard loads by evicting every tenant of shard 1.
  std::vector<std::size_t> survivors;
  for (std::size_t u = 0; u < 6; ++u) {
    if (engine.store().slot(u).shard == 1)
      engine.evict_user(u);
    else
      survivors.push_back(u);
  }
  ASSERT_GE(survivors.size(), 2u);
  ASSERT_EQ(engine.store().shard_occupied(1), 0u);

  Rng qr(511);
  std::vector<data::Sample> probes;
  std::vector<std::size_t> users, expected;
  for (int t = 0; t < 12; ++t) {
    users.push_back(survivors[static_cast<std::size_t>(t) % survivors.size()]);
    probes.push_back(f.query(qr));
    expected.push_back(engine.retrieve_serial(users.back(), probes.back()));
  }

  // Serve while the rebalancer migrates users between shards (as aux tasks
  // on the same worker pool, parallel shard fan-out on).
  std::vector<std::future<serve::Response>> futures;
  for (std::size_t t = 0; t < probes.size(); ++t)
    futures.push_back(engine.submit(serve::Request{users[t], probes[t]}).take_future());
  const std::size_t migrated = engine.rebalance();
  EXPECT_GT(migrated, 0u);
  EXPECT_GT(engine.store().shard_occupied(1), 0u);

  // Every response matches the pre- or post-migration serial answer for its
  // user (epoch pinning decides which placement a batch scored against; for
  // untouched users both coincide — per-column noise streams are stable).
  for (std::size_t t = 0; t < futures.size(); ++t) {
    const std::size_t got = futures[t].get().ovt_index;
    const std::size_t after = engine.retrieve_serial(users[t], probes[t]);
    EXPECT_TRUE(got == expected[t] || got == after)
        << "request " << t << ": got " << got << ", pre " << expected[t] << ", post " << after;
    const auto slot = engine.store().slot(users[t]);
    if (slot.shard == 0 && expected[t] == after) {  // untouched placement
      EXPECT_EQ(got, expected[t]) << "request " << t;
    }
  }

  const serve::StatsSnapshot s = engine.stats();
  EXPECT_EQ(s.migrations, migrated);
  EXPECT_GT(s.rebalance_ms, 0.0);
  engine.stop();

  // With the pool stopped, rebalance() runs its migrations inline on this
  // thread. Unbalance again by emptying shard 1, then check the count and
  // that tenants the cycle left in place still answer bit-identically.
  for (std::size_t u = 0; u < 6; ++u)
    if (engine.store().has_user(u) && engine.store().slot(u).shard == 1) engine.evict_user(u);
  std::vector<std::size_t> remaining, remaining_shard, remaining_answer;
  for (std::size_t u = 0; u < 6; ++u) {
    if (!engine.store().has_user(u)) continue;
    remaining.push_back(u);
    remaining_shard.push_back(engine.store().slot(u).shard);
    remaining_answer.push_back(engine.retrieve_serial(u, probes[0]));
  }
  ASSERT_GE(remaining.size(), 2u);
  const std::size_t moved = engine.rebalance();
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(engine.stats().migrations, migrated + moved);
  EXPECT_GT(engine.store().shard_occupied(1), 0u);
  for (std::size_t r = 0; r < remaining.size(); ++r)
    if (engine.store().slot(remaining[r]).shard == remaining_shard[r]) {
      EXPECT_EQ(engine.retrieve_serial(remaining[r], probes[0]), remaining_answer[r])
          << "user " << remaining[r];
    }
}

TEST(LifecycleEngine, TrySubmitOverloadedInsteadOfBlocking) {
  LifecycleEngineFixture f;
  serve::ServingConfig cfg = f.config(2, 1, 8);
  cfg.queue_capacity = 2;
  // The lone worker waits for a full batch inside a long coalescing window,
  // so the queue deterministically fills to capacity without being drained.
  cfg.min_batch = 8;
  cfg.batch_window_ms = 300.0;
  serve::ServingEngine engine(f.model, f.task, cfg);
  for (std::size_t u = 0; u < 2; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();

  Rng qr(521);
  const auto try_submit = [&](std::size_t user) {
    serve::SubmitOptions opts;
    opts.overload_policy = serve::OverloadPolicy::Reject;
    return engine.submit(serve::Request{user, f.query(qr)}, std::move(opts));
  };
  serve::RequestHandle h1 = try_submit(0);
  ASSERT_TRUE(h1.valid());  // room in the queue → accepted
  serve::RequestHandle h2 = try_submit(1);
  ASSERT_TRUE(h2.valid());
  // Queue is at capacity and the worker is inside its batch window: a
  // blocking submit would stall here — Reject returns an invalid handle.
  serve::RequestHandle h3 = try_submit(0);
  EXPECT_FALSE(h3.valid());
  EXPECT_EQ(engine.stats().rejected_requests, 1u);

  // The accepted requests still complete (window expiry flushes them).
  (void)h1.get();
  (void)h2.get();
  engine.stop();
}

TEST(LifecycleEngine, TwoPhaseServingAcrossAdmissions) {
  LifecycleEngineFixture f;
  serve::ServingConfig cfg = f.config(2, 2, 8);
  cfg.two_phase.enabled = true;
  cfg.two_phase.nprobe = 0;  // probe-all: winners bit-identical to exact
  serve::ServingEngine engine(f.model, f.task, cfg);
  for (std::size_t u = 0; u < 4; ++u) engine.add_deployment(u, f.make_deployment(u, 16));
  engine.start();

  engine.admit(200, f.make_deployment(200, 16));
  Rng qr(531);
  for (int t = 0; t < 10; ++t) {
    const std::size_t u = t % 2 == 0 ? 200u : 1u;
    const data::Sample q = f.query(qr);
    EXPECT_EQ(engine.submit(serve::Request{u, q}).get().ovt_index, engine.retrieve_serial(u, q))
        << "request " << t;
  }
  const serve::StatsSnapshot s = engine.stats();
  EXPECT_GT(s.candidates_examined, 0u);
  EXPECT_EQ(s.router_refreshes, 1u);
  engine.stop();
}

}  // namespace
}  // namespace nvcim
