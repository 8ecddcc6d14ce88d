// Shared shard lock: slot-span passes take a shard's lock shared, and so do
// writes of an unpublished slot's spans whose kernel blocks lie inside that
// slot. Every other write takes it exclusive.
//
//  - the private-block rule at its edges: block-aligned slots, a slot
//    narrower than a block, unaligned slot edges, and the partial last
//    block of a subarray whose width is not a multiple of the block width
//  - readers scoring the live tenants of one shard get bit-identical score
//    blocks while, on that shard, admissions are staged, programmed from
//    two threads at once, committed and evicted, and a tenant migrates on
//    and off it; so does a full-width pass on the live tenants' columns
//    (it shares the lock with passes but never overlaps a shared write).
//    The test runs in two geometries: routed 48-key slots, where every
//    admission span is written under the shared lock, and routing off with
//    6-key tenants at unaligned offsets, where edge spans take the lock
//    exclusive. The sanitizer jobs run both.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "nvcim/serve/ovt_store.hpp"

namespace nvcim {
namespace {

using serve::ShardedOvtStore;

TEST(SharedShardLock, SpanPrivateAtBlockEdges) {
  // A block-aligned 48-key slot in 128-column subarrays: both spans.
  EXPECT_TRUE(ShardedOvtStore::span_private(48, 80, 48, 96, 128));
  EXPECT_TRUE(ShardedOvtStore::span_private(80, 96, 48, 96, 128));
  // A 6-key slot at column 3 shares its block with its neighbours.
  EXPECT_FALSE(ShardedOvtStore::span_private(3, 9, 3, 9, 128));
  // A 40-key slot at [8, 48) in 16-column subarrays: its first block
  // [0, 16) reaches outside the slot, the rest lie inside.
  EXPECT_FALSE(ShardedOvtStore::span_private(8, 16, 8, 48, 16));
  EXPECT_TRUE(ShardedOvtStore::span_private(16, 32, 8, 48, 16));
  EXPECT_TRUE(ShardedOvtStore::span_private(32, 48, 8, 48, 16));
  // Ending at 40 instead, its last block [32, 48) does too.
  EXPECT_FALSE(ShardedOvtStore::span_private(32, 40, 8, 40, 16));
  // 40-column subarrays: the last block of a subarray, [32, 40), ends at
  // the subarray's edge, and blocks restart at the next subarray.
  EXPECT_TRUE(ShardedOvtStore::span_private(32, 40, 32, 40, 40));
  EXPECT_FALSE(ShardedOvtStore::span_private(32, 39, 32, 39, 40));
  EXPECT_FALSE(ShardedOvtStore::span_private(36, 40, 36, 44, 40));
  EXPECT_FALSE(ShardedOvtStore::span_private(40, 44, 36, 44, 40));
  EXPECT_TRUE(ShardedOvtStore::span_private(40, 56, 32, 56, 40));
  EXPECT_THROW(ShardedOvtStore::span_private(5, 5, 0, 16, 128), Error);

  // The spans a routed store stages for a 48-key admission are all private.
  serve::OvtStoreConfig cfg;
  cfg.n_shards = 1;
  cfg.crossbar.rows = 64;
  cfg.crossbar.cols = 128;
  cfg.lifecycle.enabled = true;
  cfg.two_phase.enabled = true;
  ShardedOvtStore store(cfg);
  Rng kr(3301);
  const auto keys = [&](std::size_t n) {
    std::vector<Matrix> ks;
    for (std::size_t i = 0; i < n; ++i) ks.push_back(Matrix::rand_uniform(4, 8, kr, -1.0f, 1.0f));
    return ks;
  };
  store.add_user(0, keys(6));
  Rng br(3302);
  store.build(br);
  const auto staged = store.stage_admit(1, keys(48));
  EXPECT_EQ(staged.begin % cim::Crossbar::kBlockColumns, 0u);
  ASSERT_FALSE(staged.spans.empty());
  for (const auto& [c0, c1] : staged.spans)
    EXPECT_TRUE(ShardedOvtStore::span_private(c0, c1, staged.begin, staged.begin + 48, 128))
        << "span [" << c0 << ", " << c1 << ")";
  store.abort_admit(1);
}

/// One geometry of the reader/writer race: reader and migrant slot sizes,
/// admission size and subarray width.
struct RaceGeometry {
  bool routed;
  std::size_t cols;
  std::size_t tenant_keys;  ///< readers' tenants and the migrant
  std::size_t admit_keys;
};

/// Span counts of the admissions a race staged, by lock mode.
struct SpanModes {
  std::size_t shared = 0;
  std::size_t exclusive = 0;
};

SpanModes race_readers_against_writers(const RaceGeometry& g) {
  serve::OvtStoreConfig cfg;
  cfg.n_shards = 2;
  cfg.crossbar.rows = 64;
  cfg.crossbar.cols = g.cols;
  cfg.variation = {nvm::fefet3(), 0.1};
  cfg.lifecycle.enabled = true;
  cfg.two_phase.enabled = g.routed;
  ShardedOvtStore store(cfg);

  Rng kr(3311);
  const auto keys = [&](std::size_t n) {
    std::vector<Matrix> ks;
    for (std::size_t i = 0; i < n; ++i) ks.push_back(Matrix::rand_uniform(4, 8, kr, -1.0f, 1.0f));
    return ks;
  };
  // Least-loaded placement: readers 0 and 2 and the migrant 4 land on shard
  // 0, user 1 and the large user 3 on shard 1, which then stays the fuller
  // shard, so every admission lands on shard 0.
  constexpr std::size_t kMigrant = 4;
  store.add_user(0, keys(g.tenant_keys));
  store.add_user(1, keys(g.tenant_keys));
  store.add_user(2, keys(g.tenant_keys));
  store.add_user(3, keys(300));
  store.add_user(kMigrant, keys(g.tenant_keys));
  Rng br(3312);
  store.build(br);
  const std::vector<std::size_t> readers = {0, 2, 0};
  for (const std::size_t u : {std::size_t{0}, std::size_t{2}, kMigrant})
    EXPECT_EQ(store.slot(u).shard, 0u) << "user " << u;

  Rng qr(3313);
  const Matrix queries = Matrix::randn(readers.size(), 32, qr);
  const auto score = [&](Matrix& out, retrieval::CimRetriever::Scratch& scratch) {
    const serve::PinnedDirectory pinned = store.pin();
    cim::PassSpans spans;
    ShardedOvtStore::slot_spans(*pinned.snap, 0, readers, spans);
    store.shard_scores_into(0, queries, out, scratch, &spans);
  };
  Matrix reference;
  {
    retrieval::CimRetriever::Scratch scratch;
    score(reference, scratch);
  }
  // Full-width rows: only the live readers' columns are fixed (the shard
  // may grow, and free and pending columns change).
  const Matrix full_reference = store.shard_scores(0, queries);
  const auto same_reader_columns = [&](const Matrix& full) {
    for (const std::size_t u : {std::size_t{0}, std::size_t{2}}) {
      const serve::UserSlot slot = store.slot(u);
      for (std::size_t r = 0; r < full.rows(); ++r)
        if (std::memcmp(full.data() + r * full.cols() + slot.begin,
                        full_reference.data() + r * full_reference.cols() + slot.begin,
                        slot.n_keys() * sizeof(float)) != 0)
          return false;
    }
    return true;
  };

  std::atomic<bool> done{false};
  std::atomic<std::size_t> passes{0}, mismatches{0};
  std::vector<std::thread> reader_threads;
  for (int t = 0; t < 2; ++t) {
    reader_threads.emplace_back([&] {
      Matrix out;
      retrieval::CimRetriever::Scratch scratch;
      do {
        score(out, scratch);
        if (!out.same_shape(reference) ||
            std::memcmp(out.data(), reference.data(), out.size() * sizeof(float)) != 0)
          ++mismatches;
        ++passes;
      } while (!done.load());
    });
  }
  reader_threads.emplace_back([&] {
    do {
      if (!same_reader_columns(store.shard_scores(0, queries))) ++mismatches;
      ++passes;
    } while (!done.load());
  });

  SpanModes modes;
  std::thread admitter([&] {
    for (std::size_t i = 0; i < 6; ++i) {
      const std::size_t user = 100 + i;
      const auto staged = store.stage_admit(user, keys(g.admit_keys));
      EXPECT_EQ(staged.shard, 0u);
      for (const auto& [c0, c1] : staged.spans)
        ++(ShardedOvtStore::span_private(c0, c1, staged.begin, staged.begin + g.admit_keys,
                                         g.cols)
               ? modes.shared
               : modes.exclusive);
      // Two threads program the admission's spans at once.
      std::thread odd([&] {
        for (std::size_t idx = 1; idx < staged.spans.size(); idx += 2)
          store.program_span(staged, idx);
      });
      for (std::size_t idx = 0; idx < staged.spans.size(); idx += 2)
        store.program_span(staged, idx);
      odd.join();
      store.commit_admit(user);
      store.evict_user(user);
    }
  });
  std::thread migrator([&] {
    for (int i = 0; i < 3; ++i) {
      store.migrate_user(kMigrant, 1);
      store.migrate_user(kMigrant, 0);
    }
  });
  admitter.join();
  migrator.join();
  done.store(true);
  for (std::thread& t : reader_threads) t.join();

  EXPECT_EQ(mismatches.load(), 0u) << "of " << passes.load() << " passes";
  EXPECT_GE(passes.load(), 2u);
  return modes;
}

TEST(SharedShardLock, ReadersBitIdenticalBesideRoutedAlignedWrites) {
  // Routed slots are block-aligned and 48 keys fill whole blocks: every
  // admission span takes the shared lock.
  const SpanModes modes = race_readers_against_writers({true, 128, 48, 48});
  EXPECT_GT(modes.shared, 0u);
  EXPECT_EQ(modes.exclusive, 0u);
}

TEST(SharedShardLock, ReadersBitIdenticalBesideUnalignedWrites) {
  // Routing off: 6-key tenants pack at unaligned offsets, so a 56-key
  // admission's edge spans share blocks with neighbours and take the lock
  // exclusive, while its interior span takes it shared.
  const SpanModes modes = race_readers_against_writers({false, 32, 6, 56});
  EXPECT_GT(modes.shared, 0u);
  EXPECT_GT(modes.exclusive, 0u);
}

}  // namespace
}  // namespace nvcim
