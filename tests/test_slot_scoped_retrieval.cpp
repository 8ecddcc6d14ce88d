// Slot-scoped exact retrieval: every exact-mode shard pass is a masked pass
// whose candidate bits are each row's tenant slot, so the crossbar computes
// (and the cost model charges) only the columns the request reads.
//
//  - CandidateSet::set_range fills one row's span and rejects spans outside
//    the set
//  - engine answers equal the full-width retrieve_serial oracle with the
//    lifecycle store off and on, on 48-key slots straddling the 128-column
//    subarray boundary, after an admit grew the shard past the batch's
//    pinned bitmap width, and with stuck-fault columns inside and outside
//    the queried slot
//  - one request's OpCounters delta is its slot's block-granular ADC count
//    and activations of the subarrays its slot overlaps, nothing more.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "nvcim/serve/engine.hpp"

namespace nvcim {
namespace {

// ---------------------------------------------------------------------------
// Slot-mask helper.
// ---------------------------------------------------------------------------

TEST(MaskedKernel, SetRangeFillsExactlyTheSpan) {
  cim::CandidateSet cand;
  cand.reset(3, 200);
  cand.set_range(0, 96, 144);  // straddles a 128-column subarray boundary
  cand.set_range(1, 50, 50);   // empty span: no-op
  cand.set_range(2, 0, 200);   // full width
  EXPECT_EQ(cand.count_row(0), 48u);
  EXPECT_EQ(cand.count_row(1), 0u);
  EXPECT_EQ(cand.count_row(2), 200u);
  for (std::size_t k = 0; k < 200; ++k) EXPECT_EQ(cand.test(0, k), k >= 96 && k < 144) << k;
}

TEST(MaskedKernel, SetRangeRejectsSpansOutsideTheSet) {
  cim::CandidateSet cand;
  cand.reset(2, 64);
  EXPECT_THROW(cand.set_range(0, 60, 65), Error);  // end past n_keys
  EXPECT_THROW(cand.set_range(0, 65, 65), Error);  // empty, but out of range
  EXPECT_THROW(cand.set_range(0, 10, 5), Error);   // reversed
  EXPECT_THROW(cand.set_range(2, 0, 1), Error);    // row past n_queries
  EXPECT_EQ(cand.count(), 0u);                     // failed calls wrote nothing
}

TEST(MaskedKernel, SetRangeMaskScoresStraddlingSpanBitIdentically) {
  cim::CrossbarConfig cfg;
  cfg.rows = 64;
  cfg.cols = 128;
  cfg.adc_bits = 8;
  cim::Accelerator acc(cfg, {nvm::fefet3(), 0.1});
  Rng rng(1401);
  acc.store(Matrix::randn(200, 100, rng), rng);  // 200 keys × len 100: 2×2 tiles

  Rng qr(1402);
  const Matrix queries = Matrix::randn(3, 100, qr);
  cim::CandidateSet cand;
  cand.reset(3, 200);
  cand.set_range(0, 96, 144);
  cand.set_range(2, 0, 200);

  cim::Accelerator::BatchScratch s1, s2;
  Matrix y_full, y_masked;
  acc.query_batch_into(queries, y_full, s1);
  acc.query_batch_into(queries, y_masked, s2, &cand);
  for (std::size_t k = 0; k < 200; ++k) {
    if (cand.test(0, k)) {
      EXPECT_EQ(y_masked(0, k), y_full(0, k)) << k;
    }
    EXPECT_EQ(y_masked(1, k), 0.0f) << k;  // empty row: nothing computed
    EXPECT_EQ(y_masked(2, k), y_full(2, k)) << k;
  }
}

// ---------------------------------------------------------------------------
// Engine equivalence against the full-width serial oracle.
// ---------------------------------------------------------------------------

constexpr std::size_t kSlotKeys = 48;

struct SlotScopedFixture {
  data::LampTask task{data::lamp1_config()};
  llm::TinyLM model;
  std::shared_ptr<const compress::Autoencoder> autoencoder;

  static constexpr std::size_t kDModel = 16;
  static constexpr std::size_t kCodeDim = 24;
  static constexpr std::size_t kTokens = 4;  // key length 96: two 64-row tiles

  static llm::TinyLM make_model(std::size_t vocab) {
    llm::TinyLmConfig cfg;
    cfg.vocab = vocab;
    cfg.d_model = kDModel;
    cfg.n_layers = 1;
    cfg.n_heads = 2;
    cfg.ffn_hidden = 2 * kDModel;
    cfg.max_seq = 40;
    cfg.prompt_slots = 8;
    return llm::TinyLM(cfg, 14);
  }

  SlotScopedFixture() : model(make_model(task.vocab_size())) {
    compress::AutoencoderConfig acfg;
    acfg.input_dim = kDModel;
    acfg.code_dim = kCodeDim;
    acfg.hidden_dim = 32;
    autoencoder = std::make_shared<const compress::Autoencoder>(acfg);
  }

  core::TrainedDeployment make_deployment(std::size_t user) const {
    Rng rng(14000 + user);
    core::TrainedDeployment d;
    d.autoencoder = autoencoder;
    d.n_virtual_tokens = kTokens;
    for (std::size_t j = 0; j < kSlotKeys; ++j) {
      d.keys.push_back(Matrix::rand_uniform(kTokens, kCodeDim, rng, -1.0f, 1.0f));
      d.stored_codes.push_back(Matrix::rand_uniform(kTokens, kCodeDim, rng, -1.0f, 1.0f));
      d.domains.push_back(j % 4);
    }
    return d;
  }

  /// Paper subarray width (128 columns): with 48-key slots packed
  /// contiguously, the third slot of a shard spans columns 96–144.
  static serve::ServingConfig config(bool lifecycle, std::size_t shards, std::size_t threads,
                                     std::size_t batch) {
    serve::ServingConfig cfg;
    cfg.n_shards = shards;
    cfg.n_threads = threads;
    cfg.max_batch = batch;
    cfg.crossbar.rows = 64;
    cfg.crossbar.cols = 128;
    cfg.variation = {nvm::fefet3(), 0.1};
    cfg.lifecycle.enabled = lifecycle;
    cfg.seed = 1414;
    return cfg;
  }

  data::Sample query(Rng& rng) const {
    return task.sample(rng.uniform_index(task.config().n_domains), rng);
  }

  /// Random request mix over `users`, submitted as one burst so batches mix
  /// tenants; returns how many answers differ from retrieve_serial.
  std::size_t mismatches_vs_serial(serve::ServingEngine& engine,
                                   const std::vector<std::size_t>& users, std::size_t n,
                                   std::uint64_t seed) const {
    Rng qr(seed);
    std::vector<std::pair<std::size_t, data::Sample>> reqs;
    for (std::size_t t = 0; t < n; ++t)
      reqs.emplace_back(users[qr.uniform_index(users.size())], query(qr));
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(n);
    for (const auto& [u, q] : reqs)
      futures.push_back(engine.submit(serve::Request{u, q}).take_future());
    std::size_t bad = 0;
    for (std::size_t t = 0; t < n; ++t) {
      const serve::Response r = futures[t].get();
      const std::size_t want = engine.retrieve_serial(reqs[t].first, reqs[t].second);
      EXPECT_EQ(r.ovt_index, want) << "request " << t << " user " << reqs[t].first;
      if (r.ovt_index != want) ++bad;
    }
    return bad;
  }
};

std::vector<std::size_t> iota_users(std::size_t n) {
  std::vector<std::size_t> users(n);
  for (std::size_t u = 0; u < n; ++u) users[u] = u;
  return users;
}

bool straddles(const serve::UserSlot& slot, std::size_t cols) {
  return slot.begin / cols != (slot.end - 1) / cols;
}

void expect_some_slot_straddles(const serve::ShardedOvtStore& store,
                                const std::vector<std::size_t>& users) {
  bool any = false;
  for (const std::size_t u : users) any = any || straddles(store.slot(u), store.cols_per_subarray());
  EXPECT_TRUE(any) << "no slot crosses a subarray boundary";
}

void run_equivalence(SlotScopedFixture& f, const serve::ServingConfig& cfg,
                     std::size_t n_users, std::uint64_t seed) {
  serve::ServingEngine engine(f.model, f.task, cfg);
  for (std::size_t u = 0; u < n_users; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();
  const std::vector<std::size_t> users = iota_users(n_users);
  expect_some_slot_straddles(engine.store(), users);
  EXPECT_EQ(f.mismatches_vs_serial(engine, users, 64, seed), 0u);
  EXPECT_EQ(engine.stats().candidates_examined, 0u);  // exact passes are not two-phase stats
  engine.stop();
}

TEST(SlotScopedRetrieval, MatchesSerialLifecycleOff) {
  SlotScopedFixture f;
  for (const std::uint64_t seed : {1501u, 1502u})
    run_equivalence(f, SlotScopedFixture::config(false, 2, 2, 16), 6, seed);
}

TEST(SlotScopedRetrieval, MatchesSerialLifecycleOn) {
  SlotScopedFixture f;
  for (const std::uint64_t seed : {1511u, 1512u})
    run_equivalence(f, SlotScopedFixture::config(true, 2, 2, 16), 6, seed);
}

TEST(SlotScopedRetrieval, StuckFaultsInsideAndOutsideSlotMatchSerial) {
  SlotScopedFixture f;
  serve::ServingEngine engine(f.model, f.task, SlotScopedFixture::config(true, 1, 2, 16));
  for (std::size_t u = 0; u < 3; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();
  // Stick columns in the first two slots (one just below the subarray
  // boundary) and leave slot 2 clean: user 2's requests have faults only
  // outside their slot, users 0 and 1 inside theirs.
  serve::ShardedOvtStore& store = engine.store_mutable();
  const auto s0 = store.slot(0);
  const auto s1 = store.slot(1);
  ASSERT_LT(s1.begin, 127u);
  std::size_t clamped = 0;
  clamped += store.inject_column_fault(0, s0.begin + 3, nvm::FaultKind::StuckAtOn, 4, 0xF1ull);
  clamped += store.inject_column_fault(0, s1.begin + 5, nvm::FaultKind::StuckAtOff, 4, 0xF2ull);
  clamped += store.inject_column_fault(0, 127, nvm::FaultKind::StuckAtOn, 4, 0xF3ull);
  ASSERT_GT(clamped, 0u);
  EXPECT_EQ(f.mismatches_vs_serial(engine, iota_users(3), 64, 1531), 0u);
  engine.stop();
}

// The engine sizes each pass's slot mask to its pinned epoch's shard width;
// an admit landing after the pin may already have grown the live shard.
// Deterministic store-level replay of that interleaving: pin, grow, then
// score with the narrower bitmap exactly as the retrieve stage does.
TEST(SlotScopedRetrieval, BitmapNarrowerThanGrownShardMatchesSerial) {
  SlotScopedFixture f;
  serve::OvtStoreConfig cfg;
  cfg.n_shards = 1;
  cfg.crossbar.rows = 64;
  cfg.crossbar.cols = 128;
  cfg.variation = {nvm::fefet3(), 0.1};
  cfg.lifecycle.enabled = true;
  serve::ShardedOvtStore store(cfg);
  for (std::size_t u = 0; u < 5; ++u) store.add_user(u, f.make_deployment(u).keys);
  Rng br(1541);
  store.build(br);

  const serve::PinnedDirectory pinned = store.pin();
  const std::size_t pinned_width = pinned.snap->shard_capacity[0];
  // Admit until the live shard outgrows the pinned width (build() may
  // provision headroom beyond the occupied columns).
  for (std::size_t u = 5; u < 16 && store.pin().snap->shard_capacity[0] == pinned_width; ++u)
    store.admit_user(u, f.make_deployment(u).keys);
  ASSERT_GT(store.pin().snap->shard_capacity[0], pinned_width);

  Rng qr(1542);
  const std::size_t n = 12;
  const Matrix queries = Matrix::randn(n, SlotScopedFixture::kTokens * SlotScopedFixture::kCodeDim, qr);
  std::vector<std::size_t> row_user(n);
  cim::CandidateSet cand;
  cand.reset(n, pinned_width);
  for (std::size_t r = 0; r < n; ++r) {
    row_user[r] = r % 5;
    const auto& slot = pinned.slot(row_user[r]);
    cand.set_range(r, slot.begin, slot.end);
  }
  Matrix scores;
  retrieval::CimRetriever::Scratch scratch;
  store.shard_scores_into(0, queries, scores, scratch, &cand);
  EXPECT_GT(scores.cols(), pinned_width);
  for (std::size_t r = 0; r < n; ++r) {
    Matrix q(SlotScopedFixture::kTokens, SlotScopedFixture::kCodeDim);
    std::copy(queries.data() + r * queries.cols(), queries.data() + (r + 1) * queries.cols(),
              q.data());
    EXPECT_EQ(serve::ShardedOvtStore::best_in_slot_candidates(scores, r,
                                                              pinned.slot(row_user[r]), cand),
              store.retrieve_user(row_user[r], q))
        << "row " << r;
  }
}

// Same interleaving through the engine: admissions grow the only shard while
// traffic for the original tenants is in flight.
TEST(SlotScopedRetrieval, AdmitsGrowingShardDuringTrafficMatchSerial) {
  SlotScopedFixture f;
  serve::ServingEngine engine(f.model, f.task, SlotScopedFixture::config(true, 1, 3, 8));
  for (std::size_t u = 0; u < 5; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();
  std::atomic<bool> go{false};
  std::thread admitter([&] {
    while (!go.load()) std::this_thread::yield();
    for (std::size_t u = 5; u < 9; ++u) engine.admit(u, f.make_deployment(u)).wait();
  });
  go.store(true);
  const std::size_t bad = f.mismatches_vs_serial(engine, iota_users(5), 96, 1551);
  admitter.join();
  EXPECT_EQ(bad, 0u);
  EXPECT_GE(engine.store().pin().snap->shard_capacity[0], 9 * kSlotKeys);
  EXPECT_EQ(f.mismatches_vs_serial(engine, iota_users(9), 32, 1552), 0u);
  engine.stop();
}

// ---------------------------------------------------------------------------
// Modelled cost: one request pays only for its slot's columns.
// ---------------------------------------------------------------------------

/// Output columns the masked kernel computes for one query whose candidates
/// are exactly [slot.begin, slot.end): accumulator blocks restart at every
/// subarray, and the last subarray may be narrower than `cols`.
std::size_t block_granular_cols(const serve::UserSlot& slot, std::size_t width, std::size_t cols,
                                std::size_t block) {
  std::size_t n = 0;
  for (std::size_t t0 = 0; t0 < width; t0 += cols) {
    const std::size_t t1 = std::min(width, t0 + cols);
    for (std::size_t c0 = t0; c0 < t1; c0 += block) {
      const std::size_t c1 = std::min(t1, c0 + block);
      if (c0 < slot.end && slot.begin < c1) n += c1 - c0;
    }
  }
  return n;
}

std::size_t subarrays_overlapped(const serve::UserSlot& slot, std::size_t cols) {
  return (slot.end - 1) / cols - slot.begin / cols + 1;
}

cim::OpCounters delta(const cim::OpCounters& after, const cim::OpCounters& before) {
  cim::OpCounters d;
  d.subarray_activations = after.subarray_activations - before.subarray_activations;
  d.adc_conversions = after.adc_conversions - before.adc_conversions;
  return d;
}

TEST(SlotScopedCounters, OneRequestPaysOnlyItsSlotColumns) {
  SlotScopedFixture f;
  for (const bool lifecycle : {false, true}) {
    SCOPED_TRACE(lifecycle ? "lifecycle on" : "lifecycle off");
    const serve::ServingConfig cfg = SlotScopedFixture::config(lifecycle, 1, 1, 1);
    serve::ServingEngine engine(f.model, f.task, cfg);
    for (std::size_t u = 0; u < 3; ++u) engine.add_deployment(u, f.make_deployment(u));
    engine.start();
    serve::ShardedOvtStore& store = engine.store_mutable();
    const std::size_t cols = store.cols_per_subarray();
    const std::size_t block = cim::Crossbar::kBlockColumns;

    // Unit costs from one unmasked single-query pass over the whole shard:
    // ADC conversions per computed column and activations per subarray
    // column (summed over row tiles, slices, polarities and banks).
    Rng qr(1561);
    const cim::OpCounters c0 = store.counters();
    const Matrix full = store.shard_scores(0, Matrix::randn(1, SlotScopedFixture::kTokens *
                                                                   SlotScopedFixture::kCodeDim,
                                                               qr));
    const cim::OpCounters unit_full = delta(store.counters(), c0);
    const std::size_t width = full.cols();
    const std::size_t tiles = (width + cols - 1) / cols;
    ASSERT_EQ(unit_full.adc_conversions % width, 0u);
    ASSERT_EQ(unit_full.subarray_activations % tiles, 0u);
    const std::size_t adc_per_col = unit_full.adc_conversions / width;
    const std::size_t act_per_tile = unit_full.subarray_activations / tiles;

    bool saw_straddle = false;
    for (std::size_t u = 0; u < 3; ++u) {
      const serve::UserSlot slot = store.slot(u);
      saw_straddle = saw_straddle || straddles(slot, cols);
      const cim::OpCounters before = store.counters();
      engine.submit(serve::Request{u, f.query(qr)}).get();
      const cim::OpCounters d = delta(store.counters(), before);
      EXPECT_EQ(d.adc_conversions, adc_per_col * block_granular_cols(slot, width, cols, block))
          << "user " << u;
      EXPECT_EQ(d.subarray_activations, act_per_tile * subarrays_overlapped(slot, cols))
          << "user " << u;
      EXPECT_LT(d.adc_conversions, unit_full.adc_conversions) << "user " << u;
    }
    EXPECT_TRUE(saw_straddle);
    engine.stop();
  }
}

}  // namespace
}  // namespace nvcim
