// Slot-scoped exact retrieval: every shard pass is a slot-span pass in which
// each row scores only its tenant's slot into a compact score block, so the
// crossbar computes (and the cost model charges) only the columns the
// request reads.
//
//  - the compact pass equals the unmasked full-width pass bit for bit on
//    every computed entry and is exact 0 elsewhere, for every batch size
//    1..33, spans straddling block and subarray boundaries, two row tiles,
//    ADC on and off, and routed masks with empty blocks; malformed spans are
//    rejected; a row's span covers exactly its keys, and a span straddling
//    the 128-column subarray boundary scores bit-identically
//  - engine answers equal the full-width retrieve_serial oracle with the
//    lifecycle store off and on, on 48-key slots straddling the 128-column
//    subarray boundary, after an admit grew the shard past the batch's
//    pinned width, and with stuck-fault columns inside and outside the
//    queried slot
//  - one request's OpCounters delta is its slot's block-granular ADC count
//    and activations of the subarrays its slot overlaps, nothing more, and
//    scoring a row beside batch-mates neither changes its scores nor its
//    costs; three threads running the same passes at once on one shard add
//    exactly three times one serial run's counts, field by field.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "nvcim/serve/engine.hpp"

namespace nvcim {
namespace {

// ---------------------------------------------------------------------------
// Compact slot-span pass against the unmasked full-width pass.
// ---------------------------------------------------------------------------

std::uint32_t bits(float v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// The kernel's accumulator block holding key k: blocks of kBlockColumns
/// restart at every `cols`-wide subarray and stop at the bank's last key.
std::pair<std::size_t, std::size_t> kernel_block(std::size_t k, std::size_t cols,
                                                 std::size_t n_keys) {
  constexpr std::size_t block = cim::Crossbar::kBlockColumns;
  const std::size_t t0 = k / cols * cols;
  const std::size_t b0 = t0 + (k - t0) / block * block;
  return {b0, std::min({b0 + block, t0 + cols, n_keys})};
}

TEST(MaskedKernel, SetRangeFillsExactlyTheSpan) {
  cim::PassSpans spans;
  spans.add_row(96, 144);  // straddles a 128-column subarray boundary
  spans.add_row(50, 50);   // empty span: scores nothing
  spans.add_row(0, 200);   // full width
  ASSERT_EQ(spans.rows(), 3u);
  EXPECT_EQ(spans.width(), 200u);
  EXPECT_EQ(spans.count_row(0), 48u);
  EXPECT_EQ(spans.count_row(1), 0u);
  EXPECT_EQ(spans.count_row(2), 200u);
  EXPECT_EQ(spans.begin(0), 96u);
  EXPECT_EQ(spans.end(0), 144u);
  for (std::size_t j = 0; j < 200; ++j) EXPECT_EQ(spans.candidate(0, j), j < 48) << j;
  EXPECT_TRUE(spans.reaches(199, 200));  // row 2 alone

  cim::PassSpans narrow;  // rows 0 and 1 only: nothing reaches past key 144
  narrow.add_row(96, 144);
  narrow.add_row(50, 50);
  EXPECT_EQ(narrow.width(), 48u);
  EXPECT_TRUE(narrow.reaches(143, 144));
  EXPECT_FALSE(narrow.reaches(144, 200));
  EXPECT_FALSE(narrow.reaches(0, 96));
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
  cim::PassSpans spans;
  spans.add_row(96, 144);
  spans.add_row(50, 50);
  spans.add_row(0, 200);

  cim::Accelerator::BatchScratch s1, s2;
  Matrix y_full, y_masked;
  acc.query_batch_into(queries, y_full, s1);
  acc.query_batch_into(queries, y_masked, s2, &spans);
  ASSERT_EQ(y_masked.rows(), 3u);
  ASSERT_EQ(y_masked.cols(), 200u);
  for (std::size_t j = 0; j < 200; ++j) {
    // Row 0's compact column j is key 96 + j; past its 48-key span, exact 0.
    if (j < 48) {
      EXPECT_EQ(y_masked(0, j), y_full(0, 96 + j)) << j;
    } else {
      EXPECT_EQ(y_masked(0, j), 0.0f) << j;
    }
    EXPECT_EQ(y_masked(1, j), 0.0f) << j;  // empty row: nothing computed
    EXPECT_EQ(y_masked(2, j), y_full(2, j)) << j;
  }
}

TEST(SlotScopedPass, CompactBlockMatchesFullWidthPassBitForBit) {
  // Banks of 100 keys of length 70 over 40 × 48 subarrays: two row tiles,
  // three column tiles (the last 4 keys wide), three 16-key blocks per
  // subarray. Per batch size 1..33, each row gets a random span — 6 keys
  // (not block-aligned), one block, a 48-key slot, any length, or empty —
  // so spans straddle block and subarray boundaries; routed passes mask
  // each span and leave whole blocks of it empty. Every computed entry
  // equals the full-width score of key begin + j bit for bit, everything
  // else is exact 0, and the counters charge each row for its own blocks
  // and tiles only.
  constexpr std::size_t kKeys = 100, kLen = 70;
  for (const bool mutable_bank : {false, true}) {
    for (const std::size_t adc : {std::size_t{8}, std::size_t{0}}) {
      cim::CrossbarConfig cfg;
      cfg.rows = 40;
      cfg.cols = 48;
      cfg.adc_bits = adc;
      cim::Accelerator acc(cfg, {nvm::fefet3(), 0.1});
      Rng rng(1600 + adc + (mutable_bank ? 1 : 0));
      const Matrix keys = Matrix::randn(kKeys, kLen, rng);
      if (mutable_bank) {
        acc.init_mutable(kLen, kKeys, rng.split(7));
        acc.program_keys(keys, 0);
      } else {
        acc.store(keys, rng);
      }
      const std::size_t n_keys = acc.n_keys();
      const std::size_t col_tiles = (n_keys + cfg.cols - 1) / cfg.cols;
      for (std::size_t B = 1; B <= 33; ++B) {
        for (const bool routed : {false, true}) {
          SCOPED_TRACE(::testing::Message() << "mutable " << mutable_bank << " adc " << adc
                                            << " B " << B << " routed " << routed);
          const Matrix x = Matrix::randn(B, kLen, rng);
          cim::PassSpans spans;
          for (std::size_t r = 0; r < B; ++r) {
            const std::size_t lens[] = {6, 16, 48, 1 + rng.uniform_index(n_keys), 0};
            const std::size_t len = lens[rng.uniform_index(5)];
            const std::size_t begin = rng.uniform_index(n_keys - len + 1);
            spans.add_row(begin, begin + len);
          }
          if (routed) {
            spans.clear_candidates();
            for (std::size_t r = 0; r < B; ++r) {
              for (std::size_t k = spans.begin(r); k < spans.end(r);) {
                const std::size_t k1 =
                    std::min(spans.end(r), kernel_block(k, cfg.cols, n_keys).second);
                if (rng.uniform() < 0.6)  // else the block keeps no candidate
                  for (; k < k1; ++k)
                    if (rng.uniform() < 0.5) spans.set_candidate(r, k - spans.begin(r));
                k = k1;
              }
            }
          }

          cim::Accelerator full_acc = acc, span_acc = acc;
          full_acc.reset_counters();
          span_acc.reset_counters();
          cim::Accelerator::BatchScratch s1, s2;
          Matrix full, compact;
          full_acc.query_batch_into(x, full, s1);
          span_acc.query_batch_into(x, compact, s2, &spans);
          ASSERT_EQ(compact.rows(), B);
          ASSERT_EQ(compact.cols(), spans.width());

          std::size_t computed_cols = 0, tiles_read = 0;
          for (std::size_t r = 0; r < B; ++r) {
            std::vector<bool> reads_tile(col_tiles, false);
            for (std::size_t j = 0; j < spans.width(); ++j) {
              const std::size_t k = spans.begin(r) + j;
              bool computed = false;
              if (j < spans.end(r) - spans.begin(r)) {
                const auto [b0, b1] = kernel_block(k, cfg.cols, n_keys);
                const std::size_t lo = std::max(b0, spans.begin(r)) - spans.begin(r);
                computed = spans.any_candidate(r, lo, b1 - spans.begin(r));
                if (computed && (k == spans.begin(r) || k == b0)) {
                  computed_cols += b1 - b0;
                  reads_tile[k / cfg.cols] = true;
                }
              }
              if (computed) {
                ASSERT_EQ(bits(compact(r, j)), bits(full(r, k))) << "(" << r << ", " << j << ")";
              } else {
                ASSERT_EQ(bits(compact(r, j)), 0u) << "(" << r << ", " << j << ")";
              }
            }
            for (const bool t : reads_tile) tiles_read += t ? 1 : 0;
          }
          // Per-row units of the full pass: ADC conversions per key column,
          // activations per column tile.
          const cim::OpCounters f = full_acc.counters(), c = span_acc.counters();
          EXPECT_EQ(c.adc_conversions * B * n_keys, f.adc_conversions * computed_cols);
          EXPECT_EQ(c.subarray_activations * B * col_tiles, f.subarray_activations * tiles_read);
        }
      }
    }
  }
}

TEST(SlotScopedPass, RejectsMalformedSpans) {
  cim::CrossbarConfig cfg;
  cfg.rows = 40;
  cfg.cols = 48;
  cim::Accelerator acc(cfg, {nvm::fefet3(), 0.1});
  Rng rng(1650);
  acc.store(Matrix::randn(100, 70, rng), rng);
  const Matrix x = Matrix::randn(2, 70, rng);
  cim::Accelerator::BatchScratch scratch;
  Matrix y;

  cim::PassSpans spans;
  EXPECT_THROW(spans.add_row(10, 5), Error);  // reversed
  spans.add_row(96, 101);                     // past the bank's 100 keys
  spans.add_row(0, 4);
  EXPECT_THROW(acc.query_batch_into(x, y, scratch, &spans), Error);
  spans.clear();
  spans.add_row(0, 4);
  EXPECT_THROW(acc.query_batch_into(x, y, scratch, &spans), Error);  // 1 span, 2 rows
  spans.add_row(50, 56);
  spans.clear_candidates();
  EXPECT_THROW(spans.set_candidate(0, 4), Error);  // past row 0's 4-key span
  EXPECT_THROW(spans.add_row(0, 1), Error);        // rows after the mask
  EXPECT_EQ(spans.count_row(0) + spans.count_row(1), 0u);
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

// The engine describes each pass from its pinned epoch; an admit landing
// after the pin may already have grown the live shard. Deterministic
// store-level replay of that interleaving: pin, grow, then score the pinned
// slot spans exactly as the retrieve stage does.
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
  const Matrix queries =
      Matrix::randn(n, SlotScopedFixture::kTokens * SlotScopedFixture::kCodeDim, qr);
  std::vector<std::size_t> row_user(n);
  for (std::size_t r = 0; r < n; ++r) row_user[r] = r % 5;
  cim::PassSpans spans;
  serve::ShardedOvtStore::slot_spans(*pinned.snap, 0, row_user, spans);
  Matrix scores;
  retrieval::CimRetriever::Scratch scratch;
  store.shard_scores_into(0, queries, scores, scratch, &spans);
  EXPECT_EQ(scores.cols(), kSlotKeys);  // the compact block, not the shard width
  for (std::size_t r = 0; r < n; ++r) {
    Matrix q(SlotScopedFixture::kTokens, SlotScopedFixture::kCodeDim);
    std::copy(queries.data() + r * queries.cols(), queries.data() + (r + 1) * queries.cols(),
              q.data());
    EXPECT_EQ(serve::ShardedOvtStore::best_candidate(scores, r, spans),
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

TEST(SlotScopedCounters, BatchMatesDoNotChangeARowsCosts) {
  // Users 0 and 3 hold 48-key slots in different 128-column subarrays of one
  // shard. Scored together in one pass, each row keeps its scores and pays
  // exactly what it pays scored alone: no activations of the other row's
  // subarray, no ADC conversions of its blocks.
  SlotScopedFixture f;
  serve::OvtStoreConfig cfg;
  cfg.n_shards = 1;
  cfg.crossbar.rows = 64;
  cfg.crossbar.cols = 128;
  cfg.variation = {nvm::fefet3(), 0.1};
  serve::ShardedOvtStore store(cfg);
  for (std::size_t u = 0; u < 4; ++u) store.add_user(u, f.make_deployment(u).keys);
  Rng br(1571);
  store.build(br);
  const serve::PinnedDirectory pinned = store.pin();
  ASSERT_EQ(pinned.slot(0).end, kSlotKeys);
  ASSERT_GE(pinned.slot(3).begin, store.cols_per_subarray());

  Rng qr(1572);
  const std::size_t key_size = SlotScopedFixture::kTokens * SlotScopedFixture::kCodeDim;
  const Matrix pair = Matrix::randn(2, key_size, qr);
  const auto score = [&](const Matrix& queries, const std::vector<std::size_t>& users,
                         Matrix& out) {
    cim::PassSpans spans;
    serve::ShardedOvtStore::slot_spans(*pinned.snap, 0, users, spans);
    retrieval::CimRetriever::Scratch scratch;
    const cim::OpCounters before = store.counters();
    store.shard_scores_into(0, queries, out, scratch, &spans);
    return delta(store.counters(), before);
  };
  Matrix both, alone0, alone3;
  const cim::OpCounters d_both = score(pair, {0, 3}, both);
  const cim::OpCounters d0 = score(pair.row(0), {0}, alone0);
  const cim::OpCounters d3 = score(pair.row(1), {3}, alone3);
  EXPECT_EQ(d_both.subarray_activations, d0.subarray_activations + d3.subarray_activations);
  EXPECT_EQ(d_both.adc_conversions, d0.adc_conversions + d3.adc_conversions);
  EXPECT_EQ(d0.subarray_activations, d3.subarray_activations);  // one subarray each
  EXPECT_GT(d0.subarray_activations, 0u);
  for (std::size_t j = 0; j < kSlotKeys; ++j) {
    EXPECT_EQ(bits(both(0, j)), bits(alone0(0, j))) << j;
    EXPECT_EQ(bits(both(1, j)), bits(alone3(0, j))) << j;
  }
}

TEST(SlotScopedCounters, ConcurrentPassesCountExactly) {
  // Passes share the shard lock and advance the crossbar counters with
  // atomic adds: three threads running the same slot-span passes at once
  // must count exactly three serial runs, and score what one run scores.
  SlotScopedFixture f;
  serve::OvtStoreConfig cfg;
  cfg.n_shards = 1;
  cfg.crossbar.rows = 64;
  cfg.crossbar.cols = 128;
  cfg.variation = {nvm::fefet3(), 0.1};
  serve::ShardedOvtStore store(cfg);
  for (std::size_t u = 0; u < 4; ++u) store.add_user(u, f.make_deployment(u).keys);
  Rng br(1581);
  store.build(br);
  const serve::PinnedDirectory pinned = store.pin();

  Rng qr(1582);
  const std::size_t key_size = SlotScopedFixture::kTokens * SlotScopedFixture::kCodeDim;
  const Matrix queries = Matrix::randn(4, key_size, qr);
  cim::PassSpans all, some;
  serve::ShardedOvtStore::slot_spans(*pinned.snap, 0, {0, 1, 2, 3}, all);
  serve::ShardedOvtStore::slot_spans(*pinned.snap, 0, {3, 1, 3, 0}, some);
  const auto run = [&](Matrix& last) {
    retrieval::CimRetriever::Scratch scratch;
    for (int i = 0; i < 8; ++i) {
      store.shard_scores_into(0, queries, last, scratch, &all);
      store.shard_scores_into(0, queries, last, scratch, &some);
    }
  };
  const auto minus = [](const cim::OpCounters& a, const cim::OpCounters& b) {
    cim::OpCounters d;
    d.subarray_activations = a.subarray_activations - b.subarray_activations;
    d.adc_conversions = a.adc_conversions - b.adc_conversions;
    d.cells_programmed = a.cells_programmed - b.cells_programmed;
    d.write_pulses = a.write_pulses - b.write_pulses;
    return d;
  };

  Matrix serial;
  const cim::OpCounters c0 = store.counters();
  run(serial);
  const cim::OpCounters one = minus(store.counters(), c0);
  ASSERT_GT(one.subarray_activations, 0u);
  ASSERT_GT(one.adc_conversions, 0u);

  std::vector<Matrix> outs(3);
  const cim::OpCounters c1 = store.counters();
  {
    std::vector<std::thread> threads;
    for (Matrix& out : outs) threads.emplace_back([&] { run(out); });
    for (std::thread& t : threads) t.join();
  }
  const cim::OpCounters three = minus(store.counters(), c1);
  EXPECT_EQ(three.subarray_activations, 3 * one.subarray_activations);
  EXPECT_EQ(three.adc_conversions, 3 * one.adc_conversions);
  EXPECT_EQ(three.cells_programmed, 3 * one.cells_programmed);
  EXPECT_EQ(three.write_pulses, 3 * one.write_pulses);
  for (const Matrix& out : outs) {
    ASSERT_TRUE(out.same_shape(serial));
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(bits(out.at_flat(i)), bits(serial.at_flat(i))) << i;
  }
}

}  // namespace
}  // namespace nvcim
