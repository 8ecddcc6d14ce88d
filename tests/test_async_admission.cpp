// Churn fast path: span programming and write-behind admission, overlapped
// with serving.
//
//  - one Crossbar::program_columns span is cell-for-cell identical to the
//    same columns written as 1-wide spans in reverse order
//  - one Accelerator::program_keys span matches per-key program_keys calls
//    bit-for-bit (multi-tile geometry, unaligned span, reprogramming included)
//  - the staged admission protocol (stage → program_span× → commit) matches
//    a synchronous store admit_user bit-identically, with spans executed in ANY
//    order; staged tenants are Pending (not queryable, not evictable,
//    skipped by the rebalancer) until commit; abort rolls back completely
//  - engine-level write-behind admission: AdmissionHandle::wait() joins, results
//    bit-identical to a synchronous-admission engine, untouched tenants
//    unchanged, stats expose queue depth / batch count / admission latency
//  - admit(..., {.non_blocking = true}) returns an invalid handle on the
//    pending-admission bound instead of blocking; rejected users leave no
//    trace
//  - evict_user() of an in-flight admission joins it first
//  - stress: concurrent admit/wait/evict churn, serving traffic and a
//    rebalance on one engine (runs under ASan/TSan in CI)
//
// The per-column noise streams are derived from (subarray, column) position
// only, which is what makes all of the above bit-identity — not tolerance —
// properties.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "nvcim/cim/accelerator.hpp"
#include "nvcim/serve/engine.hpp"

namespace nvcim {
namespace {

// ---------------------------------------------------------------------------
// Span programming primitives.
// ---------------------------------------------------------------------------

TEST(BatchedProgramming, CrossbarSpanMatchesPerColumnCellForCell) {
  cim::CrossbarConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  const nvm::VariationModel var{nvm::fefet3(), 0.1};
  const Rng base(4242);

  // Integer column values (span-major: row j holds column col0 + j).
  const std::size_t n = 5, col0 = 2;
  Matrix vals(n, cfg.rows);
  Rng vr(11);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t r = 0; r < cfg.rows; ++r)
      vals(j, r) = static_cast<float>(static_cast<long>(vr.uniform_index(201)) - 100);

  // The same columns as 1-wide spans, last column first: a column's cells
  // depend on its values, position and stream only.
  cim::Crossbar one_at_a_time(cfg);
  one_at_a_time.init_blank(cfg.rows, cfg.cols);
  for (std::size_t j = n; j-- > 0;) {
    Matrix col(1, cfg.rows);
    for (std::size_t r = 0; r < cfg.rows; ++r) col(0, r) = vals(j, r);
    Rng stream = base.split(1000 + j);
    one_at_a_time.program_columns(col, col0 + j, var, &stream);
  }

  cim::Crossbar span(cfg);
  span.init_blank(cfg.rows, cfg.cols);
  std::vector<Rng> streams;
  for (std::size_t j = 0; j < n; ++j) streams.push_back(base.split(1000 + j));
  span.program_columns(vals, col0, var, streams.data());

  const std::size_t slices = cfg.n_slices();
  for (std::size_t s = 0; s < slices; ++s)
    for (std::size_t r = 0; r < cfg.rows; ++r)
      for (std::size_t c = 0; c < cfg.cols; ++c)
        for (const bool neg : {false, true})
          ASSERT_EQ(one_at_a_time.cell_level(s, r, c, neg), span.cell_level(s, r, c, neg))
              << "slice " << s << " cell (" << r << ", " << c << ") neg=" << neg;
}

TEST(BatchedProgramming, AcceleratorBatchedMatchesPerKeyQueries) {
  cim::CrossbarConfig cfg;
  cfg.rows = 16;  // key_len 32 -> two row tiles
  cfg.cols = 8;   // 20 keys from col 3 -> three column tiles, unaligned span
  const nvm::VariationModel var{nvm::fefet3(), 0.1};
  const Rng base(77);

  Rng kr(21);
  const Matrix keys = Matrix::rand_uniform(20, 32, kr, -1.0f, 1.0f);

  // One program_keys call per key vs one call over the whole span.
  const auto program_per_key = [](cim::Accelerator& acc, const Matrix& ks, std::size_t col0) {
    for (std::size_t j = 0; j < ks.rows(); ++j) acc.program_keys(ks.row(j), col0 + j);
  };
  cim::Accelerator per_key(cfg, var), batched(cfg, var);
  per_key.init_mutable(32, 24, base);
  batched.init_mutable(32, 24, base);
  program_per_key(per_key, keys, 3);
  batched.program_keys(keys, 3);

  Rng qr(22);
  const Matrix queries = Matrix::randn(4, 32, qr);
  const Matrix ya = per_key.query_batch(queries);
  const Matrix yb = batched.query_batch(queries);
  ASSERT_TRUE(ya.same_shape(yb));
  for (std::size_t i = 0; i < ya.size(); ++i)
    ASSERT_EQ(ya.at_flat(i), yb.at_flat(i)) << "flat index " << i;

  // Reprogramming an occupied sub-span stays bit-identical too.
  const Matrix fresh = Matrix::rand_uniform(6, 32, kr, -1.0f, 1.0f);
  program_per_key(per_key, fresh, 7);
  batched.program_keys(fresh, 7);
  const Matrix ya2 = per_key.query_batch(queries);
  const Matrix yb2 = batched.query_batch(queries);
  for (std::size_t i = 0; i < ya2.size(); ++i)
    ASSERT_EQ(ya2.at_flat(i), yb2.at_flat(i)) << "flat index " << i;
}

std::vector<Matrix> random_keys(std::size_t n, std::size_t rows, std::size_t cols, Rng& rng) {
  std::vector<Matrix> keys;
  for (std::size_t i = 0; i < n; ++i)
    keys.push_back(Matrix::rand_uniform(rows, cols, rng, -1.0f, 1.0f));
  return keys;
}

// ---------------------------------------------------------------------------
// Store-level staged admission protocol.
// ---------------------------------------------------------------------------

serve::OvtStoreConfig lifecycle_store_config() {
  serve::OvtStoreConfig cfg;
  cfg.n_shards = 2;
  cfg.crossbar.rows = 64;
  cfg.crossbar.cols = 16;
  cfg.variation = {nvm::fefet3(), 0.1};
  cfg.lifecycle.enabled = true;
  return cfg;
}

TEST(AsyncAdmission, StagedProtocolBitIdenticalToSyncInAnyOrder) {
  Rng kr(601);
  std::vector<std::vector<Matrix>> keys;
  for (std::size_t u = 0; u < 3; ++u) keys.push_back(random_keys(4, 4, 8, kr));
  // 40 key columns at 16-column subarrays: the staged admission splits into
  // at least three per-subarray spans.
  const std::vector<Matrix> big = random_keys(40, 4, 8, kr);

  serve::ShardedOvtStore sync_store(lifecycle_store_config());
  for (std::size_t u = 0; u < 3; ++u) sync_store.add_user(u, keys[u]);
  Rng r1(7);
  sync_store.build(r1);
  sync_store.admit_user(9, big);

  serve::ShardedOvtStore staged_store(lifecycle_store_config());
  for (std::size_t u = 0; u < 3; ++u) staged_store.add_user(u, keys[u]);
  Rng r2(7);
  staged_store.build(r2);

  const auto staged = staged_store.stage_admit(9, big);
  ASSERT_GE(staged.spans.size(), 3u);
  // Spans tile the slot in order, never cross a subarray and are at most 32
  // columns wide. At 16-column subarrays the subarray bounds split the slot;
  // at 128 columns a 48-key slot sits inside one subarray and only the
  // 32-column cap splits it.
  const auto expect_spans_tile_slot = [](const serve::ShardedOvtStore::StagedAdmission& st,
                                         std::size_t n_keys, std::size_t cols) {
    std::size_t next = st.begin;
    for (const auto& [c0, c1] : st.spans) {
      EXPECT_EQ(c0, next);
      EXPECT_LT(c0, c1);
      EXPECT_LE(c1 - c0, 32u);
      EXPECT_EQ(c0 / cols, (c1 - 1) / cols) << "span [" << c0 << ", " << c1 << ")";
      next = c1;
    }
    EXPECT_EQ(next, st.begin + n_keys);
  };
  expect_spans_tile_slot(staged, big.size(), 16);
  {
    serve::OvtStoreConfig wide_cfg = lifecycle_store_config();
    wide_cfg.crossbar.cols = 128;
    serve::ShardedOvtStore wide(wide_cfg);
    for (std::size_t u = 0; u < 3; ++u) wide.add_user(u, keys[u]);
    Rng r3(7);
    wide.build(r3);
    const std::vector<Matrix> wide_keys = random_keys(48, 4, 8, kr);
    const auto wide_staged = wide.stage_admit(9, wide_keys);
    ASSERT_EQ(wide_staged.begin / 128, (wide_staged.begin + 47) / 128);
    EXPECT_EQ(wide_staged.spans.size(), 2u);
    expect_spans_tile_slot(wide_staged, wide_keys.size(), 128);
  }
  // Pending: present in the directory but not queryable, not evictable, not
  // migratable.
  EXPECT_TRUE(staged_store.has_user(9));
  EXPECT_FALSE(staged_store.user_live(9));
  EXPECT_THROW(staged_store.evict_user(9), Error);
  EXPECT_THROW(staged_store.migrate_user(9, 1 - staged.shard), Error);
  // Spans program in REVERSE order: per-column streams are position-derived,
  // so execution order is irrelevant by construction.
  for (std::size_t i = staged.spans.size(); i-- > 0;) staged_store.program_span(staged, i);
  EXPECT_FALSE(staged_store.user_live(9));
  staged_store.commit_admit(9);
  EXPECT_TRUE(staged_store.user_live(9));

  const auto ss = sync_store.slot(9);
  const auto sd = staged_store.slot(9);
  ASSERT_EQ(ss.shard, sd.shard);
  ASSERT_EQ(ss.begin, sd.begin);
  ASSERT_EQ(ss.end, sd.end);
  Rng qr(602);
  const Matrix queries = Matrix::randn(3, 32, qr);
  for (std::size_t sh = 0; sh < 2; ++sh) {
    const Matrix ya = sync_store.shard_scores(sh, queries);
    const Matrix yb = staged_store.shard_scores(sh, queries);
    ASSERT_TRUE(ya.same_shape(yb));
    for (std::size_t i = 0; i < ya.size(); ++i)
      ASSERT_EQ(ya.at_flat(i), yb.at_flat(i)) << "shard " << sh << " flat " << i;
  }
}

TEST(AsyncAdmission, AbortRollsBackCompletely) {
  Rng kr(611);
  serve::ShardedOvtStore store(lifecycle_store_config());
  for (std::size_t u = 0; u < 2; ++u) store.add_user(u, random_keys(4, 4, 8, kr));
  Rng br(9);
  store.build(br);

  Rng qr(612);
  const Matrix queries = Matrix::randn(2, 32, qr);
  const Matrix before = store.shard_scores(0, queries);

  const auto staged = store.stage_admit(9, random_keys(20, 4, 8, kr));
  store.program_span(staged, 0);  // half-programmed, then abandoned
  store.abort_admit(9);
  EXPECT_FALSE(store.has_user(9));
  EXPECT_FALSE(store.user_live(9));

  // Existing tenants are bit-identical through the stage/abort cycle. (The
  // shard capacity the stage provisioned stays provisioned — abort releases
  // the slot, not the blank subarrays — so the score width may grow.)
  const Matrix after = store.shard_scores(0, queries);
  ASSERT_GE(after.cols(), before.cols());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    for (std::size_t u = 0; u < 2; ++u) {
      const auto slot = store.slot(u);
      if (slot.shard != 0) continue;
      for (std::size_t c = slot.begin; c < slot.end; ++c)
        ASSERT_EQ(before(q, c), after(q, c)) << "user " << u << " column " << c;
    }
  }

  // The id is free again: a synchronous admit of the same user succeeds.
  store.admit_user(9, random_keys(4, 4, 8, kr));
  EXPECT_TRUE(store.user_live(9));
}

// ---------------------------------------------------------------------------
// Engine-level write-behind admission (threaded; ASan/TSan in CI).
// ---------------------------------------------------------------------------

llm::TinyLM async_model(std::size_t vocab, std::uint64_t seed) {
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

struct AsyncEngineFixture {
  data::LampTask task{data::lamp1_config()};
  llm::TinyLM model;
  std::shared_ptr<const compress::Autoencoder> autoencoder;

  AsyncEngineFixture() : model(async_model(task.vocab_size(), 21)) {
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

  serve::ServingConfig config(std::size_t shards, std::size_t threads, std::size_t batch,
                              bool write_behind = true) {
    serve::ServingConfig cfg;
    cfg.n_shards = shards;
    cfg.n_threads = threads;
    cfg.max_batch = batch;
    cfg.crossbar.rows = 96;
    cfg.crossbar.cols = 32;
    cfg.variation = {nvm::fefet3(), 0.1};
    cfg.lifecycle.enabled = true;
    cfg.lifecycle.write_behind = write_behind;
    cfg.seed = 2026;
    return cfg;
  }

  data::Sample query(Rng& rng) {
    return task.sample(rng.uniform_index(task.config().n_domains), rng);
  }
};

TEST(AsyncAdmission, WriteBehindBitIdenticalToSynchronousEngine) {
  AsyncEngineFixture f;
  serve::ServingEngine wb(f.model, f.task, f.config(2, 2, 8, /*write_behind=*/true));
  serve::ServingEngine sync(f.model, f.task, f.config(2, 2, 8, /*write_behind=*/false));
  for (std::size_t u = 0; u < 4; ++u) {
    wb.add_deployment(u, f.make_deployment(u));
    sync.add_deployment(u, f.make_deployment(u));
  }
  wb.start();
  sync.start();

  // Reference answers for an untouched tenant, before any churn.
  Rng qr(701);
  std::vector<data::Sample> probes;
  std::vector<std::size_t> expected;
  for (int t = 0; t < 6; ++t) {
    probes.push_back(f.query(qr));
    expected.push_back(wb.retrieve_serial(0, probes.back()));
  }

  // 40 key columns -> several per-subarray programming spans.
  serve::AdmissionHandle admitted = wb.admit(100, f.make_deployment(100, 40));
  sync.admit(100, f.make_deployment(100, 40));
  admitted.wait();
  EXPECT_TRUE(wb.store().user_live(100));
  // Joining an already-live admission is a no-op, not an error.
  admitted.wait();

  // Deferred == synchronous, bit for bit (same seed, same placement, same
  // per-column noise streams), through both the serial path and the engine.
  for (int t = 0; t < 6; ++t) {
    const data::Sample probe = f.query(qr);
    const std::size_t want = sync.retrieve_serial(100, probe);
    EXPECT_EQ(wb.retrieve_serial(100, probe), want) << "probe " << t;
    EXPECT_EQ(wb.submit(serve::Request{100, probe}).get().ovt_index, want) << "probe " << t;
  }
  // Untouched tenants are bit-identical through the write-behind admit.
  for (std::size_t t = 0; t < probes.size(); ++t)
    EXPECT_EQ(wb.retrieve_serial(0, probes[t]), expected[t]) << "probe " << t;

  const serve::StatsSnapshot s = wb.stats();
  EXPECT_EQ(s.users_admitted, 1u);
  EXPECT_GE(s.program_batches, 2u);
  EXPECT_EQ(s.programming_queue_depth, 0u);
  EXPECT_GE(s.admission_p50_ms, 0.0);
  EXPECT_LE(s.admission_p50_ms, s.admission_p95_ms);

  wb.stop();
  sync.stop();
}

TEST(AsyncAdmission, TryAdmitBouncesOnPendingBound) {
  AsyncEngineFixture f;
  serve::ServingConfig cfg = f.config(2, 2, 8);
  cfg.lifecycle.max_pending_admissions = 1;
  serve::ServingEngine engine(f.model, f.task, cfg);
  for (std::size_t u = 0; u < 2; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();

  // Rapid-fire non-blocking admissions against a bound of one: whichever
  // calls land while a prior admission is still programming bounce with
  // Overloaded and leave no trace.
  std::vector<serve::AdmissionHandle> accepted;
  std::vector<std::size_t> rejected;
  for (std::size_t u = 200; u < 206; ++u) {
    serve::AdmissionHandle h =
        engine.admit(u, f.make_deployment(u, 24), serve::AdmitOptions{/*non_blocking=*/true});
    if (h.valid())
      accepted.push_back(std::move(h));
    else
      rejected.push_back(u);
  }
  EXPECT_GE(accepted.size(), 1u);
  for (serve::AdmissionHandle& h : accepted) {
    h.wait();
    EXPECT_TRUE(engine.store().user_live(h.user_id()));
  }
  for (const std::size_t u : rejected) EXPECT_FALSE(engine.store().has_user(u));
  EXPECT_EQ(engine.stats().rejected_admissions, rejected.size());

  // The blocking call waits out the backpressure instead of bouncing.
  if (!rejected.empty()) {
    engine.admit(rejected.front(), f.make_deployment(rejected.front())).wait();
    EXPECT_TRUE(engine.store().user_live(rejected.front()));
  }
  engine.stop();
}

TEST(AsyncAdmission, EvictJoinsInFlightAdmission) {
  AsyncEngineFixture f;
  serve::ServingEngine engine(f.model, f.task, f.config(2, 2, 8));
  for (std::size_t u = 0; u < 2; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();

  // Evict immediately after a write-behind admit: the eviction joins the
  // in-flight programming first, then removes the (fully admitted) tenant.
  engine.admit(300, f.make_deployment(300, 24));
  engine.evict_user(300);
  EXPECT_FALSE(engine.store().has_user(300));
  Rng qr(711);
  // Evicted: submits settle their future with the structured UnknownUser.
  EXPECT_THROW(engine.submit(serve::Request{300, f.query(qr)}).get(), serve::UnknownUser);

  // The id is immediately re-admittable.
  engine.admit(300, f.make_deployment(300)).wait();
  EXPECT_EQ(engine.submit(serve::Request{300, f.query(qr)}).get().user_id, 300u);
  engine.stop();
}

TEST(AsyncAdmission, HandleJoinsItsOwnAdmissionAcrossEvictAndReadmit) {
  AsyncEngineFixture f;
  serve::ServingEngine engine(f.model, f.task, f.config(2, 2, 8));
  for (std::size_t u = 0; u < 2; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();

  // The handle holds its admission's own join state: once that admission
  // has settled live, wait() keeps returning after the tenant is evicted
  // and after the id is admitted again.
  serve::AdmissionHandle first = engine.admit(400, f.make_deployment(400, 24));
  first.wait();
  engine.evict_user(400);
  EXPECT_NO_THROW(first.wait());
  serve::AdmissionHandle second = engine.admit(400, f.make_deployment(400));
  EXPECT_NO_THROW(first.wait());
  second.wait();
  EXPECT_TRUE(engine.store().user_live(400));
  EXPECT_EQ(first.user_id(), 400u);
  EXPECT_EQ(second.user_id(), 400u);
  engine.stop();
}

TEST(AsyncAdmission, ConcurrentChurnServingAndRebalance) {
  AsyncEngineFixture f;
  serve::ServingEngine engine(f.model, f.task, f.config(2, 4, 8));
  for (std::size_t u = 0; u < 4; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();

  // Pre-generate every query on this thread (task sampling is not part of
  // the race under test).
  Rng qr(721);
  std::vector<data::Sample> stable_probes, churn_probes;
  for (int t = 0; t < 40; ++t) stable_probes.push_back(f.query(qr));
  for (int t = 0; t < 6; ++t) churn_probes.push_back(f.query(qr));

  std::atomic<std::size_t> served{0};
  std::thread churn([&] {
    for (std::size_t i = 0; i < 6; ++i) {
      const std::size_t u = 1000 + i;
      engine.admit(u, f.make_deployment(u, 24)).wait();
      const serve::Response r = engine.submit(serve::Request{u, churn_probes[i]}).get();
      EXPECT_EQ(r.user_id, u);
      engine.evict_user(u);
    }
  });
  std::thread traffic([&] {
    std::vector<std::future<serve::Response>> futures;
    for (std::size_t t = 0; t < stable_probes.size(); ++t)
      futures.push_back(engine.submit(serve::Request{t % 4, stable_probes[t]}).take_future());
    for (std::size_t t = 0; t < futures.size(); ++t) {
      const serve::Response r = futures[t].get();
      EXPECT_EQ(r.user_id, t % 4);
      ++served;
    }
  });
  (void)engine.rebalance();
  churn.join();
  traffic.join();
  EXPECT_EQ(served.load(), stable_probes.size());

  // The engine is intact after the churn: stable tenants still serve.
  EXPECT_EQ(engine.submit(serve::Request{0, stable_probes[0]}).get().user_id, 0u);
  const serve::StatsSnapshot s = engine.stats();
  EXPECT_EQ(s.users_admitted, 6u);
  EXPECT_EQ(s.users_evicted, 6u);
  EXPECT_EQ(s.programming_queue_depth, 0u);
  engine.stop();
}

TEST(AsyncAdmission, StopDrainsInFlightAdmissionsDeterministically) {
  AsyncEngineFixture f;
  serve::ServingEngine engine(f.model, f.task, f.config(2, 2, 8));
  for (std::size_t u = 0; u < 2; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();

  // Fire a burst of write-behind admissions and stop() immediately, without
  // joining any of them: stop() must drain every staged programming span
  // and wait for every admission to settle before returning — no tenant may
  // be left half-programmed.
  std::vector<std::size_t> users;
  std::vector<serve::AdmissionHandle> handles;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t u = 2000 + i;
    handles.push_back(engine.admit(u, f.make_deployment(u, 24)));
    users.push_back(u);
  }
  engine.stop();

  // Every admission committed fully: live slot, zero staged spans left.
  for (const std::size_t u : users) EXPECT_TRUE(engine.store().user_live(u)) << "user " << u;
  const serve::StatsSnapshot s = engine.stats();
  EXPECT_EQ(s.users_admitted, users.size());
  EXPECT_EQ(s.programming_queue_depth, 0u);
  // wait() after the drain is a no-op, not a hang or an error.
  for (serve::AdmissionHandle& h : handles) h.wait();

  // With the pool stopped, a write-behind admission programs its spans on
  // the calling thread: the tenant is live when admit() returns.
  serve::AdmissionHandle late = engine.admit(2100, f.make_deployment(2100, 24));
  EXPECT_TRUE(late.valid());
  EXPECT_TRUE(engine.store().user_live(2100));
  EXPECT_EQ(engine.stats().programming_queue_depth, 0u);
  late.wait();
  engine.stop();  // idempotent
}

}  // namespace
}  // namespace nvcim
