#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "nvcim/llm/pretrain.hpp"
#include "nvcim/serve/engine.hpp"
#include "nvcim/serve/lru_cache.hpp"

namespace nvcim::serve {
namespace {

// ---------------------------------------------------------------------------
// Batched crossbar path: bit-exact agreement with the per-query path.
// ---------------------------------------------------------------------------

TEST(BatchedCrossbar, MatvecBatchMatchesMatvecExactly) {
  cim::CrossbarConfig cfg;
  cfg.rows = 48;
  cfg.cols = 20;
  cim::Crossbar xb(cfg);
  Rng rng(11);
  Matrix w(48, 20);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.at_flat(i) = static_cast<float>(static_cast<int>(rng.uniform_index(2001)) - 1000);
  Rng prog_rng(12);
  xb.program(w, {nvm::fefet3(), 0.25}, prog_rng);

  Rng qr(13);
  const Matrix x = Matrix::randn(6, 48, qr);
  cim::Crossbar copy = xb;  // independent counters
  const Matrix serial = xb.matvec(x);
  const Matrix batched = copy.matvec_batch(x);
  ASSERT_TRUE(serial.same_shape(batched));
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial.at_flat(i), batched.at_flat(i)) << "flat index " << i;
  // Counters advance identically.
  EXPECT_EQ(xb.counters().subarray_activations, copy.counters().subarray_activations);
  EXPECT_EQ(xb.counters().adc_conversions, copy.counters().adc_conversions);
}

TEST(BatchedAccelerator, QueryBatchMatchesQueryUnderNoiseAndAdc) {
  cim::CrossbarConfig cfg;
  cfg.rows = 64;
  cfg.cols = 16;
  cfg.adc_bits = 8;
  cim::Accelerator acc(cfg, {nvm::rram1(), 0.2});
  Rng rng(21);
  acc.store(Matrix::randn(24, 100, rng), rng);  // tiles in both dimensions

  Rng qr(22);
  const Matrix queries = Matrix::randn(8, 100, qr);
  const Matrix batched = acc.query_batch(queries);
  ASSERT_EQ(batched.rows(), 8u);
  ASSERT_EQ(batched.cols(), 24u);
  for (std::size_t b = 0; b < queries.rows(); ++b) {
    const Matrix one = acc.query(queries.row(b));
    for (std::size_t k = 0; k < one.cols(); ++k)
      EXPECT_EQ(one(0, k), batched(b, k)) << "query " << b << " key " << k;
  }
}

TEST(BatchedRetriever, ScoresAndRetrieveBatchMatchSerial) {
  retrieval::CimRetriever::Config cfg;
  cfg.algorithm = retrieval::Algorithm::SSA;
  cfg.crossbar.rows = 64;
  cfg.crossbar.cols = 16;
  cfg.variation = {nvm::fefet3(), 0.15};
  retrieval::CimRetriever r(cfg);
  Rng rng(31);
  std::vector<Matrix> keys;
  for (int i = 0; i < 6; ++i) keys.push_back(Matrix::randn(4, 16, rng));
  r.store(keys, rng);

  Rng qr(32);
  std::vector<Matrix> queries;
  for (int i = 0; i < 9; ++i) queries.push_back(Matrix::randn(4, 16, qr));
  const Matrix packed = r.pack_queries(queries);
  const Matrix batch_scores = r.scores_batch(packed);
  const std::vector<std::size_t> batch_best = r.retrieve_batch(packed);
  ASSERT_EQ(batch_scores.rows(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const Matrix s = r.scores(queries[q]);
    for (std::size_t k = 0; k < s.cols(); ++k) EXPECT_EQ(s(0, k), batch_scores(q, k));
    EXPECT_EQ(r.retrieve(queries[q]), batch_best[q]);
  }
}

// ---------------------------------------------------------------------------
// LRU cache.
// ---------------------------------------------------------------------------

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int, int> c(2);
  c.put(1, 10);
  c.put(2, 20);
  EXPECT_TRUE(c.get(1).has_value());  // 1 now most-recent
  c.put(3, 30);                       // evicts 2
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(1));
  EXPECT_TRUE(c.contains(3));
  EXPECT_EQ(c.evictions(), 1u);
}

TEST(LruCache, HitMissAccounting) {
  LruCache<int, int> c(4);
  EXPECT_FALSE(c.get(7).has_value());
  c.put(7, 70);
  EXPECT_EQ(*c.get(7), 70);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.5);
}

TEST(LruCache, PutRefreshesExistingKey) {
  LruCache<int, int> c(2);
  c.put(1, 10);
  c.put(2, 20);
  c.put(1, 11);  // refresh, not insert: nothing evicted
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(*c.get(1), 11);
  c.put(3, 30);  // evicts 2 (1 was refreshed more recently)
  EXPECT_FALSE(c.contains(2));
}

// ---------------------------------------------------------------------------
// Sharded OVT store.
// ---------------------------------------------------------------------------

OvtStoreConfig noise_free_store(std::size_t n_shards) {
  OvtStoreConfig cfg;
  cfg.n_shards = n_shards;
  cfg.crossbar.rows = 64;
  cfg.crossbar.cols = 16;
  cfg.crossbar.adc_bits = 0;  // ideal ADC
  cfg.variation = {nvm::fefet3(), 0.0};
  return cfg;
}

std::vector<Matrix> user_keys(std::size_t n, std::size_t len, Rng& rng) {
  std::vector<Matrix> keys;
  for (std::size_t i = 0; i < n; ++i) keys.push_back(Matrix::rand_uniform(1, len, rng, -1, 1));
  return keys;
}

TEST(ShardedOvtStore, BalancedPlacementAndSlots) {
  ShardedOvtStore store(noise_free_store(2));
  Rng rng(41);
  for (std::size_t u = 0; u < 8; ++u) store.add_user(u, user_keys(3, 32, rng));
  EXPECT_EQ(store.n_users(), 8u);
  EXPECT_EQ(store.n_keys(), 24u);
  std::size_t shard0 = 0, shard1 = 0;
  for (std::size_t u = 0; u < 8; ++u) {
    const auto& slot = store.slot(u);
    EXPECT_EQ(slot.n_keys(), 3u);
    (slot.shard == 0 ? shard0 : shard1) += slot.n_keys();
  }
  EXPECT_EQ(shard0, 12u);
  EXPECT_EQ(shard1, 12u);
}

TEST(ShardedOvtStore, RetrieveMatchesDedicatedPerUserRetriever) {
  // Noise-free: a user's retrieval through a shared multi-tenant shard must
  // agree with a dedicated single-user CimRetriever on the same keys.
  const std::size_t n_users = 8, keys_per_user = 4, len = 32;
  Rng rng(51);
  std::vector<std::vector<Matrix>> keys;
  for (std::size_t u = 0; u < n_users; ++u) keys.push_back(user_keys(keys_per_user, len, rng));

  ShardedOvtStore store(noise_free_store(2));
  for (std::size_t u = 0; u < n_users; ++u) store.add_user(u, keys[u]);
  Rng build_rng(52);
  store.build(build_rng);

  retrieval::CimRetriever::Config rcfg;
  rcfg.crossbar = noise_free_store(2).crossbar;
  rcfg.variation = noise_free_store(2).variation;

  Rng qr(53);
  for (std::size_t u = 0; u < n_users; ++u) {
    retrieval::CimRetriever dedicated(rcfg);
    Rng srng(54 + u);
    dedicated.store(keys[u], srng);
    for (int t = 0; t < 4; ++t) {
      const Matrix q = Matrix::rand_uniform(1, len, qr, -1, 1);
      EXPECT_EQ(store.retrieve_user(u, q), dedicated.retrieve(q))
          << "user " << u << " trial " << t;
    }
  }
}

TEST(ShardedOvtStore, LifecycleChecks) {
  ShardedOvtStore store(noise_free_store(2));
  Rng rng(61);
  EXPECT_THROW(store.build(rng), Error);  // no users
  store.add_user(0, user_keys(2, 16, rng));
  EXPECT_THROW(store.add_user(0, user_keys(2, 16, rng)), Error);  // duplicate
  EXPECT_THROW(store.shard_scores(0, Matrix(1, 16, 0.5f)), Error);  // not built
  store.build(rng);
  EXPECT_THROW(store.add_user(1, user_keys(2, 16, rng)), Error);  // after build
  EXPECT_THROW(store.slot(9), Error);
}

// Parallel build: shards are built concurrently, each from its own stream
// rng.split(0x5A4D0 + s), so every shard must equal a standalone retriever
// programmed with that shard's keys and stream — with or without lifecycle.
OvtStoreConfig noisy_store(bool lifecycle) {
  OvtStoreConfig cfg;
  cfg.n_shards = 4;
  cfg.crossbar.rows = 64;
  cfg.crossbar.cols = 16;
  cfg.variation = {nvm::fefet3(), 0.1};
  cfg.lifecycle.enabled = lifecycle;
  return cfg;
}

std::unique_ptr<ShardedOvtStore> build_store(const OvtStoreConfig& cfg,
                                             const std::vector<std::vector<Matrix>>& keys,
                                             std::uint64_t seed) {
  auto store = std::make_unique<ShardedOvtStore>(cfg);
  for (std::size_t u = 0; u < keys.size(); ++u) store->add_user(u, keys[u]);
  Rng rng(seed);
  store->build(rng);
  return store;
}

TEST(ShardedOvtStore, ParallelBuildMatchesStandaloneShardRetrievers) {
  const std::size_t len = 24;
  Rng kr(81);
  std::vector<std::vector<Matrix>> keys;
  for (std::size_t u = 0; u < 11; ++u) keys.push_back(user_keys(2 + u % 3, len, kr));
  Rng qr(82);
  const Matrix queries = Matrix::rand_uniform(5, len, qr, -1, 1);

  for (const bool lifecycle : {false, true}) {
    SCOPED_TRACE(lifecycle ? "lifecycle on" : "lifecycle off");
    OvtStoreConfig cfg = noisy_store(lifecycle);
    cfg.two_phase.enabled = true;  // routers are built per shard and merged
    const auto store = build_store(cfg, keys, 83);
    const auto again = build_store(cfg, keys, 83);

    retrieval::CimRetriever::Config rcfg;
    rcfg.algorithm = cfg.algorithm;
    rcfg.ssa = cfg.ssa;
    rcfg.crossbar = cfg.crossbar;
    rcfg.variation = cfg.variation;
    for (std::size_t s = 0; s < cfg.n_shards; ++s) {
      std::vector<std::size_t> users;
      for (std::size_t u = 0; u < keys.size(); ++u)
        if (store->slot(u).shard == s) users.push_back(u);
      ASSERT_FALSE(users.empty()) << "shard " << s;
      retrieval::CimRetriever standalone(rcfg);
      const Rng stream = Rng(83).split(0x5A4D0ull + s);
      standalone.store_mutable(len, store->shard_keys(s), stream);
      for (const std::size_t u : users) standalone.program_keys(store->slot(u).begin, keys[u]);
      const Matrix want = standalone.scores_batch(queries);
      const Matrix got = store->shard_scores(s, queries);
      const Matrix got_again = again->shard_scores(s, queries);
      ASSERT_TRUE(want.same_shape(got)) << "shard " << s;
      ASSERT_TRUE(got.same_shape(got_again)) << "shard " << s;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got.at_flat(i), want.at_flat(i)) << "shard " << s << " flat index " << i;
        ASSERT_EQ(got_again.at_flat(i), got.at_flat(i)) << "shard " << s << " flat index " << i;
      }
    }
    ASSERT_TRUE(store->routed());
    for (std::size_t u = 0; u < keys.size(); ++u)
      EXPECT_EQ(store->router_k(u), again->router_k(u)) << "user " << u;
    if (lifecycle) {
      // Routed lifecycle slots, built or admitted, start on an accumulator-
      // block boundary (16 output columns for differential cells), though
      // no slot here is a whole block long.
      store->admit_user(99, user_keys(3, len, kr));
      const std::size_t block =
          cim::Crossbar::kAccumulatorLanes / (cfg.crossbar.differential ? 2 : 1);
      ASSERT_EQ(cfg.crossbar.cols % block, 0u);
      for (std::size_t u = 0; u < keys.size(); ++u)
        EXPECT_EQ(store->slot(u).begin % block, 0u) << "user " << u;
      EXPECT_EQ(store->slot(99).begin % block, 0u);
    }
  }
}

std::size_t live_threads() {
  std::size_t n = 0;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

TEST(ShardedOvtStore, ParallelBuildRethrowsShardFailureAfterJoiningThreads) {
  const bool have_proc = std::filesystem::exists("/proc/self/task");
  for (const bool lifecycle : {false, true}) {
    SCOPED_TRACE(lifecycle ? "lifecycle on" : "lifecycle off");
    ShardedOvtStore store(noisy_store(lifecycle));
    Rng kr(91);
    for (std::size_t u = 0; u < 8; ++u) {
      std::vector<Matrix> keys = user_keys(3, 24, kr);
      // A NaN key cannot be programmed: that user's shard task throws.
      if (u == 6) keys[1](0, 5) = std::numeric_limits<float>::quiet_NaN();
      store.add_user(u, keys);
    }
    const std::size_t before = have_proc ? live_threads() : 0;
    Rng rng(92);
    EXPECT_THROW(store.build(rng), Error);
    EXPECT_FALSE(store.built());
    if (have_proc) {
      // Joined threads leave the task list once the kernel reaps them.
      for (int i = 0; i < 200 && live_threads() > before; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      EXPECT_EQ(live_threads(), before);
    }
  }
}

// ---------------------------------------------------------------------------
// Serving engine against the single-user framework path.
// ---------------------------------------------------------------------------

/// One pretrained backbone + task shared by K single-user frameworks, then
/// exported into a multi-tenant engine. Pretraining is brief: equivalence of
/// the retrieval path, not task accuracy, is under test.
struct EngineFixture {
  data::LampTask task{data::lamp1_config()};
  llm::TinyLM model;

  EngineFixture() : model(make_model()) {}

  llm::TinyLM make_model() {
    llm::TinyLmConfig cfg;
    cfg.vocab = task.vocab_size();
    cfg.d_model = 16;
    cfg.n_layers = 1;
    cfg.n_heads = 2;
    cfg.ffn_hidden = 32;
    cfg.max_seq = 40;
    cfg.prompt_slots = 8;
    llm::TinyLM m(cfg, 5);
    llm::PretrainConfig pt;
    pt.steps = 40;
    pt.batch_size = 8;
    llm::pretrain(m, task.pretraining_corpus(100, 3), pt);
    return m;
  }

  /// Noise-free framework config so multi-tenant packing (different
  /// quantization grid) cannot flip an argmax.
  core::FrameworkConfig framework_config(std::uint64_t seed) const {
    core::FrameworkConfig cfg;
    cfg.tuner.n_virtual_tokens = 4;
    cfg.tuner.steps = 8;
    cfg.autoencoder.steps = 40;
    cfg.autoencoder.code_dim = 24;
    cfg.crossbar.rows = 64;
    cfg.crossbar.cols = 16;
    cfg.crossbar.adc_bits = 0;
    cfg.variation = {nvm::fefet3(), 0.0};
    cfg.noise_aware = false;
    cfg.seed = seed;
    return cfg;
  }

  ServingConfig serving_config(std::size_t n_shards, std::size_t n_threads) const {
    ServingConfig cfg;
    cfg.n_shards = n_shards;
    cfg.n_threads = n_threads;
    cfg.crossbar.rows = 64;
    cfg.crossbar.cols = 16;
    cfg.crossbar.adc_bits = 0;
    cfg.variation = {nvm::fefet3(), 0.0};
    return cfg;
  }
};

TEST(ServingEngine, MatchesSingleUserFrameworkAcrossEightUsersTwoShards) {
  EngineFixture f;
  const std::size_t n_users = 8;
  const std::size_t n_queries = 4;

  // Train each user's framework, record its single-user retrievals, then
  // hand the deployment over to the engine.
  ServingEngine engine(f.model, f.task, f.serving_config(/*n_shards=*/2, /*n_threads=*/2));
  std::vector<std::vector<data::Sample>> queries(n_users);
  std::vector<std::vector<std::size_t>> expected(n_users);
  for (std::size_t u = 0; u < n_users; ++u) {
    core::NvcimPtFramework fw(f.model, f.task, f.framework_config(100 + u));
    fw.initialize_autoencoder(12);
    fw.train_from_buffer(f.task.make_user(u, 10, 0).train);
    Rng qr(200 + u);
    for (std::size_t q = 0; q < n_queries; ++q) {
      queries[u].push_back(f.task.sample(qr.uniform_index(f.task.config().n_domains), qr));
      expected[u].push_back(fw.retrieve_index(queries[u].back()));
    }
    engine.add_deployment(u, fw.export_deployment());
    EXPECT_EQ(fw.n_stored_ovts(), 0u);  // ownership moved out
  }

  engine.start();
  EXPECT_GE(engine.store().n_shards(), 2u);
  for (std::size_t u = 0; u < n_users; ++u)
    for (std::size_t q = 0; q < n_queries; ++q) {
      const Response r = engine.submit(Request{u, queries[u][q]}).get();
      EXPECT_EQ(r.ovt_index, expected[u][q]) << "user " << u << " query " << q;
      EXPECT_EQ(r.user_id, u);
    }
  engine.stop();

  const StatsSnapshot s = engine.stats();
  EXPECT_EQ(s.requests, n_users * n_queries);
  EXPECT_GT(s.throughput_rps, 0.0);
  EXPECT_GE(s.p95_latency_ms, s.p50_latency_ms);
}

TEST(ServingEngine, ConcurrentRequestsMatchSerialExecution) {
  EngineFixture f;
  const std::size_t n_users = 4;

  ServingConfig scfg = f.serving_config(2, 4);
  scfg.variation.global_sigma = 0.1;  // device noise is fine: programmed once
  ServingEngine engine(f.model, f.task, scfg);
  for (std::size_t u = 0; u < n_users; ++u) {
    core::NvcimPtFramework fw(f.model, f.task, f.framework_config(300 + u));
    fw.initialize_autoencoder(12);
    fw.train_from_buffer(f.task.make_user(10 + u, 10, 0).train);
    engine.add_deployment(u, fw.export_deployment());
  }
  engine.start();

  // Serial reference first (threads are idle), then a concurrent burst.
  Rng qr(77);
  std::vector<std::pair<std::size_t, data::Sample>> requests;
  for (int t = 0; t < 24; ++t) {
    const std::size_t u = qr.uniform_index(n_users);
    requests.emplace_back(u, f.task.sample(qr.uniform_index(f.task.config().n_domains), qr));
  }
  std::vector<std::size_t> serial;
  for (const auto& [u, q] : requests) serial.push_back(engine.retrieve_serial(u, q));

  std::vector<std::future<Response>> futures;
  for (const auto& [u, q] : requests)
    futures.push_back(engine.submit(serve::Request{u, q}).take_future());
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(futures[i].get().ovt_index, serial[i]) << "request " << i;
  engine.stop();
}

TEST(ServingEngine, LruCacheHitsAndEvictions) {
  EngineFixture f;
  ServingConfig scfg = f.serving_config(1, 1);
  scfg.cache_capacity = 2;
  ServingEngine engine(f.model, f.task, scfg);

  core::NvcimPtFramework fw(f.model, f.task, f.framework_config(400));
  fw.initialize_autoencoder(12);
  fw.train_from_buffer(f.task.make_user(20, 14, 0).train);
  const std::size_t n_ovts = fw.n_stored_ovts();
  ASSERT_GT(n_ovts, 2u) << "need more OVTs than cache slots";
  engine.add_deployment(0, fw.export_deployment());
  engine.start();

  // Touch every OVT prompt directly: with capacity 2 < n_ovts this must
  // evict; touching one key twice in a row must hit.
  for (std::size_t i = 0; i < n_ovts; ++i) engine.prompt(0, i);
  EXPECT_GT(engine.cache_evictions(), 0u);
  const auto before = engine.deployment(0).n_ovts();
  engine.prompt(0, before - 1);  // still resident → hit
  engine.stop();

  // Decoded prompts equal the framework's restored prompts by construction.
  const Matrix direct = engine.deployment(0).decode_prompt(0);
  EXPECT_TRUE(allclose(direct, *engine.prompt(0, 0)));
}

TEST(ServingEngine, StatsTrackBatchesAndHitRate) {
  EngineFixture f;
  ServingConfig scfg = f.serving_config(1, 1);
  scfg.max_batch = 4;
  ServingEngine engine(f.model, f.task, scfg);
  core::NvcimPtFramework fw(f.model, f.task, f.framework_config(500));
  fw.initialize_autoencoder(12);
  fw.train_from_buffer(f.task.make_user(30, 10, 0).train);
  engine.add_deployment(0, fw.export_deployment());
  engine.start();

  Rng qr(88);
  const data::Sample q = f.task.sample(0, qr);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(engine.submit(serve::Request{0, q}).take_future());
  for (auto& fu : futs) fu.get();
  engine.stop();

  const StatsSnapshot s = engine.stats();
  EXPECT_EQ(s.requests, 8u);
  EXPECT_GE(s.avg_batch_size, 1.0);
  // Identical repeated query → one miss per distinct (user, ovt), rest hits.
  EXPECT_GT(s.cache_hits, 0u);
  EXPECT_GT(s.cache_hit_rate, 0.5);
}

TEST(ServingEngine, LifecycleAndValidation) {
  EngineFixture f;
  ServingEngine engine(f.model, f.task, f.serving_config(1, 1));
  Rng qr(99);
  const data::Sample q = f.task.sample(0, qr);
  EXPECT_THROW(engine.submit(serve::Request{0, q}), Error);  // not started
  EXPECT_THROW(engine.start(), Error);       // no deployments

  core::NvcimPtFramework fw(f.model, f.task, f.framework_config(600));
  fw.initialize_autoencoder(12);
  EXPECT_THROW(fw.export_deployment(), Error);  // nothing trained
  fw.train_from_buffer(f.task.make_user(40, 10, 0).train);
  engine.add_deployment(0, fw.export_deployment());
  engine.start();
  // Unknown users settle the future with a structured UnknownUser error
  // instead of throwing out of submit() — async callers see it on .get().
  EXPECT_THROW(engine.submit(serve::Request{42, q}).get(), UnknownUser);
  EXPECT_THROW(engine.add_deployment(1, core::TrainedDeployment{}), Error);  // running
  engine.stop();
  engine.stop();  // idempotent
}

TEST(ServingEngine, BadRequestFailsItsFutureNotTheWorker) {
  EngineFixture f;
  ServingEngine engine(f.model, f.task, f.serving_config(1, 1));
  core::NvcimPtFramework fw(f.model, f.task, f.framework_config(700));
  fw.initialize_autoencoder(12);
  fw.train_from_buffer(f.task.make_user(50, 10, 0).train);
  engine.add_deployment(0, fw.export_deployment());
  engine.start();

  // An empty token sequence is rejected deep inside the backbone; the
  // exception must surface through this request's future only.
  data::Sample bad;  // empty input
  auto bad_future = engine.submit(serve::Request{0, bad}).take_future();
  EXPECT_THROW(bad_future.get(), Error);

  // The worker survived and keeps serving valid traffic.
  Rng qr(111);
  const Response r = engine.submit(Request{0, f.task.sample(0, qr)}).get();
  EXPECT_LT(r.ovt_index, engine.deployment(0).n_ovts());
  engine.stop();
}

}  // namespace
}  // namespace nvcim::serve
