// Two-phase retrieval (PR 4): k-means candidate routing + low-bit sketch
// prefilter ahead of candidate-masked exact crossbar scoring.
//
//  - the masked fused kernel is bit-identical to the full pass on candidate
//    columns (and exactly 0 elsewhere), at crossbar and accelerator level,
//    with pruned ADC accounting
//  - the store's router keeps candidates inside the user's slot, never
//    empty, and covers the whole slot at nprobe = all
//  - an engine with two-phase enabled at nprobe = all reproduces the exact
//    (two-phase off) engine bit-identically, request for request
//  - recall@1 at the default nprobe stays >= 0.95 on a seeded clustered
//    workload, and pruning/recall counters land in EngineStats
//  - the parallel per-shard fan-out stays deterministic with masks on
//    (this suite also runs under TSan in CI)
//  - the batched decode GEMM and TinyLM::classify_batch satellites match
//    their serial counterparts bit-for-bit.

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <vector>

#include "nvcim/serve/engine.hpp"

namespace nvcim {
namespace {

llm::TinyLM tiny_model2(std::size_t vocab, std::size_t d_model, std::uint64_t seed) {
  llm::TinyLmConfig cfg;
  cfg.vocab = vocab;
  cfg.d_model = d_model;
  cfg.n_layers = 1;
  cfg.n_heads = 2;
  cfg.ffn_hidden = 2 * d_model;
  cfg.max_seq = 40;
  cfg.prompt_slots = 8;
  return llm::TinyLM(cfg, seed);
}

std::vector<int> random_tokens2(std::size_t len, std::size_t vocab, Rng& rng) {
  std::vector<int> t(len);
  for (int& v : t) v = static_cast<int>(rng.uniform_index(vocab));
  return t;
}

// ---------------------------------------------------------------------------
// Masked fused kernel: crossbar and accelerator level.
// ---------------------------------------------------------------------------

Matrix random_ints(std::size_t rows, std::size_t cols, int lo, int hi, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.at_flat(i) = static_cast<float>(
        lo + static_cast<int>(rng.uniform_index(static_cast<std::size_t>(hi - lo + 1))));
  return m;
}

/// Random mask over B×n_keys with roughly `density` candidate probability,
/// at least one candidate per row.
cim::CandidateSet random_mask(std::size_t B, std::size_t n_keys, double density, Rng& rng) {
  cim::CandidateSet cand;
  cand.reset(B, n_keys);
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t k = 0; k < n_keys; ++k)
      if (rng.uniform() < density) cand.set(b, k);
    if (cand.count_row(b) == 0) cand.set(b, rng.uniform_index(n_keys));
  }
  return cand;
}

TEST(MaskedKernel, CandidateColumnsBitIdenticalAndRestExactZero) {
  cim::CrossbarConfig cfg;
  cfg.rows = 60;
  cfg.cols = 40;  // differential: 40 output columns over 80 interleaved lanes
  cfg.adc_bits = 8;
  cim::Crossbar full(cfg), masked(cfg);
  Rng wr(211);
  const Matrix w = random_ints(cfg.rows, cfg.cols, -4000, 4000, wr);
  Rng p1(212), p2(212);
  full.program(w, {nvm::fefet3(), 0.15}, p1);
  masked.program(w, {nvm::fefet3(), 0.15}, p2);

  Rng qr(213);
  const Matrix x = Matrix::randn(7, cfg.rows, qr);
  const Matrix y_full = full.matvec_batch(x);

  // Sparse mask: with ~4% density a 16-column accumulator block is often
  // candidate-free for a query, so whole-block pruning actually fires.
  Rng mr(214);
  const cim::CandidateSet cand = random_mask(7, cfg.cols, 0.04, mr);
  Matrix y_masked;
  masked.matvec_batch_into(x, y_masked, &cand, 0);

  ASSERT_TRUE(y_full.same_shape(y_masked));
  bool any_zeroed = false;
  for (std::size_t b = 0; b < 7; ++b) {
    for (std::size_t c = 0; c < cfg.cols; ++c) {
      if (cand.test(b, c)) {
        EXPECT_EQ(y_full(b, c), y_masked(b, c)) << "candidate (" << b << "," << c << ")";
      } else {
        // Block-granular masking: a non-candidate column is either exact 0
        // (its whole accumulator block was pruned for this query) or the
        // exact full-pass value (a candidate shares its block) — never
        // anything in between.
        const bool exact = y_masked(b, c) == y_full(b, c);
        const bool zeroed = y_masked(b, c) == 0.0f;
        EXPECT_TRUE(exact || zeroed) << "pruned (" << b << "," << c << ")";
        any_zeroed = any_zeroed || (zeroed && y_full(b, c) != 0.0f);
      }
    }
  }
  EXPECT_TRUE(any_zeroed);  // the mask actually pruned whole blocks
  // Pruned ADC accounting: the masked pass converted fewer columns.
  EXPECT_LT(masked.counters().adc_conversions, full.counters().adc_conversions);
  EXPECT_EQ(masked.counters().subarray_activations, full.counters().subarray_activations);
}

TEST(MaskedAccelerator, TiledQueryBatchMatchesFullOnCandidates) {
  cim::CrossbarConfig cfg;
  cfg.rows = 64;
  cfg.cols = 16;  // forces tiling in both grid dimensions below
  cfg.adc_bits = 8;
  cim::Accelerator acc(cfg, {nvm::rram1(), 0.2});
  Rng rng(231);
  acc.store(Matrix::randn(40, 100, rng), rng);  // 40 keys × len 100

  Rng qr(232), mr(233);
  const Matrix queries = Matrix::randn(6, 100, qr);
  const cim::CandidateSet cand = random_mask(6, 40, 0.2, mr);

  cim::Accelerator::BatchScratch s1, s2;
  Matrix y_full, y_masked;
  acc.query_batch_into(queries, y_full, s1);
  acc.query_batch_into(queries, y_masked, s2, &cand);
  ASSERT_TRUE(y_full.same_shape(y_masked));
  for (std::size_t b = 0; b < 6; ++b)
    for (std::size_t k = 0; k < 40; ++k) {
      if (cand.test(b, k))
        EXPECT_EQ(y_full(b, k), y_masked(b, k)) << "(" << b << "," << k << ")";
      else
        EXPECT_TRUE(y_masked(b, k) == y_full(b, k) || y_masked(b, k) == 0.0f)
            << "(" << b << "," << k << ")";
    }
}

// ---------------------------------------------------------------------------
// Store-level routing.
// ---------------------------------------------------------------------------

/// Clustered synthetic deployment: keys are noisy copies of a few separated
/// prototypes, so the router's k-means recovers real structure. Queries that
/// score best against one prototype family keep their winner inside the
/// probed clusters — the regime two-phase retrieval is built for.
core::TrainedDeployment clustered_deployment(
    std::shared_ptr<const compress::Autoencoder> autoencoder, std::size_t n_vt,
    std::size_t code_dim, std::size_t n_protos, std::size_t keys_per_proto, Rng& rng) {
  core::TrainedDeployment d;
  d.autoencoder = std::move(autoencoder);
  d.n_virtual_tokens = n_vt;
  std::vector<Matrix> protos;
  for (std::size_t p = 0; p < n_protos; ++p)
    protos.push_back(Matrix::rand_uniform(n_vt, code_dim, rng, -1.0f, 1.0f));
  for (std::size_t p = 0; p < n_protos; ++p) {
    for (std::size_t j = 0; j < keys_per_proto; ++j) {
      Matrix key = protos[p];
      key += Matrix::randn(n_vt, code_dim, rng, 0.05f);
      d.keys.push_back(key);
      d.stored_codes.push_back(Matrix::rand_uniform(n_vt, code_dim, rng, -1.0f, 1.0f));
      d.domains.push_back(p);
    }
  }
  return d;
}

struct TwoPhaseFixture {
  data::LampTask task{data::lamp1_config()};
  llm::TinyLM model;
  std::shared_ptr<const compress::Autoencoder> autoencoder;

  static constexpr std::size_t kDModel = 16;
  static constexpr std::size_t kCodeDim = 24;
  static constexpr std::size_t kTokens = 4;
  static constexpr std::size_t kProtos = 4;
  static constexpr std::size_t kKeysPerProto = 4;  // 16 keys per user

  TwoPhaseFixture() : model(tiny_model2(task.vocab_size(), kDModel, 9)) {
    compress::AutoencoderConfig acfg;
    acfg.input_dim = kDModel;
    acfg.code_dim = kCodeDim;
    acfg.hidden_dim = 32;
    autoencoder = std::make_shared<const compress::Autoencoder>(acfg);
  }

  core::TrainedDeployment make_deployment(std::size_t user) {
    Rng rng(7000 + user);
    return clustered_deployment(autoencoder, kTokens, kCodeDim, kProtos, kKeysPerProto, rng);
  }

  serve::ServingConfig config(bool two_phase, std::size_t nprobe, std::size_t shards,
                              std::size_t threads, std::size_t batch) const {
    serve::ServingConfig cfg;
    cfg.n_shards = shards;
    cfg.n_threads = threads;
    cfg.max_batch = batch;
    cfg.two_phase.enabled = two_phase;
    cfg.two_phase.nprobe = nprobe;
    cfg.crossbar.rows = 96;
    cfg.crossbar.cols = 32;
    cfg.variation = {nvm::fefet3(), 0.1};
    cfg.seed = 2026;
    return cfg;
  }

  std::vector<std::size_t> run(const serve::ServingConfig& cfg,
                               const std::vector<std::pair<std::size_t, data::Sample>>& reqs,
                               std::size_t n_users, serve::StatsSnapshot* stats = nullptr) {
    serve::ServingEngine engine(model, task, cfg);
    for (std::size_t u = 0; u < n_users; ++u) engine.add_deployment(u, make_deployment(u));
    engine.start();
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(reqs.size());
    for (const auto& [u, q] : reqs)
      futures.push_back(engine.submit(serve::Request{u, q}).take_future());
    std::vector<std::size_t> out;
    out.reserve(reqs.size());
    for (auto& f : futures) out.push_back(f.get().ovt_index);
    if (stats != nullptr) *stats = engine.stats();
    engine.stop();
    return out;
  }

  std::vector<std::pair<std::size_t, data::Sample>> requests(std::size_t n, std::size_t n_users,
                                                             std::uint64_t seed) {
    Rng qr(seed);
    std::vector<std::pair<std::size_t, data::Sample>> reqs;
    for (std::size_t t = 0; t < n; ++t) {
      const std::size_t u = qr.uniform_index(n_users);
      reqs.emplace_back(u, task.sample(qr.uniform_index(task.config().n_domains), qr));
    }
    return reqs;
  }
};

TEST(TwoPhaseRouter, CandidatesStayInSlotAndNonEmpty) {
  TwoPhaseFixture f;
  const std::size_t n_users = 6;
  serve::ServingEngine engine(f.model, f.task, f.config(true, 2, 2, 1, 8));
  for (std::size_t u = 0; u < n_users; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();
  const serve::ShardedOvtStore& store = engine.store();
  ASSERT_TRUE(store.routed());

  Rng qr(301);
  for (std::size_t u = 0; u < n_users; ++u) {
    const auto& slot = store.slot(u);
    // k per Eq. 2 on a 16-key slot: within [2, 16] and at most the slot size.
    EXPECT_GE(store.router_k(u), 2u);
    EXPECT_LE(store.router_k(u), slot.n_keys());

    Matrix queries = Matrix::randn(3, f.kTokens * f.kCodeDim, qr);
    serve::ShardedOvtStore::RouteScratch rs;
    cim::CandidateSet cand;
    const std::vector<std::size_t> users(3, u);
    store.route_candidates(slot.shard, queries, users, cand, rs);
    for (std::size_t b = 0; b < 3; ++b) {
      const std::size_t n_cand = cand.count_row(b);
      EXPECT_GE(n_cand, 1u);
      EXPECT_LE(n_cand, slot.n_keys());
      for (std::size_t k = 0; k < cand.n_keys; ++k) {
        if (cand.test(b, k)) {
          EXPECT_TRUE(k >= slot.begin && k < slot.end)
              << "candidate " << k << " escapes slot of user " << u;
        }
      }
    }
  }
  engine.stop();
}

TEST(TwoPhaseRouter, NprobeAllCoversWholeSlot) {
  TwoPhaseFixture f;
  serve::ServingEngine engine(f.model, f.task, f.config(true, /*nprobe=*/0, 2, 1, 8));
  for (std::size_t u = 0; u < 4; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();
  const serve::ShardedOvtStore& store = engine.store();
  Rng qr(311);
  for (std::size_t u = 0; u < 4; ++u) {
    const auto& slot = store.slot(u);
    Matrix queries = Matrix::randn(2, f.kTokens * f.kCodeDim, qr);
    serve::ShardedOvtStore::RouteScratch rs;
    cim::CandidateSet cand;
    store.route_candidates(slot.shard, queries, std::vector<std::size_t>(2, u), cand, rs);
    for (std::size_t b = 0; b < 2; ++b)
      EXPECT_EQ(cand.count_row(b), slot.n_keys()) << "user " << u << " row " << b;
  }
  engine.stop();
}

// ---------------------------------------------------------------------------
// Engine-level properties.
// ---------------------------------------------------------------------------

TEST(TwoPhase, NprobeAllBitIdenticalToExactEngine) {
  TwoPhaseFixture f;
  const std::size_t n_users = 8;
  const auto reqs = f.requests(48, n_users, 321);

  const std::vector<std::size_t> exact = f.run(f.config(false, 0, 4, 2, 16), reqs, n_users);
  serve::StatsSnapshot s;
  const std::vector<std::size_t> all_probe =
      f.run(f.config(true, /*nprobe=*/0, 4, 2, 16), reqs, n_users, &s);
  ASSERT_EQ(exact.size(), all_probe.size());
  for (std::size_t i = 0; i < exact.size(); ++i)
    EXPECT_EQ(exact[i], all_probe[i]) << "request " << i;
  // nprobe = all still prunes other users' columns — the masked pass
  // examined fewer keys than a full pass would have.
  EXPECT_GT(s.candidates_examined, 0u);
  EXPECT_LT(s.candidates_examined, s.candidates_possible);
  EXPECT_GT(s.pruned_fraction, 0.0);
  // Sampled recall of the all-probe configuration is exact by construction.
  ASSERT_GT(s.recall_samples, 0u);
  EXPECT_EQ(s.recall_matches, s.recall_samples);
}

TEST(TwoPhase, DefaultNprobeRecallAtLeast095OnSeededWorkload) {
  TwoPhaseFixture f;
  const std::size_t n_users = 8;
  const auto reqs = f.requests(96, n_users, 331);

  const std::vector<std::size_t> exact = f.run(f.config(false, 0, 4, 2, 16), reqs, n_users);
  serve::StatsSnapshot s;
  serve::ServingConfig pruned_cfg = f.config(true, 0, 4, 2, 16);
  pruned_cfg.two_phase.nprobe = serve::TwoPhaseConfig{}.nprobe;  // the default
  const std::vector<std::size_t> pruned = f.run(pruned_cfg, reqs, n_users, &s);

  std::size_t matches = 0;
  for (std::size_t i = 0; i < exact.size(); ++i)
    if (exact[i] == pruned[i]) ++matches;
  const double recall = static_cast<double>(matches) / static_cast<double>(exact.size());
  EXPECT_GE(recall, 0.95) << matches << "/" << exact.size();
  // And the pruning must be real. candidates_examined is block-granular
  // (candidate work rounds up to whole 16-column accumulator blocks, and at
  // this geometry each user's 16-key slot is exactly one block), so the
  // measurable saving here is the slot-level half of the shard.
  EXPECT_LE(s.candidates_examined, s.candidates_possible / 2);
  EXPECT_GT(s.candidates_examined, 0u);
}

TEST(TwoPhase, ParallelShardFanoutWithMasksDeterministic) {
  TwoPhaseFixture f;
  const std::size_t n_users = 12;
  const auto reqs = f.requests(64, n_users, 341);

  // One worker runs the shard fan-out as the serial shard loop.
  const serve::ServingConfig serial_cfg = f.config(true, 2, 4, 1, 16);
  const serve::ServingConfig parallel_cfg = f.config(true, 2, 4, 4, 16);

  const std::vector<std::size_t> serial = f.run(serial_cfg, reqs, n_users);
  serve::StatsSnapshot s;
  const std::vector<std::size_t> parallel = f.run(parallel_cfg, reqs, n_users, &s);
  const std::vector<std::size_t> parallel_again = f.run(parallel_cfg, reqs, n_users);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "request " << i;
    EXPECT_EQ(parallel[i], parallel_again[i]) << "request " << i << " (rerun)";
  }
  EXPECT_GT(s.parallel_retrieve_fanouts, 0u);
  EXPECT_GT(s.candidates_examined, 0u);
}

// ---------------------------------------------------------------------------
// Satellite: batched decode GEMM.
// ---------------------------------------------------------------------------

TEST(BatchedDecode, StackedDecodeBitIdenticalToPerKeyDecode) {
  TwoPhaseFixture f;
  const std::size_t n_users = 6;
  serve::ServingConfig cfg = f.config(false, 0, 2, 1, 16);
  cfg.cache_capacity = 256;  // no evictions: every prompt decodes exactly once
  serve::ServingEngine engine(f.model, f.task, cfg);
  std::vector<core::TrainedDeployment> copies;
  for (std::size_t u = 0; u < n_users; ++u) {
    core::TrainedDeployment d = f.make_deployment(u);
    copies.push_back(d);  // keep a reference copy for the serial decode below
    engine.add_deployment(u, std::move(d));
  }
  engine.start();

  // A burst of distinct users in one batch forces several cache misses in a
  // single process_batch pass — the stacked-decode path.
  std::vector<std::future<serve::Response>> futures;
  Rng qr(351);
  std::vector<std::size_t> users;
  for (std::size_t u = 0; u < n_users; ++u) {
    data::Sample q;
    q.input = random_tokens2(1 + qr.uniform_index(8), f.task.vocab_size(), qr);
    users.push_back(u);
    futures.push_back(engine.submit(serve::Request{u, q}).take_future());
  }
  std::vector<std::size_t> got;
  for (auto& fu : futures) got.push_back(fu.get().ovt_index);

  // Every decoded prompt equals the serial per-key decode bit-for-bit.
  for (std::size_t r = 0; r < users.size(); ++r) {
    const Matrix expect = copies[users[r]].decode_prompt(got[r]);
    const std::shared_ptr<const Matrix> actual = engine.prompt(users[r], got[r]);
    ASSERT_TRUE(expect.same_shape(*actual));
    for (std::size_t i = 0; i < expect.size(); ++i)
      ASSERT_EQ(expect.at_flat(i), actual->at_flat(i)) << "user " << users[r] << " flat " << i;
  }
  const serve::StatsSnapshot s = engine.stats();
  EXPECT_GT(s.batched_decode_gemms, 0u);  // at least one stacked GEMM fired
  engine.stop();
}

// ---------------------------------------------------------------------------
// Batched classify in the engine (the forward itself: test_classify_forward).
// ---------------------------------------------------------------------------

TEST(BatchedClassify, EngineLabelsMatchSerialClassify) {
  TwoPhaseFixture f;
  const std::size_t n_users = 4;
  serve::ServingConfig cfg = f.config(false, 0, 2, 2, 8);
  cfg.run_inference = true;
  serve::ServingEngine engine(f.model, f.task, cfg);
  for (std::size_t u = 0; u < n_users; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();

  const auto reqs = f.requests(24, n_users, 371);
  std::vector<std::future<serve::Response>> futures;
  for (const auto& [u, q] : reqs)
    futures.push_back(engine.submit(serve::Request{u, q}).take_future());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const serve::Response resp = futures[i].get();
    ASSERT_TRUE(resp.has_label);
    const std::shared_ptr<const Matrix> prompt = engine.prompt(reqs[i].first, resp.ovt_index);
    EXPECT_EQ(resp.label,
              f.model.classify(reqs[i].second.input, f.task.label_ids(), prompt.get()))
        << "request " << i;
  }
  engine.stop();
}

// An LRU far smaller than the (user, OVT) working set: entries, with their
// prompt K/V, are evicted and rebuilt all the time, full batches decode
// misses in fused groups, and repeated requests in one batch coalesce onto
// one in-flight decode and share its entry.
TEST(BatchedClassify, EngineLabelsMatchSerialClassifyUnderCachePressure) {
  TwoPhaseFixture f;
  const std::size_t n_users = 4;
  serve::ServingConfig cfg = f.config(false, 0, 2, 3, 8);
  cfg.run_inference = true;
  cfg.cache_capacity = 2;
  cfg.min_batch = 8;
  cfg.batch_window_ms = 50.0;
  serve::ServingEngine engine(f.model, f.task, cfg);
  for (std::size_t u = 0; u < n_users; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();

  // Every request twice in a row, so a batch holds both copies.
  std::vector<std::pair<std::size_t, data::Sample>> reqs;
  for (const auto& r : f.requests(48, n_users, 391)) {
    reqs.push_back(r);
    reqs.push_back(r);
  }
  std::vector<std::future<serve::Response>> futures;
  for (const auto& [u, q] : reqs)
    futures.push_back(engine.submit(serve::Request{u, q}).take_future());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const serve::Response resp = futures[i].get();
    ASSERT_TRUE(resp.has_label) << "request " << i;
    const Matrix decoded = engine.deployment(reqs[i].first).decode_prompt(resp.ovt_index);
    EXPECT_EQ(resp.label, f.model.classify(reqs[i].second.input, f.task.label_ids(), &decoded))
        << "request " << i;
    const std::shared_ptr<const Matrix> cached = engine.prompt(reqs[i].first, resp.ovt_index);
    ASSERT_TRUE(cached->same_shape(decoded)) << "request " << i;
    EXPECT_EQ(std::memcmp(cached->data(), decoded.data(), decoded.size() * sizeof(float)), 0)
        << "request " << i;
  }
  EXPECT_GT(engine.cache_evictions(), 0u);
  EXPECT_GT(engine.stats().batched_decode_gemms, 0u);
  EXPECT_GT(engine.coalesced_fetches(), 0u);
  engine.stop();
}

TEST(BatchedClassify, OversizedPromptFailsOnlyItsRequests) {
  TwoPhaseFixture f;
  // One worker that waits for a full batch: both users' misses decode in
  // one fused group, whose stacked prompt K/V build then throws.
  serve::ServingConfig cfg = f.config(false, 0, 1, 1, 6);
  cfg.run_inference = true;
  cfg.min_batch = 6;
  cfg.batch_window_ms = 2000.0;
  serve::ServingEngine engine(f.model, f.task, cfg);
  engine.add_deployment(0, f.make_deployment(0));
  // User 1's payloads decode to more rows than the backbone's prompt_slots.
  core::TrainedDeployment oversized = f.make_deployment(1);
  Rng rng(401);
  for (Matrix& code : oversized.stored_codes)
    code = Matrix::rand_uniform(f.model.config().prompt_slots + 1, TwoPhaseFixture::kCodeDim, rng,
                                -1.0f, 1.0f);
  engine.add_deployment(1, std::move(oversized));
  engine.start();

  const auto reqs = f.requests(6, 2, 411);
  std::vector<std::future<serve::Response>> futures;
  for (const auto& [u, q] : reqs)
    futures.push_back(engine.submit(serve::Request{u, q}).take_future());
  std::size_t served = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].first == 1) {
      EXPECT_THROW(futures[i].get(), Error) << "request " << i;
      continue;
    }
    const serve::Response resp = futures[i].get();
    ASSERT_TRUE(resp.has_label) << "request " << i;
    const Matrix decoded = engine.deployment(0).decode_prompt(resp.ovt_index);
    EXPECT_EQ(resp.label, f.model.classify(reqs[i].second.input, f.task.label_ids(), &decoded))
        << "request " << i;
    ++served;
  }
  EXPECT_GT(served, 0u);
  EXPECT_LT(served, reqs.size());
  EXPECT_EQ(engine.stats().batches, 1u);
  EXPECT_GT(engine.stats().batched_decode_gemms, 0u);
  engine.stop();
}

TEST(BatchedClassify, MalformedRequestFailsAloneValidOnesLabelled) {
  TwoPhaseFixture f;
  const std::size_t n_users = 2;
  // One worker that waits for a full batch, so the malformed request shares
  // its batch with the valid ones.
  serve::ServingConfig cfg = f.config(false, 0, 1, 1, 6);
  cfg.run_inference = true;
  cfg.min_batch = 6;
  cfg.batch_window_ms = 2000.0;
  serve::ServingEngine engine(f.model, f.task, cfg);
  for (std::size_t u = 0; u < n_users; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();

  auto reqs = f.requests(6, n_users, 381);
  // Encodes and retrieves like any query, but runs past the LM's max_seq,
  // so the group's batched forward throws.
  const std::size_t bad = 2;
  const llm::TinyLmConfig& mc = f.model.config();
  reqs[bad].second.input.assign(mc.max_seq - mc.prompt_slots + 1, 1);
  std::vector<std::future<serve::Response>> futures;
  for (const auto& [u, q] : reqs)
    futures.push_back(engine.submit(serve::Request{u, q}).take_future());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (i == bad) {
      EXPECT_THROW(futures[i].get(), Error);
      continue;
    }
    const serve::Response resp = futures[i].get();
    ASSERT_TRUE(resp.has_label) << "request " << i;
    const std::shared_ptr<const Matrix> prompt = engine.prompt(reqs[i].first, resp.ovt_index);
    EXPECT_EQ(resp.label,
              f.model.classify(reqs[i].second.input, f.task.label_ids(), prompt.get()))
        << "request " << i;
  }
  EXPECT_EQ(engine.stats().batches, 1u);  // the fallback ran inside one batch
  engine.stop();
}

}  // namespace
}  // namespace nvcim
