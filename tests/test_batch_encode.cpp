// Property tests for the staged batched encode pipeline: every batched
// layer (embed, resample, autoencoder encode, query representation, the
// serving engine) must agree with its serial counterpart bit-for-bit.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "nvcim/serve/engine.hpp"

namespace nvcim {
namespace {

llm::TinyLM tiny_model(std::size_t vocab, std::size_t d_model, std::uint64_t seed) {
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

std::vector<int> random_tokens(std::size_t len, std::size_t vocab, Rng& rng) {
  std::vector<int> t(len);
  for (int& v : t) v = static_cast<int>(rng.uniform_index(vocab));
  return t;
}

std::shared_ptr<const compress::Autoencoder> make_autoencoder(std::size_t input_dim,
                                                              std::size_t code_dim,
                                                              std::uint64_t seed) {
  compress::AutoencoderConfig cfg;
  cfg.input_dim = input_dim;
  cfg.code_dim = code_dim;
  cfg.hidden_dim = 2 * input_dim;
  cfg.seed = seed;
  return std::make_shared<const compress::Autoencoder>(cfg);
}

/// Synthetic serve-side deployment: random keys/codes in the n_vt×code_dim
/// shape, sharing the given autoencoder.
core::TrainedDeployment synthetic_deployment(
    std::shared_ptr<const compress::Autoencoder> autoencoder, std::size_t n_vt,
    std::size_t code_dim, std::size_t n_keys, Rng& rng) {
  core::TrainedDeployment d;
  d.autoencoder = std::move(autoencoder);
  d.n_virtual_tokens = n_vt;
  for (std::size_t k = 0; k < n_keys; ++k) {
    d.keys.push_back(Matrix::rand_uniform(n_vt, code_dim, rng, -1.0f, 1.0f));
    d.stored_codes.push_back(Matrix::rand_uniform(n_vt, code_dim, rng, -1.0f, 1.0f));
    d.domains.push_back(k);
  }
  return d;
}

// ---------------------------------------------------------------------------
// Layer-by-layer batched ≡ serial, bit-for-bit.
// ---------------------------------------------------------------------------

TEST(BatchedEncode, EmbedBatchMatchesEmbedBitForBit) {
  const llm::TinyLM model = tiny_model(32, 12, 3);
  Rng rng(41);
  std::vector<std::vector<int>> seqs;
  for (std::size_t len : {1u, 2u, 7u, 13u}) seqs.push_back(random_tokens(len, 32, rng));
  std::vector<const std::vector<int>*> ptrs;
  for (const auto& s : seqs) ptrs.push_back(&s);
  const std::vector<Matrix> batched = model.embed_batch(ptrs);
  ASSERT_EQ(batched.size(), seqs.size());
  for (std::size_t b = 0; b < seqs.size(); ++b) {
    const Matrix serial = model.embed(seqs[b]);
    ASSERT_TRUE(serial.same_shape(batched[b]));
    for (std::size_t i = 0; i < serial.size(); ++i)
      ASSERT_EQ(serial.at_flat(i), batched[b].at_flat(i)) << "seq " << b << " flat " << i;
  }
}

TEST(BatchedEncode, EncodeIntoAndDecodeIntoMatchAllocatingPath) {
  const auto ae = make_autoencoder(10, 6, 5);
  Rng rng(42);
  const Matrix x = Matrix::randn(7, 10, rng);
  const Matrix code = ae->encode(x);

  compress::Autoencoder::Scratch scratch;
  Matrix out;
  ae->encode_into(x, out, &scratch);
  ASSERT_TRUE(out.same_shape(code));
  for (std::size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out.at_flat(i), code.at_flat(i));

  const Matrix rec = ae->decode(code);
  Matrix rec_out;
  ae->decode_into(code, rec_out, &scratch);
  ASSERT_TRUE(rec_out.same_shape(rec));
  for (std::size_t i = 0; i < rec_out.size(); ++i)
    ASSERT_EQ(rec_out.at_flat(i), rec.at_flat(i));
}

TEST(BatchedEncode, EncodeRowsAreIndependent) {
  // Encoding a stack of rows must equal encoding each row alone — the
  // property that makes the cross-user fused GEMM exact.
  const auto ae = make_autoencoder(8, 5, 6);
  Rng rng(43);
  const Matrix stacked = Matrix::randn(9, 8, rng);
  const Matrix batch_code = ae->encode(stacked);
  for (std::size_t r = 0; r < stacked.rows(); ++r) {
    const Matrix one = ae->encode(stacked.row(r));
    for (std::size_t c = 0; c < one.cols(); ++c)
      ASSERT_EQ(one(0, c), batch_code(r, c)) << "row " << r << " col " << c;
  }
}

// ---------------------------------------------------------------------------
// core::TrainedDeployment::query_representation_batch.
// ---------------------------------------------------------------------------

TEST(BatchedEncode, QueryRepresentationBatchMatchesSerialAcrossShapes) {
  Rng rng(44);
  for (const std::size_t n_vt : {1u, 3u, 4u}) {
    for (const std::size_t code_dim : {8u, 24u}) {
      const llm::TinyLM model = tiny_model(48, 16, 7 + n_vt);
      const auto ae = make_autoencoder(16, code_dim, 11 + code_dim);
      for (const std::size_t B : {1u, 2u, 5u, 9u}) {
        // All deployments share one autoencoder → one fused group.
        std::vector<core::TrainedDeployment> deps;
        std::vector<data::Sample> queries;
        for (std::size_t b = 0; b < B; ++b) {
          deps.push_back(synthetic_deployment(ae, n_vt, code_dim, 2, rng));
          data::Sample q;
          q.input = random_tokens(1 + rng.uniform_index(12), 48, rng);
          queries.push_back(std::move(q));
        }
        std::vector<const core::TrainedDeployment*> dep_ptrs;
        std::vector<const data::Sample*> query_ptrs;
        for (std::size_t b = 0; b < B; ++b) {
          dep_ptrs.push_back(&deps[b]);
          query_ptrs.push_back(&queries[b]);
        }
        const Matrix batched =
            core::TrainedDeployment::query_representation_batch(model, dep_ptrs, query_ptrs);
        ASSERT_EQ(batched.rows(), B);
        ASSERT_EQ(batched.cols(), n_vt * code_dim);
        for (std::size_t b = 0; b < B; ++b) {
          const Matrix serial =
              deps[b].query_representation(model, queries[b]).flattened();
          for (std::size_t c = 0; c < serial.size(); ++c)
            ASSERT_EQ(serial.at_flat(c), batched(b, c))
                << "n_vt " << n_vt << " code " << code_dim << " B " << B << " row " << b;
        }
      }
    }
  }
}

TEST(BatchedEncode, QueryRepresentationBatchRejectsMixedAutoencoders) {
  const llm::TinyLM model = tiny_model(32, 12, 9);
  Rng rng(45);
  const auto ae_a = make_autoencoder(12, 6, 1);
  const auto ae_b = make_autoencoder(12, 6, 2);
  core::TrainedDeployment da = synthetic_deployment(ae_a, 2, 6, 1, rng);
  core::TrainedDeployment db = synthetic_deployment(ae_b, 2, 6, 1, rng);
  data::Sample q;
  q.input = random_tokens(4, 32, rng);
  EXPECT_THROW(core::TrainedDeployment::query_representation_batch(model, {&da, &db}, {&q, &q}),
               Error);
}

TEST(BatchedEncode, ExportedDeploymentSharesAutoencoderUntilRetrain) {
  // export_deployment() aliases the framework's autoencoder (enabling fused
  // serving); the next mutating train step must clone, leaving the exported
  // snapshot untouched.
  data::LampTask task{data::lamp1_config()};
  llm::TinyLM model = tiny_model(task.vocab_size(), 16, 13);
  core::FrameworkConfig cfg;
  cfg.tuner.n_virtual_tokens = 4;
  cfg.tuner.steps = 4;
  cfg.autoencoder.steps = 10;
  cfg.autoencoder.code_dim = 8;
  cfg.crossbar.rows = 64;
  cfg.crossbar.cols = 16;
  cfg.noise_aware = false;
  core::NvcimPtFramework fw(model, task, cfg);
  fw.initialize_autoencoder(8);
  fw.train_from_buffer(task.make_user(0, 8, 0).train);
  const core::TrainedDeployment dep = fw.export_deployment();
  ASSERT_EQ(dep.autoencoder.get(), &fw.autoencoder());  // shared, not copied

  Rng rng(46);
  data::Sample probe;
  probe.input = random_tokens(6, task.vocab_size(), rng);
  const Matrix before = dep.query_representation(model, probe);

  // Retraining mutates the framework's encoder — through a fresh clone.
  fw.train_from_buffer(task.make_user(1, 8, 0).train);
  EXPECT_NE(dep.autoencoder.get(), &fw.autoencoder());
  const Matrix after = dep.query_representation(model, probe);
  ASSERT_TRUE(before.same_shape(after));
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before.at_flat(i), after.at_flat(i)) << "deployment encode drifted, flat " << i;
}

// ---------------------------------------------------------------------------
// Full engine: fused batched serving ≡ serial reference path.
// ---------------------------------------------------------------------------

serve::ServingConfig noise_free_serving(std::size_t n_threads, std::size_t max_batch) {
  serve::ServingConfig cfg;
  cfg.n_shards = 2;
  cfg.n_threads = n_threads;
  cfg.max_batch = max_batch;
  cfg.crossbar.rows = 64;
  cfg.crossbar.cols = 16;
  cfg.crossbar.adc_bits = 0;  // ideal ADC
  cfg.variation = {nvm::fefet3(), 0.0};
  return cfg;
}

TEST(BatchedEncode, EngineWithSharedAutoencoderMatchesSerialReference) {
  data::LampTask task{data::lamp1_config()};
  llm::TinyLM model = tiny_model(task.vocab_size(), 16, 17);
  const std::size_t n_vt = 4, code_dim = 16, n_users = 6;
  const auto shared_ae = make_autoencoder(16, code_dim, 19);

  serve::ServingEngine engine(model, task, noise_free_serving(2, 8));
  Rng rng(47);
  for (std::size_t u = 0; u < n_users; ++u)
    engine.add_deployment(u, synthetic_deployment(shared_ae, n_vt, code_dim, 5, rng));
  engine.start();

  Rng qr(48);
  std::vector<std::pair<std::size_t, data::Sample>> requests;
  for (int t = 0; t < 32; ++t) {
    data::Sample q;
    q.input = random_tokens(1 + qr.uniform_index(10), task.vocab_size(), qr);
    requests.emplace_back(qr.uniform_index(n_users), std::move(q));
  }
  std::vector<std::size_t> serial;
  for (const auto& [u, q] : requests) serial.push_back(engine.retrieve_serial(u, q));

  std::vector<std::future<serve::Response>> futures;
  for (const auto& [u, q] : requests)
    futures.push_back(engine.submit(serve::Request{u, q}).take_future());
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(futures[i].get().ovt_index, serial[i]) << "request " << i;
  engine.stop();

  const serve::StatsSnapshot s = engine.stats();
  EXPECT_EQ(s.requests, requests.size());
  EXPECT_GE(s.encode_ms, 0.0);
  EXPECT_GT(s.encode_ms + s.retrieve_ms + s.decode_ms + s.classify_ms, 0.0);
}

TEST(BatchedEncode, SingleMemberBatchThroughEngineMatchesSerial) {
  data::LampTask task{data::lamp1_config()};
  llm::TinyLM model = tiny_model(task.vocab_size(), 16, 23);
  const auto ae = make_autoencoder(16, 12, 29);
  serve::ServingEngine engine(model, task, noise_free_serving(1, 1));
  Rng rng(49);
  engine.add_deployment(0, synthetic_deployment(ae, 3, 12, 4, rng));
  engine.start();
  Rng qr(50);
  for (int t = 0; t < 8; ++t) {
    data::Sample q;
    q.input = random_tokens(1 + qr.uniform_index(8), task.vocab_size(), qr);
    const std::size_t expect = engine.retrieve_serial(0, q);
    EXPECT_EQ(engine.submit(serve::Request{0, q}).get().ovt_index, expect) << "trial " << t;
  }
  engine.stop();
}

// ---------------------------------------------------------------------------
// Single-flight decoded-prompt fetch.
// ---------------------------------------------------------------------------

TEST(SingleFlight, ConcurrentMissesDecodeEachKeyExactlyOnce) {
  data::LampTask task{data::lamp1_config()};
  llm::TinyLM model = tiny_model(task.vocab_size(), 16, 31);
  const std::size_t n_ovts = 6;
  const auto ae = make_autoencoder(16, 12, 37);
  serve::ServingConfig cfg = noise_free_serving(1, 1);
  cfg.cache_capacity = 2 * n_ovts;  // no evictions → decode count is exact
  serve::ServingEngine engine(model, task, cfg);
  Rng rng(51);
  engine.add_deployment(0, synthetic_deployment(ae, 3, 12, n_ovts, rng));

  // 8 threads hammer every prompt concurrently. With single-flight fetches
  // and no evictions, each (user, ovt) key is decoded exactly once, however
  // the races resolve; every caller sees the same cached object.
  const std::size_t n_threads = 8;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::shared_ptr<const Matrix>> first(n_ovts);
  for (std::size_t i = 0; i < n_ovts; ++i) first[i] = engine.prompt(0, i);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n_threads; ++t) {
    threads.emplace_back([&engine, &first, &mismatches] {
      for (int round = 0; round < 20; ++round)
        for (std::size_t i = 0; i < n_ovts; ++i)
          if (engine.prompt(0, i).get() != first[i].get()) ++mismatches;
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(engine.prompt_decodes(), n_ovts);
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(SingleFlight, ColdConcurrentFetchesOfOneKeyCoalesce) {
  data::LampTask task{data::lamp1_config()};
  llm::TinyLM model = tiny_model(task.vocab_size(), 16, 41);
  const auto ae = make_autoencoder(16, 12, 43);
  serve::ServingEngine engine(model, task, noise_free_serving(1, 1));
  Rng rng(53);
  engine.add_deployment(0, synthetic_deployment(ae, 3, 12, 3, rng));

  // Cold cache, many threads racing on the same key: exactly one decode.
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 8; ++t)
    threads.emplace_back([&engine] {
      for (int round = 0; round < 5; ++round) (void)engine.prompt(0, 0);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(engine.prompt_decodes(), 1u);
}

}  // namespace
}  // namespace nvcim
