// Fused crossbar slice kernel + parallel sharded retrieval (PR 3).
//
//  - bit-identity of the fused interleaved kernel against the scalar
//    per-query matvec() oracle, across noise/ADC configurations, including
//    the zero-slice-skip fast path
//  - allocation-free scratch variants (query_batch_into, scores_batch_into)
//    against their allocating counterparts
//  - the parallel per-shard retrieve fan-out: every answer equals
//    retrieve_serial, reruns are deterministic, plus per-shard stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <vector>

#include "nvcim/serve/engine.hpp"

namespace nvcim {
namespace {

// ---------------------------------------------------------------------------
// Fused slice kernel vs the scalar matvec() oracle.
// ---------------------------------------------------------------------------

Matrix random_int_matrix(std::size_t rows, std::size_t cols, int lo, int hi, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.at_flat(i) =
        static_cast<float>(lo + static_cast<int>(rng.uniform_index(
                                    static_cast<std::size_t>(hi - lo + 1))));
  return m;
}

/// Program one crossbar, copy it, and require the fused batched kernel on
/// the original to equal the scalar per-query matvec() on the copy exactly —
/// results and counters.
void expect_fused_matches_scalar(cim::CrossbarConfig cfg, double sigma, int value_range,
                                    std::uint64_t seed) {
  cim::Crossbar fused(cfg);
  Rng wr(seed);
  const Matrix w = random_int_matrix(cfg.rows, cfg.cols, -value_range, value_range, wr);
  Rng pr(seed + 1);
  fused.program(w, {nvm::fefet3(), sigma}, pr);
  cim::Crossbar scalar = fused;

  Rng qr(seed + 2);
  const Matrix x = Matrix::randn(7, cfg.rows, qr);
  const Matrix yf = fused.matvec_batch(x);
  const Matrix ys = scalar.matvec(x);
  ASSERT_TRUE(yf.same_shape(ys));
  for (std::size_t i = 0; i < yf.size(); ++i)
    ASSERT_EQ(yf.at_flat(i), ys.at_flat(i)) << "flat index " << i;

  // Counters advance identically: zero-slice skipping is a simulation
  // shortcut, not a change to the logical op schedule.
  EXPECT_EQ(fused.counters().subarray_activations, scalar.counters().subarray_activations);
  EXPECT_EQ(fused.counters().adc_conversions, scalar.counters().adc_conversions);
  EXPECT_EQ(fused.counters().cells_programmed, scalar.counters().cells_programmed);
  EXPECT_EQ(fused.counters().write_pulses, scalar.counters().write_pulses);
}

TEST(FusedKernel, BitIdenticalToReferenceUnderNoiseAndAdc) {
  cim::CrossbarConfig cfg;
  cfg.rows = 48;
  cfg.cols = 20;
  cfg.adc_bits = 8;
  expect_fused_matches_scalar(cfg, 0.25, 1000, 11);
}

TEST(FusedKernel, BitIdenticalToReferenceNoiseless) {
  cim::CrossbarConfig cfg;
  cfg.rows = 32;
  cfg.cols = 12;
  cfg.adc_bits = 0;
  expect_fused_matches_scalar(cfg, 0.0, 30000, 23);
}

TEST(FusedKernel, BitIdenticalToReferenceAcrossBatchSizesAndColumnTails) {
  // Unmasked, every row needs every block: batch sizes 1..33 run full 4-row
  // tiles plus each 3/2/1-row remainder tile, and 40 or 100 columns leave a
  // tail block narrower than the register width. One query row is all zero
  // (full scale 0: its ADC step passes values through).
  for (const std::size_t cols : {std::size_t{40}, std::size_t{100}}) {
    for (const std::size_t adc : {std::size_t{8}, std::size_t{0}}) {
      cim::CrossbarConfig cfg;
      cfg.rows = 36;
      cfg.cols = cols;
      cfg.adc_bits = adc;
      cim::Crossbar fused(cfg);
      Rng wr(61 + cols + adc), pr(62 + cols + adc), qr(63 + cols + adc);
      fused.program(random_int_matrix(cfg.rows, cols, -3000, 3000, wr), {nvm::fefet3(), 0.1},
                    pr);
      for (std::size_t B = 1; B <= 33; ++B) {
        SCOPED_TRACE(::testing::Message() << "cols " << cols << " adc " << adc << " B " << B);
        Matrix x = Matrix::randn(B, cfg.rows, qr);
        for (std::size_t i = 0; i < cfg.rows; ++i) x(B / 2, i) = 0.0f;
        cim::Crossbar scalar = fused;
        const Matrix yf = fused.matvec_batch(x);
        const Matrix ys = scalar.matvec(x);
        ASSERT_TRUE(yf.same_shape(ys));
        for (std::size_t i = 0; i < yf.size(); ++i)
          ASSERT_EQ(yf.at_flat(i), ys.at_flat(i)) << "flat index " << i;
        EXPECT_EQ(fused.counters().adc_conversions, scalar.counters().adc_conversions);
        EXPECT_EQ(fused.counters().subarray_activations,
                  scalar.counters().subarray_activations);
      }
    }
  }
}

TEST(FusedKernel, ZeroSliceSkipFiresAndStaysExact) {
  // Noiseless programming of tiny values leaves every high slice exactly
  // zero — the kernel elides those planes without changing results or
  // counters (checked inside the helper).
  cim::CrossbarConfig cfg;
  cfg.rows = 24;
  cfg.cols = 10;
  cfg.adc_bits = 8;
  expect_fused_matches_scalar(cfg, 0.0, 3, 51);

  cim::Crossbar xb(cfg);
  Rng rng(52);
  xb.program(Matrix(24, 10, 3.0f), {nvm::fefet3(), 0.0}, rng);
  EXPECT_FALSE(xb.slice_is_zero(0));  // value 3 lives in the lowest slice
  for (std::size_t s = 1; s < cfg.n_slices(); ++s)
    EXPECT_TRUE(xb.slice_is_zero(s)) << "slice " << s;
  // Elision must not bend the arithmetic: a noiseless ideal-ADC readback of
  // the skipping crossbar still reconstructs the programmed integers.
  cim::CrossbarConfig ideal = cfg;
  ideal.adc_bits = 0;
  cim::Crossbar exact(ideal);
  Rng rng2(53);
  exact.program(Matrix(24, 10, 3.0f), {nvm::fefet3(), 0.0}, rng2);
  const Matrix y = exact.matvec(Matrix(1, 24, 1.0f));
  for (std::size_t c = 0; c < y.cols(); ++c) EXPECT_FLOAT_EQ(y(0, c), 24.0f * 3.0f);
}

std::uint32_t float_bits(float v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

TEST(FusedKernel, EveryTileShapeAndLiveSliceCountMatchesScalar) {
  // The kernel tiles a block's readers four rows at a time over one slice,
  // and a remainder of 3, 2 or 1 rows over 1, 2 or 4 slices, with narrower
  // tiles for the leftover slices. value_bits 3..17 gives 1..8 slice
  // planes; noiseless keys whose digits live only in a chosen subset of
  // slices (values below 4: slice 0 alone; multiples of 4: all but slice 0;
  // random subsets with gaps) give every live-slice count, and noisy keys
  // keep every plane live. Slot-span passes read the three blocks (the last
  // one partial) with 1, 2, 3, 4, 5 and 9 rows each, unmasked passes read
  // every block with those batch sizes. Every computed entry equals the
  // scalar matvec() on a copy bit for bit, and every counter field matches.
  constexpr std::size_t kRows = 20, kCols = 40, kBlock = cim::Crossbar::kBlockColumns;
  const std::size_t reader_counts[] = {1, 2, 3, 4, 5, 9};
  Rng rng(3400);
  for (std::size_t value_bits = 3; value_bits <= 17; ++value_bits) {
    cim::CrossbarConfig cfg;
    cfg.rows = kRows;
    cfg.cols = kCols;
    cfg.value_bits = value_bits;
    const std::size_t S = cfg.n_slices();
    // Live-slice sets of the noiseless keys: one per count 1..S (empty:
    // noisy keys, every plane live).
    std::vector<std::vector<std::size_t>> live_sets = {{}};
    for (std::size_t n_live = 1; n_live <= S; ++n_live) {
      std::vector<std::size_t> live;
      if (n_live == 1) {
        live = {0};
      } else if (n_live == S - 1) {
        for (std::size_t s = 1; s < S; ++s) live.push_back(s);
      } else {
        live = rng.sample_without_replacement(S, n_live);
        std::sort(live.begin(), live.end());
      }
      live_sets.push_back(live);
    }
    const long qmax = (1L << (value_bits - 1)) - 1;
    const long top_digit = qmax >> (cim::Crossbar::kBitsPerCell * (S - 1));
    for (const auto& live : live_sets) {
      const bool noisy = live.empty();
      Matrix w(kRows, kCols);
      for (std::size_t i = 0; i < w.size(); ++i) {
        long v = 0;
        if (noisy) {
          v = static_cast<long>(rng.uniform_index(static_cast<std::size_t>(2 * qmax + 1))) - qmax;
        } else {
          for (const std::size_t s : live) {
            const long hi = s + 1 == S ? top_digit : 3;
            v += static_cast<long>(rng.uniform_index(static_cast<std::size_t>(hi + 1)))
                 << (cim::Crossbar::kBitsPerCell * s);
          }
          if (rng.uniform() < 0.5) v = -v;
        }
        w.at_flat(i) = static_cast<float>(v);
      }
      for (const std::size_t adc : {std::size_t{8}, std::size_t{0}}) {
        cfg.adc_bits = adc;
        cim::Crossbar kernel(cfg);
        kernel.program(w, {nvm::fefet3(), noisy ? 0.1 : 0.0}, rng);
        std::size_t n_live = 0;
        for (std::size_t s = 0; s < S; ++s) {
          const bool expect_live =
              noisy || std::find(live.begin(), live.end(), s) != live.end();
          ASSERT_EQ(!kernel.slice_is_zero(s), expect_live)
              << "value_bits " << value_bits << " slice " << s;
          n_live += expect_live ? 1 : 0;
        }
        cim::Crossbar::Scratch scratch;
        for (std::size_t pass = 0; pass < 2 * std::size(reader_counts); ++pass) {
          const bool masked = pass < std::size(reader_counts);
          SCOPED_TRACE(::testing::Message() << "value_bits " << value_bits << " live "
                                            << n_live << "/" << S << " adc " << adc
                                            << " pass " << pass);
          // Masked pass p: block bk is read by reader_counts[(p + bk) % 6]
          // rows spanning exactly that block. Unmasked pass: B rows.
          cim::PassSpans spans;
          std::size_t B = reader_counts[pass % std::size(reader_counts)];
          if (masked) {
            for (std::size_t bk = 0; bk * kBlock < kCols; ++bk) {
              const std::size_t n = reader_counts[(pass + bk) % std::size(reader_counts)];
              for (std::size_t i = 0; i < n; ++i)
                spans.add_row(bk * kBlock, std::min(kCols, (bk + 1) * kBlock));
            }
            B = spans.rows();
          }
          Matrix x = Matrix::randn(B, kRows, rng);
          if (B > 1)  // one all-zero query row: full scale 0
            for (std::size_t i = 0; i < kRows; ++i) x(B - 1, i) = 0.0f;
          cim::Crossbar oracle = kernel;
          const cim::OpCounters before = kernel.counters();
          const Matrix ys = oracle.matvec(x);
          Matrix yk;
          kernel.matvec_batch_into(x, yk, scratch, masked ? &spans : nullptr, 0);
          std::size_t computed_cols = 0;
          for (std::size_t m = 0; m < B; ++m) {
            const std::size_t b = masked ? spans.begin(m) : 0;
            const std::size_t e = masked ? spans.end(m) : kCols;
            computed_cols += e - b;
            for (std::size_t j = 0; j < yk.cols(); ++j) {
              const std::uint32_t expect = b + j < e ? float_bits(ys(m, b + j)) : 0u;
              ASSERT_EQ(float_bits(yk(m, j)), expect) << "(" << m << ", " << j << ")";
            }
          }
          const cim::OpCounters k = kernel.counters(), o = oracle.counters();
          EXPECT_EQ(k.subarray_activations, o.subarray_activations);
          EXPECT_EQ((k.adc_conversions - before.adc_conversions) * B * kCols,
                    (o.adc_conversions - before.adc_conversions) * computed_cols);
          EXPECT_EQ(k.cells_programmed, o.cells_programmed);
          EXPECT_EQ(k.write_pulses, o.write_pulses);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scratch-reusing batched query paths.
// ---------------------------------------------------------------------------

TEST(AcceleratorScratch, QueryBatchIntoMatchesQueryBatch) {
  cim::CrossbarConfig cfg;
  cfg.rows = 64;
  cfg.cols = 16;
  cfg.adc_bits = 8;
  cim::Accelerator acc(cfg, {nvm::rram1(), 0.2});
  Rng rng(71);
  acc.store(Matrix::randn(24, 100, rng), rng);  // tiles in both dimensions

  cim::Accelerator::BatchScratch scratch;
  Matrix out;
  Rng qr(72);
  for (int round = 0; round < 3; ++round) {  // scratch reuse across rounds
    const Matrix queries = Matrix::randn(5 + round, 100, qr);
    const Matrix expected = acc.query_batch(queries);
    acc.query_batch_into(queries, out, scratch);
    ASSERT_TRUE(expected.same_shape(out));
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(expected.at_flat(i), out.at_flat(i)) << "round " << round << " flat " << i;
  }
}

TEST(RetrieverScratch, ScoresBatchIntoMatchesScoresBatch) {
  retrieval::CimRetriever::Config cfg;
  cfg.crossbar.rows = 48;
  cfg.crossbar.cols = 16;
  cfg.variation = {nvm::fefet3(), 0.1};
  retrieval::CimRetriever r(cfg);
  Rng rng(81);
  std::vector<Matrix> keys;
  for (int i = 0; i < 20; ++i) keys.push_back(Matrix::rand_uniform(4, 12, rng, -1.0f, 1.0f));
  r.store(keys, rng);

  retrieval::CimRetriever::Scratch scratch;
  Matrix out;
  Rng qr(82);
  for (int round = 0; round < 3; ++round) {
    const Matrix queries = Matrix::randn(6, 48, qr);  // key size 4×12 = 48
    const Matrix expected = r.scores_batch(queries);
    r.scores_batch_into(queries, out, scratch);
    ASSERT_TRUE(expected.same_shape(out));
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(expected.at_flat(i), out.at_flat(i)) << "round " << round << " flat " << i;
  }
}

// ---------------------------------------------------------------------------
// Parallel per-shard retrieval fan-out.
// ---------------------------------------------------------------------------

/// Synthetic deployments (random keys, untrained shared autoencoder): the
/// retrieval data path is under test, not task accuracy.
struct ParallelFixture {
  data::LampTask task{data::lamp1_config()};
  llm::TinyLM model;
  std::shared_ptr<const compress::Autoencoder> autoencoder;

  static constexpr std::size_t kDModel = 16;
  static constexpr std::size_t kCodeDim = 24;
  static constexpr std::size_t kTokens = 4;
  static constexpr std::size_t kKeysPerUser = 8;

  ParallelFixture() : model(make_model()) {
    compress::AutoencoderConfig acfg;
    acfg.input_dim = kDModel;
    acfg.code_dim = kCodeDim;
    acfg.hidden_dim = 32;
    autoencoder = std::make_shared<const compress::Autoencoder>(acfg);
  }

  llm::TinyLM make_model() {
    llm::TinyLmConfig cfg;
    cfg.vocab = task.vocab_size();
    cfg.d_model = kDModel;
    cfg.n_layers = 1;
    cfg.n_heads = 2;
    cfg.ffn_hidden = 32;
    cfg.max_seq = 40;
    cfg.prompt_slots = 8;
    return llm::TinyLM(cfg, 9);
  }

  core::TrainedDeployment make_deployment(std::size_t user) {
    core::TrainedDeployment d;
    d.autoencoder = autoencoder;
    d.n_virtual_tokens = kTokens;
    Rng rng(5000 + user);
    for (std::size_t k = 0; k < kKeysPerUser; ++k) {
      d.keys.push_back(Matrix::rand_uniform(kTokens, kCodeDim, rng, -1.0f, 1.0f));
      d.stored_codes.push_back(Matrix::rand_uniform(kTokens, kCodeDim, rng, -1.0f, 1.0f));
      d.domains.push_back(k);
    }
    return d;
  }

  serve::ServingConfig config(std::size_t shards, std::size_t threads, std::size_t batch) const {
    serve::ServingConfig cfg;
    cfg.n_shards = shards;
    cfg.n_threads = threads;
    cfg.max_batch = batch;
    cfg.crossbar.rows = 96;
    cfg.crossbar.cols = 32;
    cfg.variation = {nvm::fefet3(), 0.1};
    cfg.seed = 2026;
    return cfg;
  }

  /// Serve `reqs` and return each answer. `serial` (optional) receives the
  /// same engine's retrieve_serial() answer for each request.
  std::vector<std::size_t> run(std::size_t shards, std::size_t threads, std::size_t batch,
                               const std::vector<std::pair<std::size_t, data::Sample>>& reqs,
                               std::size_t n_users, serve::StatsSnapshot* stats = nullptr,
                               std::vector<std::size_t>* serial = nullptr) {
    serve::ServingEngine engine(model, task, config(shards, threads, batch));
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
    if (serial != nullptr)
      for (const auto& [u, q] : reqs) serial->push_back(engine.retrieve_serial(u, q));
    engine.stop();
    return out;
  }
};

TEST(ParallelRetrieval, DeterministicAndIdenticalToSerialShardLoop) {
  ParallelFixture f;
  const std::size_t n_users = 12;
  Rng qr(91);
  std::vector<std::pair<std::size_t, data::Sample>> reqs;
  for (int t = 0; t < 64; ++t) {
    const std::size_t u = qr.uniform_index(n_users);
    reqs.emplace_back(u, f.task.sample(qr.uniform_index(f.task.config().n_domains), qr));
  }

  // 4 shards, 4 workers: batches fan out, and every answer is the oracle's.
  serve::StatsSnapshot parallel_stats;
  std::vector<std::size_t> oracle;
  const std::vector<std::size_t> parallel =
      f.run(/*shards=*/4, /*threads=*/4, /*batch=*/16, reqs, n_users, &parallel_stats, &oracle);
  const std::vector<std::size_t> parallel_again = f.run(4, 4, 16, reqs, n_users);
  ASSERT_EQ(oracle.size(), parallel.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i], oracle[i]) << "request " << i;
    EXPECT_EQ(parallel[i], parallel_again[i]) << "request " << i << " (rerun)";
  }
  EXPECT_GT(parallel_stats.parallel_retrieve_fanouts, 0u);

  // One shard: nothing to fan out.
  serve::StatsSnapshot single_stats;
  std::vector<std::size_t> single_oracle;
  const std::vector<std::size_t> single =
      f.run(/*shards=*/1, 4, 16, reqs, n_users, &single_stats, &single_oracle);
  EXPECT_EQ(single, single_oracle);
  EXPECT_EQ(single_stats.parallel_retrieve_fanouts, 0u);
}

TEST(ParallelRetrieval, SingleWorkerSelfHelpStillCorrect) {
  // With one worker the coordinator must execute every fanned-out shard task
  // itself (no other worker exists to steal them) — the degenerate case of
  // the help loop, which runs as the serial shard loop.
  ParallelFixture f;
  const std::size_t n_users = 8;
  Rng qr(92);
  std::vector<std::pair<std::size_t, data::Sample>> reqs;
  for (int t = 0; t < 32; ++t) {
    const std::size_t u = qr.uniform_index(n_users);
    reqs.emplace_back(u, f.task.sample(qr.uniform_index(f.task.config().n_domains), qr));
  }
  serve::StatsSnapshot stats;
  std::vector<std::size_t> oracle;
  const std::vector<std::size_t> answers = f.run(4, 1, 16, reqs, n_users, &stats, &oracle);
  for (std::size_t i = 0; i < answers.size(); ++i)
    EXPECT_EQ(answers[i], oracle[i]) << "request " << i;
  EXPECT_GT(stats.parallel_retrieve_fanouts, 0u);
}

TEST(ParallelRetrieval, BatchCoalescingServesEverythingAndMatchesSerial) {
  // min_batch > 1: workers wait (bounded) for full batches. Liveness must
  // hold when fewer than min_batch requests ever arrive (window times out),
  // and results stay identical to the serial shard loop.
  ParallelFixture f;
  const std::size_t n_users = 8;
  Rng qr(94);
  std::vector<std::pair<std::size_t, data::Sample>> reqs;
  for (int t = 0; t < 21; ++t) {  // deliberately not a multiple of min_batch
    const std::size_t u = qr.uniform_index(n_users);
    reqs.emplace_back(u, f.task.sample(qr.uniform_index(f.task.config().n_domains), qr));
  }
  serve::ServingConfig cfg = f.config(4, 2, 16);
  cfg.min_batch = 16;
  cfg.batch_window_ms = 5.0;
  serve::ServingEngine engine(f.model, f.task, cfg);
  for (std::size_t u = 0; u < n_users; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();
  std::vector<std::size_t> serial;
  for (const auto& [u, q] : reqs) serial.push_back(engine.retrieve_serial(u, q));
  std::vector<std::future<serve::Response>> futures;
  for (const auto& [u, q] : reqs)
    futures.push_back(engine.submit(serve::Request{u, q}).take_future());
  for (std::size_t i = 0; i < reqs.size(); ++i)
    EXPECT_EQ(futures[i].get().ovt_index, serial[i]) << "request " << i;
  engine.stop();
}

TEST(ParallelRetrieval, PerShardTimingsAndFanoutsRecorded) {
  ParallelFixture f;
  const std::size_t n_users = 12;
  Rng qr(93);
  std::vector<std::pair<std::size_t, data::Sample>> reqs;
  for (int t = 0; t < 48; ++t) {
    const std::size_t u = qr.uniform_index(n_users);
    reqs.emplace_back(u, f.task.sample(qr.uniform_index(f.task.config().n_domains), qr));
  }
  serve::StatsSnapshot s;
  (void)f.run(4, 4, 16, reqs, n_users, &s);
  ASSERT_EQ(s.requests, reqs.size());
  // 12 users over 4 shards → every shard holds users; batches of 16 random
  // users span >1 shard essentially surely, so fan-outs and per-shard
  // timings must both have been recorded.
  EXPECT_GT(s.parallel_retrieve_fanouts, 0u);
  ASSERT_EQ(s.shard_retrieve_ms.size(), 4u);
  double total = 0.0;
  for (const double ms : s.shard_retrieve_ms) {
    EXPECT_GE(ms, 0.0);
    total += ms;
  }
  EXPECT_GT(total, 0.0);
}

}  // namespace
}  // namespace nvcim
