// Tape-free classify forward: TinyLM::last_logits_batch / classify_batch
// against the tape reference (logits_inference / classify), byte for byte,
// under soft prompts and under prompt K/V built by prompt_kv_batch.

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "nvcim/data/lamp.hpp"
#include "nvcim/llm/model.hpp"

namespace nvcim {
namespace {

std::vector<int> random_tokens(std::size_t len, std::size_t vocab, Rng& rng) {
  std::vector<int> t(len);
  for (int& v : t) v = static_cast<int>(rng.uniform_index(vocab));
  return t;
}

// memcmp over n floats; an empty range (possibly null pointers) is equal.
bool bytes_equal(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

// A random group of sequences for `cfg`: lengths 1..max_seq − prompt_slots,
// soft prompts null or 1..prompt_slots rows.
struct Group {
  std::vector<std::vector<int>> inputs;
  std::vector<Matrix> prompts;
  std::vector<const std::vector<int>*> seqs;
  std::vector<const Matrix*> sps;
  std::vector<int> labels;

  Group(const llm::TinyLmConfig& cfg, std::size_t n, Rng& rng) {
    const std::size_t max_len = cfg.max_seq - cfg.prompt_slots;
    for (std::size_t b = 0; b < n; ++b) {
      // Hit both ends of the length range now and then.
      const std::size_t len = b == 0 ? 1 : b == 1 ? max_len : 1 + rng.uniform_index(max_len);
      inputs.push_back(random_tokens(len, cfg.vocab, rng));
      prompts.push_back(Matrix::randn(1 + rng.uniform_index(cfg.prompt_slots), cfg.d_model, rng));
    }
    for (std::size_t b = 0; b < n; ++b) {
      seqs.push_back(&inputs[b]);
      sps.push_back(rng.uniform_index(3) == 0 ? nullptr : &prompts[b]);
    }
    const std::size_t n_labels = 2 + rng.uniform_index(4);
    for (std::size_t i = 0; i < n_labels; ++i)
      labels.push_back(static_cast<int>(rng.uniform_index(cfg.vocab)));
  }
};

// Every row of last_logits_batch equals the last row of logits_inference
// byte for byte, and classify_batch equals classify.
void expect_matches_tape(const llm::TinyLM& model, const Group& g, const std::string& tag) {
  llm::TinyLM::Scratch scratch;
  const Matrix& z = model.last_logits_batch(g.seqs, g.sps, scratch);
  ASSERT_EQ(z.rows(), g.seqs.size()) << tag;
  ASSERT_EQ(z.cols(), model.config().vocab) << tag;
  for (std::size_t b = 0; b < g.seqs.size(); ++b) {
    const Matrix ref = model.logits_inference(*g.seqs[b], g.sps[b]);
    ASSERT_EQ(ref.rows(), g.seqs[b]->size());
    EXPECT_TRUE(bytes_equal(z.data() + b * z.cols(), ref.data() + (ref.rows() - 1) * ref.cols(),
                            z.cols()))
        << tag << " sequence " << b << " (len " << g.seqs[b]->size() << ", prompt rows "
        << (g.sps[b] != nullptr ? g.sps[b]->rows() : 0) << ")";
  }
  const std::vector<std::size_t> got = model.classify_batch(g.seqs, g.labels, g.sps, &scratch);
  ASSERT_EQ(got.size(), g.seqs.size());
  for (std::size_t b = 0; b < g.seqs.size(); ++b)
    EXPECT_EQ(got[b], model.classify(*g.seqs[b], g.labels, g.sps[b])) << tag << " sequence " << b;
}

llm::TinyLmConfig random_config(std::size_t d, std::size_t layers, std::size_t heads, Rng& rng) {
  llm::TinyLmConfig cfg;
  cfg.vocab = 8 + rng.uniform_index(40);
  cfg.d_model = d;
  cfg.n_layers = layers;
  cfg.n_heads = heads;
  cfg.ffn_hidden = d * (1 + rng.uniform_index(3));
  cfg.prompt_slots = 1 + rng.uniform_index(8);
  cfg.max_seq = cfg.prompt_slots + 1 + rng.uniform_index(16);
  return cfg;
}

TEST(ClassifyForward, LastLogitsBytewiseEqualTapeOverRandomConfigs) {
  Rng rng(1801);
  for (const std::size_t d : {16, 32, 64})
    for (const std::size_t layers : {1, 2, 3})
      for (const std::size_t heads : {1, 2, 4}) {
        const llm::TinyLmConfig cfg = random_config(d, layers, heads, rng);
        const llm::TinyLM model(cfg, rng.next_u64());
        const Group g(cfg, 2 + rng.uniform_index(5), rng);
        expect_matches_tape(model, g,
                            "d" + std::to_string(d) + " L" + std::to_string(layers) + " H" +
                                std::to_string(heads));
      }
}

TEST(ClassifyForward, QuantizedModelMatchesTape) {
  Rng rng(1802);
  for (const std::size_t layers : {1, 2}) {
    const llm::TinyLmConfig cfg = random_config(32, layers, 4, rng);
    llm::TinyLM model(cfg, rng.next_u64());
    llm::quantize_weights(model, 4);
    const Group g(cfg, 6, rng);
    expect_matches_tape(model, g, "4-bit L" + std::to_string(layers));
  }
}

TEST(ClassifyForward, ClassifyBatchBitIdenticalToSerialClassify) {
  data::LampTask task{data::lamp1_config()};
  llm::TinyLmConfig cfg;
  cfg.vocab = task.vocab_size();
  cfg.d_model = 16;
  cfg.n_layers = 1;
  cfg.n_heads = 2;
  cfg.ffn_hidden = 32;
  cfg.max_seq = 40;
  cfg.prompt_slots = 8;
  const llm::TinyLM model(cfg, 61);
  Rng rng(361);

  std::vector<std::vector<int>> inputs;
  std::vector<Matrix> prompts;
  for (int t = 0; t < 12; ++t) {
    inputs.push_back(random_tokens(1 + rng.uniform_index(10), task.vocab_size(), rng));
    prompts.push_back(Matrix::rand_uniform(4, 16, rng, -1.0f, 1.0f));
  }
  std::vector<const std::vector<int>*> seqs;
  std::vector<const Matrix*> sps;
  for (int t = 0; t < 12; ++t) {
    seqs.push_back(&inputs[t]);
    sps.push_back(t % 3 == 0 ? nullptr : &prompts[t]);  // promptless rows too
  }
  const std::vector<std::size_t> batched = model.classify_batch(seqs, task.label_ids(), sps);
  ASSERT_EQ(batched.size(), seqs.size());
  for (std::size_t b = 0; b < seqs.size(); ++b)
    EXPECT_EQ(batched[b], model.classify(inputs[b], task.label_ids(), sps[b]))
        << "sequence " << b;
}

TEST(ClassifyForward, ScratchReusedAcrossGroupShapes) {
  Rng rng(1803);
  const llm::TinyLmConfig cfg = random_config(32, 2, 2, rng);
  const llm::TinyLM model(cfg, 77);
  llm::TinyLM::Scratch reused;
  // Grow, shrink, empty and grow again: stale buffer contents must not leak.
  for (const std::size_t n : {5, 1, 8, 0, 3}) {
    const Group g(cfg, n, rng);
    llm::TinyLM::Scratch fresh;
    const Matrix expect = model.last_logits_batch(g.seqs, g.sps, fresh);
    const Matrix& got = model.last_logits_batch(g.seqs, g.sps, reused);
    ASSERT_TRUE(got.same_shape(expect)) << "group of " << n;
    EXPECT_TRUE(bytes_equal(got.data(), expect.data(), got.size())) << "group of " << n;
  }
}

TEST(ClassifyForward, RejectsMalformedInput) {
  llm::TinyLmConfig cfg;
  cfg.vocab = 20;
  cfg.d_model = 16;
  cfg.n_layers = 1;
  cfg.n_heads = 2;
  cfg.ffn_hidden = 32;
  cfg.prompt_slots = 4;
  cfg.max_seq = 12;
  const llm::TinyLM model(cfg, 5);
  const std::vector<int> ok{1, 2, 3};
  const std::vector<int> labels{0, 1};
  Rng rng(1804);
  const Matrix prompt = Matrix::randn(2, 16, rng);
  const Matrix wrong_cols = Matrix::randn(2, 8, rng);
  const Matrix too_long = Matrix::randn(5, 16, rng);
  const std::vector<int> empty;
  const std::vector<int> out_of_vocab{1, 20};
  const std::vector<int> negative{-1, 2};
  const std::vector<int> past_max_seq(9, 1);  // 4 prompt slots + 9 > 12

  // One malformed sequence poisons its whole group; the tape reference
  // rejects the same input.
  const auto expect_rejected = [&](const std::vector<int>& seq, const Matrix* sp,
                                   const std::string& what) {
    const std::vector<const std::vector<int>*> seqs{&ok, &seq};
    const std::vector<const Matrix*> sps{&prompt, sp};
    EXPECT_THROW((void)model.classify_batch(seqs, labels, sps), Error) << what;
    llm::TinyLM::Scratch scratch;
    EXPECT_THROW((void)model.last_logits_batch(seqs, sps, scratch), Error) << what;
    EXPECT_THROW((void)model.classify(seq, labels, sp), Error) << what << " (tape)";
  };
  expect_rejected(empty, nullptr, "empty sequence");
  expect_rejected(out_of_vocab, nullptr, "token id == vocab");
  expect_rejected(negative, &prompt, "negative token id");
  expect_rejected(ok, &wrong_cols, "soft prompt with wrong column count");
  expect_rejected(ok, &too_long, "soft prompt longer than prompt_slots");
  expect_rejected(past_max_seq, nullptr, "sequence past max_seq");

  const std::vector<const std::vector<int>*> seqs{&ok};
  const std::vector<const Matrix*> sps{&prompt};
  for (const std::vector<int>& bad_labels :
       {std::vector<int>{0, 20}, std::vector<int>{-1, 0}, std::vector<int>{}}) {
    EXPECT_THROW((void)model.classify_batch(seqs, bad_labels, sps), Error);
    EXPECT_THROW((void)model.classify(ok, bad_labels, &prompt), Error);
  }
  EXPECT_THROW((void)model.classify_batch(seqs, labels, {&prompt, nullptr}), Error)
      << "soft_prompts/seqs size mismatch";
  EXPECT_THROW((void)model.classify_batch({&ok, nullptr}, labels, {nullptr, nullptr}), Error)
      << "null sequence";

  // The valid group still classifies, and a rejection leaves a reused
  // scratch usable.
  llm::TinyLM::Scratch scratch;
  EXPECT_THROW((void)model.classify_batch({&ok, &past_max_seq}, labels, {&prompt, nullptr},
                                          &scratch),
               Error);
  EXPECT_EQ(model.classify_batch(seqs, labels, sps, &scratch)[0],
            model.classify(ok, labels, &prompt));
}

// Prompts of 0..prompt_slots rows (0 rows: nullptr or an empty matrix),
// shared by several sequences: last_logits_batch over prompt K/V equals the
// tape's last row byte for byte, and classify_batch equals classify.
void expect_prompt_kv_matches_tape(const llm::TinyLM& model, Rng& rng, const std::string& tag) {
  const llm::TinyLmConfig& cfg = model.config();
  std::vector<Matrix> prompts;
  for (std::size_t n = 0; n <= cfg.prompt_slots; ++n)
    prompts.push_back(Matrix::randn(n, cfg.d_model, rng));
  std::vector<const Matrix*> prompt_ptrs{nullptr};
  for (const Matrix& p : prompts) prompt_ptrs.push_back(&p);
  llm::TinyLM::Scratch scratch;
  std::vector<llm::TinyLM::PromptKv> kvs;
  model.prompt_kv_batch(prompt_ptrs, kvs, scratch);
  ASSERT_EQ(kvs.size(), prompt_ptrs.size()) << tag;

  // Every prompt at least once, then one random prompt shared by the last
  // four sequences, as a cached entry is under serving. Sequence 0 passes a
  // null K/V.
  const Group g(cfg, prompt_ptrs.size() + 4, rng);
  const std::size_t shared = 1 + rng.uniform_index(prompt_ptrs.size() - 1);
  std::vector<std::size_t> pick;
  std::vector<const llm::TinyLM::PromptKv*> kv_ptrs;
  for (std::size_t b = 0; b < g.seqs.size(); ++b) {
    pick.push_back(b < prompt_ptrs.size() ? b : shared);
    kv_ptrs.push_back(b == 0 ? nullptr : &kvs[pick[b]]);
  }

  const Matrix& z = model.last_logits_batch(g.seqs, kv_ptrs, scratch);
  ASSERT_EQ(z.rows(), g.seqs.size()) << tag;
  ASSERT_EQ(z.cols(), cfg.vocab) << tag;
  for (std::size_t b = 0; b < g.seqs.size(); ++b) {
    const Matrix* prompt = b == 0 ? nullptr : prompt_ptrs[pick[b]];
    const Matrix ref = model.logits_inference(*g.seqs[b], prompt);
    EXPECT_TRUE(bytes_equal(z.data() + b * z.cols(), ref.data() + (ref.rows() - 1) * ref.cols(),
                            z.cols()))
        << tag << " sequence " << b << " (len " << g.seqs[b]->size() << ", prompt rows "
        << (prompt != nullptr ? prompt->rows() : 0) << ")";
  }
  const std::vector<std::size_t> got = model.classify_batch(g.seqs, g.labels, kv_ptrs, scratch);
  ASSERT_EQ(got.size(), g.seqs.size());
  for (std::size_t b = 0; b < g.seqs.size(); ++b)
    EXPECT_EQ(got[b],
              model.classify(*g.seqs[b], g.labels, b == 0 ? nullptr : prompt_ptrs[pick[b]]))
        << tag << " sequence " << b;
}

TEST(ClassifyForward, PromptKvForwardBytewiseEqualTape) {
  Rng rng(1806);
  for (const std::size_t layers : {1, 2, 3})
    for (const std::size_t heads : {1, 2, 3, 4}) {
      const std::size_t d = 12 * (1 + rng.uniform_index(4));  // divisible by every head count
      const llm::TinyLmConfig cfg = random_config(d, layers, heads, rng);
      const llm::TinyLM model(cfg, rng.next_u64());
      expect_prompt_kv_matches_tape(model, rng,
                                    "d" + std::to_string(d) + " L" + std::to_string(layers) +
                                        " H" + std::to_string(heads));
    }
  for (const std::size_t layers : {1, 2}) {
    const llm::TinyLmConfig cfg = random_config(32, layers, 4, rng);
    llm::TinyLM model(cfg, rng.next_u64());
    llm::quantize_weights(model, 4);
    expect_prompt_kv_matches_tape(model, rng, "4-bit L" + std::to_string(layers));
  }
}

bool prompt_kv_equal(const llm::TinyLM::PromptKv& a, const llm::TinyLM::PromptKv& b) {
  if (a.rows != b.rows || a.k.size() != b.k.size() || a.v.size() != b.v.size()) return false;
  for (std::size_t l = 0; l < a.k.size(); ++l)
    if (!a.k[l].same_shape(b.k[l]) || !a.v[l].same_shape(b.v[l]) ||
        !bytes_equal(a.k[l].data(), b.k[l].data(), a.k[l].size()) ||
        !bytes_equal(a.v[l].data(), b.v[l].data(), a.v[l].size()))
      return false;
  return true;
}

TEST(ClassifyForward, PromptKvBatchEqualsPerPrompt) {
  Rng rng(1807);
  for (const std::size_t layers : {1, 2, 3}) {
    const llm::TinyLmConfig cfg = random_config(32, layers, 4, rng);
    const llm::TinyLM model(cfg, rng.next_u64());
    std::vector<Matrix> prompts;
    std::vector<const Matrix*> ptrs;
    for (std::size_t b = 0; b < 6; ++b)
      prompts.push_back(Matrix::randn(rng.uniform_index(cfg.prompt_slots + 1), cfg.d_model, rng));
    for (const Matrix& p : prompts) ptrs.push_back(&p);
    ptrs.push_back(nullptr);
    ptrs.push_back(&prompts[0]);  // the same prompt twice in one stack

    llm::TinyLM::Scratch scratch;
    std::vector<llm::TinyLM::PromptKv> stacked;
    model.prompt_kv_batch(ptrs, stacked, scratch);
    ASSERT_EQ(stacked.size(), ptrs.size());
    for (std::size_t b = 0; b < ptrs.size(); ++b) {
      llm::TinyLM::Scratch fresh;
      std::vector<llm::TinyLM::PromptKv> one;
      model.prompt_kv_batch({ptrs[b]}, one, fresh);
      ASSERT_EQ(one.size(), 1u);
      EXPECT_EQ(stacked[b].rows, ptrs[b] != nullptr ? ptrs[b]->rows() : 0) << "prompt " << b;
      ASSERT_EQ(stacked[b].k.size(), layers) << "prompt " << b;
      EXPECT_TRUE(prompt_kv_equal(stacked[b], one[0])) << "L" << layers << " prompt " << b;
    }
  }
}

TEST(ClassifyForward, RejectsMalformedPromptKv) {
  llm::TinyLmConfig cfg;
  cfg.vocab = 20;
  cfg.d_model = 16;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.ffn_hidden = 32;
  cfg.prompt_slots = 4;
  cfg.max_seq = 12;
  const llm::TinyLM model(cfg, 6);
  const std::vector<int> ok{1, 2, 3};
  const std::vector<int> labels{0, 1};
  Rng rng(1808);
  const Matrix prompt = Matrix::randn(3, 16, rng);
  llm::TinyLM::Scratch scratch;
  std::vector<llm::TinyLM::PromptKv> built;
  model.prompt_kv_batch({&prompt}, built, scratch);
  const llm::TinyLM::PromptKv good = built[0];

  llm::TinyLM::PromptKv one_block = good;
  one_block.k.pop_back();
  one_block.v.pop_back();
  llm::TinyLM::PromptKv missing_v = good;
  missing_v.v.pop_back();
  llm::TinyLM::PromptKv narrow = good;
  narrow.k[1] = Matrix::randn(3, 8, rng);
  llm::TinyLM::PromptKv narrow_v = good;
  narrow_v.v[0] = Matrix::randn(3, 20, rng);
  llm::TinyLM::PromptKv too_many_rows;  // 5 rows > prompt_slots
  too_many_rows.rows = 5;
  for (std::size_t l = 0; l < cfg.n_layers; ++l) {
    too_many_rows.k.push_back(Matrix::randn(5, 16, rng));
    too_many_rows.v.push_back(Matrix::randn(5, 16, rng));
  }
  llm::TinyLM::PromptKv rows_mismatch = good;  // rows disagrees with the matrices
  rows_mismatch.rows = 2;

  // One malformed K/V poisons its whole group, and a rejection leaves the
  // reused scratch usable.
  const auto expect_rejected = [&](const llm::TinyLM::PromptKv& bad, const std::string& what) {
    const std::vector<const std::vector<int>*> seqs{&ok, &ok};
    const std::vector<const llm::TinyLM::PromptKv*> kvs{&good, &bad};
    EXPECT_THROW((void)model.classify_batch(seqs, labels, kvs, scratch), Error) << what;
    EXPECT_THROW((void)model.last_logits_batch(seqs, kvs, scratch), Error) << what;
  };
  expect_rejected(one_block, "wrong block count");
  expect_rejected(missing_v, "K and V block counts differ");
  expect_rejected(narrow, "K block of the wrong width");
  expect_rejected(narrow_v, "V block of the wrong width");
  expect_rejected(too_many_rows, "more rows than prompt_slots");
  expect_rejected(rows_mismatch, "row count disagrees with the blocks");
  EXPECT_THROW((void)model.classify_batch({&ok}, labels, {&good, &good}, scratch), Error)
      << "kvs/seqs size mismatch";

  const Matrix too_long = Matrix::randn(5, 16, rng);
  const Matrix wrong_cols = Matrix::randn(2, 8, rng);
  EXPECT_THROW(model.prompt_kv_batch({&prompt, &too_long}, built, scratch), Error);
  EXPECT_THROW(model.prompt_kv_batch({&wrong_cols}, built, scratch), Error);

  EXPECT_EQ(model.classify_batch({&ok}, labels, {&good}, scratch)[0],
            model.classify(ok, labels, &prompt));
}

TEST(ClassifyForward, ConcurrentCallsOnSharedModel) {
  Rng rng(1805);
  const llm::TinyLmConfig cfg = random_config(32, 2, 4, rng);
  const llm::TinyLM shared_model(cfg, 91);
  const llm::TinyLM& model = shared_model;
  std::vector<Group> groups;
  for (std::size_t i = 0; i < 4; ++i) groups.emplace_back(cfg, 3 + i, rng);
  std::vector<std::vector<std::size_t>> expect;
  for (const Group& g : groups) expect.push_back(model.classify_batch(g.seqs, g.labels, g.sps));

  constexpr std::size_t kThreads = 3;
  std::vector<std::vector<std::vector<std::size_t>>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      llm::TinyLM::Scratch scratch;  // one per thread; the model is shared
      for (std::size_t round = 0; round < 5; ++round)
        for (const Group& g : groups)
          got[t].push_back(model.classify_batch(g.seqs, g.labels, g.sps, &scratch));
    });
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), 5 * groups.size());
    for (std::size_t i = 0; i < got[t].size(); ++i)
      EXPECT_EQ(got[t][i], expect[i % groups.size()]) << "thread " << t << " call " << i;
  }
}

}  // namespace
}  // namespace nvcim
