#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "nvcim/data/lamp.hpp"

namespace nvcim::data {

// gtest appends the printed parameter to each LampTaskParam test name; without
// this it prints a raw byte dump whose std::string pointer bytes change from
// run to run, so the names would not be stable.
void PrintTo(const LampConfig& config, std::ostream* os) { *os << config.name; }

namespace {

TEST(LampConfigs, FiveBenchmarks) {
  const auto all = all_lamp_configs();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0].name, "LaMP-1");
  EXPECT_EQ(all[0].kind, TaskKind::Classification);
  EXPECT_EQ(all[0].n_labels, 2u);
  EXPECT_EQ(all[2].n_labels, 5u);  // rating task
  EXPECT_EQ(all[3].kind, TaskKind::Generation);
  EXPECT_EQ(all[4].kind, TaskKind::Generation);
}

TEST(LampTask, VocabularyIsFrozenAndSized) {
  LampTask task(lamp1_config());
  EXPECT_TRUE(task.tokenizer().frozen());
  // 5 specials + 6 dom + 6 cue + 12 content + 2 labels
  EXPECT_EQ(task.vocab_size(), 31u);
  EXPECT_EQ(task.label_ids().size(), 2u);
}

TEST(LampTask, GenerationTaskHasNoLabels) {
  LampTask task(lamp5_config());
  EXPECT_TRUE(task.label_ids().empty());
}

TEST(LampTask, SampleStructure) {
  LampTask task(lamp1_config());
  Rng rng(1);
  const Sample s = task.sample(2, rng);
  // [bos, cue, cue, w, w, sep]
  ASSERT_EQ(s.input.size(), 6u);
  EXPECT_EQ(s.input.front(), task.tokenizer().bos_id());
  EXPECT_EQ(s.input[1], s.input[2]);  // repeated cue
  EXPECT_EQ(s.input.back(), task.tokenizer().sep_id());
  EXPECT_EQ(s.domain, 2u);
  EXPECT_GE(s.label, 0);
  EXPECT_LT(s.label, 2);
  EXPECT_EQ(s.completion.back(), task.eos_id());
  EXPECT_TRUE(s.example.prefix_tokens.empty());  // user samples carry no context
}

TEST(LampTask, ExplicitDomainGoesToPrefix) {
  LampTask task(lamp1_config());
  Rng rng(2);
  const Sample s = task.sample(3, rng, /*explicit_domain=*/true);
  ASSERT_FALSE(s.example.prefix_tokens.empty());
  EXPECT_LE(s.example.prefix_tokens.size(), 3u);
  // All prefix tokens are the same domain token.
  for (int t : s.example.prefix_tokens) EXPECT_EQ(t, s.example.prefix_tokens[0]);
}

TEST(LampTask, LabelDependsOnDomain) {
  // Same RNG stream replayed for two domains must give different labels for
  // at least some content (the domain-conditional mapping).
  LampTask task(lamp1_config());
  int diffs = 0;
  for (int i = 0; i < 32; ++i) {
    Rng r1(100 + i), r2(100 + i);
    const Sample a = task.sample(0, r1);
    const Sample b = task.sample(1, r2);
    if (a.label != b.label) ++diffs;
  }
  EXPECT_GT(diffs, 8);
}

TEST(LampTask, CueIsSharedBetweenAdjacentDomains) {
  LampTask task(lamp1_config());
  // Collect cue tokens per domain over many draws; adjacent domains must
  // overlap in exactly one cue.
  std::vector<std::set<int>> cues(6);
  Rng rng(7);
  for (std::size_t d = 0; d < 6; ++d)
    for (int i = 0; i < 64; ++i) cues[d].insert(task.sample(d, rng).input[1]);
  for (std::size_t d = 0; d < 6; ++d) {
    EXPECT_EQ(cues[d].size(), 2u);
    std::set<int> inter;
    for (int c : cues[d])
      if (cues[(d + 1) % 6].count(c)) inter.insert(c);
    EXPECT_EQ(inter.size(), 1u) << "domains " << d << " and " << (d + 1) % 6;
  }
}

TEST(LampTask, GenerationCompletionLength) {
  LampTask task(lamp5_config());
  Rng rng(3);
  const Sample s = task.sample(1, rng);
  EXPECT_EQ(s.completion.size(), task.config().gen_len + 1);  // + eos
  EXPECT_EQ(s.label, -1);
}

TEST(LampTask, GenerationOutputDependsOnDomain) {
  LampTask task(lamp5_config());
  int diffs = 0;
  for (int i = 0; i < 32; ++i) {
    Rng r1(200 + i), r2(200 + i);
    const Sample a = task.sample(0, r1);
    const Sample b = task.sample(2, r2);
    if (a.completion != b.completion) ++diffs;
  }
  EXPECT_GT(diffs, 16);
}

TEST(LampTask, ReferenceWordsStripEos) {
  LampTask task(lamp5_config());
  Rng rng(4);
  const Sample s = task.sample(0, rng);
  const auto ref = LampTask::reference_words(s);
  EXPECT_EQ(ref.size(), s.completion.size() - 1);
}

TEST(LampTask, PretrainingCorpusMixesContexts) {
  LampTask task(lamp1_config());
  const auto corpus = task.pretraining_corpus(200, 9);
  ASSERT_EQ(corpus.size(), 200u);
  int with_ctx = 0;
  for (const auto& ex : corpus)
    if (!ex.prefix_tokens.empty()) ++with_ctx;
  // explicit_domain_frac defaults to 0.7
  EXPECT_GT(with_ctx, 100);
  EXPECT_LT(with_ctx, 180);
}

TEST(LampTask, UserStreamHasDomainShift) {
  LampTask task(lamp1_config());
  const UserData u = task.make_user(0, 25, 10);
  EXPECT_EQ(u.train.size(), 25u);
  EXPECT_EQ(u.test.size(), 10u);
  EXPECT_EQ(u.domains.size(), task.config().domains_per_user);

  // Blocks of shift_block samples share a domain; at least one shift occurs.
  const std::size_t block = task.config().shift_block;
  int shifts = 0;
  for (std::size_t i = 1; i < u.train.size(); ++i) {
    if (u.train[i].domain != u.train[i - 1].domain) {
      ++shifts;
      EXPECT_EQ(i % block, 0u) << "shift inside a block at " << i;
    }
  }
  EXPECT_GT(shifts, 0);

  // All samples come from the user's domain set.
  std::set<std::size_t> dset(u.domains.begin(), u.domains.end());
  for (const Sample& s : u.train) EXPECT_TRUE(dset.count(s.domain));
  for (const Sample& s : u.test) EXPECT_TRUE(dset.count(s.domain));
}

TEST(LampTask, UsersAreDeterministicAndDistinct) {
  LampTask task(lamp1_config());
  const UserData a1 = task.make_user(1, 10, 5);
  const UserData a2 = task.make_user(1, 10, 5);
  EXPECT_EQ(a1.train[0].input, a2.train[0].input);
  const UserData b = task.make_user(2, 10, 5);
  bool differs = a1.domains != b.domains;
  for (std::size_t i = 0; !differs && i < 10; ++i)
    differs = a1.train[i].input != b.train[i].input;
  EXPECT_TRUE(differs);
}

TEST(DataBuffer, FillsAndReportsFull) {
  LampTask task(lamp1_config());
  Rng rng(5);
  DataBuffer buf(3);
  EXPECT_FALSE(buf.full());
  EXPECT_FALSE(buf.push(task.sample(0, rng)));
  EXPECT_FALSE(buf.push(task.sample(0, rng)));
  EXPECT_TRUE(buf.push(task.sample(1, rng)));
  EXPECT_TRUE(buf.full());
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_THROW(buf.push(task.sample(1, rng)), Error);
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
}

TEST(DataBuffer, ZeroCapacityRejected) { EXPECT_THROW(DataBuffer(0), Error); }

class LampTaskParam : public ::testing::TestWithParam<LampConfig> {};

TEST_P(LampTaskParam, SamplesAreWellFormedAcrossDomains) {
  LampTask task(GetParam());
  Rng rng(11);
  for (std::size_t d = 0; d < task.config().n_domains; ++d) {
    const Sample s = task.sample(d, rng);
    EXPECT_EQ(s.example.tokens.size(), s.example.targets.size());
    // At least one trained target position.
    bool has_target = false;
    for (int t : s.example.targets) has_target |= t >= 0;
    EXPECT_TRUE(has_target);
    if (task.config().kind == TaskKind::Classification) {
      EXPECT_GE(s.label, 0);
      EXPECT_LT(s.label, static_cast<int>(task.config().n_labels));
    } else {
      EXPECT_EQ(s.label, -1);
      EXPECT_EQ(s.completion.size(), task.config().gen_len + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTasks, LampTaskParam,
                         ::testing::ValuesIn(all_lamp_configs()),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

}  // namespace
}  // namespace nvcim::data
