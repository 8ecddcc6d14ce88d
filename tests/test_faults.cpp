// Device-fault tolerance (PR 9): seed-driven fault injection, pristine-shadow
// scrubbing, in-place self-repair and graceful degradation.
//
//  - fault storms are deterministic: same seed + geometry => identical sets
//  - golden probes against the pristine shadow detect 100% of injected
//    stuck-at columns with zero false positives on clean columns
//  - drift is repairable: re-programming refreshes the cells and the repaired
//    columns score bit-identically to before the fault (slot-deterministic
//    noise streams)
//  - stuck columns defeat the in-place rewrite; their tenants migrate to a
//    healthy shard while untouched tenants stay bit-identical
//  - quarantined subarrays leave the placement pool permanently
//  - the engine keeps serving through a fault storm: responses are flagged
//    degraded (never failed), the background scrubber repairs in place, and
//    scrub counters land in EngineStats
//
// The engine suites run under ASan/TSan in CI (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "nvcim/cim/faults.hpp"
#include "nvcim/serve/engine.hpp"

namespace nvcim {
namespace {

// ---------------------------------------------------------------------------
// Fault-storm generation (pure).
// ---------------------------------------------------------------------------

TEST(FaultStorm, DeterministicAndInBounds) {
  cim::FaultStormConfig cfg;
  cfg.seed = 0xABCDEFull;
  cfg.column_frac = 0.10;
  const auto a = cim::generate_fault_storm(cfg, 8, 16);
  const auto b = cim::generate_fault_storm(cfg, 8, 16);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.size(), static_cast<std::size_t>(0.10 * 8 * 16));
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].subarray, b[i].subarray);
    EXPECT_EQ(a[i].column, b[i].column);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_LT(a[i].subarray, 8u);
    EXPECT_LT(a[i].column, 16u);
    // Distinct (subarray, column) pairs.
    EXPECT_TRUE(seen.insert({a[i].subarray, a[i].column}).second);
  }
  // A different seed draws a different storm.
  cfg.seed = 0x123456ull;
  const auto c = cim::generate_fault_storm(cfg, 8, 16);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < c.size(); ++i)
    differs = c[i].subarray != a[i].subarray || c[i].column != a[i].column;
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------------
// Retriever-level injection and golden probes.
// ---------------------------------------------------------------------------

std::vector<Matrix> random_keys(std::size_t n, std::size_t rows, std::size_t cols, Rng& rng) {
  std::vector<Matrix> keys;
  for (std::size_t i = 0; i < n; ++i)
    keys.push_back(Matrix::rand_uniform(rows, cols, rng, -1.0f, 1.0f));
  return keys;
}

retrieval::CimRetriever::Config fault_retriever_config() {
  retrieval::CimRetriever::Config cfg;
  cfg.crossbar.rows = 48;
  cfg.crossbar.cols = 8;
  cfg.variation = {nvm::fefet3(), 0.1};
  return cfg;
}

TEST(FaultProbe, StuckColumnsDetectedCleanColumnsSilent) {
  Rng kr(601);
  const std::vector<Matrix> keys = random_keys(12, 4, 8, kr);
  retrieval::CimRetriever ret(fault_retriever_config());
  ret.store_mutable(32, keys.size(), Rng(2027));
  ret.program_keys(0, keys);

  // Programming noise is frozen into the pristine shadow: every column
  // probes exactly clean before any fault.
  for (std::size_t c = 0; c < keys.size(); ++c)
    EXPECT_EQ(ret.probe_column(c).deviant, 0u) << "column " << c;

  const std::size_t clamped =
      ret.inject_column_fault(3, nvm::FaultKind::StuckAtOn, 2, 0xFA11ull);
  EXPECT_GT(clamped, 0u);
  EXPECT_GT(ret.probe_column(3).deviant, 0u);
  for (std::size_t c = 0; c < keys.size(); ++c) {
    if (c == 3) continue;
    EXPECT_EQ(ret.probe_column(c).deviant, 0u) << "column " << c;
  }

  // Stuck cells override writes: an in-place rewrite cannot clean them.
  ret.program_keys(3, {keys[3]});
  EXPECT_GT(ret.probe_column(3).deviant, 0u);
}

TEST(FaultProbe, DriftDetectedAndRefreshedByReprogramming) {
  Rng kr(611);
  const std::vector<Matrix> keys = random_keys(6, 4, 8, kr);
  retrieval::CimRetriever ret(fault_retriever_config());
  ret.store_mutable(32, keys.size(), Rng(2028));
  ret.program_keys(0, keys);

  ret.set_drift_rate(0.05);
  ret.advance_age(3);
  std::size_t drifted = 0;
  for (std::size_t c = 0; c < keys.size(); ++c)
    if (ret.probe_column(c).deviant > 0) ++drifted;
  EXPECT_EQ(drifted, keys.size());  // every programmed column decayed

  // Re-programming refreshes the cells (drift counts from the last write):
  // the rewritten column probes clean again.
  ret.program_keys(0, {keys[0]});
  EXPECT_EQ(ret.probe_column(0).deviant, 0u);
  EXPECT_GT(ret.probe_column(1).deviant, 0u);  // others still drifted
}

TEST(FaultProbe, KilledSubarrayDeviatesAcrossItsColumns) {
  Rng kr(621);
  const std::vector<Matrix> keys = random_keys(10, 4, 8, kr);
  retrieval::CimRetriever ret(fault_retriever_config());
  ret.store_mutable(32, keys.size(), Rng(2029));
  ret.program_keys(0, keys);

  ASSERT_GE(ret.n_subarrays(), 2u);
  const std::size_t cols = ret.cols_per_subarray();
  ret.kill_subarray(0);
  for (std::size_t c = 0; c < std::min(cols, keys.size()); ++c)
    EXPECT_GT(ret.probe_column(c).deviant, 0u) << "killed column " << c;
  for (std::size_t c = cols; c < keys.size(); ++c)
    EXPECT_EQ(ret.probe_column(c).deviant, 0u) << "surviving column " << c;
}

// ---------------------------------------------------------------------------
// Store-level scrub, repair, migration and quarantine.
// ---------------------------------------------------------------------------

serve::OvtStoreConfig fault_store_config(std::size_t shards) {
  serve::OvtStoreConfig cfg;
  cfg.n_shards = shards;
  cfg.crossbar.rows = 64;
  cfg.crossbar.cols = 16;
  cfg.variation = {nvm::fefet3(), 0.1};
  cfg.lifecycle.enabled = true;
  return cfg;
}

/// Slot-masked score matrix of one user (bit-comparison capture).
Matrix capture_user(serve::ShardedOvtStore& store, std::size_t user, const Matrix& queries) {
  const auto slot = store.slot(user);
  const Matrix y = store.shard_scores(slot.shard, queries);
  Matrix out(queries.rows(), slot.n_keys());
  for (std::size_t q = 0; q < queries.rows(); ++q)
    for (std::size_t c = 0; c < slot.n_keys(); ++c) out(q, c) = y(q, slot.begin + c);
  return out;
}

TEST(FaultScrub, DetectsEveryInjectedStuckColumn) {
  Rng kr(701);
  serve::ShardedOvtStore store(fault_store_config(2));
  for (std::size_t u = 0; u < 4; ++u) store.add_user(u, random_keys(6, 4, 8, kr));
  Rng br(31);
  store.build(br);

  // Inject a deterministic storm into occupied columns of shard 0.
  std::vector<std::size_t> occupied;
  for (std::size_t u = 0; u < 4; ++u) {
    const auto slot = store.slot(u);
    if (slot.shard != 0) continue;
    for (std::size_t c = slot.begin; c < slot.end; ++c) occupied.push_back(c);
  }
  ASSERT_GE(occupied.size(), 4u);
  std::set<std::size_t> injected;
  for (std::size_t i = 0; i < occupied.size(); i += 3) {
    const std::size_t col = occupied[i];
    const auto kind = i % 2 == 0 ? nvm::FaultKind::StuckAtOn : nvm::FaultKind::StuckAtOff;
    if (store.inject_column_fault(0, col, kind, 2, 0x5EEDull + i) > 0) injected.insert(col);
  }
  ASSERT_FALSE(injected.empty());

  // Detect-only scrub over every subarray: the union of degraded columns is
  // EXACTLY the injected set — 100% detection, zero false positives.
  std::set<std::size_t> flagged;
  for (std::size_t sub = 0; sub < store.shard_subarrays(0); ++sub) {
    const auto report = store.scrub_subarray(0, sub);
    flagged.insert(report.degraded.begin(), report.degraded.end());
    const bool hit = std::any_of(injected.begin(), injected.end(), [&](std::size_t c) {
      return c / store.cols_per_subarray() == sub;
    });
    EXPECT_EQ(report.health,
              hit ? serve::SubarrayHealth::Degraded : serve::SubarrayHealth::Healthy);
  }
  EXPECT_EQ(flagged, injected);
  EXPECT_EQ(store.degraded_columns(0), injected.size());
}

TEST(FaultRepair, DriftRepairedInPlaceBitIdentical) {
  Rng kr(711);
  serve::ShardedOvtStore store(fault_store_config(1));
  for (std::size_t u = 0; u < 3; ++u) store.add_user(u, random_keys(5, 4, 8, kr));
  Rng br(33);
  store.build(br);

  Rng qr(712);
  const Matrix queries = Matrix::randn(3, 32, qr);
  std::vector<Matrix> before;
  for (std::size_t u = 0; u < 3; ++u) before.push_back(capture_user(store, u, queries));

  // Age the device: every occupied column drifts off its pristine levels.
  store.set_drift_rate(0.05);
  store.advance_age(2);

  std::size_t degraded = 0, repaired = 0, stuck = 0;
  for (std::size_t sub = 0; sub < store.shard_subarrays(0); ++sub) {
    const auto out = store.scrub_and_repair(0, sub);
    degraded += out.columns_degraded;
    repaired += out.columns_repaired;
    stuck += out.columns_stuck;
    EXPECT_FALSE(out.quarantined);
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_EQ(repaired, degraded);  // drift is fully repairable
  EXPECT_EQ(stuck, 0u);
  EXPECT_EQ(store.degraded_columns(0), 0u);

  // Slot-deterministic noise streams: the in-place rewrite restores every
  // winner's column content bit-for-bit, not just approximately.
  for (std::size_t u = 0; u < 3; ++u) {
    const Matrix after = capture_user(store, u, queries);
    ASSERT_TRUE(before[u].same_shape(after));
    for (std::size_t i = 0; i < after.size(); ++i)
      ASSERT_EQ(before[u].at_flat(i), after.at_flat(i)) << "user " << u << " entry " << i;
  }
}

TEST(FaultRepair, StuckColumnMigratesTenantUntouchedTenantsBitIdentical) {
  Rng kr(721);
  serve::ShardedOvtStore store(fault_store_config(2));
  for (std::size_t u = 0; u < 4; ++u) store.add_user(u, random_keys(5, 4, 8, kr));
  Rng br(35);
  store.build(br);

  // Pick a victim on shard 0 and capture every OTHER tenant's scores.
  std::size_t victim = 4;
  for (std::size_t u = 0; u < 4; ++u)
    if (store.slot(u).shard == 0) {
      victim = u;
      break;
    }
  ASSERT_LT(victim, 4u);
  Rng qr(722);
  const Matrix queries = Matrix::randn(3, 32, qr);
  std::vector<std::pair<std::size_t, Matrix>> others;
  for (std::size_t u = 0; u < 4; ++u)
    if (u != victim) others.emplace_back(u, capture_user(store, u, queries));

  const auto vslot = store.slot(victim);
  ASSERT_GT(store.inject_column_fault(0, vslot.begin, nvm::FaultKind::StuckAtOn, 2, 0xDEADull),
            0u);

  const auto out = store.scrub_and_repair(0, vslot.begin / store.cols_per_subarray());
  EXPECT_GE(out.columns_degraded, 1u);
  EXPECT_EQ(out.columns_stuck, 1u);  // the rewrite cannot clean stuck cells
  ASSERT_EQ(out.migrated_users.size(), 1u);
  EXPECT_EQ(out.migrated_users[0], victim);
  EXPECT_FALSE(out.quarantined);  // one stuck column, threshold is 8

  // The victim now lives on the healthy shard and still retrieves; its
  // degraded mark is gone (nothing serves from the stuck column anymore).
  EXPECT_EQ(store.slot(victim).shard, 1u);
  (void)store.retrieve_user(victim, Matrix::randn(4, 8, kr));
  EXPECT_FALSE(store.user_degraded(victim));

  // Untouched tenants never changed a bit, on either shard.
  for (const auto& [u, ref] : others) {
    const Matrix after = capture_user(store, u, queries);
    ASSERT_TRUE(ref.same_shape(after));
    for (std::size_t i = 0; i < after.size(); ++i)
      ASSERT_EQ(ref.at_flat(i), after.at_flat(i)) << "user " << u << " entry " << i;
  }

  // The retired stuck column stays physically deviant forever, but a
  // re-scrub must come back clean: known-bad hardware already pulled from
  // the placement pool is skipped, not re-flagged (re-detection would pump
  // the subarray's stuck count toward quarantine on every pass).
  const auto verify = store.scrub_and_repair(0, vslot.begin / store.cols_per_subarray());
  EXPECT_EQ(verify.columns_degraded, 0u);
  EXPECT_EQ(verify.columns_stuck, 0u);
  EXPECT_EQ(store.degraded_columns(0), 0u);
}

TEST(FaultQuarantine, QuarantinedSubarrayExcludedFromPlacement) {
  Rng kr(731);
  serve::ShardedOvtStore store(fault_store_config(1));
  // 8 users × 4 keys occupy two whole subarrays; the 1.5× capacity factor
  // provisions a third, fully free one — the quarantine target.
  for (std::size_t u = 0; u < 8; ++u) store.add_user(u, random_keys(4, 4, 8, kr));
  Rng br(37);
  store.build(br);

  // Retire the last provisioned subarray, then admit more tenants than the
  // remaining space strictly needs: no slot may touch the retired range.
  const std::size_t sub = store.shard_subarrays(0) - 1;
  ASSERT_GE(sub, 1u);  // capacity headroom provisions > 1 subarray
  store.quarantine_subarray(0, sub);
  EXPECT_TRUE(store.subarray_quarantined(0, sub));
  EXPECT_EQ(store.subarray_health(0, sub), serve::SubarrayHealth::Failed);

  const std::size_t q_begin = sub * store.cols_per_subarray();
  const std::size_t q_end = q_begin + store.cols_per_subarray();
  for (std::size_t u = 10; u <= 13; ++u) {
    store.admit_user(u, random_keys(4, 4, 8, kr));
    const auto slot = store.slot(u);
    EXPECT_TRUE(slot.end <= q_begin || slot.begin >= q_end)
        << "user " << u << " slot [" << slot.begin << ", " << slot.end
        << ") overlaps quarantined [" << q_begin << ", " << q_end << ")";
  }
  // A killed subarray's tenants migrate nowhere on a single shard, but the
  // quarantine itself holds: future placement skips it permanently.
  EXPECT_TRUE(store.subarray_quarantined(0, sub));
}

TEST(FaultQuarantine, KilledSubarrayCrossesThresholdAndQuarantines) {
  Rng kr(741);
  serve::ShardedOvtStore store(fault_store_config(2));
  for (std::size_t u = 0; u < 4; ++u) store.add_user(u, random_keys(6, 4, 8, kr));
  Rng br(39);
  store.build(br);

  // Kill subarray 0 of shard 0 outright: every occupied column sticks at
  // zero. Repair cannot rescue killed cells, tenants migrate off, and the
  // subarray crosses the quarantine threshold in one pass.
  store.kill_subarray(0, 0);
  serve::ScrubPolicy policy;
  policy.quarantine_after = 2;
  const auto out = store.scrub_and_repair(0, 0, policy);
  EXPECT_GE(out.columns_stuck, 2u);
  EXPECT_TRUE(out.quarantined);
  EXPECT_EQ(out.health, serve::SubarrayHealth::Failed);
  EXPECT_TRUE(store.subarray_quarantined(0, 0));

  // Every tenant that lived there migrated to the healthy shard and still
  // answers queries.
  for (const std::size_t u : out.migrated_users) {
    EXPECT_EQ(store.slot(u).shard, 1u);
    (void)store.retrieve_user(u, Matrix::randn(4, 8, kr));
  }
  // A quarantined subarray scrubs as a no-op afterwards.
  const auto again = store.scrub_and_repair(0, 0, policy);
  EXPECT_EQ(again.columns_probed, 0u);
  EXPECT_EQ(again.health, serve::SubarrayHealth::Failed);
}

// ---------------------------------------------------------------------------
// Engine-level: serving through a fault storm (threaded; ASan/TSan in CI).
// ---------------------------------------------------------------------------

llm::TinyLM fault_model(std::size_t vocab, std::uint64_t seed) {
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

struct FaultEngineFixture {
  data::LampTask task{data::lamp1_config()};
  llm::TinyLM model;
  std::shared_ptr<const compress::Autoencoder> autoencoder;

  FaultEngineFixture() : model(fault_model(task.vocab_size(), 23)) {
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
    Rng rng(6000 + user);
    for (std::size_t k = 0; k < n_keys; ++k) {
      d.keys.push_back(Matrix::rand_uniform(4, 24, rng, -1.0f, 1.0f));
      d.stored_codes.push_back(Matrix::rand_uniform(4, 24, rng, -1.0f, 1.0f));
      d.domains.push_back(k);
    }
    return d;
  }

  serve::ServingConfig config(std::size_t shards, std::size_t threads, std::size_t batch) {
    serve::ServingConfig cfg;
    cfg.n_shards = shards;
    cfg.n_threads = threads;
    cfg.max_batch = batch;
    cfg.crossbar.rows = 96;
    cfg.crossbar.cols = 32;
    cfg.variation = {nvm::fefet3(), 0.1};
    cfg.lifecycle.enabled = true;
    cfg.seed = 2026;
    return cfg;
  }

  data::Sample query(Rng& rng) {
    return task.sample(rng.uniform_index(task.config().n_domains), rng);
  }
};

TEST(FaultEngine, ServesThroughFaultStormWithBackgroundScrubber) {
  FaultEngineFixture f;
  serve::ServingConfig cfg = f.config(2, 3, 8);
  cfg.scrubber.enabled = true;
  cfg.scrubber.interval_ms = 2.0;
  cfg.scrubber.subarrays_per_round = 0;  // whole fleet per round
  serve::ServingEngine engine(f.model, f.task, cfg);
  for (std::size_t u = 0; u < 4; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();

  // Reference answers before the storm, through the serial path.
  Rng qr(801);
  std::vector<data::Sample> probes;
  std::vector<std::size_t> expected;
  for (int t = 0; t < 4; ++t) {
    probes.push_back(f.query(qr));
    expected.push_back(engine.retrieve_serial(0, probes.back()));
  }

  // Storm: age the whole device (repairable drift on every column).
  engine.store_mutable().set_drift_rate(0.05);
  engine.store_mutable().advance_age(2);
  // Scrub passes count per subarray, and a round may already be in flight:
  // only 2 × (subarrays) passes past this point guarantee a whole round
  // that started after the storm, so convergence below is not judged on
  // probes that predate the drift.
  std::size_t units = 0;
  for (std::size_t s = 0; s < engine.store().n_shards(); ++s)
    units += engine.store().shard_subarrays(s);
  const std::size_t passes_at_storm = engine.stats().scrub_passes;

  // Serve straight through it. No request may fail; any answer computed
  // before the scrubber's repair lands is flagged degraded, not dropped.
  std::vector<std::future<serve::Response>> futures;
  for (int t = 0; t < 24; ++t)
    futures.push_back(
        engine.submit(serve::Request{static_cast<std::size_t>(t) % 4, f.query(qr)}).take_future());
  for (auto& fu : futures) {
    const serve::Response r = fu.get();
    EXPECT_LT(r.user_id, 4u);
  }

  // The background scrubber converges: all degraded columns repaired.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    bool clean = true;
    for (std::size_t s = 0; s < engine.store().n_shards(); ++s)
      clean = clean && engine.store().degraded_columns(s) == 0;
    if (clean && engine.stats().scrub_passes >= passes_at_storm + 2 * units) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::size_t s = 0; s < engine.store().n_shards(); ++s)
    EXPECT_EQ(engine.store().degraded_columns(s), 0u) << "shard " << s;

  const serve::StatsSnapshot st = engine.stats();
  EXPECT_GT(st.scrub_passes, 0u);
  EXPECT_GT(st.scrub_columns_probed, 0u);
  EXPECT_GT(st.columns_degraded, 0u);
  EXPECT_EQ(st.columns_repaired, st.columns_degraded);  // drift: all repairable
  EXPECT_EQ(st.columns_stuck, 0u);
  EXPECT_EQ(st.subarrays_quarantined, 0u);

  // Repair restored pristine content: the serial path answers exactly as
  // before the storm.
  for (std::size_t t = 0; t < probes.size(); ++t)
    EXPECT_EQ(engine.retrieve_serial(0, probes[t]), expected[t]) << "probe " << t;
  engine.stop();
}

TEST(FaultEngine, ManualScrubRepairsStuckColumnByMigration) {
  FaultEngineFixture f;
  serve::ServingConfig cfg = f.config(2, 2, 8);
  serve::ServingEngine engine(f.model, f.task, cfg);
  for (std::size_t u = 0; u < 4; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();

  // Stick a column under some tenant on shard 0.
  std::size_t victim = 4;
  for (std::size_t u = 0; u < 4; ++u)
    if (engine.store().slot(u).shard == 0) {
      victim = u;
      break;
    }
  ASSERT_LT(victim, 4u);
  const auto vslot = engine.store().slot(victim);
  ASSERT_GT(engine.store_mutable().inject_column_fault(0, vslot.begin,
                                                       nvm::FaultKind::StuckAtOn, 2, 0xF00Dull),
            0u);

  // While degraded and unrepaired, the victim's responses carry the flag.
  engine.store_mutable().scrub_subarray(0, vslot.begin / engine.store().cols_per_subarray());
  ASSERT_TRUE(engine.store().user_degraded(victim));
  Rng qr(811);
  const serve::Response degraded_resp = engine.submit(serve::Request{victim, f.query(qr)}).get();
  EXPECT_TRUE(degraded_resp.degraded);
  EXPECT_GT(engine.stats().degraded_responses, 0u);

  // One synchronous scrub pass: repair fails (stuck), the tenant migrates,
  // and the flag clears.
  const serve::ScrubOutcome out = engine.scrub_now();
  EXPECT_GE(out.columns_stuck, 1u);
  ASSERT_EQ(out.migrated_users.size(), 1u);
  EXPECT_EQ(out.migrated_users[0], victim);
  EXPECT_EQ(engine.store().slot(victim).shard, 1u);
  EXPECT_FALSE(engine.store().user_degraded(victim));
  const serve::Response healthy_resp = engine.submit(serve::Request{victim, f.query(qr)}).get();
  EXPECT_FALSE(healthy_resp.degraded);

  const serve::StatsSnapshot st = engine.stats();
  EXPECT_GT(st.scrub_passes, 0u);
  EXPECT_GE(st.columns_stuck, 1u);
  EXPECT_GE(st.scrub_migrations, 1u);
  engine.stop();
}

}  // namespace
}  // namespace nvcim
