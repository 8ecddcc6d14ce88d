// Serving-engine throughput harness: requests/sec of the multi-tenant
// nvcim::serve::ServingEngine as a function of retrieval batch size and
// worker-thread count, an encode-bound scenario exercising the staged
// batched encode pipeline (cross-user fused autoencoder GEMMs), a
// retrieval-bound scenario with per-shard fan-out across the worker pool,
// a crossbar-kernel microbench, a fault-storm
// scrub/self-repair scenario, and a microbench of batched vs per-query
// retrieval. Results are also emitted as machine-readable BENCH_serve.json
// so the perf trajectory accumulates across PRs (CI gates regressions
// against it).
//
// Deployments are synthetic (untrained autoencoder, random keys): the bench
// exercises the serving data path — encode, sharded crossbar search, decode,
// cache — not task accuracy. Scale via NVCIM_SERVE_REQUESTS / NVCIM_SERVE_USERS.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "nvcim/serve/engine.hpp"

using namespace nvcim;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Knobs that shape where the per-request cost lands.
struct WorkloadConfig {
  std::size_t d_model = 16;
  std::size_t code_dim = 24;
  std::size_t n_virtual_tokens = 4;
  std::size_t ae_hidden = 64;
  std::size_t keys_per_user = 6;
  std::size_t crossbar_rows = 96;
  std::size_t crossbar_cols = 32;
  /// >0: each user's keys are noisy copies of this many separated
  /// prototypes (the paper's domain-clustered OVTs) instead of i.i.d.
  /// uniform — the structure the two-phase router exploits.
  std::size_t key_protos = 0;
};

struct Workload {
  data::LampTask task{data::lamp1_config()};
  WorkloadConfig wcfg;
  llm::TinyLM model;
  std::size_t n_users;
  /// One autoencoder shared by every user (a platform-provided encoder):
  /// the engine fuses the whole batch into one encode GEMM per pass.
  std::shared_ptr<const compress::Autoencoder> autoencoder;
  std::vector<std::pair<std::size_t, data::Sample>> requests;

  Workload(WorkloadConfig wc, std::size_t users, std::size_t n_requests)
      : wcfg(wc), model(make_model()), n_users(users) {
    compress::AutoencoderConfig acfg;
    acfg.input_dim = wcfg.d_model;
    acfg.code_dim = wcfg.code_dim;
    acfg.hidden_dim = wcfg.ae_hidden;
    autoencoder = std::make_shared<const compress::Autoencoder>(acfg);
    Rng rng(42);
    for (std::size_t i = 0; i < n_requests; ++i) {
      const std::size_t u = rng.uniform_index(n_users);
      requests.emplace_back(u, task.sample(rng.uniform_index(task.config().n_domains), rng));
    }
  }

  llm::TinyLM make_model() {
    llm::TinyLmConfig cfg;
    cfg.vocab = task.vocab_size();
    cfg.d_model = wcfg.d_model;
    cfg.n_layers = 1;
    cfg.n_heads = 2;
    cfg.ffn_hidden = 2 * wcfg.d_model;
    cfg.max_seq = 40;
    cfg.prompt_slots = 8;
    return llm::TinyLM(cfg, 7);
  }

  /// `keys_mult` scales the key count (churn bench admits oversized hot
  /// tenants so the rebalancer actually has load skew to migrate away).
  core::TrainedDeployment make_deployment(std::size_t user, std::size_t keys_mult = 1) {
    core::TrainedDeployment d;
    d.autoencoder = autoencoder;
    d.n_virtual_tokens = wcfg.n_virtual_tokens;
    Rng rng(1000 + user);
    std::vector<Matrix> protos;
    for (std::size_t p = 0; p < wcfg.key_protos; ++p)
      protos.push_back(
          Matrix::rand_uniform(wcfg.n_virtual_tokens, wcfg.code_dim, rng, -1.0f, 1.0f));
    for (std::size_t k = 0; k < wcfg.keys_per_user * keys_mult; ++k) {
      if (protos.empty()) {
        d.keys.push_back(
            Matrix::rand_uniform(wcfg.n_virtual_tokens, wcfg.code_dim, rng, -1.0f, 1.0f));
      } else {
        Matrix key = protos[k % protos.size()];
        key += Matrix::randn(wcfg.n_virtual_tokens, wcfg.code_dim, rng, 0.08f);
        d.keys.push_back(key);
      }
      d.stored_codes.push_back(
          Matrix::rand_uniform(wcfg.n_virtual_tokens, wcfg.code_dim, rng, -1.0f, 1.0f));
      d.domains.push_back(k);
    }
    return d;
  }

  serve::ServingConfig engine_config(std::size_t shards, std::size_t threads,
                                     std::size_t batch) const {
    serve::ServingConfig cfg;
    cfg.n_shards = shards;
    cfg.n_threads = threads;
    cfg.max_batch = batch;
    cfg.queue_capacity = 128;
    cfg.cache_capacity = 48;
    cfg.crossbar.rows = wcfg.crossbar_rows;
    cfg.crossbar.cols = wcfg.crossbar_cols;
    cfg.variation = {nvm::fefet3(), 0.1};
    return cfg;
  }
};

double run_engine_cfg(Workload& w, serve::ServingConfig cfg, serve::StatsSnapshot* out_stats) {
  serve::ServingEngine engine(w.model, w.task, cfg);
  for (std::size_t u = 0; u < w.n_users; ++u)
    engine.add_deployment(u, w.make_deployment(u));
  engine.start();

  const double t0 = now_ms();
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(w.requests.size());
  for (const auto& [u, q] : w.requests)
    futures.push_back(engine.submit(serve::Request{u, q}).take_future());
  for (auto& f : futures) f.get();
  const double elapsed_ms = now_ms() - t0;
  if (out_stats != nullptr) *out_stats = engine.stats();
  engine.stop();
  return 1000.0 * static_cast<double>(w.requests.size()) / elapsed_ms;
}

/// Best-of-two passes of one engine configuration (first pass warms caches;
/// keeping the faster run makes reported speedups conservative both ways).
double best_of_two(Workload& w, const serve::ServingConfig& cfg, serve::StatsSnapshot* stats) {
  double rps = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    serve::StatsSnapshot pass_stats;
    const double pass_rps = run_engine_cfg(w, cfg, &pass_stats);
    if (pass_rps > rps) {
      rps = pass_rps;
      if (stats != nullptr) *stats = pass_stats;
    }
  }
  return rps;
}

/// Closed-loop variant: requests are submitted in waves of `wave` and each
/// wave is awaited before the next, so exactly one batch is in flight. This
/// measures per-batch (latency-path) behaviour — the regime where the
/// retrieve stage's per-shard fan-out across idle workers shows up as
/// wall-clock, not just as throughput under saturation. Best of two passes
/// (stats/rps keep the faster pass); `indices`, when non-null, collects
/// every request's retrieved OVT index from the first pass (deterministic
/// across passes).
double waves_with_indices(Workload& w, const serve::ServingConfig& cfg, std::size_t wave,
                          serve::StatsSnapshot* stats, std::vector<std::size_t>* indices) {
  double rps = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    serve::ServingEngine engine(w.model, w.task, cfg);
    for (std::size_t u = 0; u < w.n_users; ++u)
      engine.add_deployment(u, w.make_deployment(u));
    engine.start();
    const double t0 = now_ms();
    std::vector<std::future<serve::Response>> futures;
    std::vector<std::size_t> got;
    got.reserve(w.requests.size());
    for (std::size_t start = 0; start < w.requests.size(); start += wave) {
      const std::size_t stop = std::min(start + wave, w.requests.size());
      futures.clear();
      for (std::size_t i = start; i < stop; ++i)
        futures.push_back(
            engine.submit(serve::Request{w.requests[i].first, w.requests[i].second}).take_future());
      for (auto& f : futures) got.push_back(f.get().ovt_index);
    }
    const double elapsed_ms = now_ms() - t0;
    const double pass_rps = 1000.0 * static_cast<double>(w.requests.size()) / elapsed_ms;
    if (pass == 0 && indices != nullptr) *indices = std::move(got);
    if (pass_rps > rps) {
      rps = pass_rps;
      if (stats != nullptr) *stats = engine.stats();
    }
    engine.stop();
  }
  return rps;
}

/// Two-phase retrieval pruning sweep: a retrieval-bound, domain-clustered
/// workload served exactly (two-phase off — the PR 3 path) and then at
/// nprobe ∈ {all, 4, 2, 1}. Each point reports recall@1 against the exact
/// run's indices, the retrieve-stage speedup and the pruned fraction of
/// exact crossbar work. nprobe = all is bit-identical to the exact run by
/// construction (recall exactly 1.0) while still skipping other tenants'
/// key columns — the headline point is the fastest sweep entry with
/// recall@1 ≥ 0.95.
void bench_two_phase(FILE* json, std::size_t n_requests, std::size_t n_users) {
  WorkloadConfig wc;
  wc.d_model = 16;
  wc.code_dim = 24;
  wc.n_virtual_tokens = 4;
  wc.ae_hidden = 32;
  wc.keys_per_user = 48;
  wc.crossbar_rows = 384;  // the paper's subarray geometry
  wc.crossbar_cols = 128;
  wc.key_protos = 6;  // domain-clustered OVT keys
  Workload w(wc, n_users, n_requests);

  const std::size_t shards = 4, threads = 4, batch = 16;
  std::printf("\n-- two-phase retrieval sweep (48 keys/user, %zu prototypes, %zu users, "
              "%zu requests, %zu shards, B=%zu) --\n",
              wc.key_protos, n_users, n_requests, shards, batch);
  std::fprintf(json,
               "  \"two_phase\": {\"users\": %zu, \"requests\": %zu, \"shards\": %zu, "
               "\"threads\": %zu, \"batch\": %zu,\n",
               n_users, n_requests, shards, threads, batch);

  serve::ServingConfig common = w.engine_config(shards, threads, batch);
  common.min_batch = batch;
  common.batch_window_ms = 50.0;

  // Exact reference: slot-scoped exact retrieval (each row scores its whole
  // slot), so the sweep isolates what the router prunes inside the slot.
  serve::StatsSnapshot es;
  std::vector<std::size_t> exact_idx;
  const double exact_rps = waves_with_indices(w, common, batch, &es, &exact_idx);
  std::printf("  %-12s %10.0f req/s   retrieve %8.1f ms   (recall 1.000 by definition)\n",
              "exact", exact_rps, es.retrieve_ms);
  std::fprintf(json, "    \"exact_rps\": %.0f, \"exact_retrieve_ms\": %.2f,\n", exact_rps,
               es.retrieve_ms);

  struct Point {
    std::size_t nprobe;
    double recall, retrieve_ms, speedup, pruned, rps, sampled;
  };
  std::vector<Point> points;
  std::fprintf(json, "    \"sweep\": [\n");
  for (const std::size_t nprobe : {0u, 4u, 2u, 1u}) {
    serve::ServingConfig cfg = common;
    cfg.two_phase.enabled = true;
    cfg.two_phase.nprobe = nprobe;
    // Production-default recall sampling stays on (every 16th routed pass
    // reruns slot-scoped exact scoring), so timings include the telemetry
    // the knob ships with; recall@1 below is computed exactly against the
    // reference run's indices, not sampled.
    serve::StatsSnapshot s;
    std::vector<std::size_t> idx;
    const double rps = waves_with_indices(w, cfg, batch, &s, &idx);
    std::size_t matches = 0;
    for (std::size_t i = 0; i < exact_idx.size(); ++i)
      if (idx[i] == exact_idx[i]) ++matches;
    Point p;
    p.nprobe = nprobe;
    p.recall = static_cast<double>(matches) / static_cast<double>(exact_idx.size());
    p.retrieve_ms = s.retrieve_ms;
    p.speedup = es.retrieve_ms / s.retrieve_ms;
    p.pruned = s.pruned_fraction;
    p.rps = rps;
    p.sampled = s.sampled_recall_at1;
    points.push_back(p);
    std::printf("  nprobe=%-5s %10.0f req/s   retrieve %8.1f ms   recall@1 %.3f   "
                "stage %.2fx   pruned %4.1f%%\n",
                nprobe == 0 ? "all" : std::to_string(nprobe).c_str(), rps, s.retrieve_ms,
                p.recall, p.speedup, 100.0 * p.pruned);
    std::fprintf(json,
                 "%s      {\"nprobe\": %zu, \"recall\": %.4f, \"retrieve_ms\": %.2f, "
                 "\"pruned_fraction\": %.3f, \"rps\": %.0f}",
                 points.size() == 1 ? "" : ",\n", nprobe, p.recall, p.retrieve_ms, p.pruned,
                 rps);
  }
  std::fprintf(json, "\n    ],\n");

  // Headline: fastest sweep point that keeps recall@1 >= 0.95 (the CI gate
  // enforces the floor so the perf gate cannot reward silently lossy
  // retrieval).
  const Point* best = nullptr;
  for (const Point& p : points)
    if (p.recall >= 0.95 && (best == nullptr || p.speedup > best->speedup)) best = &p;
  if (best == nullptr) best = &points.front();  // nprobe = all: recall 1.0
  // The headline re-picks a compliant point every run, so its recall can
  // never fall below the CI floor by construction; the *default* nprobe's
  // recall is the falsifiable quality signal (the configuration users get
  // out of the box) — emitted separately and floored by the gate.
  const std::size_t default_nprobe = serve::TwoPhaseConfig{}.nprobe;
  double default_recall = points.front().recall;
  for (const Point& p : points)
    if (p.nprobe == default_nprobe) default_recall = p.recall;
  std::printf("  headline: nprobe=%s — retrieve stage %.2fx vs exact at recall@1 %.3f "
              "(%.0f%% of exact work pruned)\n",
              best->nprobe == 0 ? "all" : std::to_string(best->nprobe).c_str(), best->speedup,
              best->recall, 100.0 * best->pruned);
  std::fprintf(json,
               "    \"best_nprobe\": %zu, \"recall_at1\": %.4f, "
               "\"default_recall_at1\": %.4f,\n"
               "    \"retrieve_stage_speedup_b16\": %.2f, \"rps_speedup_b16\": %.2f,\n"
               "    \"pruned_fraction\": %.3f, \"sampled_recall\": %.4f\n  },\n",
               best->nprobe, best->recall, default_recall, best->speedup,
               best->rps / exact_rps, best->pruned, best->sampled);
}

/// Churn scenario: a steady admit/evict mix (plus periodic rebalance cycles)
/// riding on top of B=16 serving traffic, against the same engine serving
/// the same traffic with zero churn. Admissions run write-behind: admit
/// returns once the slot is staged, the column programming overlaps the
/// next wave of traffic as worker aux tasks, and the hot tenant takes over
/// serving one wave later (after an AdmissionHandle::wait() join that is usually a
/// no-op by then). Reports the p95 latency impact as a ratio (churn p95 /
/// steady p95, gate ceiling 1.25×) and the throughput collapse as
/// churn_slowdown = steady_rps / churn_rps (gate ceiling 5×; it was 6.3×
/// with synchronous caller-thread programming on a multi-core host, and a
/// single-core host floors at the programming/serving CPU ratio of
/// ~3.3-3.7× no matter how the work is scheduled). Lifecycle + two-phase are
/// on in BOTH passes, so the ratios isolate the churn operations, not the
/// subsystem's bookkeeping. Also times the cold store build (build_ms).
void bench_churn(FILE* json, std::size_t n_requests, std::size_t n_users) {
  WorkloadConfig wc;
  wc.d_model = 16;
  wc.code_dim = 24;
  wc.n_virtual_tokens = 4;
  wc.ae_hidden = 32;
  wc.keys_per_user = 48;
  wc.crossbar_rows = 384;  // the paper's subarray geometry
  wc.crossbar_cols = 128;
  wc.key_protos = 6;  // clustered keys: admits exercise a real router refresh
  Workload w(wc, n_users, n_requests);

  const std::size_t shards = 4, threads = 4, batch = 16;
  std::printf("\n-- churn scenario (admit/evict mix + rebalance at B=%zu, %zu users, "
              "%zu requests, %zu shards) --\n",
              batch, n_users, n_requests, shards);
  std::fprintf(json,
               "  \"churn\": {\"users\": %zu, \"requests\": %zu, \"shards\": %zu, "
               "\"threads\": %zu, \"batch\": %zu,\n",
               n_users, n_requests, shards, threads, batch);

  serve::ServingConfig cfg = w.engine_config(shards, threads, batch);
  cfg.min_batch = batch;
  cfg.batch_window_ms = 50.0;
  cfg.lifecycle.enabled = true;
  cfg.lifecycle.write_behind = true;  // admissions program as worker aux tasks
  // The admit cadence may outrun programming on slow machines; never let
  // the measured loop block on the staged-admission bound.
  cfg.lifecycle.max_pending_admissions = 16;
  cfg.two_phase.enabled = true;       // router refresh is part of the admit cost

  // Cold-build timing (per-(subarray, tile) span programming), best of two.
  double build_ms = 1e300;
  for (int pass = 0; pass < 2; ++pass) {
    serve::ServingEngine engine(w.model, w.task, cfg);
    for (std::size_t u = 0; u < w.n_users; ++u)
      engine.add_deployment(u, w.make_deployment(u));
    const double t0 = now_ms();
    engine.start();  // builds the sharded store
    build_ms = std::min(build_ms, now_ms() - t0);
    engine.stop();
  }
  std::printf("  cold build: %.1f ms\n", build_ms);

  // `churn_every` = admit one new tenant per this many waves (write-behind,
  // overlapped with the wave's traffic); the following wave joins the
  // admission, evicts the previous churned tenant and redirects traffic to
  // the fresh one. Every 4th wave also runs a rebalance cycle.
  const auto run_pass = [&](bool churn, serve::StatsSnapshot* stats) {
    serve::ServingEngine engine(w.model, w.task, cfg);
    for (std::size_t u = 0; u < w.n_users; ++u)
      engine.add_deployment(u, w.make_deployment(u));
    engine.start();
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    const std::size_t churn_every = 2;
    std::size_t wave_id = 0, churned = 0;
    std::size_t live_churn_user = npos;
    std::deque<serve::AdmissionHandle> pending_churn;  // staged, not yet taking traffic
    const double t0 = now_ms();
    std::vector<std::future<serve::Response>> futures;
    for (std::size_t start = 0; start < w.requests.size(); start += batch) {
      if (churn && wave_id % churn_every == 0) {
        // Oversized "hot tenant" admits (2× keys) skew shard loads, so the
        // periodic rebalance cycles have real migrations to run. The admit
        // returns once the slot is staged; its column programming runs
        // behind the following waves' serving traffic.
        const std::size_t fresh = 100000 + churned++;
        pending_churn.push_back(engine.admit(fresh, w.make_deployment(fresh, /*keys_mult=*/2)));
        if (churned % 2 == 0) (void)engine.rebalance();
      }
      if (churn && !pending_churn.empty() &&
          engine.store().user_live(pending_churn.front().user_id())) {
        // The write-behind programming settled behind earlier waves
        // (checked without blocking — traffic never stalls on an admission):
        // join the residual bookkeeping, retire the previous hot tenant and
        // hand the traffic slot to the fresh one.
        pending_churn.front().wait();
        if (live_churn_user != npos) engine.evict_user(live_churn_user);
        live_churn_user = pending_churn.front().user_id();
        pending_churn.pop_front();
      }
      const std::size_t stop = std::min(start + batch, w.requests.size());
      futures.clear();
      for (std::size_t i = start; i < stop; ++i) {
        // The churned tenant serves live traffic too — it takes over the
        // first request of each wave, keeping every wave exactly `batch`
        // wide (a 17th submit would straggle behind the min_batch
        // coalescing window and the p95 would measure that stall, not the
        // churn operations).
        const bool redirect = churn && i == start && live_churn_user != npos;
        const std::size_t user = redirect ? live_churn_user : w.requests[i].first;
        futures.push_back(engine.submit(serve::Request{user, w.requests[i].second}).take_future());
      }
      for (auto& f : futures) f.get();
      ++wave_id;
    }
    const double elapsed_ms = now_ms() - t0;
    *stats = engine.stats();
    engine.stop();
    return 1000.0 * static_cast<double>(stats->requests) / elapsed_ms;
  };

  // Best of two passes per mode (first doubles as warmup), symmetric, so the
  // impact ratio compares two equally-warm runs.
  serve::StatsSnapshot steady{}, churny{};
  double steady_rps = 0.0, churn_rps = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    serve::StatsSnapshot s1, s2;
    const double r1 = run_pass(false, &s1);
    const double r2 = run_pass(true, &s2);
    if (pass == 0 || s1.p95_latency_ms < steady.p95_latency_ms) {
      steady = s1;
      steady_rps = r1;
    }
    if (pass == 0 || s2.p95_latency_ms < churny.p95_latency_ms) {
      churny = s2;
      churn_rps = r2;
    }
  }

  const double impact =
      steady.p95_latency_ms > 0.0 ? churny.p95_latency_ms / steady.p95_latency_ms : 1.0;
  std::printf("  %-10s %10.0f req/s   p50 %7.2f ms   p95 %7.2f ms\n", "steady", steady_rps,
              steady.p50_latency_ms, steady.p95_latency_ms);
  std::printf("  %-10s %10.0f req/s   p50 %7.2f ms   p95 %7.2f ms   (p95 impact %.2fx)\n",
              "churn", churn_rps, churny.p50_latency_ms, churny.p95_latency_ms, impact);
  std::printf("  churn ops: %zu admits, %zu evictions, %zu migrations, %zu router "
              "refreshes, rebalance %.1f ms total\n",
              churny.users_admitted, churny.users_evicted, churny.migrations,
              churny.router_refreshes, churny.rebalance_ms);
  const double slowdown = churn_rps > 0.0 ? steady_rps / churn_rps : 1.0;
  std::printf("  write-behind: %zu programming batches, admission stage→live p50 %.2f ms "
              "p95 %.2f ms, slowdown %.2fx\n",
              churny.program_batches, churny.admission_p50_ms, churny.admission_p95_ms,
              slowdown);
  std::fprintf(json, "    \"steady_rps\": %.0f, \"churn_rps\": %.0f,\n", steady_rps, churn_rps);
  std::fprintf(json, "    \"steady_p95_ms\": %.3f, \"churn_p95_ms\": %.3f,\n",
               steady.p95_latency_ms, churny.p95_latency_ms);
  std::fprintf(json, "    \"steady_p99_latency_ms\": %.3f, \"churn_p99_latency_ms\": %.3f,\n",
               steady.p99_latency_ms, churny.p99_latency_ms);
  std::fprintf(json,
               "    \"admits\": %zu, \"evictions\": %zu, \"migrations\": %zu, "
               "\"router_refreshes\": %zu, \"rebalance_ms\": %.2f,\n",
               churny.users_admitted, churny.users_evicted, churny.migrations,
               churny.router_refreshes, churny.rebalance_ms);
  std::fprintf(json,
               "    \"program_batches\": %zu, \"admission_p50_ms\": %.3f, "
               "\"admission_p95_ms\": %.3f,\n",
               churny.program_batches, churny.admission_p50_ms, churny.admission_p95_ms);
  std::fprintf(json, "    \"build_ms\": %.1f,\n", build_ms);
  std::fprintf(json, "    \"churn_p95_impact\": %.3f, \"churn_slowdown\": %.3f\n  },\n", impact,
               slowdown);
}

/// Observability-overhead microbench: the retrieval-bound B=16 steady
/// workload served with tracing off vs on (per-thread span rings + the
/// registry's histogram/counter recording run in both — tracing adds the
/// span writes). Interleaved best-of-three per side decorrelates machine
/// drift; the CI gate fails when obs_overhead_frac grows past its ceiling.
/// The tracing-on run also exports the artifacts CI uploads: a Chrome
/// trace (trace_serve.json, loadable in Perfetto) and a Prometheus text
/// dump (metrics_serve.prom).
void bench_obs(FILE* json, std::size_t n_requests, std::size_t n_users) {
  WorkloadConfig wc;
  wc.d_model = 16;
  wc.code_dim = 24;
  wc.n_virtual_tokens = 4;
  wc.ae_hidden = 32;
  wc.keys_per_user = 48;
  wc.crossbar_rows = 384;  // the paper's subarray geometry
  wc.crossbar_cols = 128;
  wc.key_protos = 6;
  Workload w(wc, n_users, n_requests);

  const std::size_t shards = 4, threads = 4, batch = 16;
  std::printf("\n-- observability overhead (tracing off vs on, steady B=%zu, %zu users, "
              "%zu requests, %zu shards) --\n",
              batch, n_users, n_requests, shards);

  serve::ServingConfig off_cfg = w.engine_config(shards, threads, batch);
  off_cfg.min_batch = batch;
  off_cfg.batch_window_ms = 50.0;
  serve::ServingConfig on_cfg = off_cfg;
  on_cfg.tracing.enabled = true;
  on_cfg.slow_request_ms = 1e6;  // exemplar check armed (branch cost), never firing
  // The full introspection plane rides the measured side: windows + SLO
  // evaluation always run in EngineStats, and the embedded HTTP server is up
  // on an ephemeral port — the overhead gate covers all of it, not just
  // tracing.
  on_cfg.introspection.enabled = true;

  // >0: after the export pass, keep the engine (and its HTTP server) alive
  // this long so an external scraper — CI's check_exposition.py --url — can
  // hit /metrics and /healthz on a live engine. The hold happens outside the
  // timed region.
  double http_hold_ms = 0.0;
  if (const char* e = std::getenv("NVCIM_SERVE_HTTP_HOLD_MS"))
    http_hold_ms = std::strtod(e, nullptr);

  std::size_t trace_events = 0, trace_dropped = 0;
  const auto run = [&](const serve::ServingConfig& cfg, bool export_artifacts,
                       serve::StatsSnapshot* stats) {
    serve::ServingEngine engine(w.model, w.task, cfg);
    for (std::size_t u = 0; u < w.n_users; ++u)
      engine.add_deployment(u, w.make_deployment(u));
    engine.start();
    const double t0 = now_ms();
    std::vector<std::future<serve::Response>> futures;
    for (std::size_t start = 0; start < w.requests.size(); start += batch) {
      const std::size_t stop = std::min(start + batch, w.requests.size());
      futures.clear();
      for (std::size_t i = start; i < stop; ++i)
        futures.push_back(
            engine.submit(serve::Request{w.requests[i].first, w.requests[i].second}).take_future());
      for (auto& f : futures) f.get();
    }
    const double elapsed_ms = now_ms() - t0;
    *stats = engine.stats();
    if (export_artifacts) {
      // Quiesce before dumping the reference exposition: the batch worker
      // records stage totals just after fulfilling the last futures.
      std::string text = engine.metrics().prometheus_text();
      for (int i = 0; i < 100; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        std::string again = engine.metrics().prometheus_text();
        if (again == text) break;
        text = std::move(again);
      }
      {
        std::ofstream prom("metrics_serve.prom");
        prom << text;
      }
      const std::uint16_t port = engine.introspection_port();
      if (port != 0) {
        // Published last: a scraper that waits for this file is guaranteed
        // the reference dump above already exists.
        std::ofstream url("introspection_url.txt");
        url << "http://127.0.0.1:" << port << "\n";
      }
      if (http_hold_ms > 0.0 && port != 0) {
        std::printf("  holding introspection server at 127.0.0.1:%u for %.0f ms "
                    "(introspection_url.txt)\n",
                    static_cast<unsigned>(port), http_hold_ms);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(static_cast<long>(http_hold_ms)));
      }
    }
    engine.stop();  // quiesce the workers before reading the trace rings
    if (export_artifacts) {
      trace_events = engine.tracer().events().size();
      trace_dropped = static_cast<std::size_t>(engine.tracer().dropped());
      engine.tracer().write_chrome_trace_file("trace_serve.json");
    }
    return 1000.0 * static_cast<double>(w.requests.size()) / elapsed_ms;
  };

  double off_rps = 0.0, on_rps = 0.0;
  serve::StatsSnapshot off_stats{}, on_stats{};
  for (int pass = 0; pass < 3; ++pass) {
    serve::StatsSnapshot s1, s2;
    const double r1 = run(off_cfg, false, &s1);
    const double r2 = run(on_cfg, /*export_artifacts=*/pass == 2, &s2);
    if (r1 > off_rps) {
      off_rps = r1;
      off_stats = s1;
    }
    if (r2 > on_rps) {
      on_rps = r2;
      on_stats = s2;
    }
  }

  const double overhead = std::max(0.0, 1.0 - on_rps / off_rps);
  std::printf("  %-12s %10.0f req/s   p50 %7.2f ms   p99 %7.2f ms\n", "tracing off",
              off_rps, off_stats.p50_latency_ms, off_stats.p99_latency_ms);
  std::printf("  %-12s %10.0f req/s   p50 %7.2f ms   p99 %7.2f ms   (overhead %.2f%%)\n",
              "tracing on", on_rps, on_stats.p50_latency_ms, on_stats.p99_latency_ms,
              100.0 * overhead);
  std::printf("  trace: %zu events (%zu dropped) -> trace_serve.json; metrics -> "
              "metrics_serve.prom\n",
              trace_events, trace_dropped);
  std::fprintf(json,
               "  \"obs\": {\"users\": %zu, \"requests\": %zu, \"shards\": %zu, "
               "\"threads\": %zu, \"batch\": %zu,\n",
               n_users, n_requests, shards, threads, batch);
  std::fprintf(json, "    \"tracing_off_rps\": %.0f, \"tracing_on_rps\": %.0f,\n", off_rps,
               on_rps);
  std::fprintf(json, "    \"tracing_on_p99_latency_ms\": %.3f,\n", on_stats.p99_latency_ms);
  std::fprintf(json, "    \"trace_events\": %zu, \"trace_dropped\": %zu,\n", trace_events,
               trace_dropped);
  std::fprintf(json, "    \"obs_overhead_frac\": %.4f\n  },\n", overhead);
}

/// SLO scenario (PR 8 async lifecycle): a Zipf-skewed open-loop producer — a
/// hot tenant takes ~80% of the traffic, a tail of mid tenants the rest, and
/// half of it carries (generous) deadlines — keeps a deep backlog queued
/// while a cold tenant probes with closed-loop waves of one full batch.
/// Cold-tenant p99 is measured two ways: alone on an idle engine
/// (uncontended) and under the DRR scheduler with the backlog queued.
/// The gated signals are same-run ratios, hardware-portable by construction:
///
///   * fairness_impact = drr_cold_p99 / uncontended_cold_p99 — the fairness
///     guarantee the scheduler ships: a saturating hot tenant may not push a
///     cold tenant's tail past 2x its uncontended tail (absolute ceiling).
///   * deadline_miss_frac = (expired + late) / deadline-carrying requests
///     in the DRR run. Deadlines are sized to be comfortably meetable, so
///     any nonzero drift means deadline-aware dequeue (urgency-sorted
///     tenant queues + EDF pull) rotted.
void bench_slo(FILE* json, std::size_t n_requests, std::size_t n_users) {
  WorkloadConfig wc;
  wc.d_model = 16;
  wc.code_dim = 24;
  wc.n_virtual_tokens = 4;
  wc.ae_hidden = 32;
  wc.keys_per_user = 48;
  wc.crossbar_rows = 384;  // the paper's subarray geometry
  wc.crossbar_cols = 128;
  wc.key_protos = 6;
  Workload w(wc, n_users, n_requests);

  const std::size_t shards = 4, threads = 4, batch = 16;
  /// The cold tenant is LIGHT by construction: sub-batch waves of one DRR
  /// quantum. Alone on the engine its waves never reach min_batch, so its
  /// uncontended latency is coalescing-window-bound — that IS an isolated
  /// light tenant's real latency. Under saturation batches form instantly
  /// and DRR bounds the cold wave's queueing to a batch or two, so the
  /// fairness ratio stays under the 2x gate.
  const std::size_t wave = 4;
  const std::size_t waves = 10, warmup_waves = 2;
  const std::size_t cold = n_users - 1;  // gets no open-loop traffic
  /// Producer keeps this many hot requests outstanding: a backlog dozens of
  /// batches deep that still leaves queue-capacity headroom, so the cold
  /// probe's submits never block at admission (fairness must be decided by
  /// the scheduler, not by who wins the capacity race).
  const std::size_t hot_outstanding = 768;
  const double deadline_ms = 750.0;

  std::printf("\n-- SLO scenario (hot tenant saturating, cold tenant probing, "
              "B=%zu, %zu users, %zu threads) --\n",
              batch, n_users, threads);

  serve::ServingConfig cfg = w.engine_config(shards, threads, batch);
  cfg.min_batch = batch;
  cfg.batch_window_ms = 50.0;
  cfg.queue_capacity = 1024;

  // Closed-loop cold probe: sub-batch waves, each awaited before the next;
  // p99 of the measured waves' end-to-end latencies.
  const auto probe_cold = [&](serve::ServingEngine& engine) {
    std::vector<double> lat;
    for (std::size_t v = 0; v < warmup_waves + waves; ++v) {
      std::vector<serve::RequestHandle> hs;
      hs.reserve(wave);
      for (std::size_t i = 0; i < wave; ++i)
        hs.push_back(engine.submit(serve::Request{cold, w.requests[i].second}));
      for (auto& h : hs) {
        const serve::Response r = h.get();
        if (v >= warmup_waves) lat.push_back(r.latency_ms);
      }
    }
    std::sort(lat.begin(), lat.end());
    return lat[(99 * lat.size() + 99) / 100 - 1];
  };

  double uncontended_p99 = 0.0;
  {
    serve::ServingEngine engine(w.model, w.task, cfg);
    for (std::size_t u = 0; u < w.n_users; ++u)
      engine.add_deployment(u, w.make_deployment(u));
    engine.start();
    uncontended_p99 = probe_cold(engine);
    engine.stop();
  }

  struct SloResult {
    double cold_p99 = 0.0;
    std::size_t deadline_total = 0;
    serve::StatsSnapshot stats;
  };
  const auto run_contended = [&] {
    serve::ServingEngine engine(w.model, w.task, cfg);
    for (std::size_t u = 0; u < w.n_users; ++u)
      engine.add_deployment(u, w.make_deployment(u));
    engine.start();

    std::atomic<bool> stop_flag{false};
    std::atomic<std::size_t> outstanding{0};
    std::size_t deadline_total = 0;
    std::thread hot([&] {
      std::size_t i = 0;
      while (!stop_flag.load(std::memory_order_relaxed)) {
        if (outstanding.load(std::memory_order_relaxed) >= hot_outstanding) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        // Zipf-ish skew: 80% hot tenant 0, the rest across the mid tenants.
        const std::size_t user =
            (i % 5 != 0) ? 0 : 1 + (i / 5) % std::max<std::size_t>(1, n_users - 2);
        serve::SubmitOptions opts;
        if (i % 2 == 0) {
          opts.deadline_ms = deadline_ms;
          ++deadline_total;
        }
        opts.on_complete = [&outstanding](const serve::Response&, std::exception_ptr) {
          outstanding.fetch_sub(1, std::memory_order_relaxed);
        };
        outstanding.fetch_add(1, std::memory_order_relaxed);
        (void)engine.submit(serve::Request{user, w.requests[i % w.requests.size()].second},
                            std::move(opts));
        ++i;
      }
    });
    // Probe only once the backlog is actually deep (bounded wait: a machine
    // that serves faster than the producer submits simply probes early).
    const double t0 = now_ms();
    while (outstanding.load(std::memory_order_relaxed) < hot_outstanding * 3 / 4 &&
           now_ms() - t0 < 2000.0)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));

    SloResult r;
    r.cold_p99 = probe_cold(engine);
    stop_flag.store(true);
    hot.join();
    // Drain the backlog so every hot request has settled (served or expired)
    // before the accounting snapshot.
    while (outstanding.load(std::memory_order_relaxed) > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    r.deadline_total = deadline_total;
    r.stats = engine.stats();
    engine.stop();
    return r;
  };

  const SloResult drr = run_contended();

  const double fairness = uncontended_p99 > 0.0 ? drr.cold_p99 / uncontended_p99 : 1.0;
  const double miss_frac =
      drr.deadline_total > 0
          ? static_cast<double>(drr.stats.expired_requests + drr.stats.deadline_missed) /
                static_cast<double>(drr.deadline_total)
          : 0.0;
  std::printf("  cold p99: %7.2f ms uncontended | %7.2f ms DRR (%.2fx)\n", uncontended_p99,
              drr.cold_p99, fairness);
  std::printf("  deadlines (DRR run): %zu carried, %zu expired, %zu late -> miss frac %.4f\n",
              drr.deadline_total, drr.stats.expired_requests, drr.stats.deadline_missed,
              miss_frac);
  std::printf("  queue waits (DRR run): p50 %.2f ms p95 %.2f ms; served %zu hot+cold\n",
              drr.stats.queue_wait_p50_ms, drr.stats.queue_wait_p95_ms, drr.stats.requests);

  std::fprintf(json,
               "  \"slo\": {\"users\": %zu, \"threads\": %zu, \"batch\": %zu, "
               "\"queue_capacity\": %zu, \"waves\": %zu,\n",
               n_users, threads, batch, cfg.queue_capacity, waves);
  std::fprintf(json, "    \"uncontended_cold_p99_ms\": %.3f, \"drr_cold_p99_ms\": %.3f,\n",
               uncontended_p99, drr.cold_p99);
  std::fprintf(json, "    \"deadline_total\": %zu, \"expired\": %zu, \"late\": %zu,\n",
               drr.deadline_total, drr.stats.expired_requests, drr.stats.deadline_missed);
  std::fprintf(json, "    \"fairness_impact\": %.3f, \"deadline_miss_frac\": %.4f\n  },\n",
               fairness, miss_frac);
}

/// Fault-storm scenario (device-fault tolerance): the retrieval-bound
/// workload served through an injected fault storm — multiplicative
/// conductance drift across the whole fleet plus hard-stuck columns in the
/// first tenant slot of every shard — then scrubbed and self-repaired.
/// Three phases on one engine isolate retrieval quality: a pristine
/// reference pass records every request's retrieved index, the faulted pass
/// replays the same requests against the degraded store
/// (faulted_recall_at1, gated floor 0.90 — serving degrades gracefully, it
/// does not collapse), and a post-repair pass measures how much quality the
/// scrub brings back (drift is re-programmed in place bit-identically;
/// stuck columns are repaired by migrating their tenant to fresh columns).
/// A separate A/B pair measures the serving-tail cost of repair itself:
/// the same workload steady vs with the background scrubber aggressively
/// probing + repairing the storm under live traffic. fault_impact =
/// scrubbed p95 / steady p95 is a same-run ratio (hardware-portable,
/// lower-is-better, gated like the churn impact ratio).
void bench_faults(FILE* json, std::size_t n_requests, std::size_t n_users) {
  WorkloadConfig wc;
  wc.d_model = 16;
  wc.code_dim = 24;
  wc.n_virtual_tokens = 4;
  wc.ae_hidden = 32;
  wc.keys_per_user = 48;
  wc.crossbar_rows = 384;  // the paper's subarray geometry
  wc.crossbar_cols = 128;
  wc.key_protos = 6;
  Workload w(wc, n_users, n_requests);

  const std::size_t shards = 4, threads = 4, batch = 16;
  std::printf("\n-- fault-storm scenario (drift + stuck columns, scrub & self-repair, "
              "B=%zu, %zu users, %zu requests, %zu shards) --\n",
              batch, n_users, n_requests, shards);
  std::fprintf(json,
               "  \"faults\": {\"users\": %zu, \"requests\": %zu, \"shards\": %zu, "
               "\"threads\": %zu, \"batch\": %zu,\n",
               n_users, n_requests, shards, threads, batch);

  serve::ServingConfig cfg = w.engine_config(shards, threads, batch);
  cfg.min_batch = batch;
  cfg.batch_window_ms = 50.0;
  cfg.lifecycle.enabled = true;  // repair programs the mutable store

  // Seeded storm: fleet-wide drift (every occupied column deviates from its
  // pristine shadow) plus a few hard-stuck columns per shard. Columns
  // 0..keys-1 of each shard belong to its first tenant whenever the shard
  // has one, so the stuck injections always hit occupied columns.
  const auto inject_storm = [&](serve::ShardedOvtStore& store) {
    store.set_drift_rate(0.04);
    store.advance_age(2);
    const std::size_t stuck_cols[] = {1, 13, 29, 41};
    for (std::size_t s = 0; s < store.n_shards(); ++s)
      for (std::size_t i = 0; i < 4; ++i)
        store.inject_column_fault(s, stuck_cols[i],
                                  i % 2 == 0 ? nvm::FaultKind::StuckAtOff
                                             : nvm::FaultKind::StuckAtOn,
                                  /*n_cells=*/8, /*seed=*/911 + 31 * s + i);
  };

  const auto serve_waves = [&](serve::ServingEngine& engine, std::vector<std::size_t>* idx) {
    if (idx != nullptr) idx->clear();
    const double t0 = now_ms();
    std::vector<std::future<serve::Response>> futures;
    for (std::size_t start = 0; start < w.requests.size(); start += batch) {
      const std::size_t stop = std::min(start + batch, w.requests.size());
      futures.clear();
      for (std::size_t i = start; i < stop; ++i)
        futures.push_back(
            engine.submit(serve::Request{w.requests[i].first, w.requests[i].second}).take_future());
      for (auto& f : futures) {
        const serve::Response r = f.get();
        if (idx != nullptr) idx->push_back(r.ovt_index);
      }
    }
    return 1000.0 * static_cast<double>(w.requests.size()) / (now_ms() - t0);
  };

  // Recall vs the pristine reference, optionally restricted to requests
  // whose user is NOT in `exclude` (migrated tenants re-program with fresh
  // noise streams, which legitimately re-ranks near-tie keys — their recall
  // is reported separately from the bit-identical in-place repairs).
  const auto recall_vs = [&](const std::vector<std::size_t>& got,
                             const std::vector<std::size_t>& ref,
                             const std::vector<std::size_t>* exclude) {
    std::size_t matches = 0, counted = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (exclude != nullptr &&
          std::find(exclude->begin(), exclude->end(), w.requests[i].first) != exclude->end())
        continue;
      ++counted;
      if (got[i] == ref[i]) ++matches;
    }
    return counted == 0 ? 1.0 : static_cast<double>(matches) / static_cast<double>(counted);
  };

  // Phase pass: pristine reference -> storm -> faulted replay -> manual
  // fleet scrub (repair in place + migrate stuck) -> repaired replay.
  double faulted_recall = 0.0, recovered_recall = 0.0, repair_total_ms = 0.0;
  bool verified_clean = false;
  serve::ScrubOutcome storm_outcome;
  serve::StatsSnapshot repair_stats;
  {
    serve::ServingEngine engine(w.model, w.task, cfg);
    for (std::size_t u = 0; u < w.n_users; ++u)
      engine.add_deployment(u, w.make_deployment(u));
    engine.start();
    std::vector<std::size_t> exact_idx, faulted_idx, repaired_idx;
    (void)serve_waves(engine, &exact_idx);  // doubles as warmup
    inject_storm(engine.store_mutable());
    (void)serve_waves(engine, &faulted_idx);
    faulted_recall = recall_vs(faulted_idx, exact_idx, nullptr);
    const double t0 = now_ms();
    storm_outcome = engine.scrub_now();
    const serve::ScrubOutcome verify = engine.scrub_now();
    repair_total_ms = now_ms() - t0;
    verified_clean = verify.columns_degraded == 0;
    (void)serve_waves(engine, &repaired_idx);
    recovered_recall = recall_vs(repaired_idx, exact_idx, &storm_outcome.migrated_users);
    repair_stats = engine.stats();
    engine.stop();
  }
  std::printf("  storm: %zu columns degraded -> %zu repaired in place, %zu stuck "
              "(%zu tenants migrated), verify pass %s\n",
              storm_outcome.columns_degraded, storm_outcome.columns_repaired,
              storm_outcome.columns_stuck, storm_outcome.migrated_users.size(),
              verified_clean ? "clean" : "STILL DEGRADED");
  std::printf("  recall@1 vs pristine: %.3f faulted -> %.3f after in-place repair "
              "(migrated tenants excluded); repair total %.1f ms "
              "(per-subarray p50 %.2f ms p95 %.2f ms)\n",
              faulted_recall, recovered_recall, repair_total_ms,
              repair_stats.repair_p50_ms, repair_stats.repair_p95_ms);

  // Impact pass: steady serving vs serving while the background scrubber
  // probes and repairs the same storm under live traffic. Best-of-two per
  // side (first pass doubles as warmup), symmetric, keep the lower p95.
  serve::ServingConfig scrub_cfg = cfg;
  scrub_cfg.scrubber.enabled = true;
  scrub_cfg.scrubber.interval_ms = 2.0;
  scrub_cfg.scrubber.subarrays_per_round = 1;

  double steady_rps = 0.0, scrub_rps = 0.0;
  serve::StatsSnapshot steady, scrubbed;
  for (int pass = 0; pass < 2; ++pass) {
    {
      serve::ServingEngine engine(w.model, w.task, cfg);
      for (std::size_t u = 0; u < w.n_users; ++u)
        engine.add_deployment(u, w.make_deployment(u));
      engine.start();
      const double rps = serve_waves(engine, nullptr);
      const serve::StatsSnapshot s = engine.stats();
      engine.stop();
      if (pass == 0 || s.p95_latency_ms < steady.p95_latency_ms) {
        steady = s;
        steady_rps = rps;
      }
    }
    {
      serve::ServingEngine engine(w.model, w.task, scrub_cfg);
      for (std::size_t u = 0; u < w.n_users; ++u)
        engine.add_deployment(u, w.make_deployment(u));
      engine.start();
      inject_storm(engine.store_mutable());
      const double rps = serve_waves(engine, nullptr);
      const serve::StatsSnapshot s = engine.stats();
      engine.stop();
      if (pass == 0 || s.p95_latency_ms < scrubbed.p95_latency_ms) {
        scrubbed = s;
        scrub_rps = rps;
      }
    }
  }
  const double impact =
      steady.p95_latency_ms > 0.0 ? scrubbed.p95_latency_ms / steady.p95_latency_ms : 1.0;
  std::printf("  %-10s %10.0f req/s   p50 %7.2f ms   p95 %7.2f ms\n", "steady", steady_rps,
              steady.p50_latency_ms, steady.p95_latency_ms);
  std::printf("  %-10s %10.0f req/s   p50 %7.2f ms   p95 %7.2f ms   (p95 impact %.2fx)\n",
              "scrubbing", scrub_rps, scrubbed.p50_latency_ms, scrubbed.p95_latency_ms,
              impact);
  std::printf("  background scrub: %zu passes, %zu columns probed, %zu repaired, "
              "%zu stuck, %zu degraded responses flagged\n",
              scrubbed.scrub_passes, scrubbed.scrub_columns_probed, scrubbed.columns_repaired,
              scrubbed.columns_stuck, scrubbed.degraded_responses);

  std::fprintf(json, "    \"faulted_recall_at1\": %.4f, \"recovered_recall_at1\": %.4f,\n",
               faulted_recall, recovered_recall);
  std::fprintf(json,
               "    \"columns_degraded\": %zu, \"columns_repaired\": %zu, "
               "\"columns_stuck\": %zu, \"tenants_migrated\": %zu,\n",
               storm_outcome.columns_degraded, storm_outcome.columns_repaired,
               storm_outcome.columns_stuck, storm_outcome.migrated_users.size());
  std::fprintf(json,
               "    \"repair_total_ms\": %.2f, \"repair_p50_ms\": %.3f, "
               "\"repair_p95_ms\": %.3f,\n",
               repair_total_ms, repair_stats.repair_p50_ms, repair_stats.repair_p95_ms);
  std::fprintf(json, "    \"steady_rps\": %.0f, \"scrub_rps\": %.0f,\n", steady_rps, scrub_rps);
  std::fprintf(json, "    \"steady_p95_ms\": %.3f, \"scrub_p95_ms\": %.3f,\n",
               steady.p95_latency_ms, scrubbed.p95_latency_ms);
  std::fprintf(json, "    \"scrub_passes\": %zu, \"degraded_responses\": %zu,\n",
               scrubbed.scrub_passes, scrubbed.degraded_responses);
  std::fprintf(json, "    \"fault_impact\": %.3f\n  },\n", impact);
}

double run_engine(Workload& w, std::size_t shards, std::size_t threads, std::size_t batch,
                  serve::StatsSnapshot* out_stats) {
  return run_engine_cfg(w, w.engine_config(shards, threads, batch), out_stats);
}

void print_stages(const serve::StatsSnapshot& s) {
  const double total = s.encode_ms + s.retrieve_ms + s.decode_ms + s.classify_ms;
  std::printf("    stages: encode %7.1f ms (%4.1f%%) | retrieve %7.1f ms (%4.1f%%) | "
              "decode %6.1f ms (%4.1f%%) | classify %6.1f ms\n",
              s.encode_ms, 100.0 * s.encode_ms / total, s.retrieve_ms,
              100.0 * s.retrieve_ms / total, s.decode_ms, 100.0 * s.decode_ms / total,
              s.classify_ms);
}

void json_stages(FILE* f, const serve::StatsSnapshot& s) {
  std::fprintf(f,
               "{\"encode_ms\": %.2f, \"retrieve_ms\": %.2f, \"decode_ms\": %.2f, "
               "\"classify_ms\": %.2f}",
               s.encode_ms, s.retrieve_ms, s.decode_ms, s.classify_ms);
}

void bench_batched_vs_per_query(FILE* json) {
  std::printf("-- batched vs per-query crossbar retrieval "
              "(one CimRetriever, 64 keys, SSA) --\n");
  retrieval::CimRetriever::Config cfg;
  cfg.crossbar.rows = 96;
  cfg.crossbar.cols = 32;
  cfg.variation = {nvm::fefet3(), 0.1};
  retrieval::CimRetriever r(cfg);
  Rng rng(3);
  std::vector<Matrix> keys;
  for (int i = 0; i < 64; ++i) keys.push_back(Matrix::rand_uniform(4, 24, rng, -1.0f, 1.0f));
  r.store(keys, rng);

  const std::size_t n_queries = 128;
  std::vector<Matrix> queries;
  for (std::size_t i = 0; i < n_queries; ++i)
    queries.push_back(Matrix::rand_uniform(4, 24, rng, -1.0f, 1.0f));

  const double t0 = now_ms();
  for (const Matrix& q : queries) (void)r.retrieve(q);
  const double per_query_ms = now_ms() - t0;

  std::printf("  %-14s %10.1f ms  (%.0f q/s)\n", "per-query", per_query_ms,
              1000.0 * n_queries / per_query_ms);
  std::fprintf(json, "  \"retrieval_microbench\": {\"per_query_ms\": %.2f", per_query_ms);
  for (std::size_t batch : {8u, 16u, 32u}) {
    const double t1 = now_ms();
    for (std::size_t start = 0; start < n_queries; start += batch) {
      const std::size_t stop = std::min(start + batch, n_queries);
      std::vector<Matrix> chunk(queries.begin() + static_cast<long>(start),
                                queries.begin() + static_cast<long>(stop));
      (void)r.retrieve_batch(r.pack_queries(chunk));
    }
    const double batch_ms = now_ms() - t1;
    std::printf("  batch B=%-5zu %10.1f ms  (%.0f q/s, %.2fx per-query)\n", batch, batch_ms,
                1000.0 * n_queries / batch_ms, per_query_ms / batch_ms);
    std::fprintf(json, ", \"batch_%zu_ms\": %.2f", batch, batch_ms);
  }
  std::fprintf(json, "},\n");
}

/// Microbench of the crossbar MVM kernels on one programmed subarray: the
/// scalar per-query matvec() loop vs the fused interleaved slice kernel.
/// Same inputs, B=16 — the serving engine's retrieval batch shape.
void bench_kernel(FILE* json) {
  std::printf("\n-- crossbar slice-kernel microbench (384x128, int16, B=16) --\n");
  cim::CrossbarConfig base;  // paper-default subarray
  Rng wr(5);
  Matrix w(base.rows, base.cols);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.at_flat(i) = static_cast<float>(static_cast<int>(wr.uniform_index(60001)) - 30000);
  Rng qr(6);
  const Matrix x = Matrix::randn(16, base.rows, qr);

  const int reps = 8;
  auto time_kernel = [&](bool scalar) {
    cim::Crossbar xb(base);
    Rng pr(7);  // identical programming stream for every variant
    xb.program(w, {nvm::fefet3(), 0.1}, pr);
    const auto run = [&] { (void)(scalar ? xb.matvec(x) : xb.matvec_batch(x)); };
    run();  // warmup
    const double t0 = now_ms();
    for (int i = 0; i < reps; ++i) run();
    return (now_ms() - t0) / reps;
  };

  const double scalar_ms = time_kernel(/*scalar=*/true);
  const double fused_ms = time_kernel(false);
  std::printf("  %-22s %8.2f ms/batch\n", "scalar matvec", scalar_ms);
  std::printf("  %-22s %8.2f ms/batch  (%.2fx)\n", "fused", fused_ms, scalar_ms / fused_ms);
  std::fprintf(json,
               "  \"kernel_microbench\": {\"scalar_ms\": %.3f, \"fused_ms\": %.3f, "
               "\"fused_speedup\": %.2f},\n",
               scalar_ms, fused_ms, scalar_ms / fused_ms);
}

/// Retrieval-bound scenario: 48 keys per user over 4 shards makes the
/// crossbar search dominate per-request cost. The engine fans per-shard
/// retrieval out across the worker pool; the scenario reports its
/// throughput and per-stage shares.
void bench_retrieval_bound(FILE* json, std::size_t n_requests, std::size_t n_users) {
  WorkloadConfig wc;
  wc.d_model = 16;
  wc.code_dim = 24;
  wc.n_virtual_tokens = 4;
  wc.ae_hidden = 32;
  wc.keys_per_user = 48;
  wc.crossbar_rows = 384;  // the paper's subarray geometry
  wc.crossbar_cols = 128;
  Workload w(wc, n_users, n_requests);

  const std::size_t shards = 4, threads = 4, batch = 16;
  std::printf("\n-- retrieval-bound scenario (48 keys/user, %zu users, %zu requests, "
              "%zu shards, %zu workers, B=%zu) --\n",
              n_users, n_requests, shards, threads, batch);
  std::fprintf(json,
               "  \"retrieval_bound\": {\"users\": %zu, \"requests\": %zu, \"shards\": %zu, "
               "\"threads\": %zu, \"batch\": %zu,\n",
               n_users, n_requests, shards, threads, batch);

  // Coalesce full B-wide batches (min_batch) so every batch spans the shard
  // set and the stage shares reflect the retrieve stage, not batch-formation
  // luck. Closed-loop waves of B keep one batch in flight — the latency
  // regime, where fanned-out shards land on idle workers.
  serve::ServingConfig cfg = w.engine_config(shards, threads, batch);
  cfg.min_batch = batch;
  cfg.batch_window_ms = 50.0;
  serve::StatsSnapshot ns;
  const double rps = waves_with_indices(w, cfg, batch, &ns, nullptr);

  std::printf("  %-26s %10.0f req/s   retrieve %8.1f ms\n", "parallel shard fan-out", rps,
              ns.retrieve_ms);
  print_stages(ns);
  std::printf("    per-shard retrieve ms:");
  for (std::size_t s = 0; s < ns.shard_retrieve_ms.size(); ++s)
    std::printf(" [%zu] %.1f", s, ns.shard_retrieve_ms[s]);
  std::printf("  (parallel fanouts: %zu)\n", ns.parallel_retrieve_fanouts);

  std::fprintf(json, "    \"fused_parallel_rps\": %.0f,\n", rps);
  std::fprintf(json, "    \"stages_b16\": ");
  json_stages(json, ns);
  std::fprintf(json, "\n  },\n");
}

/// Encode-bound scenario: a wide autoencoder (the paper's production shape —
/// hidden 256, code 48) and 8 virtual tokens put substantial per-request
/// encode work next to retrieval. The baseline is the engine's serial
/// reference path (retrieve_serial: per-request encode + per-query crossbar
/// search — bit-identical results, no batching), the same comparator the
/// batched-retrieval microbench uses; the staged pipeline runs on ONE worker
/// so the speedup isolates batching, not thread parallelism.
void bench_encode_bound(FILE* json, std::size_t n_requests, std::size_t n_users) {
  WorkloadConfig wc;
  wc.d_model = 32;
  wc.code_dim = 48;
  wc.ae_hidden = 256;
  wc.n_virtual_tokens = 8;
  wc.keys_per_user = 6;
  wc.crossbar_rows = 128;
  wc.crossbar_cols = 48;
  Workload w(wc, n_users, n_requests);

  std::printf("\n-- encode-bound scenario (AE hidden 256, code 48, 8 virtual tokens; "
              "%zu users, %zu requests, 1 worker) --\n", n_users, n_requests);
  std::fprintf(json, "  \"encode_bound\": {\"users\": %zu, \"requests\": %zu, \"threads\": 1,\n",
               n_users, n_requests);

  // Serial reference: one request at a time through the per-query path.
  double serial_rps = 0.0;
  {
    serve::ServingEngine engine(w.model, w.task, w.engine_config(2, 1, 1));
    for (std::size_t u = 0; u < w.n_users; ++u)
      engine.add_deployment(u, w.make_deployment(u));
    engine.start();  // builds the store; the lone worker stays idle
    // Two passes, keep the faster one: the first doubles as warmup, and a
    // faster serial baseline makes the reported speedup conservative.
    double serial_ms = 1e300;
    for (int pass = 0; pass < 2; ++pass) {
      const double t0 = now_ms();
      for (const auto& [u, q] : w.requests) (void)engine.retrieve_serial(u, q);
      serial_ms = std::min(serial_ms, now_ms() - t0);
    }
    engine.stop();
    serial_rps = 1000.0 * static_cast<double>(w.requests.size()) / serial_ms;
    std::printf("  %8s %12s %10s %10s\n", "path", "req/s", "p50ms", "p95ms");
    std::printf("  %8s %12.0f %10s %10s\n", "serial", serial_rps, "-", "-");
    std::fprintf(json, "    \"serial_rps\": %.0f,\n", serial_rps);
  }

  serve::StatsSnapshot last{};
  double b16_speedup = 0.0;
  for (const std::size_t batch : {1u, 8u, 16u}) {
    // Best of two passes, symmetric with the serial baseline above.
    serve::StatsSnapshot s;
    const double rps = best_of_two(w, w.engine_config(/*shards=*/2, /*threads=*/1, batch), &s);
    std::printf("  %8zu %12.0f %10.2f %10.2f   (%.2fx vs serial)\n", batch, rps,
                s.p50_latency_ms, s.p95_latency_ms, rps / serial_rps);
    print_stages(s);
    std::fprintf(json, "    \"b%zu_rps\": %.0f,\n", batch, rps);
    if (batch == 16) b16_speedup = rps / serial_rps;
    last = s;
  }
  std::fprintf(json, "    \"speedup_b16_vs_serial\": %.2f,\n    \"stages_b16\": ", b16_speedup);
  json_stages(json, last);
  std::fprintf(json, "\n  },\n");
}

}  // namespace

int main() {
  std::size_t n_requests = 256, n_users = 16;
  if (const char* e = std::getenv("NVCIM_SERVE_REQUESTS"))
    n_requests = std::strtoul(e, nullptr, 10);
  if (const char* e = std::getenv("NVCIM_SERVE_USERS")) n_users = std::strtoul(e, nullptr, 10);
  // Comma/space-separated scenario filter, e.g. NVCIM_SERVE_SCENARIO=obs runs
  // only bench_obs — CI uses this for the fast live-scrape check. Unset runs
  // everything.
  const char* scenario = std::getenv("NVCIM_SERVE_SCENARIO");
  const auto scenario_on = [&](const char* name) {
    return scenario == nullptr || std::strstr(scenario, name) != nullptr;
  };

  std::printf("================================================================\n");
  std::printf("bench_serve: multi-tenant serving engine throughput\n");
  std::printf("%zu users, %zu requests, 2 shards\n", n_users, n_requests);
  std::printf("================================================================\n");

  FILE* json = std::fopen("BENCH_serve.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_serve.json for writing\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"serve\",\n  \"users\": %zu, \"requests\": %zu,\n",
               n_users, n_requests);

  if (scenario_on("microbench")) bench_batched_vs_per_query(json);
  if (scenario_on("kernel")) bench_kernel(json);
  if (scenario_on("retrieval")) bench_retrieval_bound(json, n_requests, n_users);
  if (scenario_on("two_phase")) bench_two_phase(json, n_requests, n_users);
  if (scenario_on("churn")) bench_churn(json, n_requests, n_users);
  if (scenario_on("obs")) bench_obs(json, n_requests, n_users);
  if (scenario_on("slo")) bench_slo(json, n_requests, n_users);
  if (scenario_on("faults")) bench_faults(json, n_requests, n_users);
  if (scenario_on("encode")) bench_encode_bound(json, n_requests, n_users);

  if (scenario_on("grid")) {
    Workload w(WorkloadConfig{}, n_users, n_requests);
    std::printf("\n-- requests/sec vs batch size and thread count (default workload) --\n");
    std::printf("  %8s %8s %12s %10s %10s %10s\n", "threads", "batch", "req/s", "avgB", "p50ms",
                "p95ms");
    std::fprintf(json, "  \"grid\": [\n");
    bool first = true;
    for (std::size_t threads : {1u, 2u, 4u}) {
      for (std::size_t batch : {1u, 8u, 16u}) {
        serve::StatsSnapshot s;
        const double rps = run_engine(w, /*shards=*/2, threads, batch, &s);
        std::printf("  %8zu %8zu %12.0f %10.1f %10.2f %10.2f\n", threads, batch, rps,
                    s.avg_batch_size, s.p50_latency_ms, s.p95_latency_ms);
        std::fprintf(json, "%s    {\"threads\": %zu, \"batch\": %zu, \"rps\": %.0f}",
                     first ? "" : ",\n", threads, batch, rps);
        first = false;
      }
    }
    std::fprintf(json, "\n  ],\n");
  }
  // Fixed final key: the JSON stays valid under any scenario subset (every
  // section, including the grid, ends with a trailing comma).
  std::fprintf(json, "  \"scenario\": \"%s\"\n}\n", scenario != nullptr ? scenario : "all");
  std::fclose(json);
  std::printf("\ncache: decoded-OVT LRU; per-stage timings in BENCH_serve.json; "
              "raise NVCIM_SERVE_REQUESTS for steadier numbers\n");
  return 0;
}
