// Multi-tenant serving: the paper's single-user loop scaled out. Six users
// each train their own OVT library on-device (representative selection +
// prompt tuning), then hand their deployment to one shared ServingEngine:
// a single frozen backbone, OVT retrieval keys packed into two crossbar
// shards, worker threads answering a mixed stream of requests with
// two-phase batched in-memory search (k-means candidate routing + masked
// exact crossbar rerank) and an LRU cache of decoded prompts.
//
// The tenant lifecycle subsystem keeps the store mutable while serving: a
// seventh user signs up mid-stream (admit() programs its key columns into
// the live crossbars and builds its router — nobody else's bits change), an
// early user is evicted (its slot is reclaimed once in-flight batches
// drain), and a rebalance cycle migrates slots if shard loads have skewed.
//
// All traffic enters through the async submission API: submit(Request,
// SubmitOptions) returns a RequestHandle (future + cancel), options carry
// per-request deadlines and priorities (the scheduler expires requests
// whose deadline passes before dispatch and pulls urgent ones ahead of the
// per-tenant round-robin), and admissions return an AdmissionHandle whose
// wait() joins the write-behind programming.
//
// Observability rides along: span tracing is on (request → batch → stage →
// shard → lifecycle-op spans land in multi_tenant_trace.json, loadable at
// ui.perfetto.dev or chrome://tracing), every latency feeds per-tenant
// histograms in the engine's metric registry (Prometheus text dumped
// below), and requests slower than slow_request_ms leave exemplars.

#include <cstdio>
#include <vector>

#include "nvcim/llm/profiles.hpp"
#include "nvcim/serve/engine.hpp"

using namespace nvcim;

int main() {
  data::LampTask task(data::lamp1_config());
  const llm::LlmProfile profile = llm::gemma2b_sim();
  std::printf("Multi-tenant serving on %s / %s\n", profile.name.c_str(),
              task.config().name.c_str());
  llm::TinyLM model = llm::build_pretrained(profile, task.vocab_size(), 48,
                                            task.pretraining_corpus(1500, 21), 77);

  // ---- Training mode, per user (the paper's Fig. 3 loop) ----
  const std::size_t n_users = 6;
  core::FrameworkConfig fcfg;
  fcfg.tuner.n_virtual_tokens = 8;
  fcfg.tuner.steps = 30;
  fcfg.autoencoder.steps = 120;
  fcfg.variation = {nvm::fefet3(), 0.1};

  serve::ServingConfig scfg;
  scfg.n_shards = 2;
  scfg.n_threads = 4;
  scfg.max_batch = 8;
  scfg.run_inference = true;  // classify with the shared frozen backbone
  scfg.variation = fcfg.variation;
  // Two-phase retrieval: probe every cluster (nprobe = 0) — winners
  // bit-identical to exact retrieval, which already scores only each
  // tenant's slot. Lower nprobe prunes within the slot at a sampled-recall
  // cost. (The pruned fraction is measured against a full-capacity pass, so
  // in lifecycle mode it counts skipped free columns too; see bench_serve's
  // two-phase sweep for the effect at serving geometry.)
  scfg.two_phase.enabled = true;
  scfg.two_phase.nprobe = 0;
  // Online tenant lifecycle: live admission/eviction + shard rebalancing.
  // Write-behind admission: admit() returns once the slot is staged and the
  // key columns program as worker aux tasks, overlapped with serving; the
  // handle's wait() joins before the tenant takes traffic.
  scfg.lifecycle.enabled = true;
  scfg.lifecycle.write_behind = true;
  // Per-request span tracing + slow-request exemplars (threshold in ms).
  scfg.tracing.enabled = true;
  scfg.slow_request_ms = 25.0;

  serve::ServingEngine engine(model, task, scfg);
  std::vector<data::UserData> users;
  for (std::size_t u = 0; u < n_users; ++u) {
    users.push_back(task.make_user(u, /*n_train=*/20, /*n_test=*/8));
    core::FrameworkConfig cfg_u = fcfg;
    cfg_u.seed = 1000 + u;
    core::NvcimPtFramework fw(model, task, cfg_u);
    fw.initialize_autoencoder(24);
    fw.train_from_buffer(users[u].train);
    std::printf("  user %zu: %zu OVTs trained\n", u, fw.n_stored_ovts());
    engine.add_deployment(u, fw.export_deployment());
  }

  // ---- Serving mode: one engine, mixed concurrent traffic ----
  engine.start();
  std::printf("engine: %zu users over %zu shards, %zu keys total\n", engine.n_users(),
              engine.store().n_shards(), engine.store().n_keys());

  std::vector<serve::RequestHandle> handles;
  std::vector<std::pair<std::size_t, const data::Sample*>> sent;
  for (std::size_t round = 0; round < 3; ++round)
    for (std::size_t u = 0; u < n_users; ++u)
      for (const data::Sample& q : users[u].test) {
        // The last round is latency-sensitive traffic: a (generous)
        // deadline and a priority bump. The scheduler sorts these ahead
        // within the tenant's queue, pulls them EDF-first when the
        // deadline closes in, and would expire them (DeadlineExceeded,
        // never touching the crossbar) rather than serve them late.
        serve::SubmitOptions opts;
        if (round == 2) {
          opts.deadline_ms = 500.0;
          opts.priority = 1;
        }
        handles.push_back(engine.submit(serve::Request{u, q}, opts));
        sent.emplace_back(u, &q);
      }

  // ---- Lifecycle, mid-serve: a new signup, an eviction, a rebalance ----
  // User 6 trains while the engine is busy, then joins the live store; user
  // 0 churns out. In-flight batches keep serving against their pinned
  // directory epoch throughout.
  serve::AdmissionHandle admission;
  {
    users.push_back(task.make_user(n_users, 20, 8));
    core::FrameworkConfig cfg_u = fcfg;
    cfg_u.seed = 1000 + n_users;
    core::NvcimPtFramework fw(model, task, cfg_u);
    fw.initialize_autoencoder(24);
    fw.train_from_buffer(users[n_users].train);
    admission = engine.admit(n_users, fw.export_deployment());  // returns staged
    std::printf("admitted user %zu mid-serve (%zu keys, router refreshed)\n", n_users,
                engine.deployment(n_users).n_ovts());
  }
  // Join the write-behind programming before routing traffic at the tenant
  // (Pending → Live; usually settled already by the in-flight waves).
  admission.wait();
  for (const data::Sample& q : users[n_users].test) {
    handles.push_back(engine.submit(serve::Request{n_users, q}));
    sent.emplace_back(n_users, &q);
  }
  engine.evict_user(0);
  std::printf("evicted user 0 (slot reclaimed after in-flight batches drain)\n");
  const std::size_t migrated = engine.rebalance();

  std::size_t correct = 0, labelled = 0, shed = 0, late = 0;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    try {
      const serve::Response r = handles[i].get();
      if (r.deadline_missed) ++late;
      if (r.has_label) {
        ++labelled;
        if (r.label == static_cast<std::size_t>(sent[i].second->label)) ++correct;
      }
    } catch (const Error&) {
      // A request still queued (not yet in a batch) when its user was
      // evicted — or one whose deadline expired before dispatch — fails
      // with an error instead of serving stale (or late) state.
      ++shed;
    }
  }
  engine.stop();

  const serve::StatsSnapshot s = engine.stats();
  std::printf("\nserved %zu requests in %zu batches (avg batch %.1f)\n", s.requests, s.batches,
              s.avg_batch_size);
  std::printf("throughput  %8.0f req/s\n", s.throughput_rps);
  std::printf("latency     p50 %.2f ms   p95 %.2f ms   p99 %.2f ms\n", s.p50_latency_ms,
              s.p95_latency_ms, s.p99_latency_ms);
  std::printf("queue       wait p50 %.2f ms   p95 %.2f ms   depth HWM %zu\n",
              s.queue_wait_p50_ms, s.queue_wait_p95_ms, s.queue_depth_hwm);
  std::printf("deadlines   %zu expired before dispatch, %zu served past deadline\n",
              s.expired_requests, late);
  const double stage_total = s.encode_ms + s.retrieve_ms + s.decode_ms + s.classify_ms;
  std::printf("stages      encode %.1f ms (%.0f%%) | retrieve %.1f ms (%.0f%%) | "
              "decode %.1f ms (%.0f%%) | classify %.1f ms (%.0f%%)\n",
              s.encode_ms, 100.0 * s.encode_ms / stage_total, s.retrieve_ms,
              100.0 * s.retrieve_ms / stage_total, s.decode_ms, 100.0 * s.decode_ms / stage_total,
              s.classify_ms, 100.0 * s.classify_ms / stage_total);
  std::printf("prompt LRU  %.0f%% hit rate (%zu hits / %zu misses, %zu batched decode GEMMs)\n",
              100.0 * s.cache_hit_rate, s.cache_hits, s.cache_misses, s.batched_decode_gemms);
  if (s.candidates_possible > 0)
    std::printf("two-phase   %zu of %zu key scores pruned (%.0f%%), sampled recall@1 %.3f\n",
                s.candidates_possible - s.candidates_examined, s.candidates_possible,
                100.0 * s.pruned_fraction, s.sampled_recall_at1);
  std::printf("lifecycle   %zu admitted / %zu evicted / %zu migrated (%zu router refreshes, "
              "rebalance %.1f ms, %zu requests shed by eviction); store now holds %zu users, "
              "epoch %llu\n",
              s.users_admitted, s.users_evicted, migrated, s.router_refreshes, s.rebalance_ms,
              shed, engine.store().n_users(),
              static_cast<unsigned long long>(engine.store().epoch()));
  if (labelled > 0)
    std::printf("accuracy    %.1f%% over %zu classified requests\n",
                100.0 * static_cast<double>(correct) / static_cast<double>(labelled), labelled);

  // ---- Observability exports: Chrome trace, exemplars, Prometheus text ----
  if (engine.tracer().write_chrome_trace_file("multi_tenant_trace.json"))
    std::printf("\ntrace       %zu spans over %zu threads -> multi_tenant_trace.json "
                "(open in ui.perfetto.dev)\n",
                engine.tracer().events().size(), engine.tracer().n_threads());
  const std::vector<serve::SlowRequest> slow = engine.slow_requests();
  if (!slow.empty()) {
    std::printf("slow        %zu request(s) over %.0f ms, worst:\n", slow.size(),
                scfg.slow_request_ms);
    const serve::SlowRequest* worst = &slow.front();
    for (const serve::SlowRequest& sr : slow)
      if (sr.latency_ms > worst->latency_ms) worst = &sr;
    std::printf("            user %zu batch %llu: %.2f ms (queue %.2f ms; batch stages "
                "enc %.1f / ret %.1f / dec %.1f / cls %.1f ms)\n",
                worst->user_id, static_cast<unsigned long long>(worst->batch_id),
                worst->latency_ms, worst->queue_wait_ms, worst->encode_ms,
                worst->retrieve_ms, worst->decode_ms, worst->classify_ms);
  }
  // The per-tenant slice of the registry — the counters a tiering scheduler
  // would act on. The full dump is engine.metrics().prometheus_text().
  std::printf("\nper-tenant metrics (Prometheus excerpt):\n");
  const std::string prom = engine.metrics().prometheus_text();
  std::size_t pos = 0, shown = 0;
  while (shown < 12 && (pos = prom.find("nvcim_tenant_", pos)) != std::string::npos) {
    const std::size_t bol = prom.rfind('\n', pos) + 1;  // npos + 1 == 0 at start
    const std::size_t eol = prom.find('\n', pos);
    const std::string line = prom.substr(pos, eol - pos);
    if (prom[bol] != '#' &&  // skip HELP/TYPE comments
        line.find("_bucket") == std::string::npos) {  // skip histogram buckets
      std::printf("  %s\n", line.c_str());
      ++shown;
    }
    pos = eol;
  }
  return 0;
}
