// Live introspection plane (PR 10): rolling delta-ring windows, dual-window
// SLO burn rates, the embedded HTTP admin server, and the engine health
// verdict behind /healthz.
//
//  - windows run on an explicit deterministic clock: deltas isolate recent
//    traffic, quantiles match the source histogram to bucket resolution,
//    warm-up falls back to since-start, retention bounds the ring
//  - burn-rate states need BOTH windows over threshold (a fast-only spike
//    never pages), and a zero error budget burns infinitely on any miss
//  - the HTTP server routes, strips query strings, and maps unknown paths /
//    bad methods / throwing handlers to 404/405/500
//  - a live /metrics scrape is byte-identical to the in-process exposition
//  - /healthz flips Critical (503) during a fault storm and recovers to Ok
//    (200) after scrub_now(); queue saturation and an always-bad latency SLO
//    also drive 503
//  - evicting a tenant retires its labelled series; re-admission revives
//
// The Introspection* engine suites run under ASan/TSan in CI.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "nvcim/obs/httpd.hpp"
#include "nvcim/obs/slo.hpp"
#include "nvcim/obs/window.hpp"
#include "nvcim/serve/engine.hpp"

namespace nvcim {
namespace {

// ---------------------------------------------------------------------------
// Rolling windows (deterministic clock).
// ---------------------------------------------------------------------------

TEST(ObsWindow, DeltaIsolatesRecentTraffic) {
  obs::Histogram h;
  obs::WindowConfig wc{1000.0, 5, 60000.0};
  obs::HistogramWindow w(&h, wc);
  EXPECT_TRUE(w.advance(0.0));    // seeds the ring
  EXPECT_FALSE(w.advance(500.0)); // idempotent within a bucket

  for (int i = 0; i < 100; ++i) h.record(10.0);
  EXPECT_TRUE(w.advance(1000.0));
  for (int i = 0; i < 200; ++i) h.record(1000.0);
  EXPECT_TRUE(w.advance(2000.0));

  // The last second saw only the 1000.0 records.
  const obs::WindowDelta recent = w.delta(2000.0, 1000.0);
  EXPECT_EQ(recent.count(), 200u);
  EXPECT_NEAR(recent.span_ms(), 1000.0, 1e-9);
  EXPECT_NEAR(recent.rate_per_sec(), 200.0, 1e-9);
  EXPECT_NEAR(recent.mean(), 1000.0, 50.0);
  EXPECT_NEAR(recent.value_at_quantile(0.5), 1000.0, 50.0);
  EXPECT_EQ(recent.count_le(100.0), 0u);

  // A two-second window reaches back to the seed and sees both phases.
  const obs::WindowDelta both = w.delta(2000.0, 2000.0);
  EXPECT_EQ(both.count(), 300u);
  EXPECT_EQ(both.count_le(100.0), 100u);
}

TEST(ObsWindow, QuantilesMatchHistogramToBucketResolution) {
  obs::Histogram h;
  obs::HistogramWindow w(&h, obs::WindowConfig{1000.0, 5, 60000.0});
  w.advance(0.0);
  // Deterministic spread over ~0.5..100.4 ms.
  for (int i = 0; i < 2000; ++i) h.record(0.5 + static_cast<double>((i * 37) % 1000) * 0.1);
  w.advance(1000.0);

  // The window covers every record, so its rank-interpolated quantiles must
  // agree with the histogram's own (which additionally clamp to the exact
  // observed min/max) to within the log-linear bucket resolution.
  const obs::WindowDelta d = w.delta(1000.0, 1000.0);
  ASSERT_EQ(d.count(), 2000u);
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    const double exact = h.value_at_quantile(q);
    EXPECT_NEAR(d.value_at_quantile(q), exact, 0.05 * exact) << "q=" << q;
  }
}

TEST(ObsWindow, WarmupFallsBackToSinceStart) {
  obs::Histogram h;
  obs::HistogramWindow w(&h, obs::WindowConfig{1000.0, 5, 60000.0});
  w.advance(0.0);
  for (int i = 0; i < 10; ++i) h.record(5.0);
  // Mid-bucket, asking for a much wider window than the ring holds: the
  // delta spans since start, not the requested window.
  const obs::WindowDelta d = w.delta(500.0, 5000.0);
  EXPECT_EQ(d.count(), 10u);
  EXPECT_NEAR(d.span_ms(), 500.0, 1e-9);
}

TEST(ObsWindow, RetentionBoundsRingAndKeepsWindowReadable) {
  obs::Histogram h;
  obs::HistogramWindow w(&h, obs::WindowConfig{1000.0, 3, 3000.0});
  w.advance(0.0);
  for (int t = 1; t <= 10; ++t) {
    for (int i = 0; i < 5; ++i) h.record(1.0);
    EXPECT_TRUE(w.advance(1000.0 * t));
    // One baseline older than retention plus retention/bucket live entries.
    EXPECT_LE(w.ring_size(), 5u) << "t=" << t;
  }
  const obs::WindowDelta d = w.delta(10000.0, 3000.0);
  EXPECT_EQ(d.count(), 15u);  // exactly the last three buckets
  EXPECT_NEAR(d.span_ms(), 3000.0, 1e-9);
}

TEST(ObsWindow, CounterWindowRates) {
  obs::Counter c;
  obs::CounterWindow w(&c, obs::WindowConfig{1000.0, 5, 60000.0});
  w.advance(0.0);
  for (int t = 1; t <= 3; ++t) {
    c.inc(5.0);
    w.advance(1000.0 * t);
  }
  const obs::CounterWindow::Delta d = w.delta(3000.0, 2000.0);
  EXPECT_NEAR(d.value, 10.0, 1e-9);
  EXPECT_NEAR(d.span_ms, 2000.0, 1e-9);
  EXPECT_NEAR(d.rate_per_sec(), 5.0, 1e-9);

  // Full-history window: everything since the seed.
  EXPECT_NEAR(w.delta(3000.0, 3000.0).value, 15.0, 1e-9);
}

// ---------------------------------------------------------------------------
// SLO burn rates (pure).
// ---------------------------------------------------------------------------

TEST(ObsSlo, BurnRateNeedsBothWindowsOverThreshold) {
  const obs::BurnRateConfig bc;  // warn at 2x, critical at 10x
  const double objective = 0.99; // 1% error budget

  // Clean traffic: no burn.
  obs::BurnRate b = obs::evaluate_burn_rate({1000, 0}, {5000, 0}, objective, bc);
  EXPECT_EQ(b.state, obs::HealthState::Ok);
  EXPECT_NEAR(b.fast, 0.0, 1e-12);

  // 3% bad in both windows: 3x burn, warning.
  b = obs::evaluate_burn_rate({1000, 30}, {5000, 150}, objective, bc);
  EXPECT_EQ(b.state, obs::HealthState::Warning);
  EXPECT_NEAR(b.fast, 3.0, 1e-9);
  EXPECT_NEAR(b.slow, 3.0, 1e-9);

  // 15% bad in both: 15x burn, critical.
  b = obs::evaluate_burn_rate({1000, 150}, {5000, 750}, objective, bc);
  EXPECT_EQ(b.state, obs::HealthState::Critical);

  // A fast-window-only spike never pages: the slow window is clean.
  b = obs::evaluate_burn_rate({1000, 150}, {5000, 0}, objective, bc);
  EXPECT_EQ(b.state, obs::HealthState::Ok);
}

TEST(ObsSlo, EmptyWindowsAndZeroBudgetEdges) {
  const obs::BurnRateConfig bc;
  // No traffic: no burn, Ok.
  obs::BurnRate b = obs::evaluate_burn_rate({0, 0}, {0, 0}, 0.99, bc);
  EXPECT_EQ(b.state, obs::HealthState::Ok);
  EXPECT_NEAR(b.fast, 0.0, 1e-12);

  // Objective 1.0 means zero budget: any miss is an infinite burn.
  b = obs::evaluate_burn_rate({10, 1}, {10, 1}, 1.0, bc);
  EXPECT_EQ(b.state, obs::HealthState::Critical);
  EXPECT_TRUE(std::isinf(b.fast));

  EXPECT_EQ(obs::worst(obs::HealthState::Warning, obs::HealthState::Critical),
            obs::HealthState::Critical);
  EXPECT_STREQ(obs::to_string(obs::HealthState::Warning), "warning");
}

// ---------------------------------------------------------------------------
// Embedded HTTP server.
// ---------------------------------------------------------------------------

TEST(ObsHttp, RoutesQueryStringsAndErrorPaths) {
  obs::HttpServerConfig hc;  // port 0: ephemeral
  obs::HttpServer s(hc);
  s.handle("/hello", [](const std::string& target) {
    obs::HttpResponse r;
    r.body = "hi " + target;
    return r;
  });
  s.handle("/boom", [](const std::string&) -> obs::HttpResponse {
    throw std::runtime_error("kaboom");
  });
  ASSERT_TRUE(s.start());
  ASSERT_NE(s.port(), 0);
  EXPECT_TRUE(s.running());

  std::string body;
  EXPECT_EQ(obs::http_get("127.0.0.1", s.port(), "/hello", &body), 200);
  EXPECT_EQ(body, "hi /hello");
  // The query string is stripped for routing but passed to the handler.
  EXPECT_EQ(obs::http_get("127.0.0.1", s.port(), "/hello?q=1", &body), 200);
  EXPECT_EQ(body, "hi /hello?q=1");
  EXPECT_EQ(obs::http_get("127.0.0.1", s.port(), "/nope", nullptr), 404);
  EXPECT_EQ(obs::http_get("127.0.0.1", s.port(), "/boom", &body), 500);

  s.stop();
  s.stop();  // idempotent
  EXPECT_FALSE(s.running());
}

// ---------------------------------------------------------------------------
// EngineStats: windowed SLIs, derived gauges and tenant-series lifecycle
// (deterministic clock via the explicit-now APIs).
// ---------------------------------------------------------------------------

TEST(IntrospectionStats, WindowedPercentilesTrackCumulativeOverSteadyPhase) {
  obs::WindowConfig wc{1000.0, 10, 60000.0};
  serve::EngineStats st(wc);
  st.advance_windows(0.0);

  // Steady phase: 600 requests, latencies cycling 1.0..10.9 ms.
  double now = 0.0;
  for (int i = 0; i < 600; ++i) {
    st.record_request(static_cast<std::size_t>(i % 4),
                      1.0 + 0.1 * static_cast<double>(i % 100), 0.2, false);
    if (i % 60 == 59) {
      now += 1000.0;
      st.advance_windows(now);
    }
  }

  // Acceptance: over a steady phase the windowed p95 stays within 10% of the
  // cumulative (exact-min/max-clamped) histogram p95. Everything recorded so
  // far is inside the primary window, so they estimate the same population.
  const serve::WindowedSli sli = st.windowed_at(now, 50.0, wc.window_ms());
  const serve::StatsSnapshot snap = st.snapshot();
  ASSERT_EQ(sli.stats.requests, 600u);
  EXPECT_NEAR(sli.stats.p50_latency_ms, snap.p50_latency_ms, 0.10 * snap.p50_latency_ms);
  EXPECT_NEAR(sli.stats.p95_latency_ms, snap.p95_latency_ms, 0.10 * snap.p95_latency_ms);
  EXPECT_NEAR(sli.stats.p99_latency_ms, snap.p99_latency_ms, 0.10 * snap.p99_latency_ms);
  EXPECT_NEAR(sli.stats.throughput_rps, 60.0, 1.0);
  EXPECT_EQ(sli.latency.bad, 0u);  // all under the 50 ms threshold

  // Regression phase: 300 requests at ~100x the latency. The rolling window
  // pins on the incident while the cumulative p50 stays diluted.
  for (int i = 0; i < 300; ++i) {
    st.record_request(static_cast<std::size_t>(i % 4),
                      100.0 + 0.1 * static_cast<double>(i % 100), 0.2, false);
    if (i % 60 == 59) {
      now += 1000.0;
      st.advance_windows(now);
    }
  }
  const serve::WindowedSli incident = st.windowed_at(now, 50.0, 5000.0);
  EXPECT_EQ(incident.stats.requests, 300u);
  EXPECT_GT(incident.stats.p50_latency_ms, 90.0);
  EXPECT_EQ(incident.latency.bad, 300u);  // every request over threshold
  EXPECT_LT(st.snapshot().p50_latency_ms, 20.0);

  // Composed with the burn evaluator this is exactly the paging signal:
  // 100% bad against a 1% budget in both windows.
  const serve::WindowedSli slow_w = st.windowed_at(now, 50.0, wc.window_ms());
  const obs::BurnRate burn =
      obs::evaluate_burn_rate(incident.latency, slow_w.latency, 0.99, obs::BurnRateConfig{});
  EXPECT_EQ(burn.state, obs::HealthState::Critical);
}

TEST(IntrospectionStats, WindowedRatesDecayAfterIncident) {
  obs::WindowConfig wc{1000.0, 5, 60000.0};
  serve::EngineStats st(wc);
  st.advance_windows(0.0);

  // Incident phase (t=0..5s): half the responses degraded, some expiries
  // and late completions.
  double now = 0.0;
  for (int i = 0; i < 100; ++i) {
    st.record_request(0, 5.0, 0.5, false);
    if (i % 2 == 0) st.record_degraded_response();
    if (i % 20 == 0) {
      st.record_tenant_candidates(0, 1);
      st.record_expired(0);
      st.record_deadline_miss(0);
    }
    if (i % 20 == 19) {
      now += 1000.0;
      st.advance_windows(now);
    }
  }
  const serve::WindowedSli during = st.windowed_at(now, 50.0, wc.window_ms());
  EXPECT_EQ(during.availability.total, 100u);
  EXPECT_EQ(during.availability.bad, 50u);
  EXPECT_NEAR(during.stats.degraded_rate, 0.5, 1e-9);
  EXPECT_EQ(during.deadline.bad, 10u);  // 5 late + 5 expired
  EXPECT_GT(during.stats.error_rate, 0.0);

  // Clean phase (t=5..10s): the rates decay to zero as the incident leaves
  // the window — this is the health state machine's recovery edge.
  for (int i = 0; i < 100; ++i) {
    st.record_request(0, 5.0, 0.5, false);
    if (i % 20 == 19) {
      now += 1000.0;
      st.advance_windows(now);
    }
  }
  const serve::WindowedSli after = st.windowed_at(now, 50.0, wc.window_ms());
  EXPECT_EQ(after.availability.total, 100u);
  EXPECT_EQ(after.availability.bad, 0u);
  EXPECT_NEAR(after.stats.degraded_rate, 0.0, 1e-12);
  EXPECT_NEAR(after.stats.error_rate, 0.0, 1e-12);
  EXPECT_NEAR(after.stats.deadline_miss_rate, 0.0, 1e-12);
}

TEST(IntrospectionStats, TenantRetirementDropsSeriesAndReviveRestarts) {
  serve::EngineStats st;
  st.record_request(7, 5.0, 1.0, false);
  st.record_request(8, 5.0, 1.0, false);
  EXPECT_NE(st.registry().prometheus_text().find("tenant=\"7\""), std::string::npos);

  st.retire_tenant(7);
  std::string text = st.registry().prometheus_text();
  EXPECT_EQ(text.find("tenant=\"7\""), std::string::npos);
  EXPECT_NE(text.find("tenant=\"8\""), std::string::npos);  // others untouched
  EXPECT_NE(text.find("nvcim_tenants_retired_total 1"), std::string::npos);
  EXPECT_EQ(st.snapshot().tenants_retired, 1u);

  // Stragglers for a retired tenant record globally, never resurrecting the
  // labelled series; repeat retirement is a no-op.
  st.record_request(7, 5.0, 1.0, false);
  st.retire_tenant(7);
  text = st.registry().prometheus_text();
  EXPECT_EQ(text.find("tenant=\"7\""), std::string::npos);
  EXPECT_EQ(st.snapshot().tenants_retired, 1u);
  EXPECT_EQ(st.snapshot().requests, 3u);  // the straggler still counted globally

  // Re-admission starts a fresh labelled series from zero.
  st.revive_tenant(7);
  st.record_request(7, 5.0, 1.0, false);
  EXPECT_NE(st.registry().prometheus_text().find(
                "nvcim_tenant_requests_total{tenant=\"7\"} 1"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine-level introspection (threaded; ASan/TSan in CI).
// ---------------------------------------------------------------------------

llm::TinyLM intro_model(std::size_t vocab, std::uint64_t seed) {
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

struct IntrospectionFixture {
  data::LampTask task{data::lamp1_config()};
  llm::TinyLM model;
  std::shared_ptr<const compress::Autoencoder> autoencoder;

  IntrospectionFixture() : model(intro_model(task.vocab_size(), 23)) {
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
    cfg.introspection.enabled = true;  // port 0: ephemeral
    // Keep the latency SLO out of the way unless a test opts in: engine
    // wall-clock under sanitizers would otherwise burn the default budget.
    cfg.slo.latency_threshold_ms = 1e9;
    return cfg;
  }

  data::Sample query(Rng& rng) {
    return task.sample(rng.uniform_index(task.config().n_domains), rng);
  }
};

TEST(Introspection, MetricsScrapeByteIdenticalToInProcessExposition) {
  IntrospectionFixture f;
  serve::ServingConfig cfg = f.config(2, 2, 4);
  cfg.window.bucket_ms = 1e12;  // freeze derived gauges: no boundary crossings
  cfg.window.retention_ms = cfg.window.window_ms();  // retention must cover the window
  serve::ServingEngine engine(f.model, f.task, cfg);
  for (std::size_t u = 0; u < 2; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();
  const std::uint16_t port = engine.introspection_port();
  ASSERT_NE(port, 0);

  Rng qr(901);
  for (int t = 0; t < 6; ++t)
    engine.submit(serve::Request{static_cast<std::size_t>(t) % 2, f.query(qr)}).get();

  // The batch worker records its stage-time totals just after fulfilling the
  // response futures, so poll until the traffic quiesces: once it has, the
  // scrape must be byte-identical to the in-process exposition.
  std::string scraped, inproc;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  do {
    ASSERT_EQ(obs::http_get("127.0.0.1", port, "/metrics", &scraped), 200);
    inproc = engine.metrics().prometheus_text();
  } while (scraped != inproc && std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(scraped, inproc);
  EXPECT_NE(scraped.find("nvcim_request_latency_ms_count 6"), std::string::npos);
  EXPECT_NE(scraped.find("nvcim_queue_depth 0"), std::string::npos);
  EXPECT_NE(scraped.find("nvcim_throughput_rps_1m"), std::string::npos);

  // The rest of the plane answers too.
  std::string body;
  EXPECT_EQ(obs::http_get("127.0.0.1", port, "/", &body), 200);
  EXPECT_EQ(obs::http_get("127.0.0.1", port, "/metrics.json", &body), 200);
  EXPECT_NE(body.find("nvcim_request_latency_ms"), std::string::npos);
  EXPECT_EQ(obs::http_get("127.0.0.1", port, "/debug/engine", &body), 200);
  EXPECT_NE(body.find("\"requests\": 6"), std::string::npos);
  EXPECT_NE(body.find("\"last_minute\""), std::string::npos);
  EXPECT_EQ(obs::http_get("127.0.0.1", port, "/debug/slow", &body), 200);
  EXPECT_EQ(obs::http_get("127.0.0.1", port, "/debug/trace", &body), 200);
  EXPECT_EQ(obs::http_get("127.0.0.1", port, "/nope", &body), 404);

  engine.stop();
  EXPECT_EQ(engine.introspection_port(), 0);  // server gone with the engine
}

TEST(Introspection, HealthzCriticalDuringFaultStormRecoversAfterScrub) {
  IntrospectionFixture f;
  serve::ServingEngine engine(f.model, f.task, f.config(2, 2, 8));
  for (std::size_t u = 0; u < 4; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();
  const std::uint16_t port = engine.introspection_port();
  ASSERT_NE(port, 0);

  // Healthy baseline.
  serve::HealthReport r = engine.health();
  EXPECT_EQ(r.state, obs::HealthState::Ok);
  EXPECT_TRUE(r.ready);
  EXPECT_GT(r.subarrays_total, 0u);
  EXPECT_EQ(r.subarrays_degraded, 0u);
  EXPECT_EQ(obs::http_get("127.0.0.1", port, "/healthz", nullptr), 200);
  EXPECT_EQ(obs::http_get("127.0.0.1", port, "/readyz", nullptr), 200);

  // Storm: age the whole device, then detect-only scrubs publish every
  // subarray Degraded (no repair yet — the background scrubber is off).
  engine.store_mutable().set_drift_rate(0.05);
  engine.store_mutable().advance_age(2);
  for (std::size_t s = 0; s < engine.store().n_shards(); ++s)
    for (std::size_t sub = 0; sub < engine.store().shard_subarrays(s); ++sub)
      engine.store_mutable().scrub_subarray(s, sub);

  r = engine.health();
  EXPECT_EQ(r.state, obs::HealthState::Critical);
  EXPECT_GT(r.subarrays_degraded, 0u);
  EXPECT_FALSE(r.reasons.empty());
  std::string body;
  EXPECT_EQ(obs::http_get("127.0.0.1", port, "/healthz", &body), 503);
  EXPECT_NE(body.find("\"state\": \"critical\""), std::string::npos);
  EXPECT_NE(body.find("device fleet degraded"), std::string::npos);

  // One repairing scrub pass fixes the drift and clears the health marks:
  // /healthz recovers to 200.
  const serve::ScrubOutcome out = engine.scrub_now();
  EXPECT_GT(out.columns_repaired, 0u);
  r = engine.health();
  EXPECT_EQ(r.state, obs::HealthState::Ok) << r.json();
  EXPECT_EQ(r.subarrays_degraded, 0u);
  EXPECT_EQ(obs::http_get("127.0.0.1", port, "/healthz", &body), 200);
  EXPECT_NE(body.find("\"state\": \"ok\""), std::string::npos);
  engine.stop();
}

TEST(Introspection, HealthzCriticalWhenQueueSaturatedAndRecoversOnDrain) {
  IntrospectionFixture f;
  serve::ServingConfig cfg = f.config(2, 1, 8);
  // A worker that can never see min_batch queued requests holds the queue at
  // capacity for the whole coalescing window: deterministic saturation.
  cfg.min_batch = 8;
  cfg.batch_window_ms = 1500.0;
  cfg.queue_capacity = 4;
  serve::ServingEngine engine(f.model, f.task, cfg);
  for (std::size_t u = 0; u < 2; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();
  const std::uint16_t port = engine.introspection_port();
  ASSERT_NE(port, 0);

  Rng qr(911);
  std::vector<std::future<serve::Response>> futures;
  for (int t = 0; t < 4; ++t)
    futures.push_back(
        engine.submit(serve::Request{static_cast<std::size_t>(t) % 2, f.query(qr)}).take_future());

  // The queue sits at 4/4 while the worker waits out the batch window.
  bool saw_critical = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    const serve::HealthReport r = engine.health();
    if (r.state == obs::HealthState::Critical && r.queue_depth >= r.queue_capacity) {
      saw_critical = true;
      EXPECT_EQ(obs::http_get("127.0.0.1", port, "/healthz", nullptr), 503);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(saw_critical);

  for (auto& fu : futures) fu.get();
  // Drained: the live gauge and the verdict both recover.
  const auto recover = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  serve::HealthReport r = engine.health();
  while ((r.queue_depth != 0 || r.state != obs::HealthState::Ok) &&
         std::chrono::steady_clock::now() < recover) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    r = engine.health();
  }
  EXPECT_EQ(r.queue_depth, 0u);
  EXPECT_EQ(r.state, obs::HealthState::Ok) << r.json();
  EXPECT_EQ(obs::http_get("127.0.0.1", port, "/healthz", nullptr), 200);
  EXPECT_EQ(engine.stats().queue_depth, 0u);
  engine.stop();
}

TEST(Introspection, LatencySloBurnDrivesHealthzCritical) {
  IntrospectionFixture f;
  serve::ServingConfig cfg = f.config(2, 2, 4);
  cfg.slo.latency_threshold_ms = 1e-6;  // every request misses the SLO
  cfg.slo.latency_objective = 0.99;
  serve::ServingEngine engine(f.model, f.task, cfg);
  for (std::size_t u = 0; u < 2; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();
  const std::uint16_t port = engine.introspection_port();
  ASSERT_NE(port, 0);

  Rng qr(921);
  for (int t = 0; t < 8; ++t)
    engine.submit(serve::Request{static_cast<std::size_t>(t) % 2, f.query(qr)}).get();

  // 100% bad against a 1% budget: 100x burn in both (warm-up) windows.
  const serve::HealthReport r = engine.health();
  EXPECT_EQ(r.state, obs::HealthState::Critical) << r.json();
  ASSERT_EQ(r.slos.size(), 3u);
  EXPECT_EQ(r.slos[0].name, "latency");
  EXPECT_EQ(r.slos[0].burn.state, obs::HealthState::Critical);
  EXPECT_GT(r.slos[0].burn.fast, 10.0);
  EXPECT_EQ(r.slos[1].burn.state, obs::HealthState::Ok);  // availability clean
  std::string body;
  EXPECT_EQ(obs::http_get("127.0.0.1", port, "/healthz", &body), 503);
  EXPECT_NE(body.find("latency SLO burning"), std::string::npos);
  engine.stop();
}

TEST(Introspection, ReadyzTracksEngineLifecycle) {
  IntrospectionFixture f;
  serve::ServingEngine engine(f.model, f.task, f.config(2, 2, 4));
  for (std::size_t u = 0; u < 2; ++u) engine.add_deployment(u, f.make_deployment(u));

  EXPECT_FALSE(engine.health().ready);  // workers not up yet
  EXPECT_EQ(engine.introspection_port(), 0);

  engine.start();
  EXPECT_TRUE(engine.health().ready);
  const std::uint16_t port = engine.introspection_port();
  ASSERT_NE(port, 0);
  std::string body;
  EXPECT_EQ(obs::http_get("127.0.0.1", port, "/readyz", &body), 200);
  EXPECT_NE(body.find("\"ready\": true"), std::string::npos);

  engine.stop();
  EXPECT_FALSE(engine.health().ready);
}

TEST(Introspection, EvictedTenantSeriesRetiredFromLiveExposition) {
  IntrospectionFixture f;
  serve::ServingEngine engine(f.model, f.task, f.config(2, 2, 4));
  for (std::size_t u = 0; u < 3; ++u) engine.add_deployment(u, f.make_deployment(u));
  engine.start();

  Rng qr(931);
  for (int t = 0; t < 6; ++t)
    engine.submit(serve::Request{static_cast<std::size_t>(t) % 3, f.query(qr)}).get();
  std::string text = engine.metrics().prometheus_text();
  EXPECT_NE(text.find("tenant=\"0\""), std::string::npos);

  engine.evict_user(0);
  text = engine.metrics().prometheus_text();
  EXPECT_EQ(text.find("tenant=\"0\""), std::string::npos);
  EXPECT_NE(text.find("tenant=\"1\""), std::string::npos);
  EXPECT_EQ(engine.stats().tenants_retired, 1u);

  // Re-admission revives the labelled series from zero.
  engine.admit(0, f.make_deployment(0)).wait();
  engine.submit(serve::Request{0, f.query(qr)}).get();
  text = engine.metrics().prometheus_text();
  EXPECT_NE(text.find("nvcim_tenant_requests_total{tenant=\"0\"} 1"), std::string::npos);
  engine.stop();
}

}  // namespace
}  // namespace nvcim
