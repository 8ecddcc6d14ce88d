#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "nvcim/llm/pretrain.hpp"
#include "nvcim/obs/histogram.hpp"
#include "nvcim/obs/metrics.hpp"
#include "nvcim/obs/trace.hpp"
#include "nvcim/serve/engine.hpp"

namespace nvcim {
namespace {

// ---------------------------------------------------------------------------
// Histogram: bucket boundaries, percentile accuracy, merge, concurrency.
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketBoundariesPartitionTheRange) {
  obs::Histogram h;
  const obs::HistogramConfig& cfg = h.config();
  // Bucket 0 is the underflow bucket (-inf, min_value]; every later bucket
  // covers (lower, upper] with lower == previous upper.
  EXPECT_EQ(h.bucket_lower(0), 0.0);
  EXPECT_EQ(h.bucket_upper(0), cfg.min_value);
  for (std::size_t i = 1; i < h.n_buckets(); ++i) {
    EXPECT_DOUBLE_EQ(h.bucket_lower(i), h.bucket_upper(i - 1)) << "bucket " << i;
    EXPECT_LT(h.bucket_lower(i), h.bucket_upper(i)) << "bucket " << i;
    // Log-linear promise: relative bucket width <= 1/sub_buckets.
    const double rel = (h.bucket_upper(i) - h.bucket_lower(i)) / h.bucket_lower(i);
    EXPECT_LE(rel, 1.0 / static_cast<double>(cfg.sub_buckets) + 1e-12) << "bucket " << i;
  }
  // bucket_index agrees with the boundaries it reports.
  Rng rng(7);
  for (int t = 0; t < 2000; ++t) {
    const double v = std::exp(rng.uniform(std::log(1e-4), std::log(1e4)));
    const std::size_t i = h.bucket_index(v);
    ASSERT_LT(i, h.n_buckets());
    EXPECT_GT(v, h.bucket_lower(i)) << "v=" << v;
    EXPECT_LE(v, h.bucket_upper(i) * (1.0 + 1e-15)) << "v=" << v;
  }
}

TEST(ObsHistogram, UnderflowOverflowAndNanLandInEdgeBuckets) {
  obs::Histogram h;
  EXPECT_EQ(h.bucket_index(0.0), 0u);
  EXPECT_EQ(h.bucket_index(-5.0), 0u);
  EXPECT_EQ(h.bucket_index(std::nan("")), 0u);
  EXPECT_EQ(h.bucket_index(h.config().min_value), 0u);  // boundary is inclusive
  EXPECT_EQ(h.bucket_index(1e300), h.n_buckets() - 1);  // overflow clamp
}

TEST(ObsHistogram, PercentilesWithinFivePercentOfExact) {
  // The acceptance bound the serving stats promise: histogram percentiles
  // within 5% of the exact sorted-vector values, across heavy-tailed data.
  Rng rng(123);
  obs::Histogram h;
  std::vector<double> exact;
  for (int i = 0; i < 20000; ++i) {
    const double v = std::exp(rng.normal(1.0, 1.5));  // lognormal latencies (ms)
    exact.push_back(v);
    h.record(v);
  }
  std::sort(exact.begin(), exact.end());
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double want =
        exact[static_cast<std::size_t>(
                  std::ceil(q * static_cast<double>(exact.size()))) -
              1];
    const double got = h.value_at_quantile(q);
    EXPECT_NEAR(got, want, 0.05 * want) << "q=" << q;
  }
  EXPECT_EQ(h.value_at_quantile(0.0), exact.front());
  EXPECT_EQ(h.value_at_quantile(1.0), exact.back());
  EXPECT_DOUBLE_EQ(h.min(), exact.front());
  EXPECT_DOUBLE_EQ(h.max(), exact.back());
}

TEST(ObsHistogram, TailQuantilesSharingOneBucketStayDistinct) {
  // Regression: the churn bench reported identical p95 and p99 because the
  // old estimator returned the same midpoint-clamped value for every
  // quantile landing in one bucket. Rank interpolation keeps them distinct
  // and monotone in q.
  obs::Histogram h;
  for (int i = 0; i < 180; ++i) h.record(1.0);
  // 20 tail samples inside ONE bucket of the default layout
  // ((3.584, 3.648] = 2.048 * (1 + 24/32 .. 1 + 25/32)).
  for (int i = 0; i < 20; ++i) h.record(3.590 + 0.002 * i);
  ASSERT_EQ(h.bucket_index(3.590), h.bucket_index(3.628));

  const double p95 = h.value_at_quantile(0.95);
  const double p99 = h.value_at_quantile(0.99);
  EXPECT_LT(p95, p99) << "quantiles in one bucket collapsed";
  // Both stay inside the bucket and inside the exact [min, max] envelope.
  EXPECT_GE(p95, 3.584);
  EXPECT_LE(p99, h.max());
  // Monotone in q across the whole tail.
  double prev = 0.0;
  for (const double q : {0.905, 0.93, 0.95, 0.97, 0.99, 0.999}) {
    const double v = h.value_at_quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(ObsHistogram, MergeMatchesCombinedRecording) {
  Rng rng(99);
  obs::Histogram a, b, combined;
  for (int i = 0; i < 3000; ++i) {
    const double v = std::exp(rng.normal(0.0, 2.0));
    (i % 2 == 0 ? a : b).record(v);
    combined.record(v);
  }
  a.merge_from(b);
  ASSERT_EQ(a.count(), combined.count());
  // Addition order differs between the two paths — bit equality is too much.
  EXPECT_NEAR(a.sum(), combined.sum(), 1e-9 * combined.sum());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  for (std::size_t i = 0; i < a.n_buckets(); ++i)
    ASSERT_EQ(a.bucket_count(i), combined.bucket_count(i)) << "bucket " << i;
  // Mismatched layouts must refuse to merge.
  obs::HistogramConfig other;
  other.sub_buckets = 8;
  obs::Histogram c(other);
  EXPECT_THROW(a.merge_from(c), Error);
}

TEST(ObsHistogram, ConcurrentRecordingLosesNothing) {
  obs::Histogram h;
  const int kThreads = 4, kPer = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kPer; ++i) h.record(std::exp(rng.normal(0.0, 1.0)));
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPer));
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < h.n_buckets(); ++i) bucket_total += h.bucket_count(i);
  EXPECT_EQ(bucket_total, h.count());
  EXPECT_GT(h.value_at_quantile(0.99), h.value_at_quantile(0.5));
}

// ---------------------------------------------------------------------------
// Tracer: ring wraparound, spans, export, disabled no-op, multi-threaded.
// ---------------------------------------------------------------------------

obs::TracerConfig tiny_tracer(std::size_t capacity) {
  obs::TracerConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = capacity;
  return cfg;
}

TEST(ObsTracer, RingWraparoundKeepsMostRecentEvents) {
  obs::Tracer tracer(tiny_tracer(8));
  for (int i = 0; i < 20; ++i)
    tracer.complete("e", "test", static_cast<double>(i), static_cast<double>(i) + 0.5,
                    "i", i);
  const std::vector<obs::TraceEvent> evs = tracer.events();
  ASSERT_EQ(evs.size(), 8u);  // ring capacity, not total recorded
  EXPECT_EQ(tracer.dropped(), 12u);
  // The survivors are exactly the newest 8, sorted by start time.
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].v1, static_cast<std::int64_t>(12 + i));
    EXPECT_DOUBLE_EQ(evs[i].dur_us, 0.5);
  }
}

TEST(ObsTracer, ScopedSpansExportAsChromeTrace) {
  obs::Tracer tracer(tiny_tracer(64));
  {
    obs::Span outer(&tracer, "outer", "batch", "batch", 1);
    obs::Span inner(&tracer, "inner", "stage", "batch", 1, "B", 4);
  }
  const std::vector<obs::TraceEvent> evs = tracer.events();
  ASSERT_EQ(evs.size(), 2u);
  // Inner closes first; both spans carry non-negative durations and the
  // outer span encloses the inner one.
  EXPECT_STREQ(evs[0].name, "outer");
  EXPECT_STREQ(evs[1].name, "inner");
  EXPECT_GE(evs[0].dur_us, evs[1].dur_us);
  EXPECT_LE(evs[0].ts_us, evs[1].ts_us);

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"B\": 4"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  // Balanced braces — cheap structural sanity for the hand-rolled writer.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ObsTracer, DisabledTracerRecordsNothing) {
  obs::Tracer tracer;  // default config: disabled
  EXPECT_FALSE(tracer.enabled());
  tracer.complete("e", "test", 0.0, 1.0);
  { obs::Span span(&tracer, "s", "test"); }
  { obs::Span null_span(nullptr, "s", "test"); }  // null tracer is safe too
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.n_threads(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(ObsTracer, MultiThreadedRecordingKeepsPerThreadRings) {
  obs::Tracer tracer(tiny_tracer(1 << 10));
  const int kThreads = 4, kPer = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kPer; ++i) {
        const double ts = tracer.now_us();
        tracer.complete("e", "test", ts, ts + 1.0, "t", t);
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(tracer.n_threads(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(tracer.events().size(), static_cast<std::size_t>(kThreads * kPer));
  EXPECT_EQ(tracer.dropped(), 0u);
  // Export assigns every ring a distinct tid.
  std::vector<int> per_tid(kThreads, 0);
  for (const obs::TraceEvent& e : tracer.events()) {
    ASSERT_LT(e.tid, static_cast<std::uint32_t>(kThreads));
    ++per_tid[e.tid];
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_tid[t], kPer);
}

// ---------------------------------------------------------------------------
// Registry: exposition golden file, label normalization, kind safety.
// ---------------------------------------------------------------------------

TEST(ObsRegistry, PrometheusTextMatchesGolden) {
  obs::Registry reg;
  reg.counter("test_requests_total", {}, "requests served").inc(3);
  reg.gauge("test_depth", {}, "queue depth").set(7);
  reg.counter("test_stage_ms_total", {{"stage", "encode"}}, "per-stage ms").inc(1.5);
  obs::HistogramConfig cfg;
  cfg.min_value = 1.0;
  cfg.sub_buckets = 2;
  cfg.octaves = 2;
  obs::Histogram& h = reg.histogram("test_lat_ms", {}, "latency", cfg);
  h.record(0.5);  // underflow bucket, le="1"
  h.record(1.5);  // octave 0 sub 1, le="2"
  h.record(3.0);  // octave 1 sub 1, le="4"
  const std::string golden =
      "# HELP test_depth queue depth\n"
      "# TYPE test_depth gauge\n"
      "test_depth 7\n"
      "# HELP test_lat_ms latency\n"
      "# TYPE test_lat_ms histogram\n"
      "test_lat_ms_bucket{le=\"1\"} 1\n"
      "test_lat_ms_bucket{le=\"2\"} 2\n"
      "test_lat_ms_bucket{le=\"4\"} 3\n"
      "test_lat_ms_bucket{le=\"+Inf\"} 3\n"
      "test_lat_ms_sum 5\n"
      "test_lat_ms_count 3\n"
      "# HELP test_requests_total requests served\n"
      "# TYPE test_requests_total counter\n"
      "test_requests_total 3\n"
      "# HELP test_stage_ms_total per-stage ms\n"
      "# TYPE test_stage_ms_total counter\n"
      "test_stage_ms_total{stage=\"encode\"} 1.5\n";
  EXPECT_EQ(reg.prometheus_text(), golden);
}

TEST(ObsRegistry, JsonDumpCarriesPercentiles) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("lat", {{"tenant", "3"}}, "per-tenant latency");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const std::string json = reg.json_text();
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant\": \"3\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ObsRegistry, LabelOrderNeverForksASeries) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("m", {{"b", "2"}, {"a", "1"}});
  obs::Counter& b = reg.counter("m", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);
  a.inc(2);
  EXPECT_EQ(b.value(), 2.0);
}

TEST(ObsRegistry, ReusingANameAcrossKindsThrows) {
  obs::Registry reg;
  reg.counter("m");
  EXPECT_THROW(reg.gauge("m"), Error);
  EXPECT_THROW(reg.histogram("m"), Error);
}

TEST(ObsRegistry, ConcurrentRecordingIsExact) {
  obs::Registry reg;
  obs::Counter& total = reg.counter("total");
  const int kThreads = 4, kPer = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&reg, &total, t] {
      obs::Counter& mine = reg.counter("per_thread", {{"t", std::to_string(t)}});
      for (int i = 0; i < kPer; ++i) {
        total.inc();
        mine.inc();
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(total.value(), static_cast<double>(kThreads * kPer));
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(reg.counter("per_thread", {{"t", std::to_string(t)}}).value(),
              static_cast<double>(kPer));
}

// ---------------------------------------------------------------------------
// Engine integration: queue-wait split, frozen clock, span tree, exemplars.
// ---------------------------------------------------------------------------

/// Minimal clone of test_serve's fixture: a briefly pretrained backbone plus
/// per-user frameworks exported into a serving engine.
struct ObsEngineFixture {
  data::LampTask task{data::lamp1_config()};
  llm::TinyLM model;

  ObsEngineFixture() : model(make_model()) {}

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

  serve::ServingConfig serving_config(std::size_t n_shards, std::size_t n_threads) const {
    serve::ServingConfig cfg;
    cfg.n_shards = n_shards;
    cfg.n_threads = n_threads;
    cfg.crossbar.rows = 64;
    cfg.crossbar.cols = 16;
    cfg.crossbar.adc_bits = 0;
    cfg.variation = {nvm::fefet3(), 0.0};
    return cfg;
  }

  void add_user(serve::ServingEngine& engine, std::size_t user_id, std::uint64_t seed) {
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
    core::NvcimPtFramework fw(model, task, cfg);
    fw.initialize_autoencoder(12);
    fw.train_from_buffer(task.make_user(user_id, 10, 0).train);
    engine.add_deployment(user_id, fw.export_deployment());
  }
};

TEST(ObsEngine, QueueSplitPercentilesAndFrozenThroughput) {
  ObsEngineFixture f;
  serve::ServingConfig scfg = f.serving_config(1, 1);
  scfg.max_batch = 4;
  serve::ServingEngine engine(f.model, f.task, scfg);
  f.add_user(engine, 0, 600);
  engine.start();

  Rng qr(42);
  std::vector<std::pair<std::size_t, data::Sample>> requests;
  for (int i = 0; i < 32; ++i)
    requests.emplace_back(0u, f.task.sample(qr.uniform_index(f.task.config().n_domains), qr));
  std::vector<std::future<serve::Response>> futs;
  futs.reserve(requests.size());
  for (const auto& [u, q] : requests)
    futs.push_back(engine.submit(serve::Request{u, q}).take_future());
  std::vector<double> exact;
  for (auto& fu : futs) exact.push_back(fu.get().latency_ms);
  engine.stop();

  const serve::StatsSnapshot s = engine.stats();
  ASSERT_EQ(s.requests, requests.size());
  // Queue depth was at least 1 at every enqueue, and with a single worker
  // draining batches of 4, some submit saw a deeper queue.
  EXPECT_GE(s.queue_depth_hwm, 1u);
  // Percentiles are ordered and the queue-wait split obeys wait <= latency.
  EXPECT_LE(s.p50_latency_ms, s.p95_latency_ms);
  EXPECT_LE(s.p95_latency_ms, s.p99_latency_ms);
  EXPECT_LE(s.queue_wait_p50_ms, s.queue_wait_p95_ms);
  EXPECT_LE(s.queue_wait_p95_ms, s.p95_latency_ms * 1.05);
  // Histogram percentiles land within 5% of the exact per-response values.
  std::sort(exact.begin(), exact.end());
  const auto exact_q = [&exact](double q) {
    return exact[static_cast<std::size_t>(
                     std::ceil(q * static_cast<double>(exact.size()))) -
                 1];
  };
  EXPECT_NEAR(s.p50_latency_ms, exact_q(0.50), 0.05 * exact_q(0.50));
  EXPECT_NEAR(s.p95_latency_ms, exact_q(0.95), 0.05 * exact_q(0.95));
  EXPECT_NEAR(s.p99_latency_ms, exact_q(0.99), 0.05 * exact_q(0.99));

  // stop() froze the clock: a later snapshot reports the same throughput
  // instead of decaying against the wall clock.
  EXPECT_GT(s.throughput_rps, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_DOUBLE_EQ(engine.stats().throughput_rps, s.throughput_rps);
}

TEST(ObsEngine, TraceLinksRequestBatchStageAndShardSpans) {
  ObsEngineFixture f;
  serve::ServingConfig scfg = f.serving_config(2, 2);
  scfg.tracing.enabled = true;
  serve::ServingEngine engine(f.model, f.task, scfg);
  f.add_user(engine, 0, 610);
  f.add_user(engine, 1, 611);
  engine.start();

  Rng qr(43);
  std::vector<std::future<serve::Response>> futs;
  for (int i = 0; i < 12; ++i)
    futs.push_back(engine
                       .submit(serve::Request{
                           static_cast<std::size_t>(i % 2),
                           f.task.sample(qr.uniform_index(f.task.config().n_domains), qr)})
                       .take_future());
  for (auto& fu : futs) fu.get();
  engine.stop();

  const std::vector<obs::TraceEvent> evs = engine.tracer().events();
  std::size_t requests = 0, batches = 0, stages = 0, shards = 0;
  for (const obs::TraceEvent& e : evs) {
    const std::string cat = e.cat;
    if (cat == "request") ++requests;
    if (cat == "batch") ++batches;
    if (cat == "stage") ++stages;
    if (cat == "shard") ++shards;
  }
  EXPECT_EQ(requests, 12u);  // one span per served request
  EXPECT_GE(batches, 1u);
  EXPECT_GE(stages, 4u * batches);  // four stages per batch
  EXPECT_GE(shards, batches);       // at least one shard pass per batch
  EXPECT_EQ(engine.tracer().dropped(), 0u);

  // Linkage: every request span's batch id (v2) has exactly one span of
  // each stage, carrying that id as v1.
  std::map<std::pair<std::string, std::int64_t>, std::size_t> stage_spans;
  for (const obs::TraceEvent& e : evs)
    if (std::string(e.cat) == "stage") ++stage_spans[{e.name, e.v1}];
  for (const obs::TraceEvent& e : evs) {
    if (std::string(e.name) != "request") continue;
    ASSERT_STREQ(e.k2, "batch");
    for (const char* stage : {"encode", "retrieve", "decode", "classify"})
      EXPECT_EQ((stage_spans[{stage, e.v2}]), 1u) << stage << " span of batch " << e.v2;
  }

  std::ostringstream os;
  engine.tracer().write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"process_batch\""), std::string::npos);
  EXPECT_NE(json.find("\"shard_retrieve\""), std::string::npos);
  EXPECT_NE(json.find("\"request\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ObsEngine, StageSpansFitInsideEveryRequestsServiceTime) {
  // One batch of six requests whose on_complete callbacks each take ~2 ms.
  // Settling them is no stage's work: for every request, the four stage
  // spans of its batch must fit inside its own service time (latency minus
  // queue wait), the earliest-settled request included.
  ObsEngineFixture f;
  serve::ServingConfig scfg = f.serving_config(1, 1);
  scfg.tracing.enabled = true;
  scfg.run_inference = true;
  scfg.min_batch = 6;
  scfg.batch_window_ms = 2000.0;
  scfg.slow_request_ms = 1e-6;  // every request leaves an exemplar
  serve::ServingEngine engine(f.model, f.task, scfg);
  f.add_user(engine, 0, 630);
  engine.start();

  Rng qr(45);
  std::vector<std::future<serve::Response>> futs;
  for (int i = 0; i < 6; ++i) {
    serve::SubmitOptions opts;
    opts.on_complete = [](const serve::Response&, std::exception_ptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    };
    futs.push_back(
        engine
            .submit(serve::Request{0, f.task.sample(qr.uniform_index(f.task.config().n_domains),
                                                    qr)},
                    std::move(opts))
            .take_future());
  }
  std::vector<serve::Response> resps;
  for (auto& fu : futs) resps.push_back(fu.get());
  engine.stop();  // joins the worker: every callback has returned

  const std::vector<obs::TraceEvent> evs = engine.tracer().events();
  std::map<std::int64_t, double> stage_ms;  // batch id → sum of stage spans
  std::set<std::int64_t> request_batches;
  for (const obs::TraceEvent& e : evs) {
    if (std::string(e.cat) == "stage") stage_ms[e.v1] += static_cast<double>(e.dur_us) / 1e3;
    if (std::string(e.name) == "request") request_batches.insert(e.v2);
  }
  ASSERT_EQ(request_batches.size(), 1u) << "the six requests must share one batch";
  const double stages = stage_ms[*request_batches.begin()];
  EXPECT_GT(stages, 0.0);
  constexpr double kRoundingMs = 0.01;  // four µs-rounded span durations
  for (const serve::Response& r : resps) {
    EXPECT_TRUE(r.has_label);
    EXPECT_LE(stages, r.latency_ms - r.queue_wait_ms + kRoundingMs)
        << "latency " << r.latency_ms << " ms, queue wait " << r.queue_wait_ms << " ms";
  }
  // Slow-request exemplars carry the same stage times, set directly.
  const std::vector<serve::SlowRequest> slow = engine.slow_requests();
  ASSERT_EQ(slow.size(), resps.size());
  for (const serve::SlowRequest& sr : slow) {
    EXPECT_EQ(static_cast<std::int64_t>(sr.batch_id), *request_batches.begin());
    EXPECT_LE(sr.encode_ms + sr.retrieve_ms + sr.decode_ms + sr.classify_ms,
              sr.latency_ms - sr.queue_wait_ms + kRoundingMs);
  }
}

TEST(ObsEngine, SlowRequestExemplarsAndExposition) {
  ObsEngineFixture f;
  serve::ServingConfig scfg = f.serving_config(1, 1);
  scfg.slow_request_ms = 1e-6;  // everything is "slow": exemplars for all
  serve::ServingEngine engine(f.model, f.task, scfg);
  f.add_user(engine, 0, 620);
  engine.start();

  Rng qr(44);
  std::vector<std::future<serve::Response>> futs;
  for (int i = 0; i < 6; ++i)
    futs.push_back(engine
                       .submit(serve::Request{
                           0, f.task.sample(qr.uniform_index(f.task.config().n_domains), qr)})
                       .take_future());
  for (auto& fu : futs) fu.get();
  engine.stop();

  const std::vector<serve::SlowRequest> slow = engine.slow_requests();
  ASSERT_FALSE(slow.empty());
  ASSERT_LE(slow.size(), 64u);  // bounded ring
  for (const serve::SlowRequest& sr : slow) {
    EXPECT_EQ(sr.user_id, 0u);
    EXPECT_GE(sr.latency_ms, sr.queue_wait_ms);
    EXPECT_GE(sr.encode_ms + sr.retrieve_ms + sr.decode_ms + sr.classify_ms, 0.0);
  }

  // The engine's registry exposes the full metric catalogue, including the
  // per-tenant series the scheduler roadmap needs.
  const std::string prom = engine.metrics().prometheus_text();
  EXPECT_NE(prom.find("nvcim_request_latency_ms_count 6"), std::string::npos);
  EXPECT_NE(prom.find("nvcim_tenant_requests_total{tenant=\"0\"} 6"), std::string::npos);
  EXPECT_NE(prom.find("nvcim_queue_wait_ms_bucket"), std::string::npos);
  EXPECT_NE(prom.find("nvcim_queue_depth_hwm"), std::string::npos);
  EXPECT_NE(prom.find("nvcim_stage_ms_total{stage=\"encode\"}"), std::string::npos);
}

}  // namespace
}  // namespace nvcim
