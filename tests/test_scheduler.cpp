// Async request lifecycle (PR 8): deadline/priority-aware scheduling behind
// the unified submit(Request, SubmitOptions) -> RequestHandle surface.
//
//  - RequestScheduler unit (deterministic, explicit clock): EDF ordering
//    within a tenant, critical-deadline pull across tenants, DRR fair
//    rotation (a hot tenant's backlog cannot starve a cold tenant's head),
//    in-queue expiry, token-bucket rate limits at dequeue,
//    cancel-before-dispatch, drain
//  - engine-level: callback-vs-future equivalence, cancel through
//    RequestHandle, expired requests never reach the retrieve stage,
//    stop() settles still-queued futures with EngineStopped (regression:
//    the old path silently drained them), OverloadPolicy::Reject,
//    DRR completion-order fairness, admit() handles
//  - property: retrieval results stay bit-identical to retrieve_serial
//    under random deadlines/priorities — scheduling reorders batches,
//    never arithmetic
//  - millisecond inputs (deadline_ms, batch/urgency windows, scrubber
//    interval) that are NaN, negative, non-finite or too large for the
//    clock are rejected with nvcim::Error instead of overflowing the cast;
//    so are NaN, negative and infinite rate limits
//
// These suites run under ASan/TSan in CI (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <mutex>
#include <vector>

#include "nvcim/core/framework.hpp"
#include "nvcim/llm/pretrain.hpp"
#include "nvcim/serve/engine.hpp"
#include "nvcim/serve/scheduler.hpp"

namespace nvcim {
namespace {

using serve::QueuedRequest;
using serve::RequestScheduler;
using serve::SchedulerConfig;
using Clock = RequestScheduler::Clock;

// ---------------------------------------------------------------------------
// RequestScheduler unit tests: externally driven clock, no threads.
// ---------------------------------------------------------------------------

QueuedRequest make_req(std::size_t user, Clock::time_point enq, double deadline_ms = 0.0,
                       int priority = 0) {
  QueuedRequest r;
  r.user_id = user;
  r.enqueued = enq;
  r.priority = priority;
  if (deadline_ms > 0.0)
    r.deadline = enq + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(deadline_ms));
  return r;
}

std::vector<std::size_t> users_of(const std::vector<QueuedRequest>& batch) {
  std::vector<std::size_t> u;
  for (const QueuedRequest& r : batch) u.push_back(r.user_id);
  return u;
}

TEST(SchedulerUnit, EdfOrdersWithinTenantByDeadlinePriorityArrival) {
  RequestScheduler s{SchedulerConfig{}};
  const Clock::time_point t0 = Clock::now();
  auto a = make_req(7, t0, 50.0);        // loose deadline
  auto b = make_req(7, t0, 10.0);        // tight deadline
  auto c = make_req(7, t0);              // none
  auto d = make_req(7, t0, 10.0, 2);     // tight deadline, higher priority
  s.push(std::move(a), t0);
  s.push(std::move(b), t0);
  s.push(std::move(c), t0);
  s.push(std::move(d), t0);
  const auto batch = s.pop_batch(4, t0);
  ASSERT_EQ(batch.size(), 4u);
  // (10ms, prio 2) then (10ms, prio 0, earlier arrival) then 50ms then none.
  EXPECT_EQ(batch[0].priority, 2);
  EXPECT_EQ(batch[1].seq, 1u);
  EXPECT_EQ(batch[2].seq, 0u);
  EXPECT_FALSE(batch[3].has_deadline());
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerUnit, CriticalDeadlineJumpsTheRotation) {
  SchedulerConfig cfg;
  cfg.urgency_window_ms = 2.0;
  RequestScheduler s{cfg};
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 8; ++i) s.push(make_req(0, t0), t0);  // hot, no deadlines
  s.push(make_req(1, t0, 1.0), t0);  // cold, deadline inside the window
  const auto batch = s.pop_batch(4, t0);
  ASSERT_EQ(batch.size(), 4u);
  // The critical request is pulled first even though tenant 0 joined first.
  EXPECT_EQ(batch[0].user_id, 1u);
  EXPECT_EQ(batch[1].user_id, 0u);
}

TEST(SchedulerUnit, DrrSharesBatchAcrossTenantsByQuantum) {
  SchedulerConfig cfg;
  cfg.quantum = 4;
  RequestScheduler s{cfg};
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 20; ++i) s.push(make_req(0, t0), t0);  // hot backlog
  for (int i = 0; i < 4; ++i) s.push(make_req(1, t0), t0);
  for (int i = 0; i < 4; ++i) s.push(make_req(2, t0), t0);
  const auto batch = s.pop_batch(12, t0);
  ASSERT_EQ(batch.size(), 12u);
  const auto u = users_of(batch);
  // One full round: 4 hot, then all of tenants 1 and 2 — the hot backlog
  // cannot push the cold tenants out of the batch.
  EXPECT_EQ(std::count(u.begin(), u.end(), 0u), 4);
  EXPECT_EQ(std::count(u.begin(), u.end(), 1u), 4);
  EXPECT_EQ(std::count(u.begin(), u.end(), 2u), 4);
  EXPECT_EQ(s.size(), 16u);  // the rest of the hot backlog waits its turn
  EXPECT_EQ(s.queued_for(0), 16u);
}

TEST(SchedulerUnit, TakeExpiredDropsOnlyDeadRequests) {
  RequestScheduler s{SchedulerConfig{}};
  const Clock::time_point t0 = Clock::now();
  s.push(make_req(0, t0, 1.0), t0);    // dead at t0+5ms
  s.push(make_req(0, t0, 100.0), t0);  // live
  s.push(make_req(1, t0), t0);         // no deadline
  const Clock::time_point t1 = t0 + std::chrono::milliseconds(5);
  const auto expired = s.take_expired(t1);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_TRUE(expired[0].has_deadline());
  EXPECT_LT(expired[0].deadline, t1);
  EXPECT_EQ(s.size(), 2u);
  const auto batch = s.pop_batch(4, t1);
  ASSERT_EQ(batch.size(), 2u);
  for (const QueuedRequest& r : batch)
    EXPECT_TRUE(!r.has_deadline() || r.deadline >= t1);
}

TEST(SchedulerUnit, NextDeadlineIsTheGlobalMinimum) {
  RequestScheduler s{SchedulerConfig{}};
  const Clock::time_point t0 = Clock::now();
  EXPECT_EQ(s.next_deadline(), QueuedRequest::kNoDeadline);
  s.push(make_req(0, t0), t0);            // arrives first, no deadline
  s.push(make_req(0, t0, 30.0), t0);
  s.push(make_req(1, t0, 8.0), t0);       // the global minimum
  s.push(make_req(1, t0, 90.0), t0);
  const Clock::time_point expect =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double, std::milli>(8.0));
  EXPECT_EQ(s.next_deadline(), expect);
}

TEST(SchedulerUnit, RateLimitThrottlesDequeueNotAdmission) {
  SchedulerConfig cfg;
  cfg.quantum = 4;  // burst = 4 tokens
  RequestScheduler s{cfg};
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 10; ++i) s.push(make_req(0, t0), t0);
  for (int i = 0; i < 8; ++i) s.push(make_req(1, t0), t0);
  s.set_rate_limit(0, 100.0);  // 100 rps, burst 4
  // First pop: tenant 0 spends its burst, tenant 1 (unlimited) fills the rest.
  auto batch = s.pop_batch(16, t0);
  auto u = users_of(batch);
  EXPECT_EQ(std::count(u.begin(), u.end(), 0u), 4);
  EXPECT_EQ(std::count(u.begin(), u.end(), 1u), 8);
  // Still throttled at the same instant: the backlog stays queued.
  EXPECT_TRUE(s.pop_batch(16, t0).empty());
  EXPECT_EQ(s.queued_for(0), 6u);
  // 100 ms later the bucket refilled (capped at the burst): 4 more.
  const Clock::time_point t1 = t0 + std::chrono::milliseconds(100);
  batch = s.pop_batch(16, t1);
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(s.queued_for(0), 2u);
}

TEST(SchedulerUnit, CancelRemovesAQueuedRequestExactlyOnce) {
  RequestScheduler s{SchedulerConfig{}};
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 3; ++i) {
    auto r = make_req(0, t0);
    r.id = 100 + static_cast<std::uint64_t>(i);
    s.push(std::move(r), t0);
  }
  QueuedRequest out;
  EXPECT_TRUE(s.cancel(101, &out));
  EXPECT_EQ(out.id, 101u);
  EXPECT_FALSE(s.cancel(101, &out));  // already gone
  EXPECT_FALSE(s.cancel(999, &out));  // never queued
  const auto batch = s.pop_batch(4, t0);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 100u);
  EXPECT_EQ(batch[1].id, 102u);
}

TEST(SchedulerUnit, DrainReturnsEverythingInArrivalOrder) {
  RequestScheduler s{SchedulerConfig{}};
  const Clock::time_point t0 = Clock::now();
  s.push(make_req(3, t0, 5.0), t0);
  s.push(make_req(1, t0), t0);
  s.push(make_req(2, t0, 50.0), t0);
  const auto all = s.drain();
  ASSERT_EQ(all.size(), 3u);
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].seq, i);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.pop_batch(4, t0).empty());
}

// ---------------------------------------------------------------------------
// Engine-level tests (same fixture family as test_serve.cpp).
// ---------------------------------------------------------------------------

struct SchedFixture {
  data::LampTask task{data::lamp1_config()};
  llm::TinyLM model;

  SchedFixture() : model(make_model()) {}

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

  core::FrameworkConfig framework_config(std::uint64_t seed) const {
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
    return cfg;
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

  /// Train `n_users` single-user frameworks and hand their deployments to a
  /// fresh engine. Queries and serial expectations are recorded per user.
  void deploy_users(serve::ServingEngine& engine, std::size_t n_users, std::size_t n_queries,
                    std::vector<std::vector<data::Sample>>* queries) {
    queries->assign(n_users, {});
    for (std::size_t u = 0; u < n_users; ++u) {
      core::NvcimPtFramework fw(model, task, framework_config(100 + u));
      fw.initialize_autoencoder(12);
      fw.train_from_buffer(task.make_user(u, 10, 0).train);
      Rng qr(200 + u);
      for (std::size_t q = 0; q < n_queries; ++q)
        (*queries)[u].push_back(task.sample(qr.uniform_index(task.config().n_domains), qr));
      engine.add_deployment(u, fw.export_deployment());
    }
  }
};

TEST(SchedulerApi, CallbackAndFutureAgreeOnTheSameResponse) {
  SchedFixture f;
  serve::ServingEngine engine(f.model, f.task, f.serving_config(1, 1));
  std::vector<std::vector<data::Sample>> queries;
  f.deploy_users(engine, 2, 3, &queries);
  engine.start();

  std::mutex mu;
  std::vector<serve::Response> cb_responses;
  std::vector<serve::Response> fut_responses;
  std::vector<serve::RequestHandle> handles;
  for (std::size_t u = 0; u < 2; ++u)
    for (const data::Sample& q : queries[u]) {
      serve::SubmitOptions opts;
      opts.on_complete = [&](const serve::Response& r, std::exception_ptr err) {
        ASSERT_EQ(err, nullptr);
        std::lock_guard<std::mutex> lock(mu);
        cb_responses.push_back(r);
      };
      handles.push_back(engine.submit(serve::Request{u, q}, std::move(opts)));
      EXPECT_TRUE(handles.back().valid());
      EXPECT_GT(handles.back().id(), 0u);
    }
  for (serve::RequestHandle& h : handles) fut_responses.push_back(h.get());
  engine.stop();

  ASSERT_EQ(cb_responses.size(), fut_responses.size());
  // Callbacks fire after the future settles, with the identical payload.
  auto key = [](const serve::Response& r) {
    return std::make_tuple(r.user_id, r.ovt_index, r.latency_ms);
  };
  std::sort(cb_responses.begin(), cb_responses.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  std::sort(fut_responses.begin(), fut_responses.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  for (std::size_t i = 0; i < cb_responses.size(); ++i) {
    EXPECT_EQ(cb_responses[i].user_id, fut_responses[i].user_id);
    EXPECT_EQ(cb_responses[i].ovt_index, fut_responses[i].ovt_index);
    EXPECT_EQ(cb_responses[i].latency_ms, fut_responses[i].latency_ms);
    EXPECT_GE(fut_responses[i].queue_wait_ms, 0.0);
    EXPECT_LE(fut_responses[i].queue_wait_ms, fut_responses[i].latency_ms);
    EXPECT_FALSE(fut_responses[i].deadline_missed);  // no deadlines set
  }
}

TEST(SchedulerApi, CancelBeforeDispatchSettlesWithCancelled) {
  SchedFixture f;
  serve::ServingConfig scfg = f.serving_config(1, 1);
  scfg.min_batch = 8;            // the lone request sits in the coalescing
  scfg.batch_window_ms = 500.0;  // window long enough to cancel into
  serve::ServingEngine engine(f.model, f.task, scfg);
  std::vector<std::vector<data::Sample>> queries;
  f.deploy_users(engine, 1, 2, &queries);
  engine.start();

  std::exception_ptr cb_error;
  serve::SubmitOptions opts;
  opts.on_complete = [&](const serve::Response&, std::exception_ptr err) { cb_error = err; };
  serve::RequestHandle h = engine.submit(serve::Request{0, queries[0][0]}, std::move(opts));
  ASSERT_TRUE(h.valid());
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.cancel());  // second cancel: already gone
  EXPECT_THROW(h.get(), serve::Cancelled);
  ASSERT_NE(cb_error, nullptr);
  EXPECT_THROW(std::rethrow_exception(cb_error), serve::Cancelled);
  EXPECT_EQ(engine.stats().cancelled_requests, 1u);

  // The engine stays healthy: the next request completes normally (and
  // cancel after completion reports false).
  serve::RequestHandle h2 = engine.submit(serve::Request{0, queries[0][1]});
  const serve::Response r = h2.get();
  EXPECT_EQ(r.user_id, 0u);
  EXPECT_FALSE(h2.cancel());
  engine.stop();
  EXPECT_EQ(engine.stats().requests, 1u);
}

TEST(SchedulerApi, ExpiredRequestsNeverReachTheRetrieveStage) {
  SchedFixture f;
  serve::ServingConfig scfg = f.serving_config(1, 1);
  scfg.min_batch = 8;  // hold the batch open so expiry happens at the dequeue
  scfg.batch_window_ms = 50.0;
  serve::ServingEngine engine(f.model, f.task, scfg);
  std::vector<std::vector<data::Sample>> queries;
  f.deploy_users(engine, 1, 4, &queries);
  engine.start();

  std::vector<serve::RequestHandle> handles;
  for (const data::Sample& q : queries[0]) {
    serve::SubmitOptions opts;
    opts.deadline_ms = 1e-4;  // already past by the time a worker looks
    handles.push_back(engine.submit(serve::Request{0, q}, std::move(opts)));
  }
  for (serve::RequestHandle& h : handles) EXPECT_THROW(h.get(), serve::DeadlineExceeded);
  engine.stop();

  const serve::StatsSnapshot s = engine.stats();
  EXPECT_EQ(s.expired_requests, 4u);
  EXPECT_EQ(s.requests, 0u);  // expired requests are not "served"
  EXPECT_EQ(s.batches, 0u);   // and no batch ever formed: zero crossbar work
  // The metrics registry carries the same signal.
  EXPECT_NE(engine.metrics().prometheus_text().find("nvcim_requests_expired_total 4"),
            std::string::npos);
}

TEST(SchedulerApi, StopSettlesStillQueuedFuturesWithEngineStopped) {
  SchedFixture f;
  serve::ServingConfig scfg = f.serving_config(1, 1);
  scfg.min_batch = 16;            // > queued count: the worker never dispatches
  scfg.batch_window_ms = 5000.0;  // and stop() preempts the window
  serve::ServingEngine engine(f.model, f.task, scfg);
  std::vector<std::vector<data::Sample>> queries;
  f.deploy_users(engine, 1, 4, &queries);
  engine.start();

  std::mutex mu;
  std::size_t cb_errors = 0;
  std::vector<serve::RequestHandle> handles;
  for (const data::Sample& q : queries[0]) {
    serve::SubmitOptions opts;
    opts.on_complete = [&](const serve::Response&, std::exception_ptr err) {
      std::lock_guard<std::mutex> lock(mu);
      if (err != nullptr) ++cb_errors;
    };
    handles.push_back(engine.submit(serve::Request{0, q}, std::move(opts)));
  }
  engine.stop();  // regression: queued futures must settle, not dangle/drain
  for (serve::RequestHandle& h : handles) EXPECT_THROW(h.get(), serve::EngineStopped);
  EXPECT_EQ(cb_errors, 4u);
  EXPECT_EQ(engine.stats().requests, 0u);
}

TEST(SchedulerApi, RejectPolicyShedsAtCapacity) {
  SchedFixture f;
  serve::ServingConfig scfg = f.serving_config(1, 1);
  scfg.queue_capacity = 4;
  scfg.min_batch = 16;  // workers hold off: the queue actually fills
  scfg.batch_window_ms = 5000.0;
  serve::ServingEngine engine(f.model, f.task, scfg);
  std::vector<std::vector<data::Sample>> queries;
  f.deploy_users(engine, 1, 1, &queries);
  engine.start();

  std::vector<serve::RequestHandle> handles;
  serve::SubmitOptions reject;
  reject.overload_policy = serve::OverloadPolicy::Reject;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(engine.submit(serve::Request{0, queries[0][0]}, reject));
    EXPECT_TRUE(handles.back().valid());
  }
  serve::RequestHandle overflow = engine.submit(serve::Request{0, queries[0][0]}, reject);
  EXPECT_FALSE(overflow.valid());
  EXPECT_EQ(engine.stats().rejected_requests, 1u);
  engine.stop();
  for (serve::RequestHandle& h : handles) EXPECT_THROW(h.get(), serve::EngineStopped);
}

TEST(SchedulerFairness, DrrServesColdTenantAheadOfHotBacklog) {
  SchedFixture f;
  // One worker, batches of 8, coalescing until the whole backlog is queued:
  // completion order then equals scheduling order, deterministically.
  const std::size_t hot_requests = 23;
  serve::ServingConfig scfg = f.serving_config(1, 1);
  scfg.max_batch = 8;
  scfg.min_batch = 24;  // hot backlog + the cold request
  scfg.batch_window_ms = 200.0;
  scfg.queue_capacity = 32;
  scfg.scheduler.quantum = 4;
  serve::ServingEngine engine(f.model, f.task, scfg);
  std::vector<std::vector<data::Sample>> queries;
  f.deploy_users(engine, 2, 1, &queries);
  engine.start();

  std::mutex mu;
  std::vector<std::size_t> completion_order;
  const auto record = [&](const serve::Response& r, std::exception_ptr err) {
    if (err != nullptr) return;
    std::lock_guard<std::mutex> lock(mu);
    completion_order.push_back(r.user_id);
  };
  std::vector<serve::RequestHandle> handles;
  for (std::size_t i = 0; i < hot_requests; ++i) {
    serve::SubmitOptions opts;
    opts.on_complete = record;
    handles.push_back(engine.submit(serve::Request{0, queries[0][0]}, std::move(opts)));
  }
  serve::SubmitOptions cold;
  cold.on_complete = record;
  handles.push_back(engine.submit(serve::Request{1, queries[1][0]}, std::move(cold)));
  for (serve::RequestHandle& h : handles) h.get();
  engine.stop();

  ASSERT_EQ(completion_order.size(), hot_requests + 1);
  const auto cold_pos = static_cast<std::size_t>(
      std::find(completion_order.begin(), completion_order.end(), 1u) -
      completion_order.begin());
  // The hot tenant saturating the queue cannot starve the cold tenant: its
  // single request rides in the FIRST batch (DRR round-robin grants it a
  // turn after the hot tenant's quantum), not behind the whole backlog.
  EXPECT_LT(cold_pos, 8u) << "cold tenant starved under DRR";
}

TEST(SchedulerProperty, RetrievalBitIdenticalUnderAnySchedulingContract) {
  SchedFixture f;
  const std::size_t n_users = 4;
  const std::size_t n_queries = 6;
  serve::ServingConfig scfg = f.serving_config(2, 2);
  scfg.max_batch = 4;
  scfg.min_batch = 2;
  scfg.batch_window_ms = 1.0;
  serve::ServingEngine engine(f.model, f.task, scfg);
  std::vector<std::vector<data::Sample>> queries;
  f.deploy_users(engine, n_users, n_queries, &queries);
  engine.start();

  // Random scheduling contracts: deadlines loose enough to usually be met,
  // priorities across the range. Expired requests are legal outcomes;
  // completed ones must match the serial reference bit-for-bit.
  Rng rng(4243);
  struct Sub {
    std::size_t user;
    std::size_t query;
    serve::RequestHandle handle;
  };
  std::vector<Sub> subs;
  for (std::size_t u = 0; u < n_users; ++u)
    for (std::size_t q = 0; q < n_queries; ++q) {
      serve::SubmitOptions opts;
      if (rng.uniform_index(3) == 0) opts.deadline_ms = 50.0 + 50.0 * rng.uniform();
      opts.priority = static_cast<int>(rng.uniform_index(5)) - 2;
      subs.push_back({u, q, engine.submit(serve::Request{u, queries[u][q]}, std::move(opts))});
    }
  std::size_t completed = 0;
  for (Sub& sub : subs) {
    try {
      const serve::Response r = sub.handle.get();
      EXPECT_EQ(r.ovt_index, engine.retrieve_serial(sub.user, queries[sub.user][sub.query]))
          << "user " << sub.user << " query " << sub.query;
      ++completed;
    } catch (const serve::DeadlineExceeded&) {
      // Legal under load; the point is that scheduling never changes
      // arithmetic for anything that completes.
    }
  }
  engine.stop();
  EXPECT_GT(completed, 0u);
}

TEST(SchedulerApi, AdmitHandleSubsumesTheAdmissionTrio) {
  SchedFixture f;
  serve::ServingConfig scfg = f.serving_config(2, 2);
  scfg.lifecycle.enabled = true;
  serve::ServingEngine engine(f.model, f.task, scfg);
  std::vector<std::vector<data::Sample>> queries;
  f.deploy_users(engine, 2, 2, &queries);
  engine.start();

  // Live admission through the unified surface, joined before returning.
  core::NvcimPtFramework fw(f.model, f.task, f.framework_config(100 + 2));
  fw.initialize_autoencoder(12);
  fw.train_from_buffer(f.task.make_user(2, 10, 0).train);
  Rng qr(202);
  const data::Sample q = f.task.sample(qr.uniform_index(f.task.config().n_domains), qr);
  serve::AdmitOptions opts;
  opts.wait = true;
  serve::AdmissionHandle h = engine.admit(2, fw.export_deployment(), opts);
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(h.user_id(), 2u);
  h.wait();  // idempotent once live
  const serve::Response r = engine.submit(serve::Request{2, q}).get();
  EXPECT_EQ(r.ovt_index, engine.retrieve_serial(2, q));
  EXPECT_FALSE(serve::AdmissionHandle{}.valid());  // default = rejected shape
  engine.stop();
}

TEST(SchedulerApi, RateLimitRejectsNanNegativeAndInfiniteAndKeepsServing) {
  const std::vector<double> bad = {std::nan(""), -5.0, std::numeric_limits<double>::infinity()};

  // Scheduler: a rejected rate leaves the previous limit in force (100 rps,
  // burst = quantum 4), so the same instant still dequeues only the burst.
  SchedulerConfig cfg;
  cfg.quantum = 4;
  RequestScheduler s{cfg};
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 8; ++i) s.push(make_req(0, t0), t0);
  s.set_rate_limit(0, 100.0);
  for (const double rps : bad) EXPECT_THROW(s.set_rate_limit(0, rps), Error) << rps;
  EXPECT_EQ(s.pop_batch(8, t0).size(), 4u);
  EXPECT_TRUE(s.pop_batch(8, t0).empty());

  // Engine: the check is inherited, and the engine keeps serving.
  SchedFixture f;
  serve::ServingEngine engine(f.model, f.task, f.serving_config(1, 1));
  std::vector<std::vector<data::Sample>> queries;
  f.deploy_users(engine, 1, 1, &queries);
  engine.start();
  for (const double rps : bad) EXPECT_THROW(engine.set_rate_limit(0, rps), Error) << rps;
  const data::Sample& q = queries[0][0];
  EXPECT_EQ(engine.submit(serve::Request{0, q}).get().ovt_index, engine.retrieve_serial(0, q));
  engine.stop();
}

// ---------------------------------------------------------------------------
// Millisecond inputs are checked before they become clock durations: an
// unchecked cast of inf or 1e300 to integer nanoseconds is undefined, and on
// x86 it lands far in the past, so a "never" deadline expired at once.
// ---------------------------------------------------------------------------

/// NaN, negative, non-finite, and two values whose nanosecond count does not
/// fit the clock (1e13 ms = 1e19 ns > INT64_MAX).
const std::vector<double> kBadMs = {std::nan(""), -1.0, std::numeric_limits<double>::infinity(),
                                    1e300, 1e13};

TEST(MillisecondInputs, CheckedMsRejectsNanNegativeNonFiniteAndOverflow) {
  for (const double ms : kBadMs) EXPECT_THROW(serve::checked_ms(ms, "ms"), Error) << ms;
  EXPECT_EQ(serve::checked_ms(0.0, "ms"), Clock::duration::zero());
  EXPECT_EQ(serve::checked_ms(2.5, "ms"), std::chrono::microseconds(2500));
  EXPECT_EQ(serve::checked_ms(1e12, "ms"), std::chrono::seconds(1'000'000'000));
}

TEST(MillisecondInputs, SchedulerRejectsBadUrgencyWindow) {
  for (const double ms : kBadMs) {
    SchedulerConfig cfg;
    cfg.urgency_window_ms = ms;
    EXPECT_THROW(RequestScheduler{cfg}, Error) << ms;
  }
  SchedulerConfig cfg;
  cfg.urgency_window_ms = 0.0;
  EXPECT_NO_THROW(RequestScheduler{cfg});
}

TEST(MillisecondInputs, EngineRejectsBadBatchWindowAndScrubberInterval) {
  SchedFixture f;
  for (const double ms : kBadMs) {
    serve::ServingConfig cfg = f.serving_config(1, 1);
    cfg.batch_window_ms = ms;
    EXPECT_THROW((serve::ServingEngine{f.model, f.task, cfg}), Error) << "batch window " << ms;
  }
  // An enabled scrubber needs a positive interval: at 0 its ticker spins.
  std::vector<double> bad_intervals = kBadMs;
  bad_intervals.push_back(0.0);
  for (const double ms : bad_intervals) {
    serve::ServingConfig cfg = f.serving_config(1, 1);
    cfg.lifecycle.enabled = true;
    cfg.scrubber.enabled = true;
    cfg.scrubber.interval_ms = ms;
    EXPECT_THROW((serve::ServingEngine{f.model, f.task, cfg}), Error) << "interval " << ms;
  }
  // A disabled scrubber's interval is never read; a zero batch window is
  // valid (dispatch without waiting).
  serve::ServingConfig cfg = f.serving_config(1, 1);
  cfg.scrubber.interval_ms = 0.0;
  cfg.batch_window_ms = 0.0;
  EXPECT_NO_THROW((serve::ServingEngine{f.model, f.task, cfg}));
}

TEST(MillisecondInputs, EngineRejectsBadWindowGeometry) {
  SchedFixture f;
  // The snapshot cadence must be a positive, clock-representable duration:
  // at 0 every read pushes a snapshot, and NaN never advances the rings.
  std::vector<double> bad_buckets = kBadMs;
  bad_buckets.push_back(0.0);
  for (const double ms : bad_buckets) {
    serve::ServingConfig cfg = f.serving_config(1, 1);
    cfg.window.bucket_ms = ms;
    EXPECT_THROW((serve::ServingEngine{f.model, f.task, cfg}), Error) << "bucket " << ms;
  }
  {
    serve::ServingConfig cfg = f.serving_config(1, 1);
    cfg.window.buckets = 0;  // a zero-width window
    EXPECT_THROW((serve::ServingEngine{f.model, f.task, cfg}), Error);
  }
  {
    // Retention shorter than the window it backs: 12 × 5 s = 60 s > 30 s.
    serve::ServingConfig cfg = f.serving_config(1, 1);
    cfg.window.retention_ms = 30000.0;
    cfg.slo.burn.slow_window_ms = 30000.0;
    EXPECT_THROW((serve::ServingEngine{f.model, f.task, cfg}), Error);
  }
  {
    // Retention shorter than the slow burn window would silently shorten it.
    serve::ServingConfig cfg = f.serving_config(1, 1);
    cfg.slo.burn.slow_window_ms = cfg.window.retention_ms + 1.0;
    EXPECT_THROW((serve::ServingEngine{f.model, f.task, cfg}), Error);
  }
  {
    // NaN retention covers nothing.
    serve::ServingConfig cfg = f.serving_config(1, 1);
    cfg.window.retention_ms = std::nan("");
    EXPECT_THROW((serve::ServingEngine{f.model, f.task, cfg}), Error);
  }
  // The defaults pass, and so does retention exactly equal to both windows.
  EXPECT_NO_THROW((serve::ServingEngine{f.model, f.task, f.serving_config(1, 1)}));
  serve::ServingConfig cfg = f.serving_config(1, 1);
  cfg.window = {1000.0, 30, 30000.0};
  cfg.slo.burn.fast_window_ms = 10000.0;
  cfg.slo.burn.slow_window_ms = 30000.0;
  EXPECT_NO_THROW((serve::ServingEngine{f.model, f.task, cfg}));
}

TEST(MillisecondInputs, SubmitRejectsBadDeadlineAndKeepsServing) {
  SchedFixture f;
  serve::ServingEngine engine(f.model, f.task, f.serving_config(1, 1));
  std::vector<std::vector<data::Sample>> queries;
  f.deploy_users(engine, 1, 1, &queries);
  engine.start();
  const data::Sample& q = queries[0][0];
  for (const double ms : kBadMs) {
    serve::SubmitOptions opts;
    opts.deadline_ms = ms;
    EXPECT_THROW(engine.submit(serve::Request{0, q}, opts), Error) << ms;
  }
  // A far but representable deadline (about 31 years) is a real deadline,
  // not an instant expiry.
  serve::SubmitOptions opts;
  opts.deadline_ms = 1e12;
  const serve::Response r = engine.submit(serve::Request{0, q}, opts).get();
  EXPECT_FALSE(r.deadline_missed);
  EXPECT_EQ(r.ovt_index, engine.retrieve_serial(0, q));
  EXPECT_EQ(engine.stats().expired_requests, 0u);
  engine.stop();
}

}  // namespace
}  // namespace nvcim
