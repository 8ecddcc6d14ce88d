#include "nvcim/serve/engine.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

namespace nvcim::serve {

namespace {

OvtStoreConfig store_config(const ServingConfig& cfg) {
  OvtStoreConfig sc;
  sc.n_shards = cfg.n_shards;
  sc.algorithm = cfg.algorithm;
  sc.ssa = cfg.ssa;
  sc.crossbar = cfg.crossbar;
  sc.variation = cfg.variation;
  sc.two_phase = cfg.two_phase;
  sc.lifecycle = cfg.lifecycle;
  return sc;
}

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

ServingEngine::ServingEngine(llm::TinyLM& model, const data::LampTask& task, ServingConfig cfg)
    : model_(&model),
      task_(&task),
      cfg_(cfg),
      store_(store_config(cfg)),
      cache_(cfg.cache_capacity),
      sched_(cfg.scheduler),
      stats_(cfg.window),
      tracer_(cfg.tracing) {
  NVCIM_CHECK_MSG(cfg_.n_threads > 0, "engine needs at least one worker");
  NVCIM_CHECK_MSG(cfg_.max_batch > 0, "max_batch must be positive");
  NVCIM_CHECK_MSG(cfg_.queue_capacity > 0, "queue_capacity must be positive");
}

ServingEngine::~ServingEngine() { stop(); }

void ServingEngine::add_deployment(std::size_t user_id, core::TrainedDeployment deployment) {
  NVCIM_CHECK_MSG(!running_, "cannot add deployments while running (use admit_user)");
  NVCIM_CHECK_MSG(deployment.n_ovts() > 0, "deployment for user " << user_id << " is empty");
  NVCIM_CHECK_MSG(deployment.autoencoder != nullptr,
                  "deployment for user " << user_id << " has no autoencoder");
  store_.add_user(user_id, deployment.keys);
  auto owned = std::make_shared<const core::TrainedDeployment>(std::move(deployment));
  std::uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(deployments_mu_);
    generation = next_generation_++;
    deployments_[user_id] = DepRef{std::move(owned), generation};
  }
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    live_generations_.insert(generation);
  }
  // A re-used tenant id gets fresh labelled series even if a prior
  // incarnation was retired on eviction.
  stats_.revive_tenant(user_id);
}

AdmissionHandle ServingEngine::admit(std::size_t user_id, core::TrainedDeployment deployment,
                                     AdmitOptions opts) {
  if (!admit_user_impl(user_id, std::move(deployment), /*may_block=*/!opts.non_blocking))
    return AdmissionHandle{};  // rejected: pending-admission bound hit
  AdmissionHandle handle(this, user_id);
  if (opts.wait) handle.wait();
  return handle;
}

void ServingEngine::admit_user(std::size_t user_id, core::TrainedDeployment deployment) {
  admit(user_id, std::move(deployment));
}

bool ServingEngine::admit_user_impl(std::size_t user_id, core::TrainedDeployment deployment,
                                    bool may_block) {
  if (!store_.built()) {
    add_deployment(user_id, std::move(deployment));
    return true;
  }
  NVCIM_CHECK_MSG(cfg_.lifecycle.enabled, "tenant lifecycle disabled in this engine");
  NVCIM_CHECK_MSG(deployment.n_ovts() > 0, "deployment for user " << user_id << " is empty");
  NVCIM_CHECK_MSG(deployment.autoencoder != nullptr,
                  "deployment for user " << user_id << " has no autoencoder");
  auto owned = std::make_shared<const core::TrainedDeployment>(std::move(deployment));
  obs::Span span(&tracer_, "admit_user", "lifecycle", "user",
                 static_cast<std::int64_t>(user_id));
  const auto t0 = std::chrono::steady_clock::now();

  // Write-behind only with a pool to write behind: before start() (or after
  // stop()) the synchronous path keeps the call self-contained.
  const bool deferred = cfg_.lifecycle.write_behind && running_;
  std::shared_ptr<AdmissionJoin> join;
  if (deferred) {
    std::unique_lock<std::mutex> lock(admissions_mu_);
    if (!may_block && admissions_.size() >= cfg_.lifecycle.max_pending_admissions) {
      // Overloaded: the programming backlog is at its bound — reject and
      // let the caller shed or retry. The counter is the observable signal.
      stats_.record_admission_rejection();
      return false;
    }
    admissions_cv_.wait(lock, [this] {
      return admissions_.size() < cfg_.lifecycle.max_pending_admissions;
    });
    NVCIM_CHECK_MSG(admissions_.count(user_id) == 0,
                    "user " << user_id << " admission already in flight");
    join = std::make_shared<AdmissionJoin>();
    admissions_.emplace(user_id, join);  // reserves one pending-admission slot
  }

  // Deployment first, directory second: the moment a batch can see the
  // user's slot, its deployment must resolve.
  std::uint64_t generation = 0;
  try {
    std::lock_guard<std::mutex> lock(deployments_mu_);
    NVCIM_CHECK_MSG(deployments_.count(user_id) == 0,
                    "user " << user_id << " already deployed");
    generation = next_generation_++;
    deployments_[user_id] = DepRef{owned, generation};
    stats_.revive_tenant(user_id);  // re-admitted id => fresh labelled series
  } catch (...) {
    if (join != nullptr) {
      {
        std::lock_guard<std::mutex> lock(admissions_mu_);
        admissions_.erase(user_id);
      }
      admissions_cv_.notify_all();
    }
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    live_generations_.insert(generation);
  }

  if (!deferred) {
    try {
      store_.admit_user(user_id, owned->keys);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(deployments_mu_);
        deployments_.erase(user_id);
      }
      std::lock_guard<std::mutex> lock(cache_mu_);
      live_generations_.erase(generation);
      throw;
    }
    stats_.record_admission(/*router_refreshed=*/store_.routed());
    stats_.record_admission_latency(ms_between(t0, std::chrono::steady_clock::now()));
    return true;
  }

  // Write-behind: stage now (placement, allocation, router, Pending
  // publish — the cheap part), program later. Each per-subarray span
  // becomes one aux task; workers interleave them with serving batches,
  // and the last span to land commits the tenant live.
  std::shared_ptr<const ShardedOvtStore::StagedAdmission> staged;
  try {
    staged = std::make_shared<const ShardedOvtStore::StagedAdmission>(
        store_.stage_admit(user_id, owned->keys));
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(deployments_mu_);
      deployments_.erase(user_id);
    }
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      live_generations_.erase(generation);
    }
    {
      std::lock_guard<std::mutex> lock(admissions_mu_);
      admissions_.erase(user_id);
    }
    admissions_cv_.notify_all();
    throw;
  }
  join->remaining = staged->spans.size();
  stats_.record_programming_enqueued(staged->spans.size());

  // Same enqueue gate as rebalance(): tasks enqueued while running_ &&
  // !stopping_ holds UNDER queue_mu_ are guaranteed a live worker to drain
  // them (workers empty the aux queue before exiting); otherwise program
  // inline — the admission still settles through run_admission_span.
  bool enqueued = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (running_ && !stopping_) {
      for (std::size_t i = 0; i < staged->spans.size(); ++i)
        aux_queue_.emplace_back([this, staged, join, i, generation, t0](WorkerState&) {
          run_admission_span(staged, join, i, generation, t0);
        });
      enqueued = true;
    }
  }
  if (enqueued) {
    queue_cv_.notify_all();
  } else {
    for (std::size_t i = 0; i < staged->spans.size(); ++i)
      run_admission_span(staged, join, i, generation, t0);
  }
  return true;
}

void ServingEngine::run_admission_span(
    const std::shared_ptr<const ShardedOvtStore::StagedAdmission>& staged,
    const std::shared_ptr<AdmissionJoin>& join, std::size_t idx, std::uint64_t generation,
    std::chrono::steady_clock::time_point t0) {
  {
    obs::Span span(&tracer_, "program_span", "lifecycle", "user",
                   static_cast<std::int64_t>(staged->user_id), "span",
                   static_cast<std::int64_t>(idx));
    std::exception_ptr error;
    try {
      store_.program_span(*staged, idx);
    } catch (...) {
      error = std::current_exception();
    }
    stats_.record_program_batch(staged->spans[idx].second - staged->spans[idx].first);
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(join->mu);
      if (error != nullptr && join->error == nullptr) join->error = error;
      last = --join->remaining == 0;
    }
    if (!last) return;
  }

  // Last span settles the admission: commit on success, full rollback
  // (slot, deployment, generation) on any span's error.
  std::exception_ptr final_error;
  {
    std::lock_guard<std::mutex> lock(join->mu);
    final_error = join->error;
  }
  if (final_error == nullptr) {
    try {
      store_.commit_admit(staged->user_id);
      stats_.record_admission(/*router_refreshed=*/store_.routed());
      stats_.record_admission_latency(ms_between(t0, std::chrono::steady_clock::now()));
    } catch (...) {
      final_error = std::current_exception();
    }
  }
  if (final_error != nullptr) {
    store_.abort_admit(staged->user_id);
    {
      std::lock_guard<std::mutex> lock(deployments_mu_);
      deployments_.erase(staged->user_id);
    }
    std::lock_guard<std::mutex> lock(cache_mu_);
    live_generations_.erase(generation);
  }
  // Settle order matters: the store is consistent (committed or rolled
  // back) BEFORE the admissions_ entry disappears, so a wait_admitted()
  // that misses the entry can trust user_live()/find_deployment().
  {
    std::lock_guard<std::mutex> lock(admissions_mu_);
    admissions_.erase(staged->user_id);
  }
  admissions_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(join->mu);
    join->error = final_error;
    join->settled = true;
  }
  join->cv.notify_all();
}

void ServingEngine::wait_admitted(std::size_t user_id) {
  std::shared_ptr<AdmissionJoin> join;
  {
    std::lock_guard<std::mutex> lock(admissions_mu_);
    auto it = admissions_.find(user_id);
    if (it != admissions_.end()) join = it->second;
  }
  if (join == nullptr) {
    // No admission in flight: either it already settled (user is live) or
    // the user was never admitted / its admission failed and rolled back.
    NVCIM_CHECK_MSG(find_deployment(user_id).dep != nullptr && store_.user_live(user_id),
                    "user " << user_id << " has no admission to wait for");
    return;
  }
  std::unique_lock<std::mutex> lock(join->mu);
  join->cv.wait(lock, [&join] { return join->settled; });
  if (join->error != nullptr) std::rethrow_exception(join->error);
}

void ServingEngine::evict_user(std::size_t user_id) {
  NVCIM_CHECK_MSG(cfg_.lifecycle.enabled, "tenant lifecycle disabled in this engine");
  obs::Span span(&tracer_, "evict_user", "lifecycle", "user",
                 static_cast<std::int64_t>(user_id));
  // A write-behind admission still in flight must settle first (the store
  // refuses to evict pending slots). A failed admission rolls itself back,
  // and the evict below then throws unknown-user — same as if the user had
  // never been admitted.
  {
    std::shared_ptr<AdmissionJoin> join;
    {
      std::lock_guard<std::mutex> lock(admissions_mu_);
      auto it = admissions_.find(user_id);
      if (it != admissions_.end()) join = it->second;
    }
    if (join != nullptr) {
      std::unique_lock<std::mutex> jlock(join->mu);
      join->cv.wait(jlock, [&join] { return join->settled; });
    }
  }
  // Unpublish the slot first (new batches stop seeing the user), then drop
  // the deployment (in-flight batches hold their own shared_ptr), then
  // purge the user's decoded prompts. Cache keys carry the admission
  // generation, so a late single-flight insert from a still-draining batch
  // can never be served to a future re-admission of this user id.
  store_.evict_user(user_id);  // throws for unknown users
  std::uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(deployments_mu_);
    auto it = deployments_.find(user_id);
    NVCIM_CHECK_MSG(it != deployments_.end(), "user " << user_id << " has no deployment");
    generation = it->second.generation;
    deployments_.erase(it);
  }
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    live_generations_.erase(generation);  // late decode completions won't re-cache
    cache_.erase_if([generation](const std::pair<std::size_t, std::size_t>& key) {
      return key.first == generation;
    });
  }
  stats_.record_eviction();
  // Cardinality control: drop the evicted tenant's labelled series so a
  // churn workload cannot grow the exposition without bound.
  stats_.retire_tenant(user_id);
}

std::size_t ServingEngine::rebalance() {
  NVCIM_CHECK_MSG(cfg_.lifecycle.enabled, "tenant lifecycle disabled in this engine");
  obs::Span span(&tracer_, "rebalance", "lifecycle");
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<Migration> plan = store_.plan_rebalance();
  std::atomic<std::size_t> migrated{0};
  if (plan.empty()) {
    stats_.record_rebalance(ms_between(t0, std::chrono::steady_clock::now()));
    return 0;
  }
  // Each migration programs one user's columns into the target shard and
  // republishes the directory. A migration that fails (e.g. the user was
  // evicted between planning and execution) is skipped, never fatal.
  const auto migrate_one = [&](const Migration& m) {
    obs::Span mspan(&tracer_, "migrate_user", "lifecycle", "user",
                    static_cast<std::int64_t>(m.user_id), "to_shard",
                    static_cast<std::int64_t>(m.to_shard));
    try {
      store_.migrate_user(m.user_id, m.to_shard);
      stats_.record_migration();
      ++migrated;
    } catch (...) {
    }
  };
  // Fan the migrations out as aux tasks: workers run them between (and
  // with priority over) serving batches, exactly like per-shard retrieval
  // subtasks — quiesce-free by construction. The enqueue is gated on
  // running_ && !stopping_ UNDER queue_mu_ (the lock stop() sets stopping_
  // under): tasks enqueued while that holds are guaranteed a live worker to
  // drain them (workers empty the aux queue before exiting); otherwise the
  // migrations run inline on this thread instead of waiting forever.
  struct Group {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining;
  } group;
  group.remaining = plan.size();
  bool enqueued = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (running_ && !stopping_) {
      for (const Migration& m : plan)
        aux_queue_.emplace_back([&migrate_one, &group, m](WorkerState&) {
          migrate_one(m);
          std::lock_guard<std::mutex> glock(group.mu);
          if (--group.remaining == 0) group.cv.notify_all();
        });
      enqueued = true;
    }
  }
  if (enqueued) {
    queue_cv_.notify_all();
    std::unique_lock<std::mutex> lock(group.mu);
    group.cv.wait(lock, [&group] { return group.remaining == 0; });
  } else {
    for (const Migration& m : plan) migrate_one(m);
  }
  stats_.record_rebalance(ms_between(t0, std::chrono::steady_clock::now()));
  return migrated.load();
}

ScrubOutcome ServingEngine::scrub_now() {
  NVCIM_CHECK_MSG(cfg_.lifecycle.enabled, "tenant lifecycle disabled in this engine");
  return scrub_round(0);
}

ScrubOutcome ServingEngine::scrub_round(std::size_t budget) {
  ScrubOutcome total;
  // Snapshot the (shard, subarray) universe up front; capacity grown while
  // the round runs is picked up next round.
  std::vector<std::pair<std::size_t, std::size_t>> units;
  for (std::size_t s = 0; s < store_.n_shards(); ++s)
    for (std::size_t a = 0; a < store_.shard_subarrays(s); ++a) units.emplace_back(s, a);
  if (units.empty()) return total;
  const std::size_t n = budget == 0 ? units.size() : std::min(budget, units.size());
  std::size_t cursor = 0;
  {
    std::lock_guard<std::mutex> lock(scrub_mu_);
    cursor = scrub_cursor_;
    scrub_cursor_ = (scrub_cursor_ + n) % units.size();
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto [shard, sub] = units[(cursor + i) % units.size()];
    obs::Span span(&tracer_, "scrub_subarray", "scrub", "shard",
                   static_cast<std::int64_t>(shard), "subarray",
                   static_cast<std::int64_t>(sub));
    const auto t0 = std::chrono::steady_clock::now();
    const ScrubOutcome out = store_.scrub_and_repair(shard, sub, cfg_.scrubber.policy);
    // Repair wall-clock only for passes that found something — clean probes
    // would otherwise drown the histogram in near-zero samples.
    if (out.columns_degraded > 0)
      stats_.record_repair_latency(ms_between(t0, std::chrono::steady_clock::now()));
    stats_.record_scrub_pass(out.columns_probed, out.columns_degraded, out.columns_repaired,
                             out.columns_stuck, out.migrated_users.size(), out.quarantined);
    // Scrub-driven migrations also count toward the global migration total,
    // like rebalance()'s.
    for (std::size_t u = 0; u < out.migrated_users.size(); ++u) stats_.record_migration();
    total.columns_probed += out.columns_probed;
    total.columns_degraded += out.columns_degraded;
    total.columns_repaired += out.columns_repaired;
    total.columns_stuck += out.columns_stuck;
    total.migrated_users.insert(total.migrated_users.end(), out.migrated_users.begin(),
                                out.migrated_users.end());
    total.quarantined = total.quarantined || out.quarantined;
  }
  return total;
}

void ServingEngine::scrubber_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(scrub_mu_);
      scrub_cv_.wait_for(lock,
                         std::chrono::duration<double, std::milli>(cfg_.scrubber.interval_ms),
                         [this] { return scrub_stop_; });
      if (scrub_stop_) return;
    }
    // One round in flight at a time: a tick that lands while a slow repair
    // is still running is skipped, not queued behind it.
    if (scrub_inflight_.exchange(true)) continue;
    bool enqueued = false;
    {
      // Same gate as rebalance(): tasks enqueued while running_ &&
      // !stopping_ holds UNDER queue_mu_ are guaranteed a live worker to
      // drain them (workers empty the aux queue before exiting).
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (running_ && !stopping_) {
        aux_queue_.emplace_back([this](WorkerState&) {
          scrub_round(cfg_.scrubber.subarrays_per_round);
          scrub_inflight_.store(false);
        });
        enqueued = true;
      }
    }
    if (enqueued)
      queue_cv_.notify_one();
    else
      scrub_inflight_.store(false);
  }
}

ServingEngine::DepRef ServingEngine::find_deployment(std::size_t user_id) const {
  std::lock_guard<std::mutex> lock(deployments_mu_);
  auto it = deployments_.find(user_id);
  return it == deployments_.end() ? DepRef{} : it->second;
}

std::size_t ServingEngine::n_users() const {
  std::lock_guard<std::mutex> lock(deployments_mu_);
  return deployments_.size();
}

void ServingEngine::start() {
  NVCIM_CHECK_MSG(!running_, "engine already started");
  std::size_t first_user_rep = 0;
  {
    std::lock_guard<std::mutex> lock(deployments_mu_);
    NVCIM_CHECK_MSG(!deployments_.empty(), "no deployments to serve");
    first_user_rep = deployments_.begin()->second.dep->keys[0].size();
  }
  if (!store_.built()) {
    Rng rng(cfg_.seed);
    store_.build(rng);
  }
  // All users share one key shape (enforced by the store), so every flattened
  // query representation has the width of the first user's first key.
  rep_size_ = first_user_rep;
  stopping_ = false;
  running_ = true;
  stats_.start_clock();
  stats_.refresh_windows();  // seed the delta rings at serving start
  workers_.reserve(cfg_.n_threads);
  for (std::size_t t = 0; t < cfg_.n_threads; ++t)
    workers_.emplace_back([this] { worker_loop(); });
  if (cfg_.scrubber.enabled) {
    NVCIM_CHECK_MSG(cfg_.lifecycle.enabled,
                    "scrubber requires the tenant lifecycle (repair needs the mutable store)");
    {
      std::lock_guard<std::mutex> lock(scrub_mu_);
      scrub_stop_ = false;
    }
    scrubber_ = std::thread([this] { scrubber_loop(); });
  }
  start_introspection();
}

void ServingEngine::stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!running_) return;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  capacity_cv_.notify_all();
  // The scrub ticker goes first: with stopping_ already set it can no
  // longer enqueue rounds, and joining it here keeps it from touching the
  // queue while the workers drain.
  {
    std::lock_guard<std::mutex> lock(scrub_mu_);
    scrub_stop_ = true;
  }
  scrub_cv_.notify_all();
  if (scrubber_.joinable()) scrubber_.join();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  // Deterministic shutdown for write-behind admissions: the workers drained
  // every staged programming span above (aux tasks run before exit), so
  // every in-flight admission has settled — committed live or rolled back —
  // by the time the map empties. The wait is for stragglers settling inline
  // on a producer thread; it is bounded, never indefinite.
  {
    std::unique_lock<std::mutex> lock(admissions_mu_);
    admissions_cv_.wait(lock, [this] { return admissions_.empty(); });
  }
  // Still-queued requests never dangle and are never silently served after
  // shutdown began: every undispatched future settles with EngineStopped
  // BEFORE stop() returns (in-flight batches completed above, in join).
  std::vector<QueuedRequest> leftover;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    leftover = sched_.drain();
  }
  for (QueuedRequest& r : leftover)
    finish_error(r, std::make_exception_ptr(EngineStopped(
                        "engine stopped with request " + std::to_string(r.id) +
                        " still queued")));
  stats_.record_queue_depth(0);  // queue fully drained
  running_ = false;
  // Freeze the throughput clock: every request is accounted for once the
  // workers have drained, so later snapshots stay stable instead of diving
  // toward zero against a still-running wall clock.
  stats_.stop_clock();
  // The admin endpoint stays up through the drain (a scrape during shutdown
  // sees the final counters) and goes down with the engine.
  stop_introspection();
}

void ServingEngine::finish(QueuedRequest& req, Response&& resp) {
  // Future first, callback second: a callback that itself waits on the
  // future must never deadlock. Callback errors are swallowed — they run on
  // serving threads.
  auto on_complete = std::move(req.on_complete);
  Response cb_copy;
  if (on_complete) cb_copy = resp;
  req.promise.set_value(std::move(resp));
  if (on_complete) {
    try {
      on_complete(cb_copy, nullptr);
    } catch (...) {
    }
  }
}

void ServingEngine::finish_error(QueuedRequest& req, std::exception_ptr error) {
  auto on_complete = std::move(req.on_complete);
  req.promise.set_exception(error);
  if (on_complete) {
    try {
      on_complete(Response{}, error);
    } catch (...) {
    }
  }
}

RequestHandle ServingEngine::submit(Request request, SubmitOptions opts) {
  NVCIM_CHECK_MSG(running_, "engine not started");
  // Both halves of an admission must be visible: the deployment AND the
  // store slot — and the slot must be LIVE (fully programmed), not a
  // write-behind Pending still being written. Checking only the deployment
  // would let a request race into a batch whose pinned epoch predates the
  // slot and fail spuriously; admitting a Pending one would score
  // half-programmed columns. The failure is structured, not fatal: the
  // handle's future settles with UnknownUser, so async callers (who may
  // race a submit against an eviction or a still-pending admission) learn
  // of it on the same channel as every other per-request error.
  if (find_deployment(request.user_id).dep == nullptr || !store_.user_live(request.user_id)) {
    QueuedRequest qr;
    qr.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
    qr.user_id = request.user_id;
    qr.on_complete = std::move(opts.on_complete);
    RequestHandle handle(this, qr.id, qr.promise.get_future());
    finish_error(qr, std::make_exception_ptr(UnknownUser(
                         "unknown or not-yet-live user " + std::to_string(request.user_id))));
    return handle;
  }
  QueuedRequest qr;
  qr.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  qr.user_id = request.user_id;
  qr.query = std::move(request.query);
  qr.priority = opts.priority;
  qr.enqueued = std::chrono::steady_clock::now();
  if (opts.deadline_ms > 0.0)
    qr.deadline = qr.enqueued + std::chrono::duration_cast<QueuedRequest::Clock::duration>(
                                    std::chrono::duration<double, std::milli>(opts.deadline_ms));
  qr.on_complete = std::move(opts.on_complete);
  const QueuedRequest::Clock::time_point enqueued = qr.enqueued;
  RequestHandle handle(this, qr.id, qr.promise.get_future());
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (opts.overload_policy == OverloadPolicy::Reject) {
      NVCIM_CHECK_MSG(!stopping_, "engine is stopping");
      if (sched_.size() >= cfg_.queue_capacity) {
        // Overloaded: reject instead of blocking — the caller owns the
        // shed/retry policy. The counter is the observable signal.
        stats_.record_rejection();
        return RequestHandle{};
      }
    } else {
      capacity_cv_.wait(lock,
                        [this] { return sched_.size() < cfg_.queue_capacity || stopping_; });
      NVCIM_CHECK_MSG(!stopping_, "engine is stopping");
    }
    sched_.push(std::move(qr), enqueued);
    stats_.record_queue_depth(sched_.size());
  }
  queue_cv_.notify_one();
  return handle;
}

bool ServingEngine::cancel(std::uint64_t request_id) {
  QueuedRequest out;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!sched_.cancel(request_id, &out)) return false;
    stats_.record_queue_depth(sched_.size());
  }
  capacity_cv_.notify_one();  // one queue slot freed
  finish_error(out, std::make_exception_ptr(Cancelled(
                        "request " + std::to_string(request_id) +
                        " cancelled before dispatch")));
  stats_.record_cancellation();
  return true;
}

void ServingEngine::set_rate_limit(std::size_t user_id, double rps) {
  std::lock_guard<std::mutex> lock(queue_mu_);
  sched_.set_rate_limit(user_id, rps);
}

std::future<Response> ServingEngine::submit(std::size_t user_id, data::Sample query) {
  return submit(Request{user_id, std::move(query)}).take_future();
}

void ServingEngine::worker_loop() {
  using Clock = std::chrono::steady_clock;
  WorkerState ws;
  for (;;) {
    AuxTask aux;
    std::vector<QueuedRequest> batch;
    std::vector<QueuedRequest> expired;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return !aux_queue_.empty() || !sched_.empty() || stopping_; });
      // Aux tasks first: they belong to a batch already in flight, and the
      // coordinating worker is blocked until they finish.
      if (!aux_queue_.empty()) {
        aux = std::move(aux_queue_.front());
        aux_queue_.pop_front();
      } else if (stopping_) {
        // Queued-but-undispatched requests are NOT drained after stop():
        // they fail with EngineStopped (stop() settles them once every
        // worker has joined). Aux tasks above still run — they belong to
        // batches already in flight.
        return;
      } else {
        // Deadline-aware batch formation. Expire the already-dead first:
        // they must never reach the crossbar, and they must not count
        // toward min_batch.
        expired = sched_.take_expired(Clock::now());
        // Coalescing: give a thin queue a bounded window to fill up to
        // min_batch — but never sleep past the tightest live deadline
        // (dispatch early instead of letting it expire mid-window). An aux
        // task arriving during the window preempts the wait.
        if (!sched_.empty() && cfg_.min_batch > 1 && sched_.size() < cfg_.min_batch) {
          double window_ms = cfg_.batch_window_ms;
          const Clock::time_point tightest = sched_.next_deadline();
          if (tightest != QueuedRequest::kNoDeadline) {
            const double to_deadline = ms_between(Clock::now(), tightest);
            window_ms = std::max(0.0, std::min(window_ms, to_deadline));
          }
          if (window_ms > 0.0) {
            queue_cv_.wait_for(
                lock, std::chrono::duration<double, std::milli>(window_ms), [this] {
                  return sched_.size() >= cfg_.min_batch || !aux_queue_.empty() || stopping_;
                });
          }
          if (!aux_queue_.empty()) {
            aux = std::move(aux_queue_.front());
            aux_queue_.pop_front();
          }
        }
        if (!aux) {
          // Re-check expiry at dispatch time (the window may have outlived a
          // deadline that arrived mid-wait), then pull the batch under the
          // configured policy (DRR fair rotation + EDF-critical pull).
          const Clock::time_point now = Clock::now();
          auto late = sched_.take_expired(now);
          std::move(late.begin(), late.end(), std::back_inserter(expired));
          if (!stopping_) batch = sched_.pop_batch(cfg_.max_batch, now);
        }
        // Dequeue/expiry shrank the queue: keep the live gauge honest (the
        // HWM half of record_queue_depth is monotone, so this is set-only).
        stats_.record_queue_depth(sched_.size());
      }
    }
    if (!expired.empty()) {
      capacity_cv_.notify_all();
      expire_requests(std::move(expired));
    }
    if (aux) {
      aux(ws);
      continue;
    }
    if (batch.empty()) continue;  // another worker drained it
    capacity_cv_.notify_all();
    process_batch(std::move(batch), ws);
  }
}

void ServingEngine::expire_requests(std::vector<QueuedRequest>&& expired) {
  const auto now = std::chrono::steady_clock::now();
  for (QueuedRequest& r : expired) {
    stats_.record_expired(r.user_id);
    if (tracer_.enabled())
      tracer_.complete("request_expired", "request", tracer_.to_us(r.enqueued),
                       tracer_.to_us(now), "user", static_cast<std::int64_t>(r.user_id),
                       "priority", static_cast<std::int64_t>(r.priority));
    finish_error(r, std::make_exception_ptr(DeadlineExceeded(
                        "request " + std::to_string(r.id) + " for user " +
                        std::to_string(r.user_id) + " expired after " +
                        std::to_string(ms_between(r.enqueued, now)) + " ms queued")));
  }
}

void ServingEngine::process_batch(std::vector<QueuedRequest>&& batch, WorkerState& ws) {
  stats_.record_batch(batch.size());
  const std::size_t B = batch.size();

  // A bad request (e.g. a query the backbone rejects) must fail only its own
  // future, never the worker thread — an exception escaping worker_loop
  // would std::terminate the whole serving process.
  std::vector<char> failed(B, 0);
  const auto fail = [&](std::size_t i) {
    failed[i] = 1;
    finish_error(batch[i], std::current_exception());
  };

  using Clock = std::chrono::steady_clock;
  Clock::time_point tick = Clock::now();
  const auto lap = [&tick] {
    const Clock::time_point now = Clock::now();
    const double ms = ms_between(tick, now);
    tick = now;
    return ms;
  };

  // Ids link the span tree together: every stage/shard span carries this
  // batch id, every request span carries it too, so a Perfetto query can
  // walk request → batch → stage → shard.
  const std::uint64_t batch_id = next_batch_id_.fetch_add(1, std::memory_order_relaxed);
  const Clock::time_point batch_start = tick;
  obs::Span batch_span(&tracer_, "process_batch", "batch", "batch",
                       static_cast<std::int64_t>(batch_id), "B",
                       static_cast<std::int64_t>(B));
  const auto trace_stage = [&](const char* name, Clock::time_point t0,
                               Clock::time_point t1) {
    if (tracer_.enabled())
      tracer_.complete(name, "stage", tracer_.to_us(t0), tracer_.to_us(t1), "batch",
                       static_cast<std::int64_t>(batch_id));
  };

  // Pin the tenant directory: every stage of this batch resolves slots,
  // routers and shard widths against this one epoch, however many admits /
  // evictions / migrations land while the batch is in flight. The pin also
  // defers reuse of any slot freed after this point, so the crossbar
  // columns this batch reads cannot be reprogrammed underneath it.
  // Deployments are pinned the same way (shared_ptr per request): eviction
  // drops the map entry, not the object.
  const PinnedDirectory pinned = store_.pin();
  std::vector<DepRef> deps(B);
  for (std::size_t i = 0; i < B; ++i) {
    deps[i] = find_deployment(batch[i].user_id);
    if (deps[i].dep == nullptr || !pinned.snap->is_live(batch[i].user_id)) {
      // Evicted between submit and batch assembly (or evicted and
      // re-admitted as a still-Pending write-behind slot whose columns are
      // mid-programming) — fail just this request.
      failed[i] = 1;
      finish_error(batch[i], std::make_exception_ptr(Error(
                                 "user " + std::to_string(batch[i].user_id) +
                                 " was evicted")));
    }
  }

  // ---- Stage 1: batched encode, fused across users sharing an autoencoder.
  // One row of `reps` per request (failed rows are never read); groups keyed
  // by the deployment's autoencoder identity run as one stacked encode GEMM.
  Matrix& reps = ws.reps;
  reps.resize(B, rep_size_);
  std::vector<std::pair<const compress::Autoencoder*, std::vector<std::size_t>>> groups;
  for (std::size_t i = 0; i < B; ++i) {
    if (failed[i]) continue;
    const compress::Autoencoder* ae = deps[i].dep->autoencoder.get();
    auto it = std::find_if(groups.begin(), groups.end(),
                           [ae](const auto& g) { return g.first == ae; });
    if (it == groups.end()) {
      groups.emplace_back(ae, std::vector<std::size_t>{});
      it = std::prev(groups.end());
    }
    it->second.push_back(i);
  }
  for (const auto& [ae, members] : groups) {
    (void)ae;
    bool fused = false;
    try {
      std::vector<const core::TrainedDeployment*> group_deps;
      std::vector<const data::Sample*> queries;
      group_deps.reserve(members.size());
      queries.reserve(members.size());
      for (const std::size_t i : members) {
        group_deps.push_back(deps[i].dep.get());
        queries.push_back(&batch[i].query);
      }
      const Matrix group_reps =
          core::TrainedDeployment::query_representation_batch(*model_, group_deps, queries,
                                                              &ws.encode);
      NVCIM_CHECK_MSG(group_reps.cols() == rep_size_, "representation width mismatch");
      for (std::size_t r = 0; r < members.size(); ++r)
        std::memcpy(reps.data() + members[r] * rep_size_, group_reps.data() + r * rep_size_,
                    rep_size_ * sizeof(float));
      fused = true;
    } catch (...) {
      // Fall through to the serial path below: one malformed query must not
      // poison the whole group's GEMM.
    }
    if (!fused) {
      for (const std::size_t i : members) {
        try {
          const Matrix rep =
              deps[i].dep->query_representation(*model_, batch[i].query);
          NVCIM_CHECK_MSG(rep.size() == rep_size_, "representation width mismatch");
          std::memcpy(reps.data() + i * rep_size_, rep.data(), rep_size_ * sizeof(float));
        } catch (...) {
          fail(i);
        }
      }
    }
  }
  const Clock::time_point encode_t0 = tick;
  const double encode_ms = lap();
  trace_stage("encode", encode_t0, tick);

  // ---- Stage 2: shard-grouped retrieval. One batched, masked MVM pass per
  // shard: each row scores only its tenant's slot columns (exact mode) or
  // the router's shortlist inside that slot (two-phase), so the crossbar work
  // and the modelled ADC cost cover just the columns the request reads.
  // When the batch spans several shards, the per-shard passes are independent
  // (distinct crossbar banks, disjoint request rows): they are fanned out
  // onto the worker pool's aux queue, idle workers steal them, and this
  // worker helps drain tasks until its group completes — so results are
  // identical to the serial shard loop, just overlapped in time.
  std::vector<std::size_t> ovt_index(B, 0);
  const bool routed = cfg_.two_phase.enabled && store_.routed();
  std::vector<std::vector<std::size_t>> by_shard(store_.n_shards());
  for (std::size_t i = 0; i < B; ++i)
    if (!failed[i]) by_shard[pinned.slot(batch[i].user_id).shard].push_back(i);
  // Group a shard pass's rows by slot: the masked kernel skips an
  // accumulator block only when none of its 4-query register tile needs it,
  // so packing one slot's queries adjacently keeps each tile's candidate
  // columns confined to (mostly) one slot. Row order does not affect any
  // row's scores — each query's accumulation is independent.
  for (auto& members : by_shard)
    std::stable_sort(members.begin(), members.end(), [&](std::size_t a, std::size_t b2) {
      return pinned.slot(batch[a].user_id).begin < pinned.slot(batch[b2].user_id).begin;
    });

  // One shard's retrieval, on the *executing* worker's scratch: pack that
  // shard's representation rows, build their candidate bitmaps (slot spans,
  // or routed shortlists), score them in one masked pass against the shard's
  // banks and take each row's winner among its candidates. Computed entries
  // are bit-identical to the unmasked pass, so every answer equals
  // retrieve_serial()'s full-width one. A failure poisons only the shard's
  // own requests (their indices are touched by no other task).
  const auto retrieve_shard = [&](std::size_t shard, WorkerState& tws) {
    const std::vector<std::size_t>& members = by_shard[shard];
    const Clock::time_point t0 = Clock::now();
    try {
      Matrix& queries = tws.shard_queries;
      queries.resize(members.size(), rep_size_);
      for (std::size_t r = 0; r < members.size(); ++r)
        std::memcpy(queries.data() + r * rep_size_, reps.data() + members[r] * rep_size_,
                    rep_size_ * sizeof(float));
      // Bitmaps are sized to the pinned epoch's score width; columns an
      // admit added since are never candidates.
      const auto slot_mask = [&] {
        tws.candidates.reset(members.size(), pinned.snap->shard_capacity[shard]);
        for (std::size_t r = 0; r < members.size(); ++r) {
          const UserSlot& us = pinned.slot(batch[members[r]].user_id);
          tws.candidates.set_range(r, us.begin, us.end);
        }
      };
      const auto winner = [&](std::size_t r) {
        return ShardedOvtStore::best_in_slot_candidates(
            tws.shard_scores, r, pinned.slot(batch[members[r]].user_id), tws.candidates);
      };
      std::size_t examined = 0;
      if (routed) {
        tws.row_users.clear();
        tws.row_users.reserve(members.size());
        for (const std::size_t i : members) tws.row_users.push_back(batch[i].user_id);
        examined = store_.route_candidates(*pinned.snap, shard, queries, tws.row_users,
                                           tws.candidates, tws.route);
      } else {
        slot_mask();
      }
      store_.shard_scores_into(shard, queries, tws.shard_scores, tws.retrieve, &tws.candidates);
      for (std::size_t r = 0; r < members.size(); ++r) ovt_index[members[r]] = winner(r);
      if (routed) {
        for (std::size_t r = 0; r < members.size(); ++r)
          stats_.record_tenant_candidates(batch[members[r]].user_id,
                                          tws.candidates.count_row(r));
        stats_.record_two_phase(examined,
                                members.size() * pinned.snap->shard_capacity[shard]);
        // Sampled recall-vs-exact: every Nth routed pass also scores each
        // row's whole slot (reusing the pass's buffers — its winners are
        // already taken) and counts rows whose winner matches.
        const std::size_t every = cfg_.two_phase.recall_sample_every;
        if (every > 0 && routed_passes_++ % every == 0) {
          slot_mask();
          store_.shard_scores_into(shard, queries, tws.shard_scores, tws.retrieve,
                                   &tws.candidates);
          std::size_t matches = 0;
          for (std::size_t r = 0; r < members.size(); ++r)
            if (winner(r) == ovt_index[members[r]]) ++matches;
          stats_.record_recall_sample(members.size(), matches);
        }
      }
    } catch (...) {
      for (const std::size_t i : members)
        if (!failed[i]) fail(i);
    }
    const Clock::time_point t1 = Clock::now();
    stats_.record_shard_time(shard, ms_between(t0, t1));
    if (tracer_.enabled())
      tracer_.complete("shard_retrieve", "shard", tracer_.to_us(t0), tracer_.to_us(t1),
                       "shard", static_cast<std::int64_t>(shard), "batch",
                       static_cast<std::int64_t>(batch_id));
  };

  std::vector<std::size_t> active_shards;
  for (std::size_t shard = 0; shard < by_shard.size(); ++shard)
    if (!by_shard[shard].empty()) active_shards.push_back(shard);

  if (cfg_.parallel_retrieval && active_shards.size() > 1) {
    stats_.record_parallel_fanout();
    struct Group {
      std::mutex mu;
      std::condition_variable cv;
      std::size_t remaining;
    } group;
    group.remaining = active_shards.size();
    const auto finish_one = [&group] {
      std::lock_guard<std::mutex> lock(group.mu);
      if (--group.remaining == 0) group.cv.notify_all();
    };
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      for (const std::size_t shard : active_shards)
        aux_queue_.emplace_back([&retrieve_shard, &finish_one, shard](WorkerState& tws) {
          retrieve_shard(shard, tws);
          finish_one();
        });
    }
    queue_cv_.notify_all();
    // Help until this group is done: execute aux tasks (ours or another
    // batch's) while any are queued; once every remaining task is claimed by
    // some worker, wait for the group's completion signal. Tasks never
    // block, so helping cannot deadlock — with one worker this degenerates
    // to the serial loop.
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(group.mu);
        if (group.remaining == 0) break;
      }
      AuxTask task;
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (!aux_queue_.empty()) {
          task = std::move(aux_queue_.front());
          aux_queue_.pop_front();
        }
      }
      if (task) {
        task(ws);
        continue;
      }
      std::unique_lock<std::mutex> lock(group.mu);
      group.cv.wait(lock, [&group] { return group.remaining == 0; });
      break;
    }
  } else {
    for (const std::size_t shard : active_shards) retrieve_shard(shard, ws);
  }
  const Clock::time_point retrieve_t0 = tick;
  const double retrieve_ms = lap();
  trace_stage("retrieve", retrieve_t0, tick);

  // ---- Stage 3: decoded-prompt fetch through the cache. One lock pass
  // probes the cache and registers this worker as the single-flight leader
  // for every distinct missed key; the batch's missed payload rows then
  // stack into ONE decode GEMM per shared autoencoder (rows are independent
  // under decode, so results are bit-identical to per-key decodes), results
  // land in the cache, flights complete, and followers of other workers'
  // flights wait last — leaders never block on followers, so the order is
  // deadlock-free.
  std::vector<std::shared_ptr<const Matrix>> prompts(B);
  std::vector<char> cache_hit(B, 0);
  using CacheKey = std::pair<std::size_t, std::size_t>;
  struct LeaderDecode {
    std::size_t req;  ///< first request index that missed on this key
    CacheKey key;
    std::shared_ptr<InFlightDecode> flight;
    std::shared_ptr<const Matrix> value;
    std::exception_ptr error;
  };
  std::vector<LeaderDecode> leaders;
  std::vector<std::pair<std::size_t, std::shared_ptr<InFlightDecode>>> followers;
  // Capacity up front: once a flight is registered in inflight_, the vector
  // push recording it must not throw, or the key would wedge forever.
  leaders.reserve(B);
  followers.reserve(B);
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    for (std::size_t i = 0; i < B; ++i) {
      if (failed[i]) continue;
      // Keyed by the admission generation, not the user id: a re-admitted
      // user id must never see its predecessor's cached prompts.
      const CacheKey key{deps[i].generation, ovt_index[i]};
      if (auto hit = cache_.get(key)) {
        prompts[i] = *hit;
        cache_hit[i] = 1;
        continue;
      }
      auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        // Another worker (or an earlier request of this batch) is already
        // decoding this key — coalesce onto its flight.
        ++coalesced_fetches_;
        followers.emplace_back(i, it->second);
        continue;
      }
      LeaderDecode ld;
      ld.req = i;
      ld.key = key;
      ld.flight = std::make_shared<InFlightDecode>();
      inflight_.emplace(key, ld.flight);
      leaders.push_back(std::move(ld));
    }
  }

  if (!leaders.empty()) {
    // Group the missed keys by autoencoder (cross-user groups share one
    // decoder exactly as the encode stage shares encoders) and decode each
    // group in a single stacked GEMM. A group failure falls back to per-key
    // decodes so one bad payload cannot poison its neighbours. The whole
    // region is fenced: every registered flight MUST reach the completion
    // loop below — an escaped exception (e.g. bad_alloc in the grouping)
    // becomes the error of every still-unfinished leader, never a wedged
    // in-flight key that blocks future fetchers forever.
    try {
      std::vector<std::pair<const compress::Autoencoder*, std::vector<std::size_t>>> dgroups;
      for (std::size_t l = 0; l < leaders.size(); ++l) {
        const compress::Autoencoder* ae = deps[leaders[l].req].dep->autoencoder.get();
        auto it = std::find_if(dgroups.begin(), dgroups.end(),
                               [ae](const auto& g) { return g.first == ae; });
        if (it == dgroups.end()) {
          dgroups.emplace_back(ae, std::vector<std::size_t>{});
          it = std::prev(dgroups.end());
        }
        it->second.push_back(l);
      }
      for (const auto& [ae, group] : dgroups) {
        bool fused = false;
        if (group.size() > 1) {
          try {
            ws.decode_parts.clear();
            ws.decode_parts.reserve(group.size());
            for (const std::size_t l : group)
              ws.decode_parts.push_back(
                  &deps[leaders[l].req].dep->stored_codes[leaders[l].key.second]);
            stack_rows_into(ws.decode_parts, ws.decode_stacked);
            ae->decode_into(ws.decode_stacked, ws.decode_out, &ws.encode.autoencoder);
            std::size_t r0 = 0;
            for (std::size_t g = 0; g < group.size(); ++g) {
              const std::size_t rows = ws.decode_parts[g]->rows();
              leaders[group[g]].value =
                  std::make_shared<const Matrix>(ws.decode_out.row_slice(r0, r0 + rows));
              r0 += rows;
              ++prompt_decodes_;
            }
            stats_.record_batched_decode();
            fused = true;
          } catch (...) {
            for (const std::size_t l : group) leaders[l].value.reset();
          }
        }
        if (!fused) {
          for (const std::size_t l : group) {
            try {
              auto owned = std::make_shared<Matrix>();
              deps[leaders[l].req].dep->decode_prompt_into(leaders[l].key.second, *owned,
                                                           &ws.encode.autoencoder);
              leaders[l].value = std::move(owned);
              ++prompt_decodes_;
            } catch (...) {
              leaders[l].error = std::current_exception();
            }
          }
        }
      }
    } catch (...) {
      for (LeaderDecode& ld : leaders)
        if (!ld.value && !ld.error) ld.error = std::current_exception();
    }
    for (LeaderDecode& ld : leaders) {
      complete_decode_flight(ld.key, ld.flight, ld.value, ld.error);
      if (ld.error) {
        if (!failed[ld.req]) {
          failed[ld.req] = 1;
          finish_error(batch[ld.req], ld.error);
        }
      } else {
        prompts[ld.req] = ld.value;
      }
    }
  }

  for (auto& [i, flight] : followers) {
    try {
      std::unique_lock<std::mutex> lock(flight->mu);
      flight->cv.wait(lock, [&flight] { return flight->done; });
      if (flight->error) std::rethrow_exception(flight->error);
      prompts[i] = flight->value;
      cache_hit[i] = 1;  // shared the leader's decode
    } catch (...) {
      fail(i);
    }
  }
  const Clock::time_point decode_t0 = tick;
  const double decode_ms = lap();
  trace_stage("decode", decode_t0, tick);

  // ---- Stage 4: optional classification — deduplicated up front, the
  // unique forwards batched through TinyLM::classify_batch (one embedding
  // gather pass + a reused tape instead of per-request tape construction) —
  // then finish every surviving request.
  const bool classify =
      cfg_.run_inference && task_->config().kind == data::TaskKind::Classification;
  std::vector<std::size_t> labels(B, 0);
  std::vector<char> labelled(B, 0);
  if (classify) {
    // Dedup first: identical (user, OVT, input) requests share one forward.
    // The O(B²) rescan is bounded by max_batch and short-circuits on the
    // integer fields, so the token-vector compare only runs for probable
    // duplicates.
    std::vector<std::size_t> uniq;
    std::vector<std::size_t> dup_of(B, B);
    for (std::size_t i = 0; i < B; ++i) {
      if (failed[i]) continue;
      for (std::size_t j = 0; j < i && dup_of[i] == B; ++j) {
        if (!failed[j] && dup_of[j] == B && batch[j].user_id == batch[i].user_id &&
            ovt_index[j] == ovt_index[i] && batch[j].query.input == batch[i].query.input)
          dup_of[i] = j;
      }
      if (dup_of[i] == B) uniq.push_back(i);
    }
    if (!uniq.empty()) {
      try {
        std::vector<const std::vector<int>*> seqs;
        std::vector<const Matrix*> soft_prompts;
        seqs.reserve(uniq.size());
        soft_prompts.reserve(uniq.size());
        for (const std::size_t i : uniq) {
          seqs.push_back(&batch[i].query.input);
          soft_prompts.push_back(prompts[i].get());
        }
        const std::vector<std::size_t> out =
            model_->classify_batch(seqs, task_->label_ids(), soft_prompts);
        for (std::size_t r = 0; r < uniq.size(); ++r) {
          labels[uniq[r]] = out[r];
          labelled[uniq[r]] = 1;
        }
      } catch (...) {
        // Fall through: the finish loop below retries each request alone, so
        // one malformed query cannot poison the whole group's batch.
      }
    }
    for (std::size_t i = 0; i < B; ++i) {
      if (failed[i] || labelled[i] || dup_of[i] == B) continue;
      labels[i] = labels[dup_of[i]];
      labelled[i] = labelled[dup_of[i]];
    }
  }
  std::vector<SlowRequest> slow;
  for (std::size_t i = 0; i < B; ++i) {
    if (failed[i]) continue;
    QueuedRequest& p = batch[i];
    try {
      Response resp;
      resp.user_id = p.user_id;
      resp.ovt_index = ovt_index[i];
      resp.cache_hit = cache_hit[i] != 0;
      if (classify) {
        if (!labelled[i]) {  // batched pass failed — serial fallback
          labels[i] = model_->classify(p.query.input, task_->label_ids(), prompts[i].get());
          labelled[i] = 1;
        }
        resp.label = labels[i];
        resp.has_label = true;
      }
      const Clock::time_point done = Clock::now();
      resp.latency_ms = ms_between(p.enqueued, done);
      // Queue wait = submit → batch dequeue; the rest of the latency is
      // service time. Clamped non-negative for requests enqueued mid-window.
      const double wait_ms =
          std::max(0.0, std::min(resp.latency_ms, ms_between(p.enqueued, batch_start)));
      resp.queue_wait_ms = wait_ms;
      // Dispatched in time but finished late: the answer is delivered (only
      // already-expired requests are dropped), the miss is accounted.
      resp.deadline_missed = p.has_deadline() && done > p.deadline;
      if (resp.deadline_missed) stats_.record_deadline_miss(p.user_id);
      // Device-fault degradation: a scrub flagged column(s) of this user's
      // slot and repair is pending or in flight. The answer was computed
      // from those columns and is delivered anyway — marked, not failed.
      if (cfg_.lifecycle.enabled) {
        resp.degraded = store_.user_degraded(p.user_id);
        if (resp.degraded) stats_.record_degraded_response();
      }
      stats_.record_request(p.user_id, resp.latency_ms, wait_ms, resp.cache_hit);
      if (tracer_.enabled()) {
        tracer_.complete("request", "request", tracer_.to_us(p.enqueued),
                         tracer_.to_us(done), "user",
                         static_cast<std::int64_t>(p.user_id), "batch",
                         static_cast<std::int64_t>(batch_id));
        // SLO-annotated sibling span for requests with a scheduling
        // contract: deadline slack (negative = missed) and priority.
        if (p.has_deadline() || p.priority != 0)
          tracer_.complete("request_slo", "request", tracer_.to_us(p.enqueued),
                           tracer_.to_us(done), "slack_us",
                           p.has_deadline()
                               ? static_cast<std::int64_t>(
                                     std::chrono::duration_cast<std::chrono::microseconds>(
                                         p.deadline - done)
                                         .count())
                               : std::int64_t{0},
                           "priority", static_cast<std::int64_t>(p.priority));
      }
      if (cfg_.slow_request_ms > 0.0 && resp.latency_ms >= cfg_.slow_request_ms) {
        SlowRequest sr;
        sr.user_id = p.user_id;
        sr.batch_id = batch_id;
        sr.latency_ms = resp.latency_ms;
        sr.queue_wait_ms = wait_ms;
        slow.push_back(sr);  // stage times filled in below, once classify laps
      }
      finish(p, std::move(resp));
    } catch (...) {
      fail(i);
    }
  }
  const Clock::time_point classify_t0 = tick;
  const double classify_ms = lap();
  trace_stage("classify", classify_t0, tick);

  stats_.record_stage_times(encode_ms, retrieve_ms, decode_ms, classify_ms);
  for (SlowRequest& sr : slow) {
    sr.encode_ms = encode_ms;
    sr.retrieve_ms = retrieve_ms;
    sr.decode_ms = decode_ms;
    sr.classify_ms = classify_ms;
    stats_.record_slow_request(sr);
  }
}

std::shared_ptr<const Matrix> ServingEngine::prompt_locked_fetch(
    const DepRef& ref, std::size_t ovt_index, bool* was_hit,
    compress::Autoencoder::Scratch* scratch) {
  const std::pair<std::size_t, std::size_t> key{ref.generation, ovt_index};
  std::shared_ptr<InFlightDecode> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (auto hit = cache_.get(key)) {
      if (was_hit != nullptr) *was_hit = true;
      return *hit;
    }
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      flight = it->second;
    } else {
      flight = std::make_shared<InFlightDecode>();
      inflight_.emplace(key, flight);
      leader = true;
    }
  }

  if (!leader) {
    // Single-flight: another worker is already decoding this key — wait for
    // its result instead of duplicating the expensive decode.
    ++coalesced_fetches_;
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&flight] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    if (was_hit != nullptr) *was_hit = true;  // shared the leader's decode
    return flight->value;
  }

  // Leader: decode outside every lock — the autoencoder decode is the
  // expensive step the cache exists to amortize, and it is const/thread-safe.
  std::shared_ptr<const Matrix> decoded;
  std::exception_ptr error;
  try {
    auto owned = std::make_shared<Matrix>();
    ref.dep->decode_prompt_into(ovt_index, *owned, scratch);
    decoded = std::move(owned);
    ++prompt_decodes_;
  } catch (...) {
    error = std::current_exception();
  }
  complete_decode_flight(key, flight, decoded, error);
  if (error) std::rethrow_exception(error);
  if (was_hit != nullptr) *was_hit = false;
  return decoded;
}

void ServingEngine::complete_decode_flight(const std::pair<std::size_t, std::size_t>& key,
                                           const std::shared_ptr<InFlightDecode>& flight,
                                           const std::shared_ptr<const Matrix>& value,
                                           const std::exception_ptr& error) {
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    // A decode finishing after its user's eviction (dead generation) is
    // delivered to its waiters but never cached — otherwise it would
    // re-insert an unreachable entry right after the eviction purge.
    if (!error && live_generations_.count(key.first) > 0) {
      try {
        cache_.put(key, value);
      } catch (...) {
        // A failed cache insert must not wedge the key: the flight is still
        // completed and the decoded value delivered, just not cached.
      }
    }
    inflight_.erase(key);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->value = value;
    flight->error = error;
    flight->done = true;
  }
  flight->cv.notify_all();
}

std::shared_ptr<const Matrix> ServingEngine::prompt(std::size_t user_id, std::size_t ovt_index) {
  const DepRef ref = find_deployment(user_id);
  NVCIM_CHECK_MSG(ref.dep != nullptr, "unknown user " << user_id);
  NVCIM_CHECK_MSG(ovt_index < ref.dep->n_ovts(),
                  "OVT " << ovt_index << " out of range for user " << user_id);
  return prompt_locked_fetch(ref, ovt_index, nullptr, nullptr);
}

std::size_t ServingEngine::retrieve_serial(std::size_t user_id, const data::Sample& query) {
  NVCIM_CHECK_MSG(store_.built(), "engine not started");
  const DepRef ref = find_deployment(user_id);
  NVCIM_CHECK_MSG(ref.dep != nullptr, "unknown user " << user_id);
  return store_.retrieve_user(user_id, ref.dep->query_representation(*model_, query));
}

const core::TrainedDeployment& ServingEngine::deployment(std::size_t user_id) const {
  std::lock_guard<std::mutex> lock(deployments_mu_);
  auto it = deployments_.find(user_id);
  NVCIM_CHECK_MSG(it != deployments_.end(), "unknown user " << user_id);
  // The reference stays valid until the user is evicted (shared_ptr target).
  return *it->second.dep;
}

std::size_t ServingEngine::cache_evictions() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.evictions();
}

}  // namespace nvcim::serve
