#include "nvcim/serve/engine.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

namespace nvcim::serve {

namespace {

/// Every Nth routed shard pass also scores each row's whole slot (the exact
/// path) and records recall-vs-exact into EngineStats.
constexpr std::size_t kRecallSampleEvery = 16;

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

/// Completion count of a fork-join group.
class Countdown {
 public:
  explicit Countdown(std::size_t n) : remaining_(n) {}
  void count_down() {
    // Notify under the lock: the waiter may destroy this object as soon as
    // it can observe zero.
    std::lock_guard<std::mutex> lock(mu_);
    if (--remaining_ == 0) cv_.notify_all();
  }
  bool done() {
    std::lock_guard<std::mutex> lock(mu_);
    return remaining_ == 0;
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t remaining_;
};

/// Indices [0, n) grouped by autoencoder identity, in first-appearance
/// order; `ae_of(i)` returns null for an index that joins no group.
template <class AeOf>
std::vector<std::pair<const compress::Autoencoder*, std::vector<std::size_t>>>
group_by_autoencoder(std::size_t n, AeOf ae_of) {
  std::vector<std::pair<const compress::Autoencoder*, std::vector<std::size_t>>> groups;
  for (std::size_t i = 0; i < n; ++i) {
    const compress::Autoencoder* ae = ae_of(i);
    if (ae == nullptr) continue;
    auto it = std::find_if(groups.begin(), groups.end(),
                           [ae](const auto& g) { return g.first == ae; });
    if (it == groups.end()) it = groups.emplace(groups.end(), ae, std::vector<std::size_t>{});
    it->second.push_back(i);
  }
  return groups;
}

}  // namespace

/// Spans still to program, the first programming error seen (if any) and
/// the settled flag joiners block on.
struct AdmissionJoin {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining = 0;
  bool settled = false;
  std::exception_ptr error;

  /// Block until the admission settles; returns its error (null ⇔ the
  /// tenant went live).
  std::exception_ptr join() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return settled; });
    return error;
  }
};

void AdmissionHandle::wait() {
  if (join_ == nullptr) return;
  if (std::exception_ptr error = join_->join()) std::rethrow_exception(error);
}

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
  checked_ms(cfg_.batch_window_ms, "batch_window_ms");
  // A zero bucket pushes a ring snapshot on every read, growing the rings for
  // the whole retention; a NaN one never advances them; zero buckets make a
  // zero-width window; and retention shorter than a window silently
  // shortens that window.
  NVCIM_CHECK_MSG(checked_ms(cfg_.window.bucket_ms, "window bucket_ms") >
                      QueuedRequest::Clock::duration::zero(),
                  "window bucket_ms must be positive");
  NVCIM_CHECK_MSG(cfg_.window.buckets > 0, "window buckets must be positive");
  NVCIM_CHECK_MSG(cfg_.window.retention_ms >=
                      std::max(cfg_.window.window_ms(), cfg_.slo.burn.slow_window_ms),
                  "window retention_ms " << cfg_.window.retention_ms
                                         << " must cover the window ("
                                         << cfg_.window.window_ms()
                                         << " ms) and the slow burn window ("
                                         << cfg_.slo.burn.slow_window_ms << " ms)");
  // A zero period would busy-spin the ticker: its wait returns at once and
  // every tick skips the round still in flight.
  if (cfg_.scrubber.enabled)
    NVCIM_CHECK_MSG(checked_ms(cfg_.scrubber.interval_ms, "scrubber interval_ms") >
                        QueuedRequest::Clock::duration::zero(),
                    "scrubber interval_ms must be positive");
}

ServingEngine::~ServingEngine() { stop(); }

void ServingEngine::add_deployment(std::size_t user_id, core::TrainedDeployment deployment) {
  NVCIM_CHECK_MSG(!running_, "cannot add deployments while running (use admit)");
  check_deployment(user_id, deployment);
  store_.add_user(user_id, deployment.keys);
  deploy(user_id, std::make_shared<const core::TrainedDeployment>(std::move(deployment)));
}

void ServingEngine::check_deployment(std::size_t user_id,
                                     const core::TrainedDeployment& deployment) {
  NVCIM_CHECK_MSG(deployment.n_ovts() > 0, "deployment for user " << user_id << " is empty");
  NVCIM_CHECK_MSG(deployment.autoencoder != nullptr,
                  "deployment for user " << user_id << " has no autoencoder");
}

void ServingEngine::deploy(std::size_t user_id,
                           std::shared_ptr<const core::TrainedDeployment> deployment) {
  std::uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(deployments_mu_);
    generation = next_generation_++;
    deployments_[user_id] = DepRef{std::move(deployment), generation};
  }
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    live_generations_.insert(generation);
  }
  // A re-used tenant id gets fresh labelled series even if a prior
  // incarnation was retired on eviction.
  stats_.revive_tenant(user_id);
}

void ServingEngine::undeploy(std::size_t user_id) {
  std::uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(deployments_mu_);
    auto it = deployments_.find(user_id);
    if (it == deployments_.end()) return;
    generation = it->second.generation;
    deployments_.erase(it);
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  live_generations_.erase(generation);  // late decode completions won't re-cache
  cache_.erase_if([generation](const std::pair<std::size_t, std::size_t>& key) {
    return key.first == generation;
  });
}

AdmissionHandle ServingEngine::admit(std::size_t user_id, core::TrainedDeployment deployment,
                                     AdmitOptions opts) {
  auto join = std::make_shared<AdmissionJoin>();
  if (!store_.built()) {
    add_deployment(user_id, std::move(deployment));
    join->settled = true;
    return AdmissionHandle(user_id, std::move(join));
  }
  NVCIM_CHECK_MSG(cfg_.lifecycle.enabled, "tenant lifecycle disabled in this engine");
  check_deployment(user_id, deployment);
  auto owned = std::make_shared<const core::TrainedDeployment>(std::move(deployment));
  obs::Span span(&tracer_, "admit_user", "lifecycle", "user",
                 static_cast<std::int64_t>(user_id));
  const auto t0 = std::chrono::steady_clock::now();

  {
    std::unique_lock<std::mutex> lock(admissions_mu_);
    if (opts.non_blocking && admissions_.size() >= cfg_.lifecycle.max_pending_admissions) {
      // Overloaded: the programming backlog is at its bound — reject and
      // let the caller shed or retry. The counter is the observable signal.
      stats_.record_admission_rejection();
      return AdmissionHandle{};
    }
    admissions_cv_.wait(lock, [this] {
      return admissions_.size() < cfg_.lifecycle.max_pending_admissions;
    });
    NVCIM_CHECK_MSG(admissions_.count(user_id) == 0,
                    "user " << user_id << " admission already in flight");
    NVCIM_CHECK_MSG(find_deployment(user_id).dep == nullptr,
                    "user " << user_id << " already deployed");
    admissions_.emplace(user_id, join);  // reserves one pending-admission slot
  }

  // Deployment first, directory second: the moment a batch can see the
  // user's slot, its deployment must resolve. Staging (placement,
  // allocation, router, Pending publish) is the cheap part; the columns
  // are programmed span by span below.
  std::shared_ptr<const ShardedOvtStore::StagedAdmission> staged;
  try {
    deploy(user_id, owned);
    staged = std::make_shared<const ShardedOvtStore::StagedAdmission>(
        store_.stage_admit(user_id, owned->keys));
  } catch (...) {
    settle_admission(user_id, *join, std::current_exception());
    throw;
  }
  join->remaining = staged->spans.size();
  stats_.record_programming_enqueued(staged->spans.size());

  // Each span is one task; the last one to land settles the admission.
  // Write-behind hands them to the pool (workers interleave them with
  // serving batches); otherwise, or when the pool is not accepting work,
  // they run here and the tenant is live when admit() returns.
  std::vector<AuxTask> tasks;
  tasks.reserve(staged->spans.size());
  for (std::size_t i = 0; i < staged->spans.size(); ++i)
    tasks.emplace_back(
        [this, staged, join, i, t0](WorkerState&) { run_admission_span(staged, join, i, t0); });
  WorkerState ws;
  if (cfg_.lifecycle.write_behind) {
    post(std::move(tasks), ws);
  } else {
    for (AuxTask& task : tasks) task(ws);
  }
  AdmissionHandle handle(user_id, std::move(join));
  // A synchronous admission reports its failure from admit() itself.
  if (opts.wait || !cfg_.lifecycle.write_behind) handle.wait();
  return handle;
}

void ServingEngine::run_admission_span(
    const std::shared_ptr<const ShardedOvtStore::StagedAdmission>& staged,
    const std::shared_ptr<AdmissionJoin>& join, std::size_t idx,
    std::chrono::steady_clock::time_point t0) {
  std::exception_ptr error;
  {
    obs::Span span(&tracer_, "program_span", "lifecycle", "user",
                   static_cast<std::int64_t>(staged->user_id), "span",
                   static_cast<std::int64_t>(idx));
    try {
      store_.program_span(*staged, idx);
    } catch (...) {
      error = std::current_exception();
    }
    stats_.record_program_batch(staged->spans[idx].second - staged->spans[idx].first);
  }
  {
    std::lock_guard<std::mutex> lock(join->mu);
    if (error != nullptr && join->error == nullptr) join->error = error;
    if (--join->remaining != 0) return;
    error = join->error;
  }
  // The last span commits the tenant live, unless any span failed.
  if (error == nullptr) {
    try {
      store_.commit_admit(staged->user_id);
      stats_.record_admission(/*router_refreshed=*/store_.routed());
      stats_.record_admission_latency(ms_between(t0, std::chrono::steady_clock::now()));
    } catch (...) {
      error = std::current_exception();
    }
  }
  settle_admission(staged->user_id, *join, error);
}

void ServingEngine::settle_admission(std::size_t user_id, AdmissionJoin& join,
                                     std::exception_ptr error) {
  if (error != nullptr) {  // full rollback: slot, deployment, generation
    store_.abort_admit(user_id);
    undeploy(user_id);
  }
  // Settle order matters: the store is consistent (committed or rolled
  // back) BEFORE the admissions_ entry disappears, so an evict_user() that
  // misses the entry sees the admission's final state.
  {
    std::lock_guard<std::mutex> lock(admissions_mu_);
    admissions_.erase(user_id);
  }
  admissions_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(join.mu);
    join.error = std::move(error);
    join.settled = true;
  }
  join.cv.notify_all();
}

void ServingEngine::evict_user(std::size_t user_id) {
  NVCIM_CHECK_MSG(cfg_.lifecycle.enabled, "tenant lifecycle disabled in this engine");
  obs::Span span(&tracer_, "evict_user", "lifecycle", "user",
                 static_cast<std::int64_t>(user_id));
  // An admission still in flight must settle first (the store refuses to
  // evict pending slots). A failed admission rolls itself back, and the
  // evict below then throws unknown-user — same as if the user had never
  // been admitted.
  std::shared_ptr<AdmissionJoin> join;
  {
    std::lock_guard<std::mutex> lock(admissions_mu_);
    auto it = admissions_.find(user_id);
    if (it != admissions_.end()) join = it->second;
  }
  if (join != nullptr) join->join();
  // Unpublish the slot first (new batches stop seeing the user), then drop
  // the deployment (in-flight batches hold their own shared_ptr) and purge
  // the user's decoded prompts. Cache keys carry the admission generation,
  // so a late single-flight insert from a still-draining batch can never be
  // served to a future re-admission of this user id.
  store_.evict_user(user_id);  // throws for unknown users
  undeploy(user_id);
  stats_.record_eviction();
  // Cardinality control: drop the evicted tenant's labelled series so a
  // churn workload cannot grow the exposition without bound.
  stats_.retire_tenant(user_id);
}

std::size_t ServingEngine::rebalance() {
  NVCIM_CHECK_MSG(cfg_.lifecycle.enabled, "tenant lifecycle disabled in this engine");
  obs::Span span(&tracer_, "rebalance", "lifecycle");
  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<std::size_t> migrated{0};
  // One aux task per migration: workers run them between (and with
  // priority over) serving batches, exactly like per-shard retrieval
  // subtasks — quiesce-free by construction. Each programs one user's
  // columns into the target shard and republishes the directory. A
  // migration that fails (e.g. the user was evicted between planning and
  // execution) is skipped, never fatal.
  std::vector<AuxTask> tasks;
  for (const Migration& m : store_.plan_rebalance())
    tasks.emplace_back([this, &migrated, m](WorkerState&) {
      obs::Span mspan(&tracer_, "migrate_user", "lifecycle", "user",
                      static_cast<std::int64_t>(m.user_id), "to_shard",
                      static_cast<std::int64_t>(m.to_shard));
      try {
        store_.migrate_user(m.user_id, m.to_shard);
        stats_.record_migration();
        ++migrated;
      } catch (...) {
      }
    });
  WorkerState ws;
  fork_join(std::move(tasks), ws);
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
  WorkerState ws;
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
    post({[this](WorkerState&) {
           scrub_round(cfg_.scrubber.subarrays_per_round);
           scrub_inflight_.store(false);
         }},
         ws);
  }
}

void ServingEngine::post(std::vector<AuxTask>&& tasks, WorkerState& ws) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (running_ && !stopping_) {
      for (AuxTask& task : tasks) aux_queue_.push_back(std::move(task));
      tasks.clear();
    }
  }
  if (tasks.empty()) {
    queue_cv_.notify_all();
    return;
  }
  for (AuxTask& task : tasks) task(ws);
}

ServingEngine::AuxTask ServingEngine::pop_aux_locked() {
  if (aux_queue_.empty()) return {};
  AuxTask task = std::move(aux_queue_.front());
  aux_queue_.pop_front();
  return task;
}

void ServingEngine::fork_join(std::vector<AuxTask>&& tasks, WorkerState& ws) {
  Countdown pending(tasks.size());
  for (AuxTask& task : tasks)
    task = [&pending, inner = std::move(task)](WorkerState& tws) {
      inner(tws);
      pending.count_down();
    };
  post(std::move(tasks), ws);
  // Help while tasks are queued; once every remaining task is claimed by
  // some worker, wait for the last to finish.
  while (!pending.done()) {
    AuxTask task;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      task = pop_aux_locked();
    }
    if (!task) {
      pending.wait();
      return;
    }
    task(ws);
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
                    "scrubber requires the tenant lifecycle (it migrates tenants off stuck "
                    "columns)");
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
  const QueuedRequest::Clock::duration deadline = checked_ms(opts.deadline_ms, "deadline_ms");
  // Both halves of an admission must be visible: the deployment AND the
  // store slot — and the slot must be LIVE (fully programmed), not a
  // write-behind Pending still being written. Checking only the deployment
  // would let a request race into a batch whose pinned epoch predates the
  // slot and fail spuriously; admitting a Pending one would score
  // half-programmed columns. The failure is structured, not fatal: the
  // handle's future settles with UnknownUser, so async callers (who may
  // race a submit against an eviction or a still-pending admission) learn
  // of it on the same channel as every other per-request error.
  const bool known =
      find_deployment(request.user_id).dep != nullptr && store_.user_live(request.user_id);
  QueuedRequest qr;
  qr.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  qr.user_id = request.user_id;
  qr.query = std::move(request.query);
  qr.priority = opts.priority;
  qr.enqueued = std::chrono::steady_clock::now();
  if (opts.deadline_ms > 0.0) qr.deadline = qr.enqueued + deadline;
  qr.on_complete = std::move(opts.on_complete);
  const QueuedRequest::Clock::time_point enqueued = qr.enqueued;
  RequestHandle handle(this, qr.id, qr.promise.get_future());
  if (!known) {
    finish_error(qr, std::make_exception_ptr(UnknownUser(
                         "unknown or not-yet-live user " + std::to_string(qr.user_id))));
    return handle;
  }
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
      aux = pop_aux_locked();
      if (!aux && stopping_) {
        // Queued-but-undispatched requests are NOT drained after stop():
        // they fail with EngineStopped (stop() settles them once every
        // worker has joined). Aux tasks above still run — they belong to
        // batches already in flight.
        return;
      }
      if (!aux) {
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
          aux = pop_aux_locked();
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

/// One row of a decoded-prompt fetch: the deployment and OVT to fetch (a
/// null `ref` skips the row) and its outcome.
struct ServingEngine::PromptFetch {
  const DepRef* ref = nullptr;
  std::size_t ovt_index = 0;
  std::shared_ptr<const DecodedPrompt> value;
  bool hit = false;  ///< served from the cache or another fetch's decode
  std::exception_ptr error;
};

/// One batch in flight. Each stage reads what the stages before it filled
/// in; a request that fails anywhere is settled at once and skipped by
/// every later stage.
struct ServingEngine::Batch {
  std::size_t size() const { return reqs.size(); }

  /// Fail request `i` alone: a bad request (e.g. a query the backbone
  /// rejects) must fail only its own future, never the worker thread — an
  /// exception escaping worker_loop would std::terminate the whole serving
  /// process.
  void fail(std::size_t i, std::exception_ptr error = std::current_exception()) {
    failed[i] = 1;
    finish_error(reqs[i], std::move(error));
  }

  std::vector<QueuedRequest> reqs;
  std::uint64_t id;  ///< links the batch's request, stage and shard spans
  std::chrono::steady_clock::time_point start;  ///< queue wait ends here
  /// encode: the epoch every stage resolves against
  PinnedDirectory pinned{};
  /// encode: each request's pinned deployment
  std::vector<DepRef> deps = std::vector<DepRef>(reqs.size());
  /// any stage: the request has already been settled with an error
  std::vector<char> failed = std::vector<char>(reqs.size(), 0);
  /// retrieve: the winning OVT per request
  std::vector<std::size_t> ovt_index = std::vector<std::size_t>(reqs.size(), 0);
  /// decode: the decoded prompt per request
  std::vector<PromptFetch> prompts = std::vector<PromptFetch>(reqs.size());
};

void ServingEngine::process_batch(std::vector<QueuedRequest>&& requests, WorkerState& ws) {
  using Clock = std::chrono::steady_clock;
  stats_.record_batch(requests.size());
  Clock::time_point tick = Clock::now();
  // Ids link the span tree together: every stage/shard span carries this
  // batch id, every request span carries it too, so a Perfetto query can
  // walk request → batch → stage → shard.
  const std::uint64_t batch_id = next_batch_id_.fetch_add(1, std::memory_order_relaxed);
  obs::Span batch_span(&tracer_, "process_batch", "batch", "batch",
                       static_cast<std::int64_t>(batch_id), "B",
                       static_cast<std::int64_t>(requests.size()));
  Batch b{std::move(requests), batch_id, tick};
  const auto stage = [&](const char* name, const auto& run) {
    const Clock::time_point t0 = tick;
    run();
    tick = Clock::now();
    if (tracer_.enabled())
      tracer_.complete(name, "stage", tracer_.to_us(t0), tracer_.to_us(tick), "batch",
                       static_cast<std::int64_t>(batch_id));
    return ms_between(t0, tick);
  };
  const double encode_ms = stage("encode", [&] { encode_stage(b, ws); });
  const double retrieve_ms = stage("retrieve", [&] { retrieve_stage(b, ws); });
  const double decode_ms = stage("decode", [&] { decode_stage(b, ws); });
  std::vector<SlowRequest> slow;
  const double classify_ms = stage("classify", [&] { slow = finish_stage(b, ws); });

  stats_.record_stage_times(encode_ms, retrieve_ms, decode_ms, classify_ms);
  for (SlowRequest& sr : slow) {
    sr.encode_ms = encode_ms;
    sr.retrieve_ms = retrieve_ms;
    sr.decode_ms = decode_ms;
    sr.classify_ms = classify_ms;
    stats_.record_slow_request(sr);
  }
}

void ServingEngine::encode_stage(Batch& b, WorkerState& ws) {
  const std::size_t B = b.size();
  // Pin the tenant directory: every stage of this batch resolves slots,
  // routers and shard widths against this one epoch, however many admits /
  // evictions / migrations land while the batch is in flight. The pin also
  // defers reuse of any slot freed after this point, so the crossbar
  // columns this batch reads cannot be reprogrammed underneath it.
  // Deployments are pinned the same way (shared_ptr per request): eviction
  // drops the map entry, not the object.
  b.pinned = store_.pin();
  for (std::size_t i = 0; i < B; ++i) {
    b.deps[i] = find_deployment(b.reqs[i].user_id);
    if (b.deps[i].dep == nullptr || !b.pinned.snap->is_live(b.reqs[i].user_id)) {
      // Evicted between submit and batch assembly (or evicted and
      // re-admitted as a still-Pending write-behind slot whose columns are
      // mid-programming) — fail just this request.
      b.fail(i, std::make_exception_ptr(
                    Error("user " + std::to_string(b.reqs[i].user_id) + " was evicted")));
    }
  }

  // One row of `reps` per request (failed rows are never read); requests
  // sharing an autoencoder run as one stacked encode GEMM (cross-user
  // fusion).
  Matrix& reps = ws.reps;
  reps.resize(B, rep_size_);
  const auto groups = group_by_autoencoder(B, [&](std::size_t i) -> const compress::Autoencoder* {
    return b.failed[i] ? nullptr : b.deps[i].dep->autoencoder.get();
  });
  for (const auto& [ae, members] : groups) {
    (void)ae;
    bool fused = false;
    try {
      std::vector<const core::TrainedDeployment*> group_deps;
      std::vector<const data::Sample*> queries;
      group_deps.reserve(members.size());
      queries.reserve(members.size());
      for (const std::size_t i : members) {
        group_deps.push_back(b.deps[i].dep.get());
        queries.push_back(&b.reqs[i].query);
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
          const Matrix rep = b.deps[i].dep->query_representation(*model_, b.reqs[i].query);
          NVCIM_CHECK_MSG(rep.size() == rep_size_, "representation width mismatch");
          std::memcpy(reps.data() + i * rep_size_, rep.data(), rep_size_ * sizeof(float));
        } catch (...) {
          b.fail(i);
        }
      }
    }
  }
}

void ServingEngine::retrieve_stage(Batch& b, WorkerState& ws) {
  // One batched, masked MVM pass per shard: each row scores only its
  // tenant's slot columns (exact mode) or the router's shortlist inside that
  // slot (two-phase), so the crossbar work and the modelled ADC cost cover
  // just the columns the request reads. The per-shard passes are
  // independent (distinct crossbar banks, disjoint request rows), so fanning
  // them out across the pool gives results identical to the serial loop.
  const PinnedDirectory& pinned = b.pinned;
  const bool routed = cfg_.two_phase.enabled && store_.routed();
  std::vector<std::vector<std::size_t>> by_shard(store_.n_shards());
  for (std::size_t i = 0; i < b.size(); ++i)
    if (!b.failed[i]) by_shard[pinned.slot(b.reqs[i].user_id).shard].push_back(i);
  // Group a shard pass's rows by slot: the masked kernel skips an
  // accumulator block only when none of its 4-query register tile needs it,
  // so packing one slot's queries adjacently keeps each tile's candidate
  // columns confined to (mostly) one slot. Row order does not affect any
  // row's scores — each query's accumulation is independent.
  for (auto& members : by_shard)
    std::stable_sort(members.begin(), members.end(), [&](std::size_t x, std::size_t y) {
      return pinned.slot(b.reqs[x].user_id).begin < pinned.slot(b.reqs[y].user_id).begin;
    });

  // One shard's retrieval, on the *executing* thread's scratch: pack that
  // shard's representation rows, build their candidate bitmaps (slot spans,
  // or routed shortlists), score them in one masked pass against the shard's
  // banks and take each row's winner among its candidates. Computed entries
  // are bit-identical to the unmasked pass, so every answer equals
  // retrieve_serial()'s full-width one. A failure poisons only the shard's
  // own requests (their indices are touched by no other task).
  const Matrix& reps = ws.reps;
  const auto retrieve_shard = [&](std::size_t shard, WorkerState& tws) {
    using Clock = std::chrono::steady_clock;
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
          const UserSlot& us = pinned.slot(b.reqs[members[r]].user_id);
          tws.candidates.set_range(r, us.begin, us.end);
        }
      };
      const auto winner = [&](std::size_t r) {
        return ShardedOvtStore::best_in_slot_candidates(
            tws.shard_scores, r, pinned.slot(b.reqs[members[r]].user_id), tws.candidates);
      };
      std::size_t examined = 0;
      if (routed) {
        tws.row_users.clear();
        tws.row_users.reserve(members.size());
        for (const std::size_t i : members) tws.row_users.push_back(b.reqs[i].user_id);
        examined = store_.route_candidates(*pinned.snap, shard, queries, tws.row_users,
                                           tws.candidates, tws.route);
      } else {
        slot_mask();
      }
      store_.shard_scores_into(shard, queries, tws.shard_scores, tws.retrieve, &tws.candidates);
      for (std::size_t r = 0; r < members.size(); ++r) b.ovt_index[members[r]] = winner(r);
      if (routed) {
        for (std::size_t r = 0; r < members.size(); ++r)
          stats_.record_tenant_candidates(b.reqs[members[r]].user_id,
                                          tws.candidates.count_row(r));
        stats_.record_two_phase(examined,
                                members.size() * pinned.snap->shard_capacity[shard]);
        // Sampled recall-vs-exact: every Nth routed pass also scores each
        // row's whole slot (reusing the pass's buffers — its winners are
        // already taken) and counts rows whose winner matches.
        if (routed_passes_++ % kRecallSampleEvery == 0) {
          slot_mask();
          store_.shard_scores_into(shard, queries, tws.shard_scores, tws.retrieve,
                                   &tws.candidates);
          std::size_t matches = 0;
          for (std::size_t r = 0; r < members.size(); ++r)
            if (winner(r) == b.ovt_index[members[r]]) ++matches;
          stats_.record_recall_sample(members.size(), matches);
        }
      }
    } catch (...) {
      for (const std::size_t i : members)
        if (!b.failed[i]) b.fail(i);
    }
    const Clock::time_point t1 = Clock::now();
    stats_.record_shard_time(shard, ms_between(t0, t1));
    if (tracer_.enabled())
      tracer_.complete("shard_retrieve", "shard", tracer_.to_us(t0), tracer_.to_us(t1),
                       "shard", static_cast<std::int64_t>(shard), "batch",
                       static_cast<std::int64_t>(b.id));
  };

  std::vector<AuxTask> tasks;
  for (std::size_t shard = 0; shard < by_shard.size(); ++shard)
    if (!by_shard[shard].empty())
      tasks.emplace_back(
          [&retrieve_shard, shard](WorkerState& tws) { retrieve_shard(shard, tws); });
  // Shards are independent, so fanning their passes out across the pool is
  // bit-identical to the serial shard loop (one worker runs it as that loop).
  if (tasks.size() > 1) {
    stats_.record_parallel_fanout();
    fork_join(std::move(tasks), ws);
  } else {
    for (AuxTask& task : tasks) task(ws);
  }
}

void ServingEngine::decode_stage(Batch& b, WorkerState& ws) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (b.failed[i]) continue;
    b.prompts[i].ref = &b.deps[i];
    b.prompts[i].ovt_index = b.ovt_index[i];
  }
  fetch_prompts(b.prompts, ws);
  for (std::size_t i = 0; i < b.size(); ++i)
    if (b.prompts[i].error) b.fail(i, b.prompts[i].error);
}

std::vector<SlowRequest> ServingEngine::finish_stage(Batch& b, WorkerState& ws) {
  using Clock = std::chrono::steady_clock;
  const std::size_t B = b.size();
  // Optional classification: deduplicated up front, the unique sequences
  // run as one group through TinyLM::classify_batch, a tape-free stacked
  // forward of token rows only over each decoded prompt's cached K/V and the
  // worker's reusable scratch. Serving never builds a tape.
  const bool classify = classifies();
  std::vector<std::size_t> labels(B, 0);
  std::vector<char> labelled(B, 0);
  if (classify) {
    // Dedup first on what the forward reads: requests with the same decoded
    // prompt entry (fetch_prompts hands equal keys one entry) and the same
    // input share one forward. The O(B²) rescan is bounded by max_batch and
    // short-circuits on the pointer, so the token-vector compare only runs
    // for probable duplicates.
    std::vector<std::size_t> uniq;
    std::vector<std::size_t> dup_of(B, B);
    for (std::size_t i = 0; i < B; ++i) {
      if (b.failed[i]) continue;
      for (std::size_t j = 0; j < i && dup_of[i] == B; ++j) {
        if (!b.failed[j] && dup_of[j] == B && b.prompts[j].value == b.prompts[i].value &&
            b.reqs[j].query.input == b.reqs[i].query.input)
          dup_of[i] = j;
      }
      if (dup_of[i] == B) uniq.push_back(i);
    }
    if (!uniq.empty()) {
      try {
        std::vector<const std::vector<int>*> seqs;
        std::vector<const llm::TinyLM::PromptKv*> kvs;
        seqs.reserve(uniq.size());
        kvs.reserve(uniq.size());
        for (const std::size_t i : uniq) {
          seqs.push_back(&b.reqs[i].query.input);
          kvs.push_back(&b.prompts[i].value->kv);
        }
        const std::vector<std::size_t> out =
            model_->classify_batch(seqs, task_->label_ids(), kvs, ws.classify);
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
      if (b.failed[i] || labelled[i] || dup_of[i] == B) continue;
      labels[i] = labels[dup_of[i]];
      labelled[i] = labelled[dup_of[i]];
    }
  }
  std::vector<SlowRequest> slow;
  for (std::size_t i = 0; i < B; ++i) {
    if (b.failed[i]) continue;
    QueuedRequest& p = b.reqs[i];
    try {
      Response resp;
      resp.user_id = p.user_id;
      resp.ovt_index = b.ovt_index[i];
      resp.cache_hit = b.prompts[i].hit;
      if (classify) {
        if (!labelled[i]) {  // batched pass failed — retry this request alone
          labels[i] = model_->classify_batch({&p.query.input}, task_->label_ids(),
                                             {&b.prompts[i].value->kv}, ws.classify)[0];
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
          std::max(0.0, std::min(resp.latency_ms, ms_between(p.enqueued, b.start)));
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
                         static_cast<std::int64_t>(b.id));
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
        sr.batch_id = b.id;
        sr.latency_ms = resp.latency_ms;
        sr.queue_wait_ms = wait_ms;
        slow.push_back(sr);
      }
      finish(p, std::move(resp));
    } catch (...) {
      b.fail(i);
    }
  }
  return slow;
}

void ServingEngine::fetch_prompts(std::vector<PromptFetch>& rows, WorkerState& ws) {
  using CacheKey = std::pair<std::size_t, std::size_t>;
  struct Leader {
    std::size_t row;  ///< first row that missed on this key
    CacheKey key;
    std::shared_ptr<InFlightDecode> flight;
  };
  std::vector<Leader> leaders;
  std::vector<std::pair<std::size_t, std::shared_ptr<InFlightDecode>>> followers;
  // Capacity up front: once a flight is registered in inflight_, the vector
  // push recording it must not throw, or the key would wedge forever.
  leaders.reserve(rows.size());
  followers.reserve(rows.size());
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      PromptFetch& row = rows[r];
      if (row.ref == nullptr) continue;
      // Keyed by the admission generation, not the user id: a re-admitted
      // user id must never see its predecessor's cached prompts.
      const CacheKey key{row.ref->generation, row.ovt_index};
      if (auto hit = cache_.get(key)) {
        row.value = *hit;
        row.hit = true;
        continue;
      }
      auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        // Another thread (or an earlier row of this fetch) is already
        // decoding this key — coalesce onto its flight.
        ++coalesced_fetches_;
        followers.emplace_back(r, it->second);
        continue;
      }
      auto flight = std::make_shared<InFlightDecode>();
      inflight_.emplace(key, flight);
      leaders.push_back(Leader{r, key, std::move(flight)});
    }
  }

  if (!leaders.empty()) {
    // Group the missed keys by autoencoder (cross-user groups share one
    // decoder exactly as the encode stage shares encoders) and decode each
    // group in a single stacked GEMM — rows are independent under decode, so
    // results are bit-identical to per-key decodes. When the engine
    // classifies, the group's prompt K/V is then built in one stacked
    // forward, so every later hit classifies token rows only. A group
    // failure falls back to per-key work so one bad payload cannot poison
    // its neighbours. Each entry is complete before it is published const.
    // The whole region is fenced: every registered flight MUST be completed
    // below — an escaped exception (e.g. bad_alloc in the grouping) becomes
    // the error of every still-unfinished leader, never a wedged in-flight
    // key that blocks future fetchers forever.
    const auto row_of = [&](std::size_t l) -> PromptFetch& { return rows[leaders[l].row]; };
    try {
      const auto groups =
          group_by_autoencoder(leaders.size(), [&](std::size_t l) -> const compress::Autoencoder* {
            return row_of(l).ref->dep->autoencoder.get();
          });
      for (const auto& [ae, group] : groups) {
        std::vector<std::shared_ptr<DecodedPrompt>> entries(group.size());
        bool fused = false;
        if (group.size() > 1) {
          try {
            ws.decode_parts.clear();
            ws.decode_parts.reserve(group.size());
            for (const std::size_t l : group)
              ws.decode_parts.push_back(&row_of(l).ref->dep->stored_codes[row_of(l).ovt_index]);
            stack_rows_into(ws.decode_parts, ws.decode_stacked);
            ae->decode_into(ws.decode_stacked, ws.decode_out, &ws.encode.autoencoder);
            std::size_t r0 = 0;
            for (std::size_t g = 0; g < group.size(); ++g) {
              const std::size_t n = ws.decode_parts[g]->rows();
              entries[g] = std::make_shared<DecodedPrompt>();
              entries[g]->prompt = ws.decode_out.row_slice(r0, r0 + n);
              r0 += n;
              ++prompt_decodes_;
            }
            stats_.record_batched_decode();
            fused = true;
          } catch (...) {
            for (auto& e : entries) e.reset();
          }
        }
        if (!fused) {
          for (std::size_t g = 0; g < group.size(); ++g) {
            PromptFetch& row = row_of(group[g]);
            try {
              auto entry = std::make_shared<DecodedPrompt>();
              row.ref->dep->decode_prompt_into(row.ovt_index, entry->prompt,
                                               &ws.encode.autoencoder);
              entries[g] = std::move(entry);
              ++prompt_decodes_;
            } catch (...) {
              row.error = std::current_exception();
            }
          }
        }
        if (classifies()) {
          std::vector<const Matrix*> prompts;
          std::vector<llm::TinyLM::PromptKv> kvs;
          std::vector<std::size_t> built;  // group positions with a decoded entry
          for (std::size_t g = 0; g < group.size(); ++g)
            if (entries[g]) {
              prompts.push_back(&entries[g]->prompt);
              built.push_back(g);
            }
          try {
            model_->prompt_kv_batch(prompts, kvs, ws.classify);
          } catch (...) {
            // One prompt at a time: a malformed prompt fails only its own
            // rows (the classify forward could not run under it).
            kvs.assign(built.size(), {});
            for (std::size_t p = 0; p < built.size(); ++p) {
              std::vector<llm::TinyLM::PromptKv> one;
              try {
                model_->prompt_kv_batch({prompts[p]}, one, ws.classify);
                kvs[p] = std::move(one[0]);
              } catch (...) {
                row_of(group[built[p]]).error = std::current_exception();
                entries[built[p]].reset();
              }
            }
          }
          for (std::size_t p = 0; p < built.size(); ++p)
            if (entries[built[p]]) entries[built[p]]->kv = std::move(kvs[p]);
        }
        for (std::size_t g = 0; g < group.size(); ++g)
          if (entries[g]) row_of(group[g]).value = std::move(entries[g]);
      }
    } catch (...) {
      for (std::size_t l = 0; l < leaders.size(); ++l)
        if (!row_of(l).value && !row_of(l).error) row_of(l).error = std::current_exception();
    }
    // Publish: cache each value (best-effort), retire the in-flight keys,
    // then wake every flight's waiters.
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      for (std::size_t l = 0; l < leaders.size(); ++l) {
        // A decode finishing after its user's eviction (dead generation) is
        // delivered to its waiters but never cached — otherwise it would
        // re-insert an unreachable entry right after the eviction purge.
        if (!row_of(l).error && live_generations_.count(leaders[l].key.first) > 0) {
          try {
            cache_.put(leaders[l].key, row_of(l).value);
          } catch (...) {
            // A failed cache insert must not wedge the key: the flight is
            // still completed and the value delivered, just not cached.
          }
        }
        inflight_.erase(leaders[l].key);
      }
    }
    for (std::size_t l = 0; l < leaders.size(); ++l) {
      InFlightDecode& flight = *leaders[l].flight;
      {
        std::lock_guard<std::mutex> lock(flight.mu);
        flight.value = row_of(l).value;
        flight.error = row_of(l).error;
        flight.done = true;
      }
      flight.cv.notify_all();
    }
  }

  // Followers wait last, after this fetch's own flights are published: a
  // leader never blocks on a follower, so the order is deadlock-free.
  for (auto& [r, flight] : followers) {
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&flight] { return flight->done; });
    rows[r].value = flight->value;
    rows[r].error = flight->error;
    rows[r].hit = flight->error == nullptr;  // shared the leader's decode
  }
}

bool ServingEngine::classifies() const {
  return cfg_.run_inference && task_->config().kind == data::TaskKind::Classification;
}

std::shared_ptr<const Matrix> ServingEngine::prompt(std::size_t user_id, std::size_t ovt_index) {
  const DepRef ref = find_deployment(user_id);
  NVCIM_CHECK_MSG(ref.dep != nullptr, "unknown user " << user_id);
  NVCIM_CHECK_MSG(ovt_index < ref.dep->n_ovts(),
                  "OVT " << ovt_index << " out of range for user " << user_id);
  std::vector<PromptFetch> row(1);
  row[0].ref = &ref;
  row[0].ovt_index = ovt_index;
  WorkerState ws;
  fetch_prompts(row, ws);
  if (row[0].error) std::rethrow_exception(row[0].error);
  const std::shared_ptr<const DecodedPrompt>& entry = row[0].value;
  return std::shared_ptr<const Matrix>(entry, &entry->prompt);
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
