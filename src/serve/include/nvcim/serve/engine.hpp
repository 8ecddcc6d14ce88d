#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "nvcim/core/framework.hpp"
#include "nvcim/obs/httpd.hpp"
#include "nvcim/obs/trace.hpp"
#include "nvcim/serve/health.hpp"
#include "nvcim/serve/lru_cache.hpp"
#include "nvcim/serve/ovt_store.hpp"
#include "nvcim/serve/request.hpp"
#include "nvcim/serve/scheduler.hpp"
#include "nvcim/serve/stats.hpp"

namespace nvcim::serve {

/// Background device scrubber: a ticker thread periodically enqueues
/// scrub-and-repair rounds as worker-pool aux tasks (the same machinery
/// write-behind programming rides on), walking the store's subarrays in
/// round-robin order. Each round probes columns against their pristine
/// programming levels, reprograms degraded columns in place, migrates
/// tenants off columns that stay deviant after reprogramming (stuck cells)
/// and quarantines subarrays that accumulate too many stuck columns — see
/// ShardedOvtStore::scrub_and_repair. Requires LifecycleConfig::enabled
/// (tenants on stuck columns migrate, and migration is a lifecycle
/// operation).
struct ScrubberConfig {
  bool enabled = false;
  /// Ticker period between scrub rounds; must be positive and pass
  /// checked_ms() when the scrubber is enabled.
  double interval_ms = 20.0;
  /// Subarrays probed per round, across all shards (0 = the whole fleet
  /// every round). Small values bound the serving interference per round.
  std::size_t subarrays_per_round = 1;
  ScrubPolicy policy;  ///< quarantine threshold
};

/// Embedded introspection server: when enabled, start() binds a local HTTP
/// endpoint serving /metrics (Prometheus text), /metrics.json, /healthz,
/// /readyz, /debug/engine, /debug/slow and /debug/trace. Port 0 binds an
/// ephemeral port — read it back via ServingEngine::introspection_port().
struct IntrospectionConfig {
  bool enabled = false;
  std::string bind = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Declarative SLOs evaluated by the engine's health monitor over dual
/// rolling windows (see obs::BurnRateConfig): a latency objective ("99% of
/// requests under latency_threshold_ms"), an availability objective (a
/// degraded response spends error budget) and a deadline objective (late
/// completions and in-queue expiries spend budget).
struct SloConfig {
  double latency_threshold_ms = 50.0;
  double latency_objective = 0.99;
  double availability_objective = 0.999;
  double deadline_objective = 0.99;
  obs::BurnRateConfig burn;
};

struct ServingConfig {
  std::size_t n_shards = 2;
  std::size_t n_threads = 2;
  std::size_t max_batch = 8;         ///< queries per crossbar MVM pass
  /// Batch coalescing: a worker that finds fewer than `min_batch` queued
  /// requests waits up to `batch_window_ms` for more before processing, so
  /// bursty traffic forms full-width batches (wider MVM passes, more shards
  /// to fan out) instead of splintering across workers. 1 = dequeue
  /// immediately (the pre-coalescing behaviour).
  std::size_t min_batch = 1;
  double batch_window_ms = 2.0;  ///< must pass checked_ms()
  std::size_t queue_capacity = 64;   ///< submit() blocks when the queue is full
  /// Cross-tenant request scheduling: DRR fair queuing with EDF-critical
  /// pull and optional per-tenant rate limits.
  SchedulerConfig scheduler;
  std::size_t cache_capacity = 32;   ///< decoded-OVT LRU entries
  bool run_inference = false;        ///< also classify with the shared backbone
  /// Two-phase retrieval: k-means candidate routing + low-bit sketch
  /// prefilter (phase 1) ahead of candidate-masked exact crossbar scoring
  /// (phase 2). Off by default — the exact PR 3 data path. With
  /// `two_phase.nprobe = 0` (probe every cluster) results remain
  /// bit-identical to the exact path while other users' key columns are
  /// still skipped; smaller nprobe trades recall for pruned crossbar work
  /// (see EngineStats::pruned_fraction / sampled_recall_at1).
  TwoPhaseConfig two_phase;
  /// Online tenant lifecycle: admit()/evict_user()/rebalance() and the
  /// scrubber while serving, with capacity headroom provisioned at build.
  /// Off by default: the deployments added before start() are the fixed
  /// tenant set, on the same per-column store layout without headroom.
  LifecycleConfig lifecycle;
  /// Background fault scrubbing and self-repair while serving. Off by
  /// default; requires `lifecycle.enabled`.
  ScrubberConfig scrubber;
  /// Span tracing (off by default): request/batch/stage/shard/lifecycle
  /// spans into per-thread ring buffers, exportable as Chrome trace_event
  /// JSON via tracer().write_chrome_trace_file().
  obs::TracerConfig tracing;
  /// >0: requests slower than this leave a SlowRequest exemplar (latency +
  /// queue-wait + the carrying batch's stage breakdown) in EngineStats.
  double slow_request_ms = 0.0;
  /// Embedded HTTP admin endpoint (off by default).
  IntrospectionConfig introspection;
  /// SLO objectives behind health() / the /healthz verdict.
  SloConfig slo;
  /// Rolling-window geometry for the `nvcim_*_1m` families and
  /// StatsSnapshot::last_minute. bucket_ms must pass checked_ms() and be
  /// positive, buckets must be positive, and retention_ms must cover both
  /// window_ms() and slo.burn.slow_window_ms.
  obs::WindowConfig window;
  retrieval::Algorithm algorithm = retrieval::Algorithm::SSA;
  retrieval::ScaledSearchConfig ssa;
  cim::CrossbarConfig crossbar;
  nvm::VariationModel variation;
  std::uint64_t seed = 2026;
};

class ServingEngine;

/// Handle to one submitted request: the future, the engine-unique request id
/// and cancel-before-dispatch. Returned by ServingEngine::submit(). A
/// default-constructed (or rejected — OverloadPolicy::Reject with a full
/// queue) handle is !valid() and carries no future. The handle must not
/// outlive its engine.
class RequestHandle {
 public:
  RequestHandle() = default;

  /// False ⇔ the submission was rejected (queue full under
  /// OverloadPolicy::Reject).
  bool valid() const { return engine_ != nullptr; }
  std::uint64_t id() const { return id_; }

  std::future<Response>& future() { return future_; }
  /// Move the future out (e.g. to stash handles in a container of futures).
  std::future<Response> take_future() { return std::move(future_); }
  /// Block for the response (rethrows the request's error, if any).
  Response get() { return future_.get(); }

  /// Cancel the request if it is still queued: true ⇔ it was removed before
  /// dispatch (its future settles with Cancelled). False once a worker owns
  /// it — the request will complete normally.
  bool cancel();

 private:
  friend class ServingEngine;
  RequestHandle(ServingEngine* engine, std::uint64_t id, std::future<Response> fut)
      : engine_(engine), id_(id), future_(std::move(fut)) {}

  ServingEngine* engine_ = nullptr;
  std::uint64_t id_ = 0;
  std::future<Response> future_;
};

/// Join state of one admission, shared by the engine and its
/// AdmissionHandle (defined in engine.cpp).
struct AdmissionJoin;

/// Handle to one admission: valid() ⇔ the admission was accepted (false ⇔
/// rejected under AdmitOptions::non_blocking); wait() joins it. The handle
/// holds its own admission's join state, so it stays meaningful after the
/// tenant is evicted or its id re-admitted.
class AdmissionHandle {
 public:
  AdmissionHandle() = default;

  /// False ⇔ the admission was rejected (pending-admission bound hit under
  /// AdmitOptions::non_blocking).
  bool valid() const { return join_ != nullptr; }
  std::size_t user_id() const { return user_id_; }

  /// Block until this admission has settled: returns once the tenant went
  /// live (immediately if it already did), rethrows the admission's error if
  /// programming failed and it was rolled back. Callable any number of
  /// times.
  void wait();

 private:
  friend class ServingEngine;
  AdmissionHandle(std::size_t user_id, std::shared_ptr<AdmissionJoin> join)
      : user_id_(user_id), join_(std::move(join)) {}

  std::size_t user_id_ = 0;
  std::shared_ptr<AdmissionJoin> join_;
};

/// Multi-tenant serving engine over one frozen backbone: owns N users'
/// TrainedDeployments, packs their retrieval keys into a sharded crossbar
/// store, and serves concurrent (user, query) requests through a thread
/// pool. Each worker processes a batch through four explicit stages:
///
///   1. encode   — requests grouped by shared autoencoder and pushed
///                 through one batched encode GEMM per group (cross-user
///                 fusion; see TrainedDeployment::query_representation_batch)
///   2. retrieve — rows grouped by destination shard, one crossbar MVM pass
///                 per shard, per-user slot masking; when a batch spans
///                 several shards the per-shard passes are fanned out across
///                 the worker pool (idle workers steal them, the coordinator
///                 helps until its batch's shards are done — deterministic,
///                 since shards are independent)
///   3. decode   — decoded-prompt fetch through the LRU cache with
///                 single-flight misses (concurrent misses on one key share
///                 a single decode — no thundering herd; an evicted key is
///                 decoded again on its next miss)
///   4. classify — optional backbone classification, deduplicated within
///                 the batch for identical (user, OVT, input) requests
///
/// Each stage makes one batched call per group (autoencoder, shard or
/// batch); if that call throws, every request in the group fails with its
/// error. Per-request failures are caught earlier, at the edges: requests
/// are validated in submit(), deployments in add_deployment()/admit().
///
/// Per-stage wall-clock is accumulated into EngineStats. Batched results
/// are bit-identical to the serial reference path (retrieve_serial).
///
/// Lifecycle: construct → add_deployment()× → start() → submit()×
/// → stop() (or destruction). The backbone and task outlive the engine.
class ServingEngine {
 public:
  ServingEngine(llm::TinyLM& model, const data::LampTask& task, ServingConfig cfg);
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Take ownership of a trained user deployment. Must precede start().
  /// Throws nvcim::Error, and takes nothing over, unless the deployment
  /// fits the backbone: at least one OVT, an autoencoder whose input_dim is
  /// the backbone's d_model, n_virtual_tokens > 0, one stored code per key,
  /// every stored code n_virtual_tokens × code_dim, every key
  /// n_virtual_tokens · code_dim elements and, when the engine classifies,
  /// n_virtual_tokens ≤ prompt_slots. The store then rejects (also with
  /// nvcim::Error) keys whose size differs from the other tenants'.
  void add_deployment(std::size_t user_id, core::TrainedDeployment deployment);

  /// Build the sharded store and launch the worker pool.
  void start();
  bool running() const { return running_; }

  /// Join the workers and settle every still-queued request's future with
  /// EngineStopped (queued work is never silently dropped OR silently served
  /// after shutdown began; in-flight batches complete normally). Idempotent.
  void stop();

  // ---- Submission ----

  /// Enqueue one request under its scheduling contract and return a handle
  /// carrying the future, the request id and cancel-before-dispatch.
  /// Blocking/rejecting/deadline/priority/callback semantics all live in
  /// `opts` (see SubmitOptions), not in which function was called. With a
  /// full queue the call blocks under OverloadPolicy::Block and returns an
  /// invalid handle (bumping EngineStats::rejected_requests) under Reject.
  ///
  /// Every per-request failure is found here, before any batch forms, and
  /// settles the returned handle's future without queueing the request
  /// (submit() itself does not throw for it): UnknownUser for a user that
  /// is not deployed and live, and nvcim::Error for a query the backbone
  /// would reject (TinyLM::check_tokens: empty input, a token id outside
  /// [0, vocab) or, when the engine classifies, prompt_slots + length >
  /// max_seq).
  RequestHandle submit(Request request, SubmitOptions opts = {});

  /// Cancel a still-queued request by id (RequestHandle::cancel()'s
  /// implementation): true ⇔ it was removed before dispatch; its future
  /// settles with Cancelled and EngineStats::cancelled_requests bumps.
  bool cancel(std::uint64_t request_id);

  /// Per-tenant rate limit (requests/second, 0 = unlimited), applied at
  /// dequeue: an over-limit tenant's backlog stays queued while other
  /// tenants are scheduled. Callable while serving. Throws nvcim::Error
  /// unless `rps` is finite and >= 0; the previous limit then stays.
  void set_rate_limit(std::size_t user_id, double rps);

  // ---- Online tenant lifecycle (requires ServingConfig::lifecycle) ----

  /// Admit a user: program its keys into the store (new epoch; in-flight
  /// batches are untouched) and take ownership of the deployment. Before
  /// start() this is add_deployment() and the handle is already settled.
  ///
  /// Every admission is staged: stage_admit() publishes the tenant as
  /// Pending, its columns are programmed span by span, and the last span to
  /// land commits it live — or rolls the whole admission back on error.
  /// With LifecycleConfig::write_behind and a pool accepting work, the spans
  /// run as aux tasks on the worker pool, interleaved with serving batches,
  /// and the call returns while the tenant is still Pending; otherwise they
  /// run on the calling thread and the tenant is live on return. Both are
  /// bit-identical (same placement, same per-column noise streams).
  /// AdmissionHandle::wait() joins the admission and rethrows its error.
  ///
  /// At LifecycleConfig::max_pending_admissions admissions in flight the
  /// call blocks (backpressure); `opts.non_blocking` returns an invalid
  /// handle instead. `opts.wait` joins before returning.
  ///
  /// The deployment is validated as by add_deployment(): a shape that does
  /// not fit throws nvcim::Error from admit() itself, before anything is
  /// staged or programmed.
  AdmissionHandle admit(std::size_t user_id, core::TrainedDeployment deployment,
                        AdmitOptions opts = {});

  /// Evict a user while serving: unpublish its slot (freed columns are
  /// reused only after in-flight readers drain), drop the deployment and
  /// purge its decoded prompts from the LRU. In-flight requests for the
  /// user still complete against their pinned epoch; new submits throw.
  void evict_user(std::size_t user_id);

  /// One synchronous scrub-and-repair pass over EVERY subarray of every
  /// shard, on the calling thread (tests and benches; the background ticker
  /// runs the same code incrementally). Aggregates the per-subarray
  /// outcomes; counts and repair wall-clock land in EngineStats. Requires
  /// LifecycleConfig::enabled; callable whether or not the ticker runs.
  ScrubOutcome scrub_now();

  /// One rebalance cycle: plan migrations from overloaded to underloaded
  /// shards and execute them as aux tasks on the worker pool (workers
  /// interleave them with serving batches — no quiesce). Blocks until the
  /// cycle completes; returns the number of users migrated. Wall-clock and
  /// counts land in EngineStats (migrations, rebalance_ms).
  std::size_t rebalance();

  /// Serial reference path used by tests: same banks, same arithmetic, no
  /// queue/threads/cache.
  std::size_t retrieve_serial(std::size_t user_id, const data::Sample& query);

  /// Decoded prompt for (user, ovt) through the LRU cache.
  std::shared_ptr<const Matrix> prompt(std::size_t user_id, std::size_t ovt_index);

  /// One machine-readable health verdict: SLO burn rates over dual rolling
  /// windows, device-fleet subarray health, queue saturation and the
  /// pending-admission backlog (the /healthz / /readyz backend — callable
  /// without the HTTP server). Advances the rolling windows as a side
  /// effect (lazy-clock maintenance).
  HealthReport health() const;

  /// Port the introspection server actually bound (resolves
  /// IntrospectionConfig::port == 0), or 0 when the server is not running.
  std::uint16_t introspection_port() const;

  std::size_t n_users() const;
  const ShardedOvtStore& store() const { return store_; }
  /// Mutable store access for fault injection (tests, benches, chaos
  /// drills). The store's fault APIs take their own locks — callable while
  /// serving.
  ShardedOvtStore& store_mutable() { return store_; }
  const core::TrainedDeployment& deployment(std::size_t user_id) const;
  StatsSnapshot stats() const { return stats_.snapshot(); }
  /// The engine's span tracer (enabled via ServingConfig::tracing). Export
  /// after stop() for a complete trace.
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }
  /// The metric registry behind EngineStats: Prometheus text / JSON
  /// exposition of every counter, gauge and histogram (per-tenant included).
  const obs::Registry& metrics() const { return stats_.registry(); }
  /// Slow-request exemplars captured so far (ServingConfig::slow_request_ms).
  std::vector<SlowRequest> slow_requests() const { return stats_.slow_requests(); }
  std::size_t cache_evictions() const;
  /// Autoencoder decodes actually executed (cache misses that won the
  /// single-flight race). With a cold cache, no evictions and any amount of
  /// concurrency this equals the number of distinct (user, ovt) keys touched.
  std::size_t prompt_decodes() const { return prompt_decodes_; }
  /// Fetches that coalesced onto another worker's in-flight decode.
  std::size_t coalesced_fetches() const { return coalesced_fetches_; }

 private:
  /// One user's pinned serving state: the deployment (shared_ptr — eviction
  /// drops the map entry, in-flight batches keep theirs alive) and its
  /// admission generation. Decoded-prompt cache keys use the generation,
  /// never the raw user id, so a re-admitted user id can never alias a
  /// stale cache entry or a late single-flight insert from its predecessor.
  struct DepRef {
    std::shared_ptr<const core::TrainedDeployment> dep;
    std::uint64_t generation = 0;
  };

  /// Per-worker reusable buffers: the encode-path scratch (embeddings,
  /// stacked rows, autoencoder hidden layer), the batch's representation
  /// matrix, the packed per-shard query/score matrices, the retriever's
  /// bank scratch and the classify forward's buffers, so steady-state
  /// batches allocate (almost) nothing. Shard tasks executed by a worker
  /// use that worker's own state, so concurrent shard retrievals never
  /// share buffers.
  struct WorkerState {
    core::EncodeScratch encode;
    Matrix reps;
    Matrix shard_queries;
    Matrix shard_scores;
    retrieval::CimRetriever::Scratch retrieve;
    // A shard pass's rows: their users and slot spans (with the routed
    // shortlists as the spans' mask), plus the router's scratch.
    std::vector<std::size_t> row_users;
    cim::PassSpans spans;
    ShardedOvtStore::RouteScratch route;
    // Batched decode: the stacked missed payload codes and the one-GEMM
    // decode output.
    Matrix decode_stacked;
    Matrix decode_out;
    std::vector<const Matrix*> decode_parts;
    // The classify stage's tape-free TinyLM forward.
    llm::TinyLM::Scratch classify;
  };

  /// A unit of work run on the worker pool: one shard's retrieval, one
  /// admission span, one migration or one scrub round. Runs on the
  /// executing thread's own WorkerState.
  using AuxTask = std::function<void(WorkerState&)>;

  /// One decoded-prompt cache entry: the soft prompt and, when the engine
  /// classifies, its per-block K/V, so a cache hit runs the classify
  /// forward over token rows only. Built completely by the decode that
  /// fills it, then shared const.
  struct DecodedPrompt {
    Matrix prompt;
    llm::TinyLM::PromptKv kv;
  };

  /// One in-flight decode for single-flight misses: the first worker to miss
  /// on a key decodes; later missers wait on `cv` and share the result.
  struct InFlightDecode {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const DecodedPrompt> value;
    std::exception_ptr error;
  };

  /// One row of a decoded-prompt fetch and one batch in flight through the
  /// four stages (both defined in engine.cpp).
  struct PromptFetch;
  struct Batch;

  void worker_loop();
  /// Ticker behind ScrubberConfig: wakes every interval_ms and enqueues one
  /// scrub round as an aux task (skipped while the previous round is still
  /// in flight — scrubbing never queues up behind itself).
  void scrubber_loop();
  /// Scrub-and-repair the next `budget` subarrays in round-robin order
  /// across all shards (0 = all of them), recording stats and spans.
  ScrubOutcome scrub_round(std::size_t budget);
  /// Run one batch through the four stages below, timing and tracing each.
  void process_batch(std::vector<QueuedRequest>&& requests, WorkerState& ws);
  /// Stage 1: pin the directory, resolve deployments, and encode every live
  /// request into ws.reps (one GEMM per shared autoencoder).
  void encode_stage(Batch& b, WorkerState& ws);
  /// Stage 2: one masked crossbar pass per shard, fanned out across the pool
  /// when several shards are active; fills b.ovt_index.
  void retrieve_stage(Batch& b, WorkerState& ws);
  /// Stage 3: decoded prompts through fetch_prompts(); fills b.prompts.
  void decode_stage(Batch& b, WorkerState& ws);
  /// Stage 4: optional deduplicated classification; fills b.labels.
  void classify_stage(Batch& b, WorkerState& ws);
  /// After the stages: settle every surviving request (response, stats,
  /// request spans, slow-request exemplars carrying `stages`' batch id and
  /// stage times). Runs outside every timed stage.
  void settle_batch(Batch& b, const SlowRequest& stages);
  /// Single-flight decoded-prompt fetch through the LRU cache: concurrent
  /// misses on one key share a single decode, and equal keys get the same
  /// entry. A decode also builds the entry's prompt K/V when classifies().
  void fetch_prompts(std::vector<PromptFetch>& rows, WorkerState& ws);
  /// The engine labels requests: run_inference on a classification task.
  bool classifies() const;
  /// Settle one request's future, then fire its on_complete (exactly once,
  /// in that order; callback exceptions are swallowed). The single funnel
  /// for every completion path: served, failed, expired, cancelled, stopped.
  static void finish(QueuedRequest& req, Response&& resp);
  static void finish_error(QueuedRequest& req, std::exception_ptr error);
  /// Settle a batch of already-expired requests with DeadlineExceeded and
  /// account them (stats + tracer). Called outside queue_mu_.
  void expire_requests(std::vector<QueuedRequest>&& expired);
  /// Validate a deployment before it is taken over: every shape a serving
  /// stage relies on (see add_deployment()). Throws nvcim::Error.
  void check_deployment(std::size_t user_id, const core::TrainedDeployment& deployment) const;
  /// Register a deployment under a fresh admission generation.
  void deploy(std::size_t user_id, std::shared_ptr<const core::TrainedDeployment> deployment);
  /// Drop a user's deployment (if any) and purge its generation's decoded
  /// prompts; in-flight batches keep their own shared_ptr.
  void undeploy(std::size_t user_id);
  /// Program one staged span; the last span to finish commits the tenant
  /// live (or fails) and settles the admission.
  void run_admission_span(const std::shared_ptr<const ShardedOvtStore::StagedAdmission>& staged,
                          const std::shared_ptr<AdmissionJoin>& join, std::size_t idx,
                          std::chrono::steady_clock::time_point t0);
  /// Finish one admission: on error roll it back completely (slot,
  /// deployment, generation), then release its pending-admission slot and
  /// wake its joiners.
  void settle_admission(std::size_t user_id, AdmissionJoin& join, std::exception_ptr error);
  /// Pinned deployment ref for `user_id`, or an empty DepRef when the user
  /// is gone (evicted between submit and batch assembly).
  DepRef find_deployment(std::size_t user_id) const;
  /// The one way work reaches the pool: enqueue `tasks` onto aux_queue_
  /// while the pool accepts work (running_ && !stopping_ under queue_mu_ —
  /// stop() sets stopping_ under that lock, and workers empty the aux queue
  /// before exiting, so every enqueued task is guaranteed a worker);
  /// otherwise run them inline, in order, on `ws`.
  void post(std::vector<AuxTask>&& tasks, WorkerState& ws);
  /// Fork-join over post(): returns once every task has run. Until then the
  /// caller helps drain the aux queue (its own tasks or anyone else's) on
  /// `ws`. Tasks never block, so helping cannot deadlock; with one worker
  /// this degenerates to a serial loop.
  void fork_join(std::vector<AuxTask>&& tasks, WorkerState& ws);
  /// Oldest queued aux task, or an empty one. Caller holds queue_mu_.
  AuxTask pop_aux_locked();

  llm::TinyLM* model_;
  const data::LampTask* task_;
  ServingConfig cfg_;
  ShardedOvtStore store_;
  mutable std::mutex deployments_mu_;  ///< guards deployments_/next_generation_
  std::unordered_map<std::size_t, DepRef> deployments_;
  std::uint64_t next_generation_ = 0;
  std::size_t rep_size_ = 0;  ///< flattened query-representation width

  mutable std::mutex cache_mu_;
  LruCache<std::pair<std::size_t, std::size_t>, std::shared_ptr<const DecodedPrompt>,
           UserKeyHash>
      cache_;
  std::unordered_map<std::pair<std::size_t, std::size_t>, std::shared_ptr<InFlightDecode>,
                     UserKeyHash>
      inflight_;  ///< guarded by cache_mu_
  /// Admission generations of the currently-deployed users (guarded by
  /// cache_mu_): a decode that completes AFTER its user was evicted must
  /// not re-insert into the LRU — its generation is gone from this set, so
  /// the value is delivered to its waiters but never cached.
  std::unordered_set<std::uint64_t> live_generations_;
  std::atomic<std::size_t> prompt_decodes_{0};
  std::atomic<std::size_t> coalesced_fetches_{0};
  /// Routed shard passes so far — drives the recall-vs-exact sampling cadence.
  std::atomic<std::size_t> routed_passes_{0};

  mutable std::mutex queue_mu_;  ///< mutable: health() reads depth under it
  std::condition_variable queue_cv_;      ///< workers wait for work / shutdown
  std::condition_variable capacity_cv_;   ///< producers wait for queue space
  /// Deadline/priority-aware per-tenant request queue (guarded by queue_mu_;
  /// the scheduler itself is passive — see RequestScheduler).
  RequestScheduler sched_;
  /// Stage subtasks fanned out by an in-flight batch (guarded by queue_mu_).
  /// Workers drain these before taking new request batches — an aux task
  /// unblocks a batch that is already holding requests.
  std::deque<AuxTask> aux_queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  bool stopping_ = false;  ///< guarded by queue_mu_

  // Background scrubber state (ScrubberConfig; thread joined by stop()).
  std::thread scrubber_;
  std::mutex scrub_mu_;               ///< guards scrub_stop_ / scrub_cursor_
  std::condition_variable scrub_cv_;  ///< wakes the ticker for shutdown
  bool scrub_stop_ = false;
  std::size_t scrub_cursor_ = 0;  ///< round-robin (shard, subarray) position
  /// A scrub round is queued or running — the ticker skips its tick instead
  /// of stacking rounds behind a slow repair.
  std::atomic<bool> scrub_inflight_{false};

  mutable std::mutex admissions_mu_;       ///< guards admissions_
  std::condition_variable admissions_cv_;  ///< admit() backpressure waiters
  /// In-flight admissions by user id. An entry exists from the
  /// moment the pending slot is reserved until the admission settles — its
  /// size IS the backpressure bound's measure.
  std::unordered_map<std::size_t, std::shared_ptr<AdmissionJoin>> admissions_;

  /// Register the introspection routes and start the embedded server
  /// (no-op unless IntrospectionConfig::enabled). Defined in
  /// introspection.cpp alongside the endpoint handlers.
  void start_introspection();
  void stop_introspection();

  EngineStats stats_;
  obs::Tracer tracer_;
  std::unique_ptr<obs::HttpServer> http_;
  std::atomic<std::uint64_t> next_batch_id_{0};  ///< links batch/stage/shard spans
  std::atomic<std::uint64_t> next_request_id_{1};  ///< RequestHandle ids (0 = invalid)
};

inline bool RequestHandle::cancel() { return engine_ != nullptr && engine_->cancel(id_); }

}  // namespace nvcim::serve
