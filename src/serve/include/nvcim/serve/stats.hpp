#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "nvcim/obs/metrics.hpp"
#include "nvcim/obs/slo.hpp"
#include "nvcim/obs/window.hpp"

namespace nvcim::serve {

/// Rolling-window view of the last `span_ms` of traffic (the primary window
/// is ~1 minute by default — see obs::WindowConfig). All rates are computed
/// from delta-ring snapshots, so they decay as the incident leaves the
/// window instead of being diluted into lifetime averages.
struct WindowStats {
  double span_ms = 0.0;          ///< actual span covered (shorter at warm-up)
  std::size_t requests = 0;      ///< requests completed inside the window
  double throughput_rps = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double queue_wait_p95_ms = 0.0;
  /// (expired + rejected) / (requests + expired + rejected) in the window.
  double error_rate = 0.0;
  /// Degraded responses / requests in the window.
  double degraded_rate = 0.0;
  /// Late completions / requests in the window.
  double deadline_miss_rate = 0.0;
};

/// Aggregate view of an engine's counters at one instant.
struct StatsSnapshot {
  std::size_t requests = 0;
  std::size_t batches = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  double cache_hit_rate = 0.0;
  double avg_batch_size = 0.0;
  /// Requests per wall-clock second since start. The clock freezes at
  /// stop(), so post-shutdown snapshots are stable instead of decaying
  /// toward zero against a still-running wall clock.
  double throughput_rps = 0.0;
  // Latency percentiles (submit → response) from the log-linear histogram:
  // O(buckets) reads, within ~1.6% of the exact values (property-tested).
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  // Queue-wait vs service-time split (submit → batch dequeue, from the
  // per-request `enqueued` timestamp that previously only fed total latency).
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p95_ms = 0.0;
  /// Deepest the bounded request queue has been at any enqueue.
  std::size_t queue_depth_hwm = 0;
  // Cumulative per-stage wall-clock across all processed batches (the four
  // stages of ServingEngine::process_batch).
  double encode_ms = 0.0;    ///< batched query encode (embed+resample+GEMM)
  double retrieve_ms = 0.0;  ///< shard-grouped crossbar retrieval
  double decode_ms = 0.0;    ///< prompt fetch (LRU / single-flight decode)
  double classify_ms = 0.0;  ///< optional backbone classification
  /// Cumulative per-shard retrieval wall-clock (index = shard id). The sum
  /// can exceed retrieve_ms when shards run in parallel — that overlap IS
  /// the fan-out win.
  std::vector<double> shard_retrieve_ms;
  /// Batches whose retrieve stage fanned shards out across the worker pool.
  std::size_t parallel_retrieve_fanouts = 0;
  // Two-phase retrieval accounting (zero when the feature is off).
  /// Key columns the masked exact pass actually computes. Block-granular:
  /// the fused kernel rounds candidate work up to whole accumulator blocks
  /// (Crossbar::kAccumulatorLanes), so this matches the kernel's own ADC
  /// accounting and exceeds the raw candidate count.
  std::size_t candidates_examined = 0;
  /// Keys a full unmasked pass would have scored (B × shard keys, summed).
  std::size_t candidates_possible = 0;
  /// 1 − examined/possible: the fraction of exact crossbar work pruned.
  double pruned_fraction = 0.0;
  /// Sampled recall-vs-exact: every Nth routed shard pass also scores each
  /// row's whole slot and counts rows whose argmax matches.
  std::size_t recall_samples = 0;
  std::size_t recall_matches = 0;
  double sampled_recall_at1 = 0.0;  ///< matches/samples (0 with no samples)
  /// Decode GEMMs that stacked >1 missed payload into one batched pass.
  std::size_t batched_decode_gemms = 0;
  // Tenant lifecycle accounting (zero without LifecycleConfig::enabled).
  std::size_t users_admitted = 0;   ///< live admits after start()
  std::size_t users_evicted = 0;    ///< live evictions
  std::size_t migrations = 0;       ///< user slots moved between shards
  /// Candidate routers (re)built by lifecycle operations — per-user, so a
  /// refresh never re-clusters tenants whose membership didn't change.
  std::size_t router_refreshes = 0;
  double rebalance_ms = 0.0;        ///< cumulative rebalance() wall-clock
  /// Submissions bounced with Overloaded because the queue was full
  /// (OverloadPolicy::Reject; Block still applies backpressure instead).
  std::size_t rejected_requests = 0;
  // SLO accounting (PR 8 async lifecycle; zero without deadlines in play).
  /// Requests whose deadline passed while still queued: dropped with
  /// DeadlineExceeded before any crossbar work, never counted in `requests`.
  std::size_t expired_requests = 0;
  /// Requests dispatched in time but completed after their deadline (the
  /// answer was still delivered, with Response::deadline_missed set).
  std::size_t deadline_missed = 0;
  /// Requests removed by RequestHandle::cancel() before dispatch.
  std::size_t cancelled_requests = 0;
  // Write-behind admission accounting (zero on the synchronous path).
  /// Programming spans staged but not yet executed (live queue depth).
  std::size_t programming_queue_depth = 0;
  /// Per-subarray programming batches executed by worker aux tasks.
  std::size_t program_batches = 0;
  // Admission latency (stage → live) percentiles from the histogram.
  double admission_p50_ms = 0.0;
  double admission_p95_ms = 0.0;
  /// Non-blocking admit() calls rejected (pending-admission backpressure
  /// bound hit).
  std::size_t rejected_admissions = 0;
  // Device-fault tolerance accounting (zero without scrubbing in play).
  std::size_t scrub_passes = 0;          ///< per-subarray scrub-and-repair passes
  std::size_t scrub_columns_probed = 0;  ///< columns probed against pristine
  std::size_t columns_degraded = 0;      ///< columns flagged degraded by scrubs
  std::size_t columns_repaired = 0;      ///< degraded columns reprogrammed clean
  std::size_t columns_stuck = 0;         ///< columns that failed reprogramming
  std::size_t scrub_migrations = 0;      ///< tenants moved off stuck columns
  std::size_t subarrays_quarantined = 0;
  std::size_t degraded_responses = 0;    ///< responses delivered with degraded set
  // Repair wall-clock percentiles (scrub passes that found degraded columns).
  double repair_p50_ms = 0.0;
  double repair_p95_ms = 0.0;
  /// Tenants whose labelled `nvcim_tenant_*` series were retired on eviction.
  std::size_t tenants_retired = 0;
  /// Queue depth right now (the live gauge, vs the high-water mark above).
  std::size_t queue_depth = 0;
  /// Rolling view over the primary (~1 minute) window.
  WindowStats last_minute;
};

/// One slow-request exemplar: a request whose latency crossed the engine's
/// slow_request_ms threshold, with its span tree flattened to the stage
/// wall-clock of the batch that carried it.
struct SlowRequest {
  std::size_t user_id = 0;
  std::uint64_t batch_id = 0;
  double latency_ms = 0.0;
  double queue_wait_ms = 0.0;
  double encode_ms = 0.0;
  double retrieve_ms = 0.0;
  double decode_ms = 0.0;
  double classify_ms = 0.0;
};

/// Thread-safe request/batch/latency accounting for a serving engine,
/// built on the nvcim::obs primitives: latency, queue-wait and service-time
/// land in lock-free log-linear histograms (p50/p95/p99 from O(buckets)
/// merges, not sort-under-mutex over an unbounded exact vector), counters
/// and gauges live in an obs::Registry with per-tenant labels, and the
/// whole set exposes as Prometheus text / JSON via registry().
/// One window's worth of SLI samples for the SLO burn-rate evaluator, plus
/// the derived WindowStats (same deltas, read once).
struct WindowedSli {
  obs::SloSample latency;       ///< bad = completions over the threshold
  obs::SloSample availability;  ///< bad = degraded responses
  obs::SloSample deadline;      ///< bad = late completions + in-queue expiries
  WindowStats stats;
};

class EngineStats {
 public:
  explicit EngineStats(obs::WindowConfig window = obs::WindowConfig{});

  void start_clock();
  /// Freeze the throughput clock (idempotent): snapshots taken after the
  /// engine stops keep reporting the rate it actually served at.
  void stop_clock();

  /// Record one completed request: its end-to-end latency, the queue-wait
  /// share of it and which tenant it belonged to.
  void record_request(std::size_t user_id, double latency_ms, double queue_wait_ms,
                      bool cache_hit);

  /// Record the queue depth observed at one enqueue/dequeue: sets the live
  /// `nvcim_queue_depth` gauge and advances the `nvcim_queue_depth_hwm`
  /// high-water mark.
  void record_queue_depth(std::size_t depth);

  void record_batch(std::size_t batch_size);

  /// Accumulate one batch's per-stage wall-clock (milliseconds).
  void record_stage_times(double encode_ms, double retrieve_ms, double decode_ms,
                          double classify_ms);

  /// Accumulate one shard retrieval's wall-clock (milliseconds).
  void record_shard_time(std::size_t shard, double ms);

  /// Count one batch whose retrieve stage ran shards in parallel.
  void record_parallel_fanout();

  /// Accumulate one routed shard pass's candidate counts (keys the masked
  /// pass scored vs keys a full pass would have scored).
  void record_two_phase(std::size_t examined, std::size_t possible);

  /// Accumulate one tenant's routed-candidate count (per-tenant counter:
  /// which tenant is eating the crossbar).
  void record_tenant_candidates(std::size_t user_id, std::size_t candidates);

  /// Accumulate one sampled recall-vs-exact comparison.
  void record_recall_sample(std::size_t rows, std::size_t matches);

  /// Count one decode GEMM that stacked several missed payloads.
  void record_batched_decode();

  /// Count one live admission (and its router build, when routed).
  void record_admission(bool router_refreshed);
  void record_eviction();
  void record_migration();
  /// Accumulate one rebalance() cycle's wall-clock.
  void record_rebalance(double ms);
  void record_rejection();
  /// One request expired in-queue (deadline passed before dispatch).
  void record_expired(std::size_t user_id);
  /// One request completed after its deadline (dispatched, late).
  void record_deadline_miss(std::size_t user_id);
  /// One request cancelled before dispatch.
  void record_cancellation();

  // ---- Write-behind admission ----
  /// `spans` programming batches were staged (queue depth rises by spans).
  void record_programming_enqueued(std::size_t spans);
  /// One staged batch of `columns` key columns was programmed (depth -1).
  void record_program_batch(std::size_t columns);
  /// One admission went stage → live in `ms` wall-clock.
  void record_admission_latency(double ms);
  /// One non-blocking admit() rejected on the pending-admission bound.
  void record_admission_rejection();

  // ---- Device-fault scrubbing / repair ----
  /// One subarray scrub-and-repair pass: columns probed, flagged degraded,
  /// repaired in place, left stuck after reprogramming, tenants migrated off
  /// stuck hardware, and whether the pass quarantined the subarray.
  void record_scrub_pass(std::size_t probed, std::size_t degraded, std::size_t repaired,
                         std::size_t stuck, std::size_t migrated, bool quarantined);
  /// Wall-clock of one scrub pass's repair-and-migrate phase (recorded only
  /// for passes that found degraded columns — clean probes are free).
  void record_repair_latency(double ms);
  /// One response delivered with Response::degraded set.
  void record_degraded_response();

  /// Keep one slow-request exemplar (bounded: the most recent kMaxSlow).
  void record_slow_request(const SlowRequest& slow);
  std::vector<SlowRequest> slow_requests() const;

  // ---- Per-tenant series lifecycle (cardinality control) ----
  /// Retire an evicted tenant's labelled `nvcim_tenant_*` series from the
  /// registry and bump `nvcim_tenants_retired_total`. In-flight stragglers
  /// for a retired tenant keep recording into the global (unlabelled)
  /// families only. Idempotent.
  void retire_tenant(std::size_t user_id);
  /// Re-admitting a previously retired tenant id starts a fresh labelled
  /// series (the cumulative per-tenant history restarts from zero).
  void revive_tenant(std::size_t user_id);

  // ---- Rolling windows (lazy-clock: advanced on read paths only) ----
  /// Milliseconds since this stats object was constructed (steady clock) —
  /// the time base the windows run on.
  double now_ms() const;
  /// Advance the delta rings to `now_ms` and, once per window bucket,
  /// refresh the derived `nvcim_*_1m` gauges. Called from the engine's read
  /// paths (snapshot, health, /metrics); never from the record path.
  void advance_windows(double now_ms) const;
  /// advance_windows(now_ms()) — the real-clock form.
  void refresh_windows() const { advance_windows(now_ms()); }
  /// Windowed SLI samples + stats over (now - window_ms, now]. Reads the
  /// rings as-is; call advance_windows first (or use the real-clock
  /// windowed() below).
  WindowedSli windowed_at(double now_ms, double latency_threshold_ms,
                          double window_ms) const;
  WindowedSli windowed(double latency_threshold_ms, double window_ms) const;

  StatsSnapshot snapshot() const;

  /// The metric registry behind this stats object — Prometheus text /
  /// JSON exposition via registry().prometheus_text() / json_text().
  const obs::Registry& registry() const { return registry_; }
  obs::Registry& registry() { return registry_; }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kMaxSlow = 64;

  struct TenantMetrics {
    obs::Counter* requests = nullptr;
    obs::Counter* candidates = nullptr;
    obs::Histogram* latency = nullptr;
    obs::Histogram* queue_wait = nullptr;
    obs::Counter* expired = nullptr;
    obs::Counter* deadline_missed = nullptr;
  };
  /// Cached per-tenant metric pointers (creates the labelled series on
  /// first sight); nullptr for a retired tenant — stragglers must not
  /// resurrect series that were just removed from the registry. Caller must
  /// hold mu_.
  TenantMetrics* tenant_locked(std::size_t user_id);

  /// Derived WindowStats over one window; caller must hold mu_.
  WindowStats window_stats_locked(double now_ms, double window_ms) const;

  obs::Registry registry_;
  // Hot metrics, owned by the registry (stable pointers, lock-free writes).
  obs::Histogram* latency_;
  obs::Histogram* queue_wait_;
  obs::Histogram* service_;
  obs::Gauge* queue_depth_hwm_;
  obs::Counter* cache_hits_;
  obs::Counter* cache_misses_;
  obs::Counter* batches_;
  obs::Counter* batched_requests_;
  obs::Counter* encode_ms_;
  obs::Counter* retrieve_ms_;
  obs::Counter* decode_ms_;
  obs::Counter* classify_ms_;
  obs::Counter* parallel_fanouts_;
  obs::Counter* candidates_examined_;
  obs::Counter* candidates_possible_;
  obs::Counter* recall_samples_;
  obs::Counter* recall_matches_;
  obs::Counter* batched_decodes_;
  obs::Counter* admitted_;
  obs::Counter* evicted_;
  obs::Counter* migrations_;
  obs::Counter* router_refreshes_;
  obs::Counter* rebalance_ms_;
  obs::Counter* rejected_;
  obs::Gauge* programming_queue_depth_;
  obs::Histogram* admission_latency_;
  obs::Histogram* program_batch_columns_;
  obs::Counter* rejected_admissions_;
  obs::Counter* expired_;
  obs::Counter* deadline_missed_;
  obs::Counter* cancelled_;
  obs::Counter* scrub_passes_;
  obs::Counter* scrub_columns_probed_;
  obs::Counter* columns_degraded_;
  obs::Counter* columns_repaired_;
  obs::Counter* columns_stuck_;
  obs::Counter* scrub_migrations_;
  obs::Counter* subarrays_quarantined_;
  obs::Counter* degraded_responses_;
  obs::Histogram* repair_latency_;
  obs::Gauge* queue_depth_;        ///< live queue depth (vs the HWM above)
  obs::Counter* tenants_retired_;
  // Derived rolling-window gauges, refreshed once per window bucket.
  obs::Gauge* throughput_1m_;
  obs::Gauge* latency_p50_1m_;
  obs::Gauge* latency_p95_1m_;
  obs::Gauge* latency_p99_1m_;
  obs::Gauge* error_rate_1m_;
  obs::Gauge* degraded_rate_1m_;
  obs::Gauge* deadline_miss_rate_1m_;

  obs::WindowConfig window_cfg_;
  Clock::time_point epoch_;  ///< zero point of the windows' ms clock

  mutable std::mutex mu_;  ///< guards clock state, shard/tenant caches, slow_, windows
  Clock::time_point start_{};
  Clock::time_point stop_{};
  bool started_ = false;
  bool stopped_ = false;
  std::vector<obs::Counter*> shard_ms_;  ///< per-shard labelled counters
  std::unordered_map<std::size_t, TenantMetrics> tenants_;
  std::unordered_set<std::size_t> retired_tenants_;
  std::deque<SlowRequest> slow_;
  // Delta rings over the hot metrics (mutable: advanced lazily from const
  // read paths, under mu_).
  mutable obs::HistogramWindow latency_window_;
  mutable obs::HistogramWindow queue_wait_window_;
  mutable obs::CounterWindow degraded_window_;
  mutable obs::CounterWindow deadline_window_;
  mutable obs::CounterWindow expired_window_;
  mutable obs::CounterWindow rejected_window_;
};

}  // namespace nvcim::serve
