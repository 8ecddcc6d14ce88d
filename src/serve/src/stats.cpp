#include "nvcim/serve/stats.hpp"

#include <algorithm>
#include <string>

namespace nvcim::serve {

namespace {

/// Latency-scale histograms: 1 µs resolution up to ~134 s in milliseconds.
obs::HistogramConfig latency_buckets() { return obs::HistogramConfig{}; }

}  // namespace

EngineStats::EngineStats(obs::WindowConfig window)
    : latency_(&registry_.histogram("nvcim_request_latency_ms", {},
                                    "submit -> response latency per request (ms)",
                                    latency_buckets())),
      queue_wait_(&registry_.histogram("nvcim_queue_wait_ms", {},
                                       "submit -> batch dequeue wait per request (ms)",
                                       latency_buckets())),
      service_(&registry_.histogram("nvcim_service_time_ms", {},
                                    "batch dequeue -> response per request (ms)",
                                    latency_buckets())),
      queue_depth_hwm_(&registry_.gauge("nvcim_queue_depth_hwm", {},
                                        "deepest request queue seen at enqueue")),
      cache_hits_(&registry_.counter("nvcim_prompt_cache_hits_total", {},
                                     "decoded-prompt LRU hits")),
      cache_misses_(&registry_.counter("nvcim_prompt_cache_misses_total", {},
                                       "decoded-prompt LRU misses")),
      batches_(&registry_.counter("nvcim_batches_total", {}, "batches processed")),
      batched_requests_(&registry_.counter("nvcim_batched_requests_total", {},
                                           "requests summed over processed batches")),
      encode_ms_(&registry_.counter("nvcim_stage_ms_total", {{"stage", "encode"}},
                                    "cumulative stage wall-clock (ms)")),
      retrieve_ms_(&registry_.counter("nvcim_stage_ms_total", {{"stage", "retrieve"}})),
      decode_ms_(&registry_.counter("nvcim_stage_ms_total", {{"stage", "decode"}})),
      classify_ms_(&registry_.counter("nvcim_stage_ms_total", {{"stage", "classify"}})),
      parallel_fanouts_(&registry_.counter("nvcim_parallel_retrieve_fanouts_total", {},
                                           "batches whose shards fanned out")),
      candidates_examined_(&registry_.counter("nvcim_candidates_examined_total", {},
                                              "key columns the masked pass scored")),
      candidates_possible_(&registry_.counter("nvcim_candidates_possible_total", {},
                                              "key columns a full pass would score")),
      recall_samples_(&registry_.counter("nvcim_recall_samples_total", {},
                                         "rows compared against exact scoring")),
      recall_matches_(&registry_.counter("nvcim_recall_matches_total", {},
                                         "sampled rows whose winner matched exact")),
      batched_decodes_(&registry_.counter("nvcim_batched_decode_gemms_total", {},
                                          "decode GEMMs stacking >1 payload")),
      admitted_(&registry_.counter("nvcim_users_admitted_total", {},
                                   "live admissions after start()")),
      evicted_(&registry_.counter("nvcim_users_evicted_total", {}, "live evictions")),
      migrations_(&registry_.counter("nvcim_migrations_total", {},
                                     "user slots moved between shards")),
      router_refreshes_(&registry_.counter("nvcim_router_refreshes_total", {},
                                           "candidate routers (re)built")),
      rebalance_ms_(&registry_.counter("nvcim_rebalance_ms_total", {},
                                       "cumulative rebalance() wall-clock (ms)")),
      rejected_(&registry_.counter("nvcim_requests_rejected_total", {},
                                   "submissions rejected (queue full)")),
      programming_queue_depth_(&registry_.gauge("nvcim_programming_queue_depth", {},
                                                "staged programming spans not yet executed")),
      admission_latency_(&registry_.histogram("nvcim_admission_latency_ms", {},
                                              "stage -> live admission latency (ms)",
                                              latency_buckets())),
      program_batch_columns_(&registry_.histogram("nvcim_program_batch_columns", {},
                                                  "key columns per programming batch",
                                                  latency_buckets())),
      rejected_admissions_(&registry_.counter("nvcim_admissions_rejected_total", {},
                                              "admissions rejected (pending bound)")),
      expired_(&registry_.counter("nvcim_requests_expired_total", {},
                                  "requests dropped in-queue past their deadline")),
      deadline_missed_(&registry_.counter("nvcim_deadline_missed_total", {},
                                          "requests completed after their deadline")),
      cancelled_(&registry_.counter("nvcim_requests_cancelled_total", {},
                                    "requests cancelled before dispatch")),
      scrub_passes_(&registry_.counter("nvcim_scrub_passes_total", {},
                                       "per-subarray scrub-and-repair passes")),
      scrub_columns_probed_(&registry_.counter("nvcim_scrub_columns_probed_total", {},
                                               "columns probed against pristine levels")),
      columns_degraded_(&registry_.counter("nvcim_columns_degraded_total", {},
                                           "columns flagged degraded by scrubs")),
      columns_repaired_(&registry_.counter("nvcim_columns_repaired_total", {},
                                           "degraded columns reprogrammed clean")),
      columns_stuck_(&registry_.counter("nvcim_columns_stuck_total", {},
                                        "columns unrepairable after reprogramming")),
      scrub_migrations_(&registry_.counter("nvcim_scrub_migrations_total", {},
                                           "tenants migrated off stuck columns")),
      subarrays_quarantined_(&registry_.counter("nvcim_subarrays_quarantined_total", {},
                                                "subarrays retired from placement")),
      degraded_responses_(&registry_.counter("nvcim_degraded_responses_total", {},
                                             "responses served from degraded columns")),
      repair_latency_(&registry_.histogram("nvcim_repair_latency_ms", {},
                                           "repair-and-migrate wall-clock per scrub pass (ms)",
                                           latency_buckets())),
      queue_depth_(&registry_.gauge("nvcim_queue_depth", {},
                                    "requests queued right now")),
      tenants_retired_(&registry_.counter("nvcim_tenants_retired_total", {},
                                          "evicted tenants whose labelled series were retired")),
      throughput_1m_(&registry_.gauge("nvcim_throughput_rps_1m", {},
                                      "requests/s over the primary rolling window")),
      latency_p50_1m_(&registry_.gauge("nvcim_request_latency_ms_1m",
                                       {{"quantile", "0.5"}},
                                       "windowed latency quantiles (primary window)")),
      latency_p95_1m_(&registry_.gauge("nvcim_request_latency_ms_1m",
                                       {{"quantile", "0.95"}})),
      latency_p99_1m_(&registry_.gauge("nvcim_request_latency_ms_1m",
                                       {{"quantile", "0.99"}})),
      error_rate_1m_(&registry_.gauge("nvcim_error_rate_1m", {},
                                      "(expired+rejected)/(requests+expired+rejected) over the window")),
      degraded_rate_1m_(&registry_.gauge("nvcim_degraded_rate_1m", {},
                                         "degraded responses per request over the window")),
      deadline_miss_rate_1m_(&registry_.gauge("nvcim_deadline_miss_rate_1m", {},
                                              "late completions per request over the window")),
      window_cfg_(window),
      epoch_(Clock::now()),
      latency_window_(latency_, window),
      queue_wait_window_(queue_wait_, window),
      degraded_window_(degraded_responses_, window),
      deadline_window_(deadline_missed_, window),
      expired_window_(expired_, window),
      rejected_window_(rejected_, window) {}

void EngineStats::start_clock() {
  std::lock_guard<std::mutex> lock(mu_);
  start_ = Clock::now();
  started_ = true;
  stopped_ = false;
}

void EngineStats::stop_clock() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ && !stopped_) {
    stop_ = Clock::now();
    stopped_ = true;
  }
}

EngineStats::TenantMetrics* EngineStats::tenant_locked(std::size_t user_id) {
  if (retired_tenants_.count(user_id) > 0) return nullptr;
  TenantMetrics& tm = tenants_[user_id];
  if (tm.requests == nullptr) {
    const obs::Labels labels{{"tenant", std::to_string(user_id)}};
    tm.requests = &registry_.counter("nvcim_tenant_requests_total", labels,
                                     "requests served per tenant");
    tm.candidates = &registry_.counter("nvcim_tenant_candidates_total", labels,
                                       "routed candidate keys scored per tenant");
    tm.latency = &registry_.histogram("nvcim_tenant_request_latency_ms", labels,
                                      "per-tenant submit -> response latency (ms)",
                                      latency_buckets());
    tm.queue_wait = &registry_.histogram("nvcim_tenant_queue_wait_ms", labels,
                                         "per-tenant submit -> batch dequeue wait (ms)",
                                         latency_buckets());
    tm.expired = &registry_.counter("nvcim_tenant_requests_expired_total", labels,
                                    "per-tenant requests dropped past their deadline");
    tm.deadline_missed = &registry_.counter("nvcim_tenant_deadline_missed_total", labels,
                                            "per-tenant requests completed late");
  }
  return &tm;
}

void EngineStats::record_request(std::size_t user_id, double latency_ms,
                                 double queue_wait_ms, bool cache_hit) {
  latency_->record(latency_ms);
  queue_wait_->record(queue_wait_ms);
  service_->record(std::max(0.0, latency_ms - queue_wait_ms));
  (cache_hit ? cache_hits_ : cache_misses_)->inc();
  // Tenant histograms are recorded under mu_: retire_tenant destroys the
  // series objects, so a pointer must never escape the lock.
  std::lock_guard<std::mutex> lock(mu_);
  if (TenantMetrics* tm = tenant_locked(user_id)) {
    tm->requests->inc();
    tm->latency->record(latency_ms);
    tm->queue_wait->record(queue_wait_ms);
  }
}

void EngineStats::record_queue_depth(std::size_t depth) {
  queue_depth_->set(static_cast<double>(depth));
  queue_depth_hwm_->update_max(static_cast<double>(depth));
}

void EngineStats::record_batch(std::size_t batch_size) {
  batches_->inc();
  batched_requests_->inc(static_cast<double>(batch_size));
}

void EngineStats::record_stage_times(double encode_ms, double retrieve_ms,
                                     double decode_ms, double classify_ms) {
  encode_ms_->inc(encode_ms);
  retrieve_ms_->inc(retrieve_ms);
  decode_ms_->inc(decode_ms);
  classify_ms_->inc(classify_ms);
}

void EngineStats::record_shard_time(std::size_t shard, double ms) {
  obs::Counter* counter = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shard >= shard_ms_.size()) shard_ms_.resize(shard + 1, nullptr);
    if (shard_ms_[shard] == nullptr)
      shard_ms_[shard] = &registry_.counter("nvcim_shard_retrieve_ms_total",
                                            {{"shard", std::to_string(shard)}},
                                            "cumulative per-shard retrieval (ms)");
    counter = shard_ms_[shard];
  }
  counter->inc(ms);
}

void EngineStats::record_parallel_fanout() { parallel_fanouts_->inc(); }

void EngineStats::record_two_phase(std::size_t examined, std::size_t possible) {
  candidates_examined_->inc(static_cast<double>(examined));
  candidates_possible_->inc(static_cast<double>(possible));
}

void EngineStats::record_tenant_candidates(std::size_t user_id, std::size_t candidates) {
  std::lock_guard<std::mutex> lock(mu_);
  if (TenantMetrics* tm = tenant_locked(user_id))
    tm->candidates->inc(static_cast<double>(candidates));
}

void EngineStats::record_recall_sample(std::size_t rows, std::size_t matches) {
  recall_samples_->inc(static_cast<double>(rows));
  recall_matches_->inc(static_cast<double>(matches));
}

void EngineStats::record_batched_decode() { batched_decodes_->inc(); }

void EngineStats::record_admission(bool router_refreshed) {
  admitted_->inc();
  if (router_refreshed) router_refreshes_->inc();
}

void EngineStats::record_eviction() { evicted_->inc(); }

void EngineStats::record_migration() { migrations_->inc(); }

void EngineStats::record_rebalance(double ms) { rebalance_ms_->inc(ms); }

void EngineStats::record_rejection() { rejected_->inc(); }

void EngineStats::record_expired(std::size_t user_id) {
  expired_->inc();
  std::lock_guard<std::mutex> lock(mu_);
  if (TenantMetrics* tm = tenant_locked(user_id)) tm->expired->inc();
}

void EngineStats::record_deadline_miss(std::size_t user_id) {
  deadline_missed_->inc();
  std::lock_guard<std::mutex> lock(mu_);
  if (TenantMetrics* tm = tenant_locked(user_id)) tm->deadline_missed->inc();
}

void EngineStats::record_cancellation() { cancelled_->inc(); }

void EngineStats::record_programming_enqueued(std::size_t spans) {
  programming_queue_depth_->add(static_cast<double>(spans));
}

void EngineStats::record_program_batch(std::size_t columns) {
  programming_queue_depth_->add(-1.0);
  program_batch_columns_->record(static_cast<double>(columns));
}

void EngineStats::record_admission_latency(double ms) { admission_latency_->record(ms); }

void EngineStats::record_admission_rejection() { rejected_admissions_->inc(); }

void EngineStats::record_scrub_pass(std::size_t probed, std::size_t degraded,
                                    std::size_t repaired, std::size_t stuck,
                                    std::size_t migrated, bool quarantined) {
  scrub_passes_->inc();
  scrub_columns_probed_->inc(static_cast<double>(probed));
  columns_degraded_->inc(static_cast<double>(degraded));
  columns_repaired_->inc(static_cast<double>(repaired));
  columns_stuck_->inc(static_cast<double>(stuck));
  scrub_migrations_->inc(static_cast<double>(migrated));
  if (quarantined) subarrays_quarantined_->inc();
}

void EngineStats::record_repair_latency(double ms) { repair_latency_->record(ms); }

void EngineStats::record_degraded_response() { degraded_responses_->inc(); }

void EngineStats::record_slow_request(const SlowRequest& slow) {
  std::lock_guard<std::mutex> lock(mu_);
  slow_.push_back(slow);
  if (slow_.size() > kMaxSlow) slow_.pop_front();
}

std::vector<SlowRequest> EngineStats::slow_requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<SlowRequest>(slow_.begin(), slow_.end());
}

void EngineStats::retire_tenant(std::size_t user_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!retired_tenants_.insert(user_id).second) return;
  tenants_.erase(user_id);
  const obs::Labels labels{{"tenant", std::to_string(user_id)}};
  bool removed = false;
  for (const char* family :
       {"nvcim_tenant_requests_total", "nvcim_tenant_candidates_total",
        "nvcim_tenant_request_latency_ms", "nvcim_tenant_queue_wait_ms",
        "nvcim_tenant_requests_expired_total", "nvcim_tenant_deadline_missed_total"}) {
    removed = registry_.remove_series(family, labels) || removed;
  }
  if (removed) tenants_retired_->inc();
}

void EngineStats::revive_tenant(std::size_t user_id) {
  std::lock_guard<std::mutex> lock(mu_);
  retired_tenants_.erase(user_id);
}

double EngineStats::now_ms() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch_).count();
}

void EngineStats::advance_windows(double now_ms) const {
  std::lock_guard<std::mutex> lock(mu_);
  bool boundary = latency_window_.advance(now_ms);
  boundary = queue_wait_window_.advance(now_ms) || boundary;
  boundary = degraded_window_.advance(now_ms) || boundary;
  boundary = deadline_window_.advance(now_ms) || boundary;
  boundary = expired_window_.advance(now_ms) || boundary;
  boundary = rejected_window_.advance(now_ms) || boundary;
  if (!boundary) return;  // gauges change only at bucket boundaries
  const WindowStats w = window_stats_locked(now_ms, window_cfg_.window_ms());
  throughput_1m_->set(w.throughput_rps);
  latency_p50_1m_->set(w.p50_latency_ms);
  latency_p95_1m_->set(w.p95_latency_ms);
  latency_p99_1m_->set(w.p99_latency_ms);
  error_rate_1m_->set(w.error_rate);
  degraded_rate_1m_->set(w.degraded_rate);
  deadline_miss_rate_1m_->set(w.deadline_miss_rate);
}

WindowStats EngineStats::window_stats_locked(double now_ms, double window_ms) const {
  WindowStats w;
  const obs::WindowDelta lat = latency_window_.delta(now_ms, window_ms);
  w.span_ms = lat.span_ms();
  w.requests = static_cast<std::size_t>(lat.count());
  w.throughput_rps = lat.rate_per_sec();
  if (lat.count() > 0) {
    w.p50_latency_ms = lat.value_at_quantile(0.50);
    w.p95_latency_ms = lat.value_at_quantile(0.95);
    w.p99_latency_ms = lat.value_at_quantile(0.99);
  }
  const obs::WindowDelta qw = queue_wait_window_.delta(now_ms, window_ms);
  if (qw.count() > 0) w.queue_wait_p95_ms = qw.value_at_quantile(0.95);
  const double degraded = degraded_window_.delta(now_ms, window_ms).value;
  const double missed = deadline_window_.delta(now_ms, window_ms).value;
  const double expired = expired_window_.delta(now_ms, window_ms).value;
  const double rejected = rejected_window_.delta(now_ms, window_ms).value;
  const double requests = static_cast<double>(w.requests);
  if (requests > 0.0) {
    w.degraded_rate = degraded / requests;
    w.deadline_miss_rate = missed / requests;
  }
  const double attempts = requests + expired + rejected;
  if (attempts > 0.0) w.error_rate = (expired + rejected) / attempts;
  return w;
}

WindowedSli EngineStats::windowed_at(double now_ms, double latency_threshold_ms,
                                     double window_ms) const {
  std::lock_guard<std::mutex> lock(mu_);
  WindowedSli sli;
  sli.stats = window_stats_locked(now_ms, window_ms);
  const obs::WindowDelta lat = latency_window_.delta(now_ms, window_ms);
  sli.latency.total = lat.count();
  const std::uint64_t good = lat.count_le(latency_threshold_ms);
  sli.latency.bad = lat.count() > good ? lat.count() - good : 0;
  const double degraded = degraded_window_.delta(now_ms, window_ms).value;
  sli.availability.total = lat.count();
  sli.availability.bad =
      std::min<std::uint64_t>(lat.count(), static_cast<std::uint64_t>(degraded));
  const double missed = deadline_window_.delta(now_ms, window_ms).value;
  const double expired = expired_window_.delta(now_ms, window_ms).value;
  sli.deadline.total = lat.count() + static_cast<std::uint64_t>(expired);
  sli.deadline.bad = static_cast<std::uint64_t>(missed + expired);
  return sli;
}

WindowedSli EngineStats::windowed(double latency_threshold_ms, double window_ms) const {
  const double now = now_ms();
  advance_windows(now);
  return windowed_at(now, latency_threshold_ms, window_ms);
}

StatsSnapshot EngineStats::snapshot() const {
  StatsSnapshot s;
  const double now = now_ms();
  advance_windows(now);  // lazy window maintenance rides the read path
  s.requests = static_cast<std::size_t>(latency_->count());
  s.batches = static_cast<std::size_t>(batches_->value());
  s.cache_hits = static_cast<std::size_t>(cache_hits_->value());
  s.cache_misses = static_cast<std::size_t>(cache_misses_->value());
  const std::size_t probes = s.cache_hits + s.cache_misses;
  if (probes > 0) s.cache_hit_rate = static_cast<double>(s.cache_hits) / probes;
  if (s.batches > 0) s.avg_batch_size = batched_requests_->value() / static_cast<double>(s.batches);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_ && s.requests > 0) {
      const Clock::time_point end = stopped_ ? stop_ : Clock::now();
      const double secs = std::chrono::duration<double>(end - start_).count();
      if (secs > 0.0) s.throughput_rps = static_cast<double>(s.requests) / secs;
    }
    s.shard_retrieve_ms.resize(shard_ms_.size(), 0.0);
    for (std::size_t i = 0; i < shard_ms_.size(); ++i)
      if (shard_ms_[i] != nullptr) s.shard_retrieve_ms[i] = shard_ms_[i]->value();
    s.last_minute = window_stats_locked(now, window_cfg_.window_ms());
  }
  if (s.requests > 0) {
    s.p50_latency_ms = latency_->value_at_quantile(0.50);
    s.p95_latency_ms = latency_->value_at_quantile(0.95);
    s.p99_latency_ms = latency_->value_at_quantile(0.99);
    s.queue_wait_p50_ms = queue_wait_->value_at_quantile(0.50);
    s.queue_wait_p95_ms = queue_wait_->value_at_quantile(0.95);
  }
  s.queue_depth_hwm = static_cast<std::size_t>(queue_depth_hwm_->value());
  s.encode_ms = encode_ms_->value();
  s.retrieve_ms = retrieve_ms_->value();
  s.decode_ms = decode_ms_->value();
  s.classify_ms = classify_ms_->value();
  s.parallel_retrieve_fanouts = static_cast<std::size_t>(parallel_fanouts_->value());
  s.candidates_examined = static_cast<std::size_t>(candidates_examined_->value());
  s.candidates_possible = static_cast<std::size_t>(candidates_possible_->value());
  if (s.candidates_possible > 0)
    s.pruned_fraction = 1.0 - static_cast<double>(s.candidates_examined) /
                                  static_cast<double>(s.candidates_possible);
  s.recall_samples = static_cast<std::size_t>(recall_samples_->value());
  s.recall_matches = static_cast<std::size_t>(recall_matches_->value());
  if (s.recall_samples > 0)
    s.sampled_recall_at1 =
        static_cast<double>(s.recall_matches) / static_cast<double>(s.recall_samples);
  s.batched_decode_gemms = static_cast<std::size_t>(batched_decodes_->value());
  s.users_admitted = static_cast<std::size_t>(admitted_->value());
  s.users_evicted = static_cast<std::size_t>(evicted_->value());
  s.migrations = static_cast<std::size_t>(migrations_->value());
  s.router_refreshes = static_cast<std::size_t>(router_refreshes_->value());
  s.rebalance_ms = rebalance_ms_->value();
  s.rejected_requests = static_cast<std::size_t>(rejected_->value());
  s.programming_queue_depth =
      static_cast<std::size_t>(std::max(0.0, programming_queue_depth_->value()));
  s.program_batches = static_cast<std::size_t>(program_batch_columns_->count());
  if (s.program_batches > 0 || admission_latency_->count() > 0) {
    s.admission_p50_ms = admission_latency_->value_at_quantile(0.50);
    s.admission_p95_ms = admission_latency_->value_at_quantile(0.95);
  }
  s.rejected_admissions = static_cast<std::size_t>(rejected_admissions_->value());
  s.expired_requests = static_cast<std::size_t>(expired_->value());
  s.deadline_missed = static_cast<std::size_t>(deadline_missed_->value());
  s.cancelled_requests = static_cast<std::size_t>(cancelled_->value());
  s.scrub_passes = static_cast<std::size_t>(scrub_passes_->value());
  s.scrub_columns_probed = static_cast<std::size_t>(scrub_columns_probed_->value());
  s.columns_degraded = static_cast<std::size_t>(columns_degraded_->value());
  s.columns_repaired = static_cast<std::size_t>(columns_repaired_->value());
  s.columns_stuck = static_cast<std::size_t>(columns_stuck_->value());
  s.scrub_migrations = static_cast<std::size_t>(scrub_migrations_->value());
  s.subarrays_quarantined = static_cast<std::size_t>(subarrays_quarantined_->value());
  s.degraded_responses = static_cast<std::size_t>(degraded_responses_->value());
  if (repair_latency_->count() > 0) {
    s.repair_p50_ms = repair_latency_->value_at_quantile(0.50);
    s.repair_p95_ms = repair_latency_->value_at_quantile(0.95);
  }
  s.tenants_retired = static_cast<std::size_t>(tenants_retired_->value());
  s.queue_depth = static_cast<std::size_t>(queue_depth_->value());
  return s;
}

}  // namespace nvcim::serve
