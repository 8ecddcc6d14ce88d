// The engine's live introspection plane: the health() verdict combining SLO
// burn rates, device-fleet health, queue saturation and admission backlog,
// plus the embedded HTTP endpoints (/metrics, /metrics.json, /healthz,
// /readyz, /debug/engine, /debug/slow, /debug/trace) behind
// ServingConfig::introspection.

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "nvcim/obs/slo.hpp"
#include "nvcim/serve/engine.hpp"

namespace nvcim::serve {

namespace {

/// JSON-safe number: %.9g, with non-finite values clamped (bare inf/nan is
/// not valid JSON; an infinite burn rate is "the budget is zero", which 1e9
/// conveys to any dashboard).
std::string jnum(double v) {
  if (std::isnan(v)) return "0";
  if (std::isinf(v)) return v > 0 ? "1e9" : "-1e9";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string jnum(std::size_t v) { return std::to_string(v); }

const char* jbool(bool b) { return b ? "true" : "false"; }

std::string snapshot_json(const StatsSnapshot& s) {
  std::ostringstream o;
  o << "{\n"
    << "  \"requests\": " << s.requests << ",\n"
    << "  \"batches\": " << s.batches << ",\n"
    << "  \"avg_batch_size\": " << jnum(s.avg_batch_size) << ",\n"
    << "  \"throughput_rps\": " << jnum(s.throughput_rps) << ",\n"
    << "  \"p50_latency_ms\": " << jnum(s.p50_latency_ms) << ",\n"
    << "  \"p95_latency_ms\": " << jnum(s.p95_latency_ms) << ",\n"
    << "  \"p99_latency_ms\": " << jnum(s.p99_latency_ms) << ",\n"
    << "  \"queue_wait_p50_ms\": " << jnum(s.queue_wait_p50_ms) << ",\n"
    << "  \"queue_wait_p95_ms\": " << jnum(s.queue_wait_p95_ms) << ",\n"
    << "  \"queue_depth\": " << s.queue_depth << ",\n"
    << "  \"queue_depth_hwm\": " << s.queue_depth_hwm << ",\n"
    << "  \"cache_hits\": " << s.cache_hits << ",\n"
    << "  \"cache_misses\": " << s.cache_misses << ",\n"
    << "  \"cache_hit_rate\": " << jnum(s.cache_hit_rate) << ",\n"
    << "  \"stage_ms\": {\"encode\": " << jnum(s.encode_ms)
    << ", \"retrieve\": " << jnum(s.retrieve_ms) << ", \"decode\": " << jnum(s.decode_ms)
    << ", \"classify\": " << jnum(s.classify_ms) << "},\n"
    << "  \"parallel_retrieve_fanouts\": " << s.parallel_retrieve_fanouts << ",\n"
    << "  \"pruned_fraction\": " << jnum(s.pruned_fraction) << ",\n"
    << "  \"sampled_recall_at1\": " << jnum(s.sampled_recall_at1) << ",\n"
    << "  \"users_admitted\": " << s.users_admitted << ",\n"
    << "  \"users_evicted\": " << s.users_evicted << ",\n"
    << "  \"tenants_retired\": " << s.tenants_retired << ",\n"
    << "  \"migrations\": " << s.migrations << ",\n"
    << "  \"rejected_requests\": " << s.rejected_requests << ",\n"
    << "  \"expired_requests\": " << s.expired_requests << ",\n"
    << "  \"deadline_missed\": " << s.deadline_missed << ",\n"
    << "  \"cancelled_requests\": " << s.cancelled_requests << ",\n"
    << "  \"programming_queue_depth\": " << s.programming_queue_depth << ",\n"
    << "  \"rejected_admissions\": " << s.rejected_admissions << ",\n"
    << "  \"scrub_passes\": " << s.scrub_passes << ",\n"
    << "  \"columns_degraded\": " << s.columns_degraded << ",\n"
    << "  \"columns_repaired\": " << s.columns_repaired << ",\n"
    << "  \"columns_stuck\": " << s.columns_stuck << ",\n"
    << "  \"subarrays_quarantined\": " << s.subarrays_quarantined << ",\n"
    << "  \"degraded_responses\": " << s.degraded_responses << ",\n"
    << "  \"last_minute\": {\n"
    << "    \"span_ms\": " << jnum(s.last_minute.span_ms) << ",\n"
    << "    \"requests\": " << s.last_minute.requests << ",\n"
    << "    \"throughput_rps\": " << jnum(s.last_minute.throughput_rps) << ",\n"
    << "    \"p50_latency_ms\": " << jnum(s.last_minute.p50_latency_ms) << ",\n"
    << "    \"p95_latency_ms\": " << jnum(s.last_minute.p95_latency_ms) << ",\n"
    << "    \"p99_latency_ms\": " << jnum(s.last_minute.p99_latency_ms) << ",\n"
    << "    \"queue_wait_p95_ms\": " << jnum(s.last_minute.queue_wait_p95_ms) << ",\n"
    << "    \"error_rate\": " << jnum(s.last_minute.error_rate) << ",\n"
    << "    \"degraded_rate\": " << jnum(s.last_minute.degraded_rate) << ",\n"
    << "    \"deadline_miss_rate\": " << jnum(s.last_minute.deadline_miss_rate) << "\n"
    << "  }\n}\n";
  return o.str();
}

std::string slow_json(const std::vector<SlowRequest>& slow) {
  std::ostringstream o;
  o << "[";
  for (std::size_t i = 0; i < slow.size(); ++i) {
    const SlowRequest& r = slow[i];
    if (i > 0) o << ",";
    o << "\n  {\"user\": " << r.user_id << ", \"batch\": " << r.batch_id
      << ", \"latency_ms\": " << jnum(r.latency_ms)
      << ", \"queue_wait_ms\": " << jnum(r.queue_wait_ms)
      << ", \"encode_ms\": " << jnum(r.encode_ms)
      << ", \"retrieve_ms\": " << jnum(r.retrieve_ms)
      << ", \"decode_ms\": " << jnum(r.decode_ms)
      << ", \"classify_ms\": " << jnum(r.classify_ms) << "}";
  }
  o << (slow.empty() ? "]\n" : "\n]\n");
  return o.str();
}

std::string burn_phrase(const SloStatus& s) {
  return s.name + " SLO burning at " + jnum(s.burn.fast) + "x (fast) / " +
         jnum(s.burn.slow) + "x (slow) against objective " + jnum(s.objective);
}

}  // namespace

std::string HealthReport::json() const {
  std::ostringstream o;
  o << "{\n  \"state\": \"" << obs::to_string(state) << "\",\n"
    << "  \"ready\": " << jbool(ready) << ",\n"
    << "  \"queue\": {\"depth\": " << queue_depth << ", \"capacity\": " << queue_capacity
    << "},\n"
    << "  \"pending_admissions\": " << pending_admissions << ",\n"
    << "  \"device\": {\"subarrays\": " << subarrays_total
    << ", \"degraded\": " << subarrays_degraded << ", \"failed\": " << subarrays_failed
    << ", \"quarantined\": " << subarrays_quarantined << "},\n"
    << "  \"slos\": [";
  for (std::size_t i = 0; i < slos.size(); ++i) {
    const SloStatus& s = slos[i];
    if (i > 0) o << ",";
    o << "\n    {\"name\": \"" << s.name << "\", \"objective\": " << jnum(s.objective)
      << ", \"fast_burn\": " << jnum(s.burn.fast)
      << ", \"slow_burn\": " << jnum(s.burn.slow) << ", \"state\": \""
      << obs::to_string(s.burn.state) << "\"}";
  }
  o << (slos.empty() ? "],\n" : "\n  ],\n");
  o << "  \"reasons\": [";
  for (std::size_t i = 0; i < reasons.size(); ++i) {
    if (i > 0) o << ", ";
    o << "\"" << reasons[i] << "\"";
  }
  o << "]\n}\n";
  return o.str();
}

HealthReport ServingEngine::health() const {
  HealthReport r;
  const double now = stats_.now_ms();
  stats_.advance_windows(now);

  // SLO burn rates over the dual windows (fast + slow must both exceed a
  // threshold to change state — see obs::evaluate_burn_rate).
  const SloConfig& slo = cfg_.slo;
  const obs::BurnRateConfig& burn = slo.burn;
  const WindowedSli fast =
      stats_.windowed_at(now, slo.latency_threshold_ms, burn.fast_window_ms);
  const WindowedSli slow =
      stats_.windowed_at(now, slo.latency_threshold_ms, burn.slow_window_ms);
  r.slos.push_back({"latency", slo.latency_objective,
                    obs::evaluate_burn_rate(fast.latency, slow.latency,
                                            slo.latency_objective, burn)});
  r.slos.push_back({"availability", slo.availability_objective,
                    obs::evaluate_burn_rate(fast.availability, slow.availability,
                                            slo.availability_objective, burn)});
  r.slos.push_back({"deadline", slo.deadline_objective,
                    obs::evaluate_burn_rate(fast.deadline, slow.deadline,
                                            slo.deadline_objective, burn)});
  for (const SloStatus& s : r.slos) {
    if (s.burn.state != obs::HealthState::Ok) {
      r.state = obs::worst(r.state, s.burn.state);
      r.reasons.push_back(burn_phrase(s));
    }
  }

  // Queue saturation: full is Critical (new work is blocking or bouncing),
  // >= 80% is an early warning.
  bool stopping = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    r.queue_depth = sched_.size();
    stopping = stopping_;
  }
  r.queue_capacity = cfg_.queue_capacity;
  if (r.queue_depth >= r.queue_capacity) {
    r.state = obs::HealthState::Critical;
    r.reasons.push_back("request queue saturated (" + jnum(r.queue_depth) + "/" +
                        jnum(r.queue_capacity) + ")");
  } else if (r.queue_depth * 5 >= r.queue_capacity * 4) {
    r.state = obs::worst(r.state, obs::HealthState::Warning);
    r.reasons.push_back("request queue above 80% (" + jnum(r.queue_depth) + "/" +
                        jnum(r.queue_capacity) + ")");
  }

  // Pending write-behind admissions at the backpressure bound: admits are
  // blocking/bouncing.
  {
    std::lock_guard<std::mutex> lock(admissions_mu_);
    r.pending_admissions = admissions_.size();
  }
  if (cfg_.lifecycle.enabled && r.pending_admissions > 0 &&
      r.pending_admissions >= cfg_.lifecycle.max_pending_admissions) {
    r.state = obs::worst(r.state, obs::HealthState::Warning);
    r.reasons.push_back("admission backlog at bound (" + jnum(r.pending_admissions) +
                        "/" + jnum(cfg_.lifecycle.max_pending_admissions) + ")");
  }

  // Device fleet: scrubber-published subarray health. Any degraded hardware
  // warns; failed subarrays or a half-degraded fleet is critical.
  if (store_.built()) {
    for (std::size_t shard = 0; shard < store_.n_shards(); ++shard) {
      for (std::size_t sub = 0; sub < store_.shard_subarrays(shard); ++sub) {
        ++r.subarrays_total;
        const SubarrayHealth h = store_.subarray_health(shard, sub);
        if (h != SubarrayHealth::Healthy) ++r.subarrays_degraded;
        if (h == SubarrayHealth::Failed) ++r.subarrays_failed;
        if (store_.subarray_quarantined(shard, sub)) ++r.subarrays_quarantined;
      }
    }
    if (r.subarrays_failed > 0 ||
        (r.subarrays_total > 0 && r.subarrays_degraded * 2 >= r.subarrays_total)) {
      r.state = obs::HealthState::Critical;
      r.reasons.push_back("device fleet degraded (" + jnum(r.subarrays_degraded) +
                          "/" + jnum(r.subarrays_total) + " subarrays, " +
                          jnum(r.subarrays_failed) + " failed)");
    } else if (r.subarrays_degraded > 0 || r.subarrays_quarantined > 0) {
      r.state = obs::worst(r.state, obs::HealthState::Warning);
      r.reasons.push_back("degraded subarrays (" + jnum(r.subarrays_degraded) +
                          " degraded, " + jnum(r.subarrays_quarantined) +
                          " quarantined)");
    }
  }

  r.ready = running_ && !stopping && store_.built() && r.pending_admissions == 0;
  return r;
}

std::uint16_t ServingEngine::introspection_port() const {
  return http_ != nullptr ? http_->port() : 0;
}

void ServingEngine::start_introspection() {
  if (!cfg_.introspection.enabled) return;
  obs::HttpServerConfig hcfg;
  hcfg.bind = cfg_.introspection.bind;
  hcfg.port = cfg_.introspection.port;
  auto server = std::make_unique<obs::HttpServer>(hcfg);

  server->handle("/", [](const std::string&) {
    obs::HttpResponse resp;
    resp.content_type = "text/plain; charset=utf-8";
    resp.body =
        "nvcim serving engine introspection\n"
        "  /metrics       Prometheus text exposition\n"
        "  /metrics.json  the same registry as JSON\n"
        "  /healthz       SLO burn / device / queue health (503 = critical)\n"
        "  /readyz        readiness (workers up, admissions drained)\n"
        "  /debug/engine  StatsSnapshot as JSON (incl. last-minute window)\n"
        "  /debug/slow    slow-request exemplars\n"
        "  /debug/trace   Chrome trace_event dump\n";
    return resp;
  });
  server->handle("/metrics", [this](const std::string&) {
    // Lazy window maintenance rides the scrape, then the body is the
    // registry's own exposition verbatim — byte-identical to an in-process
    // prometheus_text() call.
    stats_.refresh_windows();
    obs::HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = stats_.registry().prometheus_text();
    return resp;
  });
  server->handle("/metrics.json", [this](const std::string&) {
    stats_.refresh_windows();
    obs::HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = stats_.registry().json_text();
    return resp;
  });
  server->handle("/healthz", [this](const std::string&) {
    const HealthReport report = health();
    obs::HttpResponse resp;
    resp.status = report.state == obs::HealthState::Critical ? 503 : 200;
    resp.content_type = "application/json";
    resp.body = report.json();
    return resp;
  });
  server->handle("/readyz", [this](const std::string&) {
    const HealthReport report = health();
    obs::HttpResponse resp;
    resp.status = report.ready ? 200 : 503;
    resp.content_type = "application/json";
    resp.body = std::string("{\"ready\": ") + jbool(report.ready) + "}\n";
    return resp;
  });
  server->handle("/debug/engine", [this](const std::string&) {
    obs::HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = snapshot_json(stats());
    return resp;
  });
  server->handle("/debug/slow", [this](const std::string&) {
    obs::HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = slow_json(slow_requests());
    return resp;
  });
  server->handle("/debug/trace", [this](const std::string&) {
    std::ostringstream os;
    tracer_.write_chrome_trace(os);
    obs::HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = os.str();
    return resp;
  });

  if (!server->start()) {
    std::fprintf(stderr,
                 "nvcim: introspection server failed to bind %s:%u — serving continues "
                 "without it\n",
                 hcfg.bind.c_str(), static_cast<unsigned>(hcfg.port));
    return;
  }
  http_ = std::move(server);
}

void ServingEngine::stop_introspection() {
  if (http_ != nullptr) {
    http_->stop();
    http_.reset();
  }
}

}  // namespace nvcim::serve
