#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <string>

#include "nvcim/common/check.hpp"
#include "nvcim/data/lamp.hpp"

namespace nvcim::serve {

/// Answer to one serving request.
struct Response {
  std::size_t user_id = 0;
  std::size_t ovt_index = 0;  ///< user-local index of the retrieved OVT
  std::size_t label = 0;      ///< classify() result when run_inference is on
  bool has_label = false;
  bool cache_hit = false;     ///< decoded prompt came from the LRU cache
  double latency_ms = 0.0;    ///< submit → completion
  /// submit → batch dequeue share of latency_ms: how long the request sat in
  /// the scheduler before a worker picked it up (the rest is service time).
  double queue_wait_ms = 0.0;
  /// The request carried a deadline and completed after it. It was still
  /// dispatched (only already-expired requests are dropped before retrieve);
  /// the caller decides whether a late answer is worth anything.
  bool deadline_missed = false;
  /// The scrubber has marked column(s) of this user's slot degraded (device
  /// fault detected, repair pending or in flight). The answer was computed
  /// from the degraded columns and delivered anyway — serving never fails a
  /// request over a fault the repair path is already handling; the flag
  /// lets the caller discount or retry the answer.
  bool degraded = false;
};

/// One serving request: the tenant and its query. Everything about HOW the
/// request should be scheduled lives in SubmitOptions, not in which overload
/// of submit() was called.
struct Request {
  std::size_t user_id = 0;
  data::Sample query;
};

/// What submit() does when the bounded queue is at capacity.
enum class OverloadPolicy {
  Block,   ///< wait for space (backpressure) — the old submit() behaviour
  Reject,  ///< return an invalid handle and bump rejected_requests
};

/// Per-request scheduling contract. Defaults reproduce the legacy behaviour:
/// no deadline, neutral priority, blocking backpressure, future-only
/// completion.
struct SubmitOptions {
  /// Relative deadline in milliseconds from submission; 0 = none. submit()
  /// throws nvcim::Error for a NaN, negative or non-finite value, or one too
  /// large for the clock (see checked_ms). A request
  /// whose deadline passes while it is still queued is EXPIRED: its future
  /// settles with DeadlineExceeded and it never reaches the crossbar. A
  /// request dispatched in time but finishing late completes normally with
  /// Response::deadline_missed set.
  double deadline_ms = 0.0;
  /// Higher wins among same-tenant requests with equal deadlines. Priority
  /// never starves other tenants — cross-tenant ordering is the DRR
  /// scheduler's job.
  int priority = 0;
  OverloadPolicy overload_policy = OverloadPolicy::Block;
  /// Completion callback, invoked AFTER the future is settled, on whichever
  /// thread completes the request (a worker for served/expired requests, the
  /// canceller for cancel(), the stopping thread for stop()). Exactly one of
  /// the two arguments is meaningful: `error` is nullptr on success.
  /// Exceptions thrown by the callback are swallowed — they must not kill a
  /// worker. Keep it light; it runs on the serving path.
  std::function<void(const Response&, std::exception_ptr)> on_complete;
};

/// A request's deadline passed while it was still queued — the engine dropped
/// it without spending crossbar work.
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& what) : Error(what) {}
};

/// The request was cancelled via RequestHandle::cancel() before dispatch.
class Cancelled : public Error {
 public:
  explicit Cancelled(const std::string& what) : Error(what) {}
};

/// The engine stopped while the request was still queued: stop() settles
/// every undispatched future with this error instead of leaving it dangling
/// or silently serving it after shutdown began.
class EngineStopped : public Error {
 public:
  explicit EngineStopped(const std::string& what) : Error(what) {}
};

/// The submitted user id is unknown to the engine, or its write-behind
/// admission has not gone live yet. submit() settles the handle's future
/// with this error instead of throwing, so asynchronous callers learn of
/// the failure on the same channel as every other per-request error.
class UnknownUser : public Error {
 public:
  explicit UnknownUser(const std::string& what) : Error(what) {}
};

/// How admit() behaves: non_blocking turns pending-admission backpressure
/// into rejection (an invalid handle) instead of blocking; wait joins the
/// write-behind programming before returning (admit(...).wait() equivalent).
struct AdmitOptions {
  bool non_blocking = false;
  bool wait = false;
};

/// One queued request as the scheduler stores it: the request plus its
/// resolved scheduling contract and completion channels. Move-only (owns the
/// promise).
struct QueuedRequest {
  using Clock = std::chrono::steady_clock;
  /// No-deadline sentinel (comparisons still work: everything sorts earlier).
  static constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

  std::uint64_t id = 0;   ///< engine-unique, carried by RequestHandle
  std::uint64_t seq = 0;  ///< global arrival order (EDF tie-break, drain order)
  std::size_t user_id = 0;
  data::Sample query;
  int priority = 0;
  Clock::time_point enqueued{};
  Clock::time_point deadline = kNoDeadline;  ///< absolute; kNoDeadline = none
  std::promise<Response> promise;
  std::function<void(const Response&, std::exception_ptr)> on_complete;

  bool has_deadline() const { return deadline != kNoDeadline; }
};

/// `ms` milliseconds as a QueuedRequest::Clock duration. Throws nvcim::Error
/// unless `ms` is finite, non-negative and below half the clock's range, so
/// neither the conversion nor adding the result to a steady-clock time point
/// can overflow. `what` names the value in the error message.
QueuedRequest::Clock::duration checked_ms(double ms, const char* what);

}  // namespace nvcim::serve
