#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "nvcim/serve/request.hpp"

namespace nvcim::serve {

/// Deficit round-robin across per-tenant queues: each active tenant earns
/// `quantum` requests per round, so a hot tenant at queue capacity cannot
/// starve a cold one. Within a tenant, requests order by (deadline,
/// -priority, arrival); across tenants, requests whose deadline is inside the
/// urgency window are pulled EDF-first regardless of whose turn it is.
struct SchedulerConfig {
  /// Requests a tenant may dequeue per DRR round. Larger favours batch
  /// locality (runs of one tenant), smaller favours interleaving.
  std::size_t quantum = 4;
  /// Deadlines within `now + urgency_window_ms` are treated as critical:
  /// pulled EDF-first across tenants ahead of the DRR rotation, and batch
  /// coalescing never waits past them. Must pass checked_ms().
  double urgency_window_ms = 2.0;
};

/// Deadline/priority-aware fair request queue: per-tenant queues drained by
/// deficit round-robin with an EDF escape hatch for critical deadlines,
/// optional token-bucket rate limits, expiry of already-dead requests and
/// cancel-before-dispatch.
///
/// Passive and externally synchronized: the engine calls every method under
/// its queue mutex (the condition-variable protocol stays in the engine).
/// Every method takes the current time explicitly, so unit tests drive the
/// clock deterministically.
///
/// Scheduling only reorders which requests form a batch — never what any
/// request computes — so retrieval results are bit-identical under any
/// schedule (property-tested).
class RequestScheduler {
 public:
  using Clock = QueuedRequest::Clock;

  explicit RequestScheduler(SchedulerConfig cfg);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Queued requests for one tenant (tests/introspection).
  std::size_t queued_for(std::size_t user_id) const;

  /// Enqueue one request. `req.seq` is assigned here (arrival order).
  void push(QueuedRequest req, Clock::time_point now);

  /// Earliest deadline over all queued requests, or QueuedRequest::kNoDeadline
  /// when none carries one. Drives the batch-coalescing window: a worker must
  /// not sleep past this instant.
  Clock::time_point next_deadline() const;

  /// Remove and return every request whose deadline has already passed.
  /// Callers settle them with DeadlineExceeded — they never reach a batch.
  std::vector<QueuedRequest> take_expired(Clock::time_point now);

  /// Dequeue up to `max_batch` requests: the critical EDF pull, then DRR.
  /// Call take_expired(now) first: pop_batch assumes no queued deadline < now.
  std::vector<QueuedRequest> pop_batch(std::size_t max_batch, Clock::time_point now);

  /// Remove a still-queued request by id. Returns true and moves it into
  /// `*out` when found; false once dispatched (or never queued).
  bool cancel(std::uint64_t id, QueuedRequest* out);

  /// Remove and return everything still queued (stop() path).
  std::vector<QueuedRequest> drain();

  /// Per-tenant rate limit (requests/second, 0 = unlimited); tenants start
  /// unlimited. Enforced as a token bucket (burst = quantum) at dequeue
  /// time: an over-limit tenant stays queued, it is just not scheduled.
  /// Throws nvcim::Error unless `rps` is finite and >= 0; the previous limit
  /// then stays.
  void set_rate_limit(std::size_t user_id, double rps);

 private:
  struct Tenant {
    std::deque<QueuedRequest> q;  ///< sorted by (deadline, -priority, seq)
    std::size_t deficit = 0;      ///< DRR credit, reset when the queue empties
    double rate_rps = 0.0;        ///< 0 = unlimited
    double tokens = 0.0;
    Clock::time_point last_refill{};
    bool in_ring = false;
  };

  Tenant& tenant(std::size_t user_id);
  void ring_add(std::size_t user_id);
  void ring_remove(std::size_t user_id);
  /// Advance the token bucket to `now` (no-op for unlimited tenants).
  static void refill(Tenant& t, Clock::time_point now, double burst);
  /// Refill, then consume one token; true when a dequeue is allowed.
  static bool take_token(Tenant& t, Clock::time_point now, double burst);
  void pop_front_into(Tenant& t, std::vector<QueuedRequest>& out);

  SchedulerConfig cfg_;
  std::unordered_map<std::size_t, Tenant> tenants_;
  /// Round-robin rotation of tenants with queued requests. A tenant enters
  /// at the back on its first queued request and leaves when drained, so an
  /// idle tenant costs nothing and a returning one rejoins at the back.
  std::vector<std::size_t> ring_;
  std::size_t ring_pos_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
};

}  // namespace nvcim::serve
