#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "nvcim/cim/faults.hpp"
#include "nvcim/cluster/kmeans.hpp"
#include "nvcim/retrieval/search.hpp"
#include "nvcim/serve/lifecycle.hpp"

namespace nvcim::serve {

/// Two-phase (IVF-style) retrieval knobs: phase 1 clusters each user's OVT
/// keys with the paper's Eq. 1/2 k-means machinery at store-build time and,
/// per query, ranks the cluster centroids through a low-bit sketch GEMM to
/// emit a candidate mask over its slot; phase 2 runs the exact crossbar scoring only on
/// the candidates (masked fused kernel). Key order in the crossbars is
/// untouched, so `nprobe = 0` (= examine every cluster) reproduces the
/// exact path bit-identically on every candidate column. Every 16th routed
/// shard pass also scores each row's whole slot and records recall-vs-exact
/// into EngineStats.
struct TwoPhaseConfig {
  bool enabled = false;
  /// Clusters examined per query. 0 = all clusters of the user — candidates
  /// cover the full slot, results match exact retrieval bit-for-bit.
  std::size_t nprobe = 2;
  /// Paper Eq. 2 selection of k per user slot. Serving slots are larger
  /// than the paper's training buffers, so the cap is raised.
  cluster::KSelectionConfig k_select{2, 16, 5.0, 1.5};
  cluster::KMeansConfig kmeans;
};

/// Health of one crossbar subarray as judged by the scrubber.
///   Healthy  — every probed column matched its pristine programming.
///   Degraded — at least one column deviates (stuck cells or drift); repair
///              is pending or in flight, serving continues from the slot.
///   Failed   — the subarray is quarantined out of placement (too many
///              unrepairable columns, or killed outright).
enum class SubarrayHealth : std::uint8_t { Healthy, Degraded, Failed };

/// Repair policy of one scrub pass. Detection and repair have no knob: a
/// column is degraded when any of its cells deviates from its pristine
/// programming; degraded columns are re-programmed in place from the
/// tenants' retained keys, and tenants on columns that fail the rewrite
/// (stuck hardware) migrate to the least-loaded other shard.
struct ScrubPolicy {
  /// Quarantine the subarray once this many of its columns are
  /// unrepairable (stuck or unowned-deviant after a repair pass).
  std::size_t quarantine_after = 8;
};

/// Result of a detect-only scrub pass over one subarray.
struct ScrubReport {
  std::size_t columns_probed = 0;
  std::vector<std::size_t> degraded;  ///< shard-local degraded column indices
  SubarrayHealth health = SubarrayHealth::Healthy;
};

/// Result of a full scrub-and-repair pass over one subarray.
struct ScrubOutcome {
  std::size_t columns_probed = 0;
  std::size_t columns_degraded = 0;  ///< detected deviant this pass
  std::size_t columns_repaired = 0;  ///< in-place rewrite restored them
  std::size_t columns_stuck = 0;     ///< still deviant after the rewrite
  std::vector<std::size_t> migrated_users;  ///< moved off stuck columns
  bool quarantined = false;  ///< subarray crossed the failure threshold
  SubarrayHealth health = SubarrayHealth::Healthy;
};

struct OvtStoreConfig {
  std::size_t n_shards = 2;
  retrieval::Algorithm algorithm = retrieval::Algorithm::SSA;
  retrieval::ScaledSearchConfig ssa;
  cim::CrossbarConfig crossbar;
  nvm::VariationModel variation;
  TwoPhaseConfig two_phase;
  /// Online tenant lifecycle: admit/evict/migrate/rebalance and fault
  /// repair after build(), plus build-time capacity headroom for admits.
  /// Off: the store is fixed after build(), with no headroom columns.
  LifecycleConfig lifecycle;
};

/// Multi-tenant OVT key store: packs many users' encoded prompt keys into a
/// small number of shared crossbar shards. Each shard is one CimRetriever
/// (per-scale accelerator banks) whose key columns a SlotAllocator hands
/// out; a user owns a contiguous key range [begin, end) within its shard,
/// and retrieval for a user argmaxes only inside that range. Users are
/// assigned to the least-loaded shard at registration, so shards stay
/// balanced without a separate placement pass.
///
/// Every key column carries its own quantization scale and a noise stream
/// derived from its (subarray, column) position, so a column's cells depend
/// only on its key and its place — never on which other columns were
/// programmed, in what order or in which call. build() therefore equals any
/// sequence of admissions that reaches the same placement, bit for bit.
///
/// With TwoPhaseConfig::enabled, build() additionally clusters every user's
/// keys (k-means, k per Eq. 2) and quantizes a centroid sketch plane;
/// route_candidates() then ranks centroids per query through the sketch
/// and emits candidate masks the slot-span scoring path consumes.
///
/// With LifecycleConfig::enabled, build() provisions ⌈1.5 × tail⌉ columns
/// per shard and the store stays mutable after it:
///   - user → slot/router state lives in an epoch-versioned TenantDirectory
///     (immutable snapshots, copy-on-write publishes); in-flight batches
///     pin() one snapshot and serve every stage against it;
///   - admit_user() allocates a slot (least-loaded shard, block-aligned when
///     routing benefits), programs the new key columns into the shard's
///     crossbars (bit-identical to a from-scratch build containing the
///     user, without touching any other column), builds the user's
///     candidate router, and publishes a new epoch;
///   - evict_user() unpublishes the slot; the columns are reprogrammed only
///     after every reader pinned to an older epoch drains (epoch-based slot
///     reclamation in SlotAllocator);
///   - migrate_user()/plan_rebalance() move slot ranges from overloaded to
///     underloaded shards with the same program-then-publish-then-free
///     protocol, so serving never quiesces.
///
/// Thread-safety: per-shard mutexes — queries against different shards
/// proceed concurrently; queries against one shard serialize (the crossbar
/// op counters make bank reads non-const). Every column write — build,
/// admission span, migration, scrub repair — goes through one writer that
/// programs spans of at most 32 columns, never crossing a subarray, and
/// holds the shard mutex for one span at a time, so a write excludes that
/// shard's queries for one span, never a whole slot or pass. Lifecycle
/// mutations serialize on one store-level mutex. Routing reads an immutable
/// snapshot and needs no lock.
class ShardedOvtStore {
 public:
  using UserSlot = serve::UserSlot;

  /// Reusable phase-1 buffers (one per serving worker): the sketched query
  /// row, per-centroid scores and the centroid ranking order.
  struct RouteScratch {
    std::vector<float> qsketch;
    std::vector<float> centroid_scores;
    std::vector<std::uint32_t> order;
  };

  explicit ShardedOvtStore(OvtStoreConfig cfg);

  /// Register a user's retrieval keys (all users must share one key shape).
  /// Before build(): records the user for the initial build. After build():
  /// hard error without the lifecycle subsystem; with it, forwards to
  /// admit_user() — the live-admission path.
  void add_user(std::size_t user_id, const std::vector<Matrix>& keys);

  /// Program every shard's crossbar banks (and, with two-phase retrieval
  /// enabled, build every user's candidate router). Call once after
  /// registration. Shards build in parallel on short-lived threads (up to
  /// one per shard, the caller included); the result is bit-identical to a
  /// serial build. If a shard's build throws, every thread is joined and
  /// the lowest failing shard's exception is rethrown.
  void build(Rng& rng);
  bool built() const { return built_; }

  // ---- Online tenant lifecycle (requires LifecycleConfig::enabled) ----

  /// Admit a user while serving: allocate a slot, program the keys into the
  /// target shard's crossbars, build the candidate router (two-phase), and
  /// publish a new directory epoch. The user's retrieval results are
  /// bit-identical to a from-scratch build that placed it in the same slot,
  /// and no other user's scores change. Implemented as
  /// stage_admit() → program_span()× → commit_admit() on the caller thread,
  /// so the synchronous and write-behind paths are the same code.
  void admit_user(std::size_t user_id, const std::vector<Matrix>& keys);

  // ---- Staged (write-behind) admission ----
  //
  // The three-step protocol behind asynchronous admission: stage_admit()
  // does every placement decision (shard choice, slot allocation, capacity
  // provisioning, router build) under the lifecycle lock and publishes the
  // slot as PENDING; program_span() programs one span of the column writer
  // under that shard's lock only (callable from any worker, in any order —
  // each column draws from its own position-derived stream); commit_admit()
  // flips the tenant live once every span is programmed. The programmed
  // cells are bit-identical to a synchronous admit_user() and to a
  // from-scratch build with the same placement.

  /// One staged admission: the placement plus the programming spans still
  /// to run. `keys` is a stable copy shared with the programming tasks;
  /// `spans` are the column writer's [first, last) shard-column ranges: at
  /// most 32 columns each, never crossing a subarray.
  struct StagedAdmission {
    std::size_t user_id = 0;
    std::size_t shard = 0;
    std::size_t begin = 0;
    std::shared_ptr<const std::vector<Matrix>> keys;
    std::vector<std::pair<std::size_t, std::size_t>> spans;
  };

  /// Stage an admission: place, allocate, provision crossbar capacity,
  /// build the router and publish the slot as pending. The tenant is not
  /// queryable until commit_admit().
  StagedAdmission stage_admit(std::size_t user_id, const std::vector<Matrix>& keys);

  /// Program one staged span (spans[idx]) into the target shard through the
  /// column writer. Takes only that shard's lock — serving on other shards
  /// is untouched, and this shard is blocked for one span, not the whole
  /// slot.
  void program_span(const StagedAdmission& staged, std::size_t idx);

  /// Flip a staged tenant live (all spans programmed). Publishes the epoch
  /// that makes the user queryable.
  void commit_admit(std::size_t user_id);

  /// Roll a staged admission back (programming failed): unpublish the slot
  /// and return its columns to the allocator. No-op if already settled.
  void abort_admit(std::size_t user_id);

  /// True when the user's slot exists AND its columns are fully programmed
  /// (i.e. not mid-write-behind). The submit-gate for async admission.
  bool user_live(std::size_t user_id) const;

  /// Evict a user: unpublish its slot and router. The key columns are left
  /// in place (in-flight batches pinned to older epochs may still read
  /// them) and become reusable once those readers drain.
  void evict_user(std::size_t user_id);

  /// Move one user's slot to `to_shard`: program its keys there, republish
  /// the directory, free the old range (epoch-deferred). The keys go
  /// through the column writer, so the target shard's queries wait for one
  /// span at a time, not the whole slot. The router is untouched — cluster
  /// membership is slot-local. The user's post-move results are
  /// bit-identical to a from-scratch build with that placement.
  void migrate_user(std::size_t user_id, std::size_t to_shard);

  /// Deterministic migration plan moving users from overloaded to
  /// underloaded shards: a shard is overloaded above 1.25 × the mean
  /// occupied keys, and one cycle plans at most 4 migrations.
  std::vector<Migration> plan_rebalance() const;

  /// Pin the current directory epoch: the returned view is immutable and
  /// defers reuse of any slot freed after it was taken. One per batch.
  PinnedDirectory pin() const;
  std::uint64_t epoch() const { return directory_.epoch(); }

  /// Occupied key columns of one shard (allocated slots, not capacity).
  std::size_t shard_occupied(std::size_t shard) const;
  /// Candidate routers (re)built after the initial build() — admits and
  /// explicit refreshes. Per-user routers make the refresh inherently
  /// incremental: membership changes never re-cluster other tenants.
  std::size_t router_refreshes() const;

  // ---- Query-path API ----

  std::size_t n_shards() const { return shards_.size(); }
  std::size_t n_users() const;
  std::size_t n_keys() const;
  /// Score-row width of one shard: its crossbar capacity (occupied + free
  /// columns, whole subarrays). 0 for an empty shard. Valid after build().
  std::size_t shard_keys(std::size_t shard) const;
  bool has_user(std::size_t user_id) const;
  /// Current placement of a user (by value: a concurrent lifecycle publish
  /// must not dangle the caller). Batches should read their PinnedDirectory
  /// instead, for an epoch-consistent view.
  UserSlot slot(std::size_t user_id) const;

  /// True when build() constructed candidate routers (two-phase enabled).
  bool routed() const { return routed_; }
  /// Cluster count of one user's router (tests / diagnostics).
  std::size_t router_k(std::size_t user_id) const;

  /// Exact pass description for B queries on `shard` (row b belongs to
  /// row_users[b]): each row spans its user's whole slot, read from the
  /// pinned snapshot `snap`, so the spans always lie inside the live shard.
  static void slot_spans(const TenantSnapshot& snap, std::size_t shard,
                         const std::vector<std::size_t>& row_users, cim::PassSpans& out);

  /// Phase 1: slot_spans() plus, per row, the router's shortlist as the
  /// spans' candidate mask, resolved against the pinned snapshot `snap` —
  /// slots and routers are read from that epoch, so a concurrent
  /// admit/evict cannot tear the routing. Ranks each user's cluster
  /// centroids against the sketched query and expands the top-nprobe
  /// clusters to member keys. Every row gets at least one candidate.
  ///
  /// Returns the key columns the masked exact pass will actually compute:
  /// the fused kernel prunes at accumulator-block granularity
  /// (Crossbar::kBlockColumns), so candidate work rounds up to whole
  /// blocks — this count matches the kernel's own ADC accounting, not the
  /// (smaller) raw candidate count.
  std::size_t route_candidates(const TenantSnapshot& snap, std::size_t shard,
                               const Matrix& queries,
                               const std::vector<std::size_t>& row_users,
                               cim::PassSpans& out, RouteScratch& scratch) const;

  /// Batched scores of B flattened queries against every key of `shard`
  /// (B×key_size → B×shard_keys). All queries of the batch must target this
  /// shard; the caller masks rows to each user's slot afterwards.
  Matrix shard_scores(std::size_t shard, const Matrix& queries);

  /// shard_scores() written into caller storage with caller scratch —
  /// bit-identical, allocation-free once warm. Different shards may be
  /// queried concurrently (per-shard locking); callers running shards in
  /// parallel must pass distinct `out`/`scratch` per concurrent call.
  /// With `spans` (slot_spans() or route_candidates()), each row scores only
  /// its own slot into the compact B × spans->width() block, whose column j
  /// of row b is the user-local key j — pick winners with best_candidate().
  void shard_scores_into(std::size_t shard, const Matrix& queries, Matrix& out,
                         retrieval::CimRetriever::Scratch& scratch,
                         const cim::PassSpans* spans = nullptr);

  /// Serial reference path: best user-local OVT index for one query,
  /// through the single-query retrieval pipeline. Stays an unmasked
  /// full-width pass: it is the oracle the slot-masked batch path is
  /// tested against.
  std::size_t retrieve_user(std::size_t user_id, const Matrix& query);

  /// User-local argmax of one scores row restricted to the user's key range.
  static std::size_t best_in_slot(const Matrix& scores, std::size_t row, const UserSlot& slot);

  /// User-local argmax of one compact score row over the row's candidates
  /// (a pruned block reads 0, so non-candidates must not win the argmax).
  static std::size_t best_candidate(const Matrix& scores, std::size_t row,
                                    const cim::PassSpans& spans);

  /// Total crossbar op counters across all shards.
  cim::OpCounters counters() const;

  // ---- Device-fault tolerance (requires LifecycleConfig::enabled) ----
  //
  // The fault unit is the column-tile subarray: `sub` indexes the shard's
  // column tiles, each cols_per_subarray() key columns wide. Detection
  // compares every cell of a column against the pristine shadow recorded at
  // program time (Crossbar::probe_column) — zero false positives, 100%
  // detection of any fault that changed a cell. Repair re-programs degraded
  // columns in place from the tenants' retained keys (slot-deterministic
  // noise streams make the rewrite bit-identical to the original content);
  // columns that stay deviant after the rewrite are stuck hardware, and
  // their tenants migrate to a healthy shard. A subarray accumulating
  // unrepairable columns past the policy threshold is quarantined: its
  // columns leave the placement pool permanently.

  std::size_t cols_per_subarray() const { return cfg_.crossbar.cols; }
  /// Column-tile subarrays currently provisioned on `shard` (0 if empty).
  std::size_t shard_subarrays(std::size_t shard) const;

  /// Inject a stuck-at fault into `n_cells` cells per (row tile, bank)
  /// segment of shard column `col`. Returns total cells clamped.
  std::size_t inject_column_fault(std::size_t shard, std::size_t col, nvm::FaultKind kind,
                                  std::size_t n_cells, std::uint64_t seed);
  /// Kill subarray `sub` of `shard` (all cells stick at zero conductance).
  void kill_subarray(std::size_t shard, std::size_t sub);
  /// Retention drift across every shard's crossbars.
  void set_drift_rate(double rate_per_tick);
  void advance_age(std::uint64_t ticks);

  /// Detect-only scrub: probe every column of subarray `sub` of `shard`
  /// against its pristine programming, publish the subarray's health state
  /// and the per-shard degraded-column set. Takes the shard lock for the
  /// probes only — serving on other shards is untouched.
  ScrubReport scrub_subarray(std::size_t shard, std::size_t sub);

  /// Re-program `cols` in place from their owning tenants' retained keys:
  /// one column-writer call per run of adjacent columns of one tenant, so
  /// the shard lock is held for one span at a time. Returns the columns
  /// still deviant after the rewrite (stuck hardware or unowned — nothing
  /// to rewrite them from).
  std::vector<std::size_t> repair_columns(std::size_t shard,
                                          const std::vector<std::size_t>& cols);

  /// Full pass: scrub_subarray → repair_columns → migrate tenants still on
  /// stuck columns (needs ≥ 2 shards) → quarantine the
  /// subarray when unrepairable columns reach policy.quarantine_after.
  ScrubOutcome scrub_and_repair(std::size_t shard, std::size_t sub,
                                const ScrubPolicy& policy = {});

  /// Quarantine subarray `sub` of `shard` out of placement permanently.
  void quarantine_subarray(std::size_t shard, std::size_t sub);
  bool subarray_quarantined(std::size_t shard, std::size_t sub) const;
  SubarrayHealth subarray_health(std::size_t shard, std::size_t sub) const;
  /// Columns currently marked degraded on `shard` (detected, not yet
  /// repaired or retired).
  std::size_t degraded_columns(std::size_t shard) const;
  /// True when any column of the user's current slot is marked degraded —
  /// the engine flags (not fails) such users' responses while repair is in
  /// flight.
  bool user_degraded(std::size_t user_id) const;

 private:
  struct Shard {
    std::unique_ptr<retrieval::CimRetriever> retriever;
    SlotAllocator allocator;               ///< guarded by lifecycle_mu_
    std::atomic<std::size_t> capacity{0};  ///< score-row width
    std::mutex mu;
  };

  std::shared_ptr<const UserRouter> build_router(std::size_t user_id,
                                                 const std::vector<Matrix>& keys) const;

  using RouterList = std::vector<std::pair<std::size_t, std::shared_ptr<const UserRouter>>>;
  /// Build shard `s` — its retriever and, when routed, the routers of
  /// `users` (the shard's users in registration order) into `routers`.
  /// Touches only shard `s` and its noise base, so shards build in parallel.
  void build_shard(std::size_t s, const TenantSnapshot& snap,
                   const std::vector<std::size_t>& users, RouterList& routers);

  /// Least-loaded shard, other than `exclude` when given (migration off
  /// stuck columns); ties go to the lowest index, so placement is
  /// deterministic. Caller holds lifecycle_mu_.
  std::size_t choose_shard_locked(std::optional<std::size_t> exclude = std::nullopt) const;
  /// Slot alignment for placement: the fused kernel's
  /// accumulator-block width when two-phase pruning benefits, else 1.
  std::size_t slot_align() const;
  /// The only place a shard's retriever is created or grown: to at least
  /// `need` key columns (takes the shard lock). Caller holds lifecycle_mu_,
  /// or is build_shard(), which no other thread can race — writes then
  /// program under the shard lock alone, never racing a tile-grid grow.
  void ensure_shard_capacity_locked(std::size_t shard, std::size_t need);
  /// Cut shard columns [begin, end) into programming spans: at most 32
  /// columns each and never crossing a subarray.
  std::vector<std::pair<std::size_t, std::size_t>> write_spans(std::size_t begin,
                                                               std::size_t end) const;
  /// The column writer: program keys[0, n) into shard columns
  /// [begin, begin + n) one write_spans() span at a time, holding the shard
  /// lock for one span only. Build, admission spans, migration and scrub
  /// repair all write through it. Capacity must already cover the range.
  void write_keys(std::size_t shard, std::size_t begin, const Matrix* keys, std::size_t n);

  OvtStoreConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;
  TenantDirectory directory_;
  mutable EpochTracker epochs_;
  mutable std::mutex lifecycle_mu_;  ///< serializes admit/evict/migrate + allocators
  /// Each user's (flattened-shape) keys, retained for build(), migrations
  /// and column repair; guarded by lifecycle_mu_ post-build.
  std::unordered_map<std::size_t, std::vector<Matrix>> user_keys_;
  std::vector<std::size_t> registration_order_;  ///< pre-build users, in order
  std::vector<Rng> shard_base_rng_;              ///< per-shard noise bases
  std::size_t key_size_ = 0;
  std::size_t router_refreshes_ = 0;  ///< guarded by lifecycle_mu_
  bool built_ = false;
  bool routed_ = false;

  /// Scrubber-published health state, sized n_shards. Guarded by health_mu_,
  /// a leaf lock: taken with lifecycle_mu_ and/or a shard mutex held, never
  /// the other way around.
  mutable std::mutex health_mu_;
  /// Per-shard columns whose content currently deviates from pristine and
  /// that a tenant may still be reading (detected, not yet repaired/retired).
  std::vector<std::unordered_set<std::size_t>> degraded_cols_;
  std::vector<std::unordered_map<std::size_t, SubarrayHealth>> subarray_health_;
  /// Per-shard cumulative unrepairable columns per subarray — the
  /// quarantine_after counter.
  std::vector<std::unordered_map<std::size_t, std::size_t>> subarray_stuck_;
};

}  // namespace nvcim::serve
