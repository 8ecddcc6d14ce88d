// Serving benchmark for nvcim::serve::ServingEngine.
//
//   perfbench --workload <retrieval_bound|inference_bound|churn> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>] [--source-id <id>]
//
// One run builds a seeded workload (tenants, keys, queries, Poisson arrival
// gaps, churn tenants), serves it through a closed-loop phase (a fixed
// number of requests outstanding) and an open-loop Poisson phase (fixed
// offered rate, latency timed from each request's due time), then checks
// every answer against the engine's serial reference path and a serial
// TinyLM::classify. All timing is taken from outside the engine: submit()
// and admit() are timed by this client, never by engine internals.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics: StatsSnapshot / OpCounters deltas of an untraced run, a second
// traced run (stage self times from the engine's tracer, tracing overhead)
// and a replay of each module's public functions on the workload's shapes
// and inputs, timed through this program's own spans. The last stdout line
// is one JSON object {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "nvcim/cim/crossbar.hpp"
#include "nvcim/cim/perf.hpp"
#include "nvcim/cim/quant.hpp"
#include "nvcim/cluster/kmeans.hpp"
#include "nvcim/obs/histogram.hpp"
#include "nvcim/obs/trace.hpp"
#include "nvcim/serve/engine.hpp"

using namespace nvcim;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build";
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <retrieval_bound|inference_bound|"
               "churn> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--source-id <id>]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') usage("--seed must be a non-negative integer");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0)
        usage("--seconds must be in (0, 600]");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else if (key == "--source-id") {
      a.source_id = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

constexpr std::size_t kServingThreads = 3;  ///< + 1 generator thread = 4 cores
constexpr std::size_t kPoolSize = 1024;     ///< distinct (tenant, query) requests
constexpr std::size_t kChurnIdBase = 1000000;
constexpr std::size_t kMaxBatch = 16;
constexpr std::size_t kOutstanding = 32;  ///< closed-loop requests in flight
constexpr double kZipfS = 1.0;            ///< tenant popularity exponent
// Churn stream: every kRedirectEvery-th request goes to the newest churn
// tenant, which has kChurnKeysMult× keys; a rebalance cycle runs every
// kRebalanceEvery admissions.
constexpr std::size_t kRedirectEvery = 16;
constexpr std::size_t kChurnKeysMult = 2;
constexpr std::size_t kRebalanceEvery = 4;

struct Spec {
  std::string name;
  // Backbone (TinyLM) and autoencoder shapes.
  std::size_t d_model = 16;
  std::size_t n_layers = 1;
  std::size_t n_heads = 2;
  std::size_t code_dim = 24;
  std::size_t ae_hidden = 32;
  std::size_t n_virtual_tokens = 4;
  // Tenants and their OVT keys.
  std::size_t tenants = 32;
  std::size_t keys_per_tenant = 48;
  std::size_t key_protos = 0;  ///< >0: keys cluster around this many prototypes
  // Engine.
  std::size_t shards = 4;
  std::size_t crossbar_rows = 384;
  std::size_t crossbar_cols = 128;
  std::size_t cache_capacity = 2048;
  bool lifecycle = false;
  bool two_phase = false;
  double open_rps = 1500.0;  ///< open-loop Poisson offered rate
  /// Churn stream: one admission per this many submitted requests (0: none).
  std::size_t admit_every = 0;
};

Spec make_spec(const std::string& name) {
  Spec s;
  s.name = name;
  if (name == "retrieval_bound") {
    // Defaults.
  } else if (name == "inference_bound") {
    s.d_model = 64;
    s.n_layers = 2;
    s.n_heads = 4;
    s.code_dim = 48;
    s.ae_hidden = 256;
    s.n_virtual_tokens = 8;
    s.tenants = 64;
    s.keys_per_tenant = 6;
    // 48 keys per shard: with one 384-key shard retrieve took 73% of stage time.
    s.shards = 8;
    s.crossbar_cols = 64;
    s.cache_capacity = 64;  // < 64 × 6 (tenant, OVT) pairs, so decodes miss
    s.open_rps = 800.0;
  } else if (name == "churn") {
    s.key_protos = 6;
    s.lifecycle = true;
    s.two_phase = true;
    s.open_rps = 800.0;
    s.admit_every = 384;
  } else {
    usage(("unknown workload " + name).c_str());
  }
  return s;
}

serve::ServingConfig engine_config(const Spec& s, std::uint64_t seed) {
  serve::ServingConfig cfg;
  cfg.n_shards = s.shards;
  cfg.n_threads = kServingThreads;
  cfg.max_batch = kMaxBatch;
  cfg.min_batch = 1;
  cfg.queue_capacity = 4096;
  cfg.cache_capacity = s.cache_capacity;
  cfg.run_inference = true;
  cfg.crossbar.rows = s.crossbar_rows;
  cfg.crossbar.cols = s.crossbar_cols;
  cfg.variation = {nvm::fefet3(), 0.1};
  cfg.two_phase.enabled = s.two_phase;
  cfg.lifecycle.enabled = s.lifecycle;
  cfg.lifecycle.write_behind = true;
  cfg.seed = seed * 7919 + 17;
  return cfg;
}

struct Entry {
  std::size_t tenant = 0;
  data::Sample sample;
};

/// Everything a run generates from its seed. The engine only ever sees the
/// deployments and requests built here.
struct Inputs {
  Spec spec;
  std::uint64_t seed;
  data::LampTask task{data::lamp1_config()};
  llm::TinyLM model;
  std::shared_ptr<const compress::Autoencoder> autoencoder;
  std::vector<core::TrainedDeployment> deployments;  ///< base tenants
  std::vector<Entry> pool;                           ///< request pool, in send order

  Inputs(const Spec& s, std::uint64_t sd)
      : spec(s), seed(sd), model(make_model(s, task.vocab_size(), sd)) {
    compress::AutoencoderConfig acfg;
    acfg.input_dim = s.d_model;
    acfg.code_dim = s.code_dim;
    acfg.hidden_dim = s.ae_hidden;
    acfg.seed = sd * 31 + 5;
    autoencoder = std::make_shared<const compress::Autoencoder>(acfg);
    for (std::size_t t = 0; t < s.tenants; ++t)
      deployments.push_back(make_deployment(t, s.keys_per_tenant));

    // Zipf-skewed tenant popularity over a seeded permutation of tenants.
    Rng rng(sd * 1000003 + 11);
    std::vector<std::size_t> perm(s.tenants);
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    for (std::size_t i = perm.size(); i > 1; --i)
      std::swap(perm[i - 1], perm[rng.uniform_index(i)]);
    std::vector<double> cdf(s.tenants);
    double acc = 0.0;
    for (std::size_t r = 0; r < s.tenants; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      cdf[r] = acc;
    }
    for (double& c : cdf) c /= acc;
    pool.reserve(kPoolSize);
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      const double u = rng.uniform();
      const std::size_t r = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      Entry e;
      e.tenant = perm[std::min(r, s.tenants - 1)];
      e.sample = task.sample(rng.uniform_index(task.config().n_domains), rng);
      pool.push_back(std::move(e));
    }
  }

  static llm::TinyLM make_model(const Spec& s, std::size_t vocab, std::uint64_t sd) {
    llm::TinyLmConfig cfg;
    cfg.vocab = vocab;
    cfg.d_model = s.d_model;
    cfg.n_layers = s.n_layers;
    cfg.n_heads = s.n_heads;
    cfg.ffn_hidden = 2 * s.d_model;
    cfg.max_seq = 40;
    cfg.prompt_slots = std::max<std::size_t>(8, s.n_virtual_tokens);
    return llm::TinyLM(cfg, sd * 13 + 7);
  }

  /// Synthetic deployment (shared untrained autoencoder, random keys and
  /// payload codes): `id` seeds it, so a tenant id always has the same keys.
  core::TrainedDeployment make_deployment(std::size_t id, std::size_t n_keys) const {
    core::TrainedDeployment d;
    d.autoencoder = autoencoder;
    d.n_virtual_tokens = spec.n_virtual_tokens;
    Rng rng(seed * 2654435761ull + id * 97 + 1);
    std::vector<Matrix> protos;
    for (std::size_t p = 0; p < spec.key_protos; ++p)
      protos.push_back(
          Matrix::rand_uniform(spec.n_virtual_tokens, spec.code_dim, rng, -1.0f, 1.0f));
    for (std::size_t k = 0; k < n_keys; ++k) {
      if (protos.empty()) {
        d.keys.push_back(
            Matrix::rand_uniform(spec.n_virtual_tokens, spec.code_dim, rng, -1.0f, 1.0f));
      } else {
        Matrix key = protos[k % protos.size()];
        key += Matrix::randn(spec.n_virtual_tokens, spec.code_dim, rng, 0.08f);
        d.keys.push_back(std::move(key));
      }
      d.stored_codes.push_back(
          Matrix::rand_uniform(spec.n_virtual_tokens, spec.code_dim, rng, -1.0f, 1.0f));
      d.domains.push_back(k);
    }
    return d;
  }

  /// Poisson arrival gaps (seconds) covering `span_s` at `rps`.
  std::vector<double> arrival_gaps(double rps, double span_s) const {
    Rng rng(seed * 40503 + 1);
    std::vector<double> gaps;
    double t = 0.0;
    while (t < span_s) {
      const double g = -std::log(1.0 - rng.uniform()) / rps;
      gaps.push_back(g);
      t += g;
    }
    return gaps;
  }
};

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

/// A tenant admitted by the churn stream; `outstanding` counts its requests
/// in flight so it is evicted only once they have all completed.
struct ChurnTenant {
  std::size_t id = 0;
  std::atomic<int> outstanding{0};
  std::atomic<bool> evicted{false};
};

/// One submitted request, written by the completion callback.
struct Rec {
  Clock::time_point due{}, sub{}, done{};
  std::uint32_t entry = 0;
  std::size_t user = 0;
  std::size_t ovt = 0;
  std::size_t label = 0;
  double queue_wait_ms = 0.0;
  ChurnTenant* churn = nullptr;
  bool has_label = false;
  std::atomic<int> state{0};  ///< 0 pending, 1 served, 2 failed
};

class ChurnStream;

/// Client side of the engine: submits requests, records every completion
/// and tracks the number in flight.
class Client {
 public:
  Client(serve::ServingEngine& engine, const Inputs& in) : engine_(engine), in_(in) {}

  void set_churn(ChurnStream* churn) { churn_ = churn; }

  /// Closed loop: keep `outstanding` requests in flight for `seconds`.
  /// Returns the record range [begin, end).
  std::pair<std::size_t, std::size_t> closed(double seconds, std::size_t outstanding);
  /// Open loop: one request per Poisson arrival, timed from its due time.
  std::pair<std::size_t, std::size_t> open(const std::vector<double>& gaps);
  void drain() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return inflight_ == 0; });
  }

  std::deque<Rec>& records() { return recs_; }
  std::atomic<std::size_t>& submitted() { return submitted_; }

 private:
  void submit_one(Clock::time_point due);

  serve::ServingEngine& engine_;
  const Inputs& in_;
  ChurnStream* churn_ = nullptr;
  std::deque<Rec> recs_;  ///< stable addresses: callbacks hold Rec pointers
  std::atomic<std::size_t> submitted_{0};
  std::size_t next_ = 0;  ///< pool cursor
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t inflight_ = 0;  ///< guarded by mu_
};

/// Admit/evict/rebalance stream paced by the number of submitted requests:
/// every `admit_every` submissions a fresh tenant with kChurnKeysMult× keys
/// is admitted (write-behind) and waited for; once it is live the client's
/// redirected traffic moves to it, the previous churned tenant drains and is
/// evicted, and every `rebalance_every` admissions a rebalance cycle runs.
class ChurnStream {
 public:
  ChurnStream(serve::ServingEngine& engine, const Inputs& in, std::atomic<std::size_t>& submitted)
      : engine_(engine), in_(in), submitted_(submitted) {}
  ~ChurnStream() { join(); }
  ChurnStream(const ChurnStream&) = delete;
  ChurnStream& operator=(const ChurnStream&) = delete;

  void start() {
    stop_ = false;
    thread_ = std::thread([this] {
      try {
        loop();
      } catch (...) {
        error_ = std::current_exception();
      }
    });
  }
  /// Join the stream; rethrows an error the stream hit (the destructor only
  /// joins).
  void stop() {
    join();
    if (error_) std::rethrow_exception(error_);
  }

  /// The churned tenant taking redirected traffic (nullptr before the first
  /// admission); bumps its in-flight count under the stream lock.
  ChurnTenant* acquire_target() {
    std::lock_guard<std::mutex> lock(mu_);
    if (current_ != nullptr) current_->outstanding.fetch_add(1);
    return current_;
  }

  const std::vector<double>& admit_ms() const { return admit_ms_; }
  std::size_t evictions() const { return evictions_; }
  std::size_t rebalances() const { return rebalances_; }
  std::size_t migrations() const { return migrations_; }
  std::size_t behind() const { return behind_; }

 private:
  void join() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

  void loop() {
    std::size_t next = submitted_.load() + in_.spec.admit_every;
    while (!stop_) {
      if (submitted_.load() < next) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      // A whole cadence behind: the stream is running as fast as
      // admissions complete, not at its paced rate.
      if (submitted_.load() >= next + in_.spec.admit_every) ++behind_;
      next += in_.spec.admit_every;
      const std::size_t id = kChurnIdBase + admitted_;
      core::TrainedDeployment dep =
          in_.make_deployment(id, in_.spec.keys_per_tenant * kChurnKeysMult);
      const Clock::time_point t0 = Clock::now();
      serve::AdmissionHandle h = engine_.admit(id, std::move(dep));
      h.wait();
      admit_ms_.push_back(ms_between(t0, Clock::now()));
      ++admitted_;
      tenants_.push_back(std::make_unique<ChurnTenant>());
      tenants_.back()->id = id;
      ChurnTenant* old = nullptr;
      {
        std::lock_guard<std::mutex> lock(mu_);
        old = current_;
        current_ = tenants_.back().get();
      }
      if (old != nullptr) {
        // Requests already sent to the old tenant always complete; evicting
        // before they do would fail them.
        while (old->outstanding.load() > 0)
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        engine_.evict_user(old->id);
        old->evicted = true;
        ++evictions_;
      }
      if (admitted_ % kRebalanceEvery == 0) {
        migrations_ += engine_.rebalance();
        ++rebalances_;
      }
    }
  }

  serve::ServingEngine& engine_;
  const Inputs& in_;
  std::atomic<std::size_t>& submitted_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::exception_ptr error_;  ///< written by the stream thread before it exits
  std::mutex mu_;
  ChurnTenant* current_ = nullptr;  ///< guarded by mu_
  std::deque<std::unique_ptr<ChurnTenant>> tenants_;
  std::vector<double> admit_ms_;
  std::size_t admitted_ = 0;
  std::size_t evictions_ = 0;
  std::size_t rebalances_ = 0;
  std::size_t migrations_ = 0;
  std::size_t behind_ = 0;
};

void Client::submit_one(Clock::time_point due) {
  const std::size_t k = next_++;
  recs_.emplace_back();
  Rec* rec = &recs_.back();
  rec->entry = static_cast<std::uint32_t>(k % in_.pool.size());
  const Entry& e = in_.pool[rec->entry];
  rec->user = e.tenant;
  if (churn_ != nullptr && k % kRedirectEvery == 0) {
    rec->churn = churn_->acquire_target();
    if (rec->churn != nullptr) rec->user = rec->churn->id;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++inflight_;
  }
  serve::SubmitOptions opts;
  opts.on_complete = [this, rec](const serve::Response& r, std::exception_ptr err) {
    rec->done = Clock::now();
    if (err == nullptr) {
      rec->ovt = r.ovt_index;
      rec->label = r.label;
      rec->has_label = r.has_label;
      rec->queue_wait_ms = r.queue_wait_ms;
    }
    rec->state.store(err == nullptr ? 1 : 2);
    if (rec->churn != nullptr) rec->churn->outstanding.fetch_sub(1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_;
    }
    cv_.notify_all();
  };
  rec->due = due;
  rec->sub = Clock::now();
  submitted_.fetch_add(1);
  (void)engine_.submit(serve::Request{rec->user, e.sample}, std::move(opts));
}

std::pair<std::size_t, std::size_t> Client::closed(double seconds, std::size_t outstanding) {
  const std::size_t begin = recs_.size();
  const Clock::time_point t_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < t_end) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return inflight_ < outstanding; });
    }
    submit_one(Clock::now());
  }
  drain();
  return {begin, recs_.size()};
}

std::pair<std::size_t, std::size_t> Client::open(const std::vector<double>& gaps) {
  const std::size_t begin = recs_.size();
  // Sleep to just before each due time, then spin the last stretch: the
  // sleep's wake-up jitter stays out of the schedule without the generator
  // burning its whole core (a spinning virtual CPU is preempted by its host).
  const auto spin = std::chrono::microseconds(200);
  Clock::time_point due = Clock::now();
  for (const double g : gaps) {
    due += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(g));
    std::this_thread::sleep_until(due - spin);
    while (Clock::now() < due) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    submit_one(due);
  }
  drain();
  return {begin, recs_.size()};
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

cim::OpCounters counters_delta(const cim::OpCounters& a, const cim::OpCounters& b) {
  cim::OpCounters d;
  d.subarray_activations = b.subarray_activations - a.subarray_activations;
  d.adc_conversions = b.adc_conversions - a.adc_conversions;
  d.cells_programmed = b.cells_programmed - a.cells_programmed;
  d.write_pulses = b.write_pulses - a.write_pulses;
  return d;
}

/// Stats snapshot after the last batch's stage times landed (the engine
/// records them just after settling the batch's futures).
serve::StatsSnapshot settled_stats(const serve::ServingEngine& engine) {
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  return engine.stats();
}

std::unique_ptr<serve::ServingEngine> build_engine(Inputs& in, const serve::ServingConfig& cfg,
                                                   double* setup_s) {
  std::vector<core::TrainedDeployment> deps = in.deployments;  // copied outside the timer
  const Clock::time_point t0 = Clock::now();
  auto engine = std::make_unique<serve::ServingEngine>(in.model, in.task, cfg);
  for (std::size_t t = 0; t < deps.size(); ++t) engine->add_deployment(t, std::move(deps[t]));
  engine->start();
  if (setup_s != nullptr) *setup_s = ms_between(t0, Clock::now()) / 1000.0;
  return engine;
}

/// Closed + open phases of one workload on one engine, with the churn
/// stream (if any) running across both.
struct ServeResult {
  std::pair<std::size_t, std::size_t> closed, open;
  serve::StatsSnapshot s0, s1;
  cim::OpCounters c0, c1;
  std::size_t decodes = 0, coalesced = 0;
  std::vector<double> admit_ms;
  std::size_t evictions = 0, rebalances = 0, migrations = 0, behind = 0;
  /// Kept alive with the result: records point at its ChurnTenant objects.
  std::unique_ptr<ChurnStream> churn;
};

ServeResult serve_phases(serve::ServingEngine& engine, Client& client, const Inputs& in,
                         double closed_s, const std::vector<double>* open_gaps) {
  ServeResult r;
  std::unique_ptr<ChurnStream> churn;
  if (in.spec.admit_every > 0) {
    churn = std::make_unique<ChurnStream>(engine, in, client.submitted());
    client.set_churn(churn.get());
  }
  r.s0 = settled_stats(engine);
  r.c0 = engine.store().counters();
  const std::size_t dec0 = engine.prompt_decodes(), coal0 = engine.coalesced_fetches();
  if (churn) churn->start();
  r.closed = client.closed(closed_s, kOutstanding);
  if (open_gaps != nullptr) r.open = client.open(*open_gaps);
  if (churn) {
    client.drain();  // no callback may outlive the client, even if the stream failed
    churn->stop();
    r.admit_ms = churn->admit_ms();
    r.evictions = churn->evictions();
    r.rebalances = churn->rebalances();
    r.migrations = churn->migrations();
    r.behind = churn->behind();
  }
  r.s1 = settled_stats(engine);
  r.c1 = engine.store().counters();
  r.decodes = engine.prompt_decodes() - dec0;
  r.coalesced = engine.coalesced_fetches() - coal0;
  client.set_churn(nullptr);
  r.churn = std::move(churn);
  return r;
}

/// Completion statistics of one record range.
struct RangeStats {
  std::size_t n = 0, served = 0, failed = 0;
  std::vector<double> latency_ms, queue_wait_ms, late_ms;
};

RangeStats range_stats(std::deque<Rec>& recs, std::pair<std::size_t, std::size_t> range,
                       bool from_due) {
  RangeStats s;
  for (std::size_t i = range.first; i < range.second; ++i) {
    Rec& r = recs[i];
    ++s.n;
    if (r.state.load() != 1) {
      ++s.failed;
      continue;
    }
    ++s.served;
    s.latency_ms.push_back(ms_between(from_due ? r.due : r.sub, r.done));
    s.queue_wait_ms.push_back(r.queue_wait_ms);
    s.late_ms.push_back(ms_between(r.due, r.sub));
  }
  return s;
}

/// Per-window figures of one phase: requests bucketed by due time (the
/// submit time in a closed loop) into equal windows; throughput is
/// submissions per second (a closed loop submits one request per
/// completion), latencies are each window's percentiles. Medians across
/// windows ride out a short stall of the host.
struct Windows {
  std::vector<double> rps, p50, p99;
};

Windows phase_windows(std::deque<Rec>& recs, std::pair<std::size_t, std::size_t> range,
                      double span_s, double win_s, bool from_due) {
  const std::size_t n = std::max<std::size_t>(1, static_cast<std::size_t>(span_s / win_s));
  const double len_s = span_s / static_cast<double>(n);
  if (range.first == range.second) return {};
  std::vector<std::size_t> count(n, 0);
  std::vector<std::vector<double>> lat(n);
  const Clock::time_point t0 = recs[range.first].due;
  for (std::size_t i = range.first; i < range.second; ++i) {
    const Rec& r = recs[i];
    const double at_s = ms_between(t0, r.due) / 1000.0;
    const std::size_t w = std::min(n - 1, static_cast<std::size_t>(std::max(0.0, at_s / len_s)));
    ++count[w];
    if (r.state.load() == 1) lat[w].push_back(ms_between(from_due ? r.due : r.sub, r.done));
  }
  Windows out;
  for (std::size_t w = 0; w < n; ++w) {
    out.rps.push_back(static_cast<double>(count[w]) / len_s);
    out.p50.push_back(percentile(lat[w], 0.5));
    out.p99.push_back(percentile(lat[w], 0.99));
  }
  return out;
}

/// Correctness of every served answer against the serial references:
/// retrieval against ServingEngine::retrieve_serial, labels against a serial
/// TinyLM::classify on the decoded prompt of the returned OVT. References
/// are computed once per distinct (tenant, query[, OVT]) and compared with
/// every answer. Requests to tenants evicted before the check are skipped.
struct CheckResult {
  std::size_t checked = 0, retrieval_matches = 0;
  std::size_t labels_checked = 0, label_mismatches = 0;
};

/// Run fn(i) for i in [0, n) on kServingThreads + 1 threads (the serving
/// workers are idle while answers are checked).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  std::exception_ptr error;
  std::mutex error_mu;
  for (std::size_t t = 0; t <= kServingThreads; ++t)
    threads.emplace_back([&] {
      try {
        for (std::size_t i = next++; i < n; i = next++) fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        error = std::current_exception();
      }
    });
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

CheckResult check_answers(serve::ServingEngine& engine, const Inputs& in, std::deque<Rec>& recs,
                          std::size_t begin, std::size_t end) {
  const auto live = [&recs](std::size_t i) {
    const Rec& r = recs[i];
    return r.state.load() == 1 && !(r.churn != nullptr && r.churn->evicted.load());
  };
  // Distinct reference computations, filled in parallel (no insertions
  // while the threads run).
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> ref_ovt;  // (user, entry)
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>, std::size_t> ref_label;
  for (std::size_t i = begin; i < end; ++i) {
    if (!live(i)) continue;
    const Rec& r = recs[i];
    ref_ovt.emplace(std::make_pair(r.user, static_cast<std::size_t>(r.entry)), 0);
    if (r.has_label)
      ref_label.emplace(std::make_tuple(r.user, static_cast<std::size_t>(r.entry), r.ovt), 0);
  }
  std::vector<std::pair<const std::pair<std::size_t, std::size_t>, std::size_t>*> ovt_jobs;
  for (auto& kv : ref_ovt) ovt_jobs.push_back(&kv);
  parallel_for(ovt_jobs.size(), [&](std::size_t j) {
    const auto& [user, entry] = ovt_jobs[j]->first;
    ovt_jobs[j]->second = engine.retrieve_serial(user, in.pool[entry].sample);
  });
  std::vector<std::pair<const std::tuple<std::size_t, std::size_t, std::size_t>, std::size_t>*>
      label_jobs;
  for (auto& kv : ref_label) label_jobs.push_back(&kv);
  parallel_for(label_jobs.size(), [&](std::size_t j) {
    const auto& [user, entry, ovt] = label_jobs[j]->first;
    const Matrix prompt = engine.deployment(user).decode_prompt(ovt);
    label_jobs[j]->second =
        in.model.classify(in.pool[entry].sample.input, in.task.label_ids(), &prompt);
  });

  CheckResult c;
  for (std::size_t i = begin; i < end; ++i) {
    if (!live(i)) continue;
    const Rec& r = recs[i];
    ++c.checked;
    if (ref_ovt.at({r.user, r.entry}) == r.ovt) ++c.retrieval_matches;
    if (!r.has_label) continue;
    ++c.labels_checked;
    if (ref_label.at({r.user, r.entry, r.ovt}) != r.label) ++c.label_mismatches;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Host metadata
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') o.push_back('\\');
    if (static_cast<unsigned char>(ch) >= 0x20) o.push_back(ch);
  }
  return o;
}

std::string host_block(const std::string& source_id) {
  std::string cpu = "unknown";
  std::uint64_t isa_hash = 0;
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    cpu = brand;
    cpu.erase(0, cpu.find_first_not_of(' '));
  }
  // FNV-1a over the feature words of CPUID leaves 1 and 7.
  unsigned int f[8] = {};
  __get_cpuid(1u, &f[0], &f[1], &f[2], &f[3]);
  __get_cpuid_count(7u, 0u, &f[4], &f[5], &f[6], &f[7]);
  const unsigned int words[] = {f[2], f[3], f[5], f[6], f[7]};
  isa_hash = 1469598103934665603ull;
  for (const unsigned int w : words)
    for (int b = 0; b < 4; ++b) {
      isa_hash ^= (w >> (8 * b)) & 0xffu;
      isa_hash *= 1099511628211ull;
    }
#endif
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %ld, \"cpu_model\": \"%s\", \"isa_flags_hash\": \"%016llx\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", \"march_native\": %s, "
                "\"source\": \"%s\"}",
                sysconf(_SC_NPROCESSORS_ONLN), json_escape(cpu).c_str(),
                static_cast<unsigned long long>(isa_hash), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, PERFBENCH_MARCH_NATIVE ? "true" : "false",
                json_escape(source_id).c_str());
  return buf;
}

// ---------------------------------------------------------------------------
// Traced-run analysis
// ---------------------------------------------------------------------------

struct SpanAgg {
  std::size_t n = 0;
  double total_us = 0.0;
  double self_us = 0.0;  ///< total minus direct same-thread child spans
};

/// Per-name totals and self times of the engine's spans. Request spans are
/// cross-cutting (they start at enqueue, before any batch) and are left out
/// of the nesting; every other span nests on its recording thread.
std::map<std::string, SpanAgg> span_table(const std::vector<obs::TraceEvent>& events) {
  std::map<std::uint32_t, std::vector<const obs::TraceEvent*>> by_tid;
  for (const obs::TraceEvent& e : events)
    if (std::strcmp(e.cat, "request") != 0) by_tid[e.tid].push_back(&e);
  std::map<std::string, SpanAgg> table;
  for (auto& [tid, evs] : by_tid) {
    (void)tid;
    std::sort(evs.begin(), evs.end(), [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    std::vector<std::pair<const obs::TraceEvent*, double>> stack;  // (span, child time)
    const auto close = [&table](const std::pair<const obs::TraceEvent*, double>& top) {
      SpanAgg& a = table[top.first->name];
      ++a.n;
      a.total_us += top.first->dur_us;
      a.self_us += top.first->dur_us - top.second;
    };
    for (const obs::TraceEvent* e : evs) {
      while (!stack.empty() &&
             stack.back().first->ts_us + stack.back().first->dur_us <= e->ts_us) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty() &&
          e->ts_us + e->dur_us <= stack.back().first->ts_us + stack.back().first->dur_us)
        stack.back().second += e->dur_us;
      stack.emplace_back(e, 0.0);
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return table;
}

// ---------------------------------------------------------------------------
// Layer replay: direct calls into each module's public API, each call
// wrapped in one of this program's spans; metrics are span-duration medians.
// ---------------------------------------------------------------------------

class Replay {
 public:
  Replay() : tracer_(obs::TracerConfig{true, 1 << 14}) {}

  /// Time `fn`: 3 warm-up calls, then at least 5 and at most 400 calls
  /// within 0.15 s.
  void run(const char* name, const std::function<void()>& fn) {
    for (int i = 0; i < 3; ++i) fn();
    const Clock::time_point t_end = Clock::now() + std::chrono::milliseconds(150);
    for (std::size_t i = 0; i < 400 && (i < 5 || Clock::now() < t_end); ++i) {
      obs::Span span(&tracer_, name, "replay");
      fn();
    }
  }

  obs::Tracer& tracer() { return tracer_; }

  /// Span durations (µs) per span name.
  std::map<std::string, std::vector<double>> durations() const {
    std::map<std::string, std::vector<double>> by_name;
    for (const obs::TraceEvent& e : tracer_.events()) by_name[e.name].push_back(e.dur_us);
    return by_name;
  }

 private:
  obs::Tracer tracer_;
};

struct ReplayInputs {
  std::vector<const core::TrainedDeployment*> deps;
  std::vector<const data::Sample*> queries;
  std::vector<std::size_t> ovts;  ///< OVT each request retrieved in the run
};

std::vector<Metric> replay_layers(const Inputs& in, const serve::ServingConfig& cfg,
                                  serve::ServingEngine& engine, const ReplayInputs& ri,
                                  const std::string& trace_path) {
  const Spec& s = in.spec;
  const std::size_t B = ri.deps.size();
  Replay rp;
  obs::Tracer* tr = &rp.tracer();

  // core: batched query encode (embed + resample + one autoencoder GEMM).
  core::EncodeScratch enc_scratch;
  Matrix reps;
  rp.run("core.encode_batch", [&] {
    reps = core::TrainedDeployment::query_representation_batch(in.model, ri.deps, ri.queries,
                                                               &enc_scratch);
  });

  // compress: the encode and decode GEMMs on this batch's stacked rows.
  std::vector<Matrix> resampled;
  std::vector<const Matrix*> parts;
  for (const data::Sample* q : ri.queries)
    resampled.push_back(resample_rows(in.model.embed(q->input), s.n_virtual_tokens));
  for (const Matrix& m : resampled) parts.push_back(&m);
  const Matrix stacked = stack_rows(parts);
  compress::Autoencoder::Scratch ae_scratch;
  Matrix ae_out;
  rp.run("compress.encode", [&] { in.autoencoder->encode_into(stacked, ae_out, &ae_scratch); });
  std::vector<const Matrix*> code_parts;
  for (std::size_t b = 0; b < B; ++b) code_parts.push_back(&ri.deps[b]->stored_codes[ri.ovts[b]]);
  const Matrix codes = stack_rows(code_parts);
  rp.run("compress.decode", [&] { in.autoencoder->decode_into(codes, ae_out, &ae_scratch); });

  // tensor: the autoencoder's first encode GEMM shape (B·tokens × d_model ·
  // d_model × hidden).
  Rng wrng(in.seed * 5 + 3);
  const Matrix w = Matrix::rand_uniform(s.d_model, s.ae_hidden, wrng, -0.5f, 0.5f);
  Matrix mm_out;
  rp.run("tensor.matmul", [&] { matmul_into(stacked, w, mm_out); });

  // llm: batched classification with the decoded prompts of this batch.
  std::vector<Matrix> prompts;
  for (std::size_t b = 0; b < B; ++b) prompts.push_back(ri.deps[b]->decode_prompt(ri.ovts[b]));
  std::vector<const std::vector<int>*> seqs;
  std::vector<const Matrix*> prompt_ptrs;
  for (std::size_t b = 0; b < B; ++b) {
    seqs.push_back(&ri.queries[b]->input);
    prompt_ptrs.push_back(&prompts[b]);
  }
  rp.run("llm.classify_batch",
         [&] { (void)in.model.classify_batch(seqs, in.task.label_ids(), prompt_ptrs); });

  // cim: one crossbar subarray of the workload's geometry, programmed with
  // the workload's quantized keys (key values stacked down the rows).
  const std::size_t R = s.crossbar_rows, C = s.crossbar_cols;
  std::vector<const Matrix*> all_keys;
  for (const core::TrainedDeployment& d : in.deployments)
    for (const Matrix& k : d.keys) all_keys.push_back(&k);
  const std::size_t L = all_keys[0]->size();
  Matrix wmat(R, C);
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t c = 0; c < C; ++c)
      wmat(r, c) = all_keys[(c + (r / L) * C) % all_keys.size()]->at_flat(r % L);
  const cim::QuantizedMatrix q =
      cim::quantize_symmetric(wmat, static_cast<int>(cfg.crossbar.value_bits));
  cim::Crossbar xbar(cfg.crossbar);
  Rng xrng(in.seed * 3 + 1);
  xbar.program(q.q, cfg.variation, xrng);
  Matrix xin(B, R);
  for (std::size_t b = 0; b < B; ++b)
    for (std::size_t r = 0; r < R; ++r) xin(b, r) = reps(b, r % reps.cols());
  Matrix xout;
  rp.run("cim.matvec_batch", [&] { xout = xbar.matvec_batch(xin); });

  // retrieval: one shard's worth of keys in a standalone CimRetriever.
  retrieval::CimRetriever::Config rcfg;
  rcfg.algorithm = cfg.algorithm;
  rcfg.ssa = cfg.ssa;
  rcfg.crossbar = cfg.crossbar;
  rcfg.variation = cfg.variation;
  retrieval::CimRetriever retriever(rcfg);
  const std::size_t shard_keys = std::max<std::size_t>(1, all_keys.size() / s.shards);
  std::vector<Matrix> rkeys;
  for (std::size_t i = 0; i < shard_keys; ++i) rkeys.push_back(*all_keys[i]);
  Rng rrng(in.seed * 11 + 2);
  retriever.store(rkeys, rrng);
  retrieval::CimRetriever::Scratch rscratch;
  Matrix rout;
  rp.run("retrieval.scores_batch", [&] { retriever.scores_batch_into(reps, rout, rscratch); });

  // serve.ovt_store: the engine's own shard 0 (workers stopped), one caller
  // and then kServingThreads concurrent callers on the same shard.
  serve::ShardedOvtStore& store = engine.store_mutable();
  retrieval::CimRetriever::Scratch sscratch;
  Matrix sout;
  rp.run("serve.ovt_store.shard_scores", [&] { store.shard_scores_into(0, reps, sout, sscratch); });
  {
    // kServingThreads callers released together on the same shard.
    std::atomic<std::size_t> ready{0};
    std::vector<retrieval::CimRetriever::Scratch> scratch(kServingThreads);
    std::vector<Matrix> outs(kServingThreads);
    parallel_for(kServingThreads, [&](std::size_t t) {
      store.shard_scores_into(0, reps, outs[t], scratch[t]);  // warm
      ready.fetch_add(1);
      while (ready.load() < kServingThreads) std::this_thread::yield();
      for (int i = 0; i < 60; ++i) {
        obs::Span span(tr, "serve.ovt_store.shard_scores_contended", "replay");
        store.shard_scores_into(0, reps, outs[t], scratch[t]);
      }
    });
  }

  // cluster: one tenant's router k-means (Eq. 2 k selection).
  std::vector<Matrix> points;
  const core::TrainedDeployment churn_like = in.make_deployment(
      kChurnIdBase - 1, s.keys_per_tenant * (s.admit_every > 0 ? kChurnKeysMult : 1));
  for (const Matrix& k : churn_like.keys) points.push_back(k.flattened());
  serve::TwoPhaseConfig tp;
  const std::size_t k_sel = cluster::select_k(points.size(), tp.k_select);
  rp.run("cluster.kmeans", [&] { (void)cluster::kmeans(points, k_sel, tp.kmeans); });

  // cim.program_ms: the workload's own store build (what start() does).
  serve::OvtStoreConfig sc;
  sc.n_shards = cfg.n_shards;
  sc.algorithm = cfg.algorithm;
  sc.ssa = cfg.ssa;
  sc.crossbar = cfg.crossbar;
  sc.variation = cfg.variation;
  sc.two_phase = cfg.two_phase;
  sc.lifecycle = cfg.lifecycle;
  std::unique_ptr<serve::ShardedOvtStore> built;
  for (int rep = 0; rep < 3; ++rep) {
    built = std::make_unique<serve::ShardedOvtStore>(sc);
    for (std::size_t t = 0; t < in.deployments.size(); ++t)
      built->add_user(t, in.deployments[t].keys);
    Rng brng(cfg.seed);
    obs::Span span(tr, "cim.program", "replay");
    built->build(brng);
  }

  // serve.ovt_store staged admission (lifecycle store with the workload's
  // placement and routing), one admitted-then-evicted tenant at a time.
  if (!sc.lifecycle.enabled) {
    sc.lifecycle.enabled = true;
    built = std::make_unique<serve::ShardedOvtStore>(sc);
    for (std::size_t t = 0; t < in.deployments.size(); ++t)
      built->add_user(t, in.deployments[t].keys);
    Rng brng(cfg.seed);
    built->build(brng);
  }
  const std::size_t admits = 16;
  const cim::OpCounters a0 = built->counters();
  for (std::size_t i = 0; i < admits; ++i) {
    const std::size_t id = kChurnIdBase + 500000 + i;
    const core::TrainedDeployment d = in.make_deployment(id, churn_like.keys.size());
    serve::ShardedOvtStore::StagedAdmission staged;
    {
      obs::Span span(tr, "serve.ovt_store.stage_admit", "replay");
      staged = built->stage_admit(id, d.keys);
    }
    for (std::size_t sp = 0; sp < staged.spans.size(); ++sp) {
      obs::Span span(tr, "serve.ovt_store.program_span", "replay");
      built->program_span(staged, sp);
    }
    {
      obs::Span span(tr, "serve.ovt_store.commit_admit", "replay");
      built->commit_admit(id);
    }
    built->evict_user(id);
  }
  const cim::OpCounters adm = counters_delta(a0, built->counters());

  // obs: histogram record cost, 200k records per span.
  constexpr int kRecords = 200000;
  obs::Histogram hist;
  for (int rep = 0; rep < 5; ++rep) {
    obs::Span span(tr, "obs.histogram_record_200k", "replay");
    for (int i = 0; i < kRecords; ++i) hist.record(0.05 + 0.001 * static_cast<double>(i & 1023));
  }

  (void)rp.tracer().write_chrome_trace_file(trace_path);
  std::map<std::string, double> med;
  for (const auto& [name, v] : rp.durations()) med[name] = median(v);
  // Contended calls: the mean, not the median — with an unfair mutex one
  // thread re-acquires back to back while the others absorb the whole wait.
  const double contended_us = mean(rp.durations()["serve.ovt_store.shard_scores_contended"]);
  const double mm_flops = 2.0 * static_cast<double>(stacked.rows()) *
                          static_cast<double>(stacked.cols()) * static_cast<double>(w.cols());
  std::vector<Metric> m;
  m.push_back({"cim.matvec_batch_us", med["cim.matvec_batch"], "us"});
  m.push_back({"retrieval.scores_batch_us", med["retrieval.scores_batch"], "us"});
  m.push_back({"serve.ovt_store.shard_scores_us", med["serve.ovt_store.shard_scores"], "us"});
  m.push_back({"serve.ovt_store.shard_scores_contended_us", contended_us, "us"});
  m.push_back({"core.encode_batch_us", med["core.encode_batch"], "us"});
  m.push_back({"compress.encode_us", med["compress.encode"], "us"});
  m.push_back({"compress.decode_us", med["compress.decode"], "us"});
  m.push_back({"llm.classify_batch_us", med["llm.classify_batch"], "us"});
  m.push_back({"tensor.matmul_gflops", mm_flops / (med["tensor.matmul"] * 1e3), "GFLOP/s"});
  m.push_back({"obs.histogram_record_ns", med["obs.histogram_record_200k"] * 1e3 / kRecords, "ns"});
  m.push_back({"serve.ovt_store.stage_admit_us", med["serve.ovt_store.stage_admit"], "us"});
  m.push_back({"serve.ovt_store.program_span_us", med["serve.ovt_store.program_span"], "us"});
  m.push_back({"serve.ovt_store.commit_admit_us", med["serve.ovt_store.commit_admit"], "us"});
  m.push_back({"cluster.kmeans_us", med["cluster.kmeans"], "us"});
  m.push_back({"cim.cells_programmed_per_admit",
               static_cast<double>(adm.cells_programmed) / static_cast<double>(admits), "count"});
  m.push_back({"cim.write_pulses_per_admit",
               static_cast<double>(adm.write_pulses) / static_cast<double>(admits), "count"});
  m.push_back({"cim.program_ms", med["cim.program"] / 1e3, "ms"});
  return m;
}

// ---------------------------------------------------------------------------
// One benchmark run
// ---------------------------------------------------------------------------

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("  %-46s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

int run(const Args& args) {
  const Clock::time_point t_start = Clock::now();
  std::string timeline;  // wall-clock seconds at which each part of the run ended
  const auto mark = [&](const char* what) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s@%.1fs", what, ms_between(t_start, Clock::now()) / 1e3);
    timeline += buf;
  };
  const Spec spec = make_spec(args.workload);
  Inputs in(spec, args.seed);
  const serve::ServingConfig cfg = engine_config(spec, args.seed);

  // Phase lengths: two thirds of --seconds closed loop, one third open loop,
  // each cut into windows whose medians are reported. The warm-up keeps
  // every core busy long enough for an idle host to reach its full speed.
  const double closed_s = args.seconds * 2.0 / 3.0;
  const double open_s = args.seconds / 3.0;
  const double closed_win_s = 0.5;
  const double open_win_s = 1.0;
  const double warmup_s = 1.5;
  const std::vector<double> gaps = in.arrival_gaps(spec.open_rps, open_s);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", spec.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("host: %s\n", host_block(args.source_id).c_str());
  std::printf("config: tenants=%zu keys/tenant=%zu shards=%zu crossbar=%zux%zu d_model=%zu "
              "layers=%zu ae_hidden=%zu code=%zu tokens=%zu cache=%zu max_batch=%zu "
              "threads=%zu lifecycle=%d two_phase=%d closed_outstanding=%zu open_rps=%g\n",
              spec.tenants, spec.keys_per_tenant, spec.shards, spec.crossbar_rows,
              spec.crossbar_cols, spec.d_model, spec.n_layers, spec.ae_hidden, spec.code_dim,
              spec.n_virtual_tokens, spec.cache_capacity, kMaxBatch, kServingThreads,
              spec.lifecycle ? 1 : 0, spec.two_phase ? 1 : 0, kOutstanding, spec.open_rps);

  // Set-up (construction + add_deployment + start, i.e. the store build)
  // and, on the lifecycle-off workloads, the admission probe are each
  // sampled half before and half after the timed phases, so their medians
  // span the run instead of one moment of a drifting host.
  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    double s = 0.0;
    auto e = build_engine(in, cfg, &s);
    setup_s.push_back(s);
    return e;
  };
  // Admission probe: this workload's geometry with lifecycle and write-behind
  // on (as on churn), idle, admitting fresh tenants one at a time, each
  // evicted again so every admission meets the same store.
  std::vector<double> admit_ms;
  const bool probe_admissions = spec.admit_every == 0;
  const auto admission_probe = [&] {
    serve::ServingConfig pcfg = cfg;
    pcfg.lifecycle.enabled = true;
    auto probe = build_engine(in, pcfg, nullptr);
    for (std::size_t i = 0; i < 100; ++i) {
      const std::size_t id = kChurnIdBase + 900000 + admit_ms.size();
      core::TrainedDeployment d = in.make_deployment(id, spec.keys_per_tenant);
      const Clock::time_point t0 = Clock::now();
      probe->admit(id, std::move(d)).wait();
      admit_ms.push_back(ms_between(t0, Clock::now()));
      probe->evict_user(id);
    }
    probe->stop();
  };
  if (probe_admissions) admission_probe();
  const int setups = args.trace ? 1 : 4;
  std::unique_ptr<serve::ServingEngine> engine;
  for (int i = 0; i < setups; ++i) {
    if (engine) engine->stop();
    engine.reset();
    engine = timed_setup();
  }

  mark("setup");
  Client client(*engine, in);
  (void)client.closed(warmup_s, kOutstanding);
  mark("warmup");
  // Memory of the built, warmed engine (plus the set-up repetitions); the
  // timed phases' growth is reported separately.
  const double setup_rss = peak_rss_mb();
  const std::size_t timed_begin = client.records().size();
  ServeResult res = serve_phases(*engine, client, in, closed_s, &gaps);
  const std::size_t timed_end = client.records().size();
  mark("serve");

  RangeStats cs = range_stats(client.records(), res.closed, false);
  RangeStats os = range_stats(client.records(), res.open, true);
  const Windows cw = phase_windows(client.records(), res.closed, closed_s, closed_win_s, false);
  const Windows ow = phase_windows(client.records(), res.open, open_s, open_win_s, true);
  const double throughput = median(cw.rps);
  const std::size_t attempted = cs.n + os.n;
  const std::size_t failed = cs.failed + os.failed;
  const std::size_t served = cs.served + os.served;
  const cim::OpCounters dc = counters_delta(res.c0, res.c1);
  const cim::PerfEstimate cost =
      cim::cim_cost_from_counters(cim::fefet_perf_22nm(), cfg.crossbar, dc);

  // Late generator: how far behind its schedule the open loop submitted.
  const double late_p99 = percentile(os.late_ms, 0.99);
  const double late_max =
      os.late_ms.empty() ? 0.0 : *std::max_element(os.late_ms.begin(), os.late_ms.end());
  const double open_p50 = median(ow.p50);
  const double open_p99 = median(ow.p99);
  // Flagged when lateness alone is a tenth of the open-loop p99.
  const bool late_flag = late_p99 > 0.10 * open_p99;

  if (spec.admit_every > 0) admit_ms = res.admit_ms;

  // ---- Correctness (outside the timed region) ----
  const CheckResult chk = check_answers(*engine, in, client.records(), timed_begin, timed_end);
  const double recall = ratio(static_cast<double>(chk.retrieval_matches),
                              static_cast<double>(chk.checked));
  mark("check");
  // Routed (two-phase) retrieval is approximate: its recall is reported, not
  // required to be 1.
  bool correct = chk.label_mismatches == 0 && chk.checked > 0;
  if (!spec.two_phase) correct = correct && chk.retrieval_matches == chk.checked;

  std::printf("closed: %zu requests (%zu outstanding), %zu windows of %.1f s: median %.1f req/s, "
              "latency p50 %.3f ms p99 %.3f ms; whole phase p50 %.3f ms p99 %.3f ms (n=%zu)\n",
              cs.n, kOutstanding, cw.rps.size(), closed_win_s, throughput, median(cw.p50),
              median(cw.p99), percentile(cs.latency_ms, 0.5), percentile(cs.latency_ms, 0.99),
              cs.latency_ms.size());
  std::printf("open: %zu requests at %.0f req/s offered, %zu windows of %.1f s: latency from due "
              "p50 %.3f ms p99 %.3f ms; whole phase p50 %.3f ms p99 %.3f ms (n=%zu); generator "
              "late p99 %.3f ms max %.3f ms%s\n",
              os.n, spec.open_rps, ow.p99.size(), open_win_s, open_p50, open_p99,
              percentile(os.latency_ms, 0.5), percentile(os.latency_ms, 0.99),
              os.latency_ms.size(), late_p99, late_max,
              late_flag ? "  [LATE: lateness p99 exceeds 10% of open p99]" : "");
  const auto print_series = [](const char* label, const std::vector<double>& v) {
    std::printf("  %s:", label);
    for (const double x : v) std::printf(" %.4g", x);
    std::printf("\n");
  };
  print_series("closed windows req/s", cw.rps);
  print_series("closed windows p50 ms", cw.p50);
  print_series("closed windows p99 ms", cw.p99);
  print_series("open windows p50 ms", ow.p50);
  print_series("open windows p99 ms", ow.p99);
  std::printf("check: %zu answers checked, recall@1 vs serial %.4f, %zu labels checked, %zu "
              "mismatched; %zu failed of %zu attempted\n",
              chk.checked, recall, chk.labels_checked, chk.label_mismatches, failed, attempted);
  if (spec.admit_every > 0)
    std::printf("churn: %zu admissions (%zu started a whole cadence late), %zu evictions, %zu "
                "rebalances (%zu migrations)\n",
                res.admit_ms.size(), res.behind, res.evictions, res.rebalances, res.migrations);
  // Crossbar capacity (score-row width) against occupied key columns after
  // the timed phases; above 1 the store grew columns it is not using.
  // (A build-once store packs its keys: width == occupied.)
  std::size_t occupied = 0, width = 0;
  std::printf("store: shard occupied/width:");
  for (std::size_t sh = 0; sh < engine->store().n_shards(); ++sh) {
    const std::size_t w = engine->store().shard_keys(sh);
    const std::size_t o = spec.lifecycle ? engine->store().shard_occupied(sh) : w;
    occupied += o;
    width += w;
    std::printf(" %zu/%zu", o, w);
  }
  const double capacity_ratio = ratio(static_cast<double>(width), static_cast<double>(occupied));
  std::printf(" (capacity ratio %.3f); peak RSS %.1f MB after set-up, %.1f MB after serving\n",
              capacity_ratio, setup_rss, peak_rss_mb());

  std::vector<Metric> metrics;
  if (!args.trace) {
    engine->stop();
    engine.reset();
    for (int i = 0; i < setups; ++i) timed_setup()->stop();
    if (probe_admissions) admission_probe();
    mark("after");
    std::printf("setup:");
    for (const double x : setup_s) std::printf(" %.3f", x);
    std::printf(" s\nadmit: %zu samples (%s)\n", admit_ms.size(),
                probe_admissions ? "idle-engine probe" : "live churn stream");
    // Modelled, so it repeats exactly wherever activations per request do;
    // cim.activations_per_req is the per-layer metric that carries it.
    std::printf("modelled CiM latency: %.1f ns per request (%zu subarray activations, FeFET "
                "22 nm model)\n",
                ratio(cost.latency_ns, static_cast<double>(served)), dc.subarray_activations);
    metrics.push_back({"setup_s", median(setup_s), "s"});
    metrics.push_back({"throughput_rps", throughput, "1/s"});
    metrics.push_back({"latency_p50_ms", median(cw.p50), "ms"});
    metrics.push_back({"recall_at1", recall, "frac"});
    metrics.push_back({"cim_energy_nj_per_req",
                       cost.energy_pj / 1e3 / static_cast<double>(std::max<std::size_t>(1, served)),
                       "nJ"});
    metrics.push_back({"admit_p50_ms", percentile(admit_ms, 0.5), "ms"});
    metrics.push_back({"setup_rss_mb", setup_rss, "MB"});
  } else {
    // ---- Per-layer: untraced run's stats and counter deltas ----
    const serve::StatsSnapshot& s0 = res.s0;
    const serve::StatsSnapshot& s1 = res.s1;
    const double batches = static_cast<double>(s1.batches - s0.batches);
    const double reqs = static_cast<double>(s1.requests - s0.requests);
    const double hits = static_cast<double>(s1.cache_hits - s0.cache_hits);
    const double misses = static_cast<double>(s1.cache_misses - s0.cache_misses);
    const double examined = static_cast<double>(s1.candidates_examined - s0.candidates_examined);
    const double possible = static_cast<double>(s1.candidates_possible - s0.candidates_possible);

    // Same-key-count CPU search (every key column of a shard, each SSA scale).
    std::size_t shard_width = 0;
    for (std::size_t sh = 0; sh < engine->store().n_shards(); ++sh)
      shard_width += engine->store().shard_keys(sh);
    shard_width /= std::max<std::size_t>(1, engine->store().n_shards());
    const std::size_t key_size = spec.n_virtual_tokens * spec.code_dim;
    std::size_t pooled_len = 0;
    for (const std::size_t sc : cfg.ssa.scales) pooled_len += (key_size + sc - 1) / sc;
    const cim::PerfEstimate cpu =
        cim::cpu_retrieval_cost(cim::jetson_orin_cpu(), shard_width, pooled_len);
    const double cim_pj_per_req = ratio(cost.energy_pj, static_cast<double>(served));

    metrics.push_back({"serve.scheduler.latency_p99_ms", median(cw.p99), "ms"});
    metrics.push_back({"serve.lifecycle.admit_p90_ms", percentile(admit_ms, 0.9), "ms"});
    metrics.push_back({"serve.scheduler.open_p50_ms", open_p50, "ms"});
    metrics.push_back({"serve.scheduler.open_p99_ms", open_p99, "ms"});
    const auto per_served = [served](std::size_t n) {
      return ratio(static_cast<double>(n), static_cast<double>(served));
    };
    const auto per_batch = [batches](double ms) { return ratio(ms, batches); };
    metrics.push_back(
        {"serve.scheduler.queue_wait_p50_ms", percentile(os.queue_wait_ms, 0.5), "ms"});
    metrics.push_back(
        {"serve.scheduler.queue_wait_p99_ms", percentile(os.queue_wait_ms, 0.99), "ms"});
    metrics.push_back({"serve.scheduler.batch_size_mean", ratio(reqs, batches), "count"});
    metrics.push_back(
        {"serve.engine.encode_ms_per_batch", per_batch(s1.encode_ms - s0.encode_ms), "ms"});
    metrics.push_back(
        {"serve.engine.retrieve_ms_per_batch", per_batch(s1.retrieve_ms - s0.retrieve_ms), "ms"});
    metrics.push_back(
        {"serve.engine.decode_ms_per_batch", per_batch(s1.decode_ms - s0.decode_ms), "ms"});
    metrics.push_back(
        {"serve.engine.finish_ms_per_batch", per_batch(s1.classify_ms - s0.classify_ms), "ms"});
    metrics.push_back({"serve.engine.fail_frac",
                       ratio(static_cast<double>(failed), static_cast<double>(attempted)), "frac"});
    metrics.push_back({"serve.cache.hit_rate", ratio(hits, hits + misses), "frac"});
    metrics.push_back(
        {"serve.cache.decodes", 1000.0 * ratio(static_cast<double>(res.decodes), reqs), "1/kreq"});
    metrics.push_back({"serve.cache.coalesced",
                       1000.0 * ratio(static_cast<double>(res.coalesced), reqs), "1/kreq"});
    metrics.push_back({"serve.ovt_store.pruned_frac",
                       possible > 0.0 ? 1.0 - examined / possible : 0.0, "frac"});
    metrics.push_back(
        {"serve.ovt_store.candidates_examined_per_req", ratio(examined, reqs), "count"});
    metrics.push_back({"cim.activations_per_req", per_served(dc.subarray_activations), "count"});
    metrics.push_back({"cim.adc_per_req", per_served(dc.adc_conversions), "count"});
    metrics.push_back({"cim.vs_cpu_energy_ratio", ratio(cpu.energy_pj, cim_pj_per_req), "x"});
    metrics.push_back({"serve.ovt_store.capacity_ratio", capacity_ratio, "x"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    metrics.push_back({"loadgen.late_p99_ms", late_p99, "ms"});
    metrics.push_back({"loadgen.late_max_ms", late_max, "ms"});
    if (spec.admit_every > 0)
      std::printf("churn write counters over the timed phases: %zu cells programmed, %zu write "
                  "pulses (no write-energy term in the cost model; read energy above)\n",
                  dc.cells_programmed, dc.write_pulses);

    // Layer replay inputs recorded from the run: the first max_batch pool
    // requests and the OVTs the engine returned for them.
    ReplayInputs ri;
    std::map<std::size_t, std::size_t> ovt_of_entry;
    for (std::size_t i = timed_begin; i < timed_end; ++i) {
      const Rec& r = client.records()[i];
      if (r.state.load() == 1 && r.churn == nullptr) ovt_of_entry.emplace(r.entry, r.ovt);
    }
    for (std::size_t e = 0; e < in.pool.size() && ri.deps.size() < kMaxBatch; ++e) {
      auto it = ovt_of_entry.find(e);
      if (it == ovt_of_entry.end()) continue;
      ri.deps.push_back(&in.deployments[in.pool[e].tenant]);
      ri.queries.push_back(&in.pool[e].sample);
      ri.ovts.push_back(it->second);
    }

    engine->stop();
    const std::vector<Metric> replay = replay_layers(
        in, cfg, *engine, ri, args.out_dir + "/trace_" + spec.name + "_replay.json");
    engine.reset();
    if (probe_admissions) admission_probe();
    mark("replay");

    // ---- Traced run: same closed-loop phase with the engine tracer on ----
    serve::ServingConfig tcfg = cfg;
    tcfg.tracing.enabled = true;
    tcfg.tracing.ring_capacity = 1 << 16;
    auto traced = build_engine(in, tcfg, nullptr);
    Client tclient(*traced, in);
    (void)tclient.closed(warmup_s, kOutstanding);
    ServeResult tres = serve_phases(*traced, tclient, in, closed_s, nullptr);
    const double traced_rps =
        median(phase_windows(tclient.records(), tres.closed, closed_s, closed_win_s, false).rps);
    traced->stop();
    const std::vector<obs::TraceEvent> events = traced->tracer().events();
    (void)traced->tracer().write_chrome_trace_file(args.out_dir + "/trace_" + spec.name +
                                                   "_engine.json");
    const std::map<std::string, SpanAgg> table = span_table(events);
    std::printf("traced run: %.1f req/s (untraced %.1f), %zu events, %llu dropped\n", traced_rps,
                throughput, events.size(),
                static_cast<unsigned long long>(traced->tracer().dropped()));
    std::printf("  %-22s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms");
    for (const auto& [name, a] : table)
      std::printf("  %-22s %10zu %14.3f %14.3f\n", name.c_str(), a.n, a.total_us / 1e3,
                  a.self_us / 1e3);
    const auto total_of = [&table](const char* n) {
      auto it = table.find(n);
      return it == table.end() ? 0.0 : it->second.total_us;
    };
    const double stage_total = total_of("encode") + total_of("retrieve") + total_of("decode") +
                               total_of("classify");
    const auto shard_it = table.find("shard_retrieve");
    // Unattributed service time: per request, client-measured latency minus
    // queue wait, minus the four stage spans of the batch that carried it.
    std::map<std::int64_t, double> batch_stage_ms;
    for (const obs::TraceEvent& e : events)
      if (std::strcmp(e.cat, "stage") == 0) batch_stage_ms[e.v1] += e.dur_us / 1e3;
    std::vector<double> req_stage_ms, service_ms;
    for (const obs::TraceEvent& e : events)
      if (std::strcmp(e.name, "request") == 0) req_stage_ms.push_back(batch_stage_ms[e.v2]);
    for (const Rec& r : tclient.records())
      if (r.state.load() == 1) service_ms.push_back(ms_between(r.sub, r.done) - r.queue_wait_ms);
    metrics.push_back(
        {"serve.engine.retrieve_stage_frac", ratio(total_of("retrieve"), stage_total), "frac"});
    metrics.push_back(
        {"serve.ovt_store.shard_retrieve_us",
         shard_it == table.end()
             ? 0.0
             : ratio(shard_it->second.self_us, static_cast<double>(shard_it->second.n)),
         "us"});
    metrics.push_back(
        {"serve.engine.program_batches",
         static_cast<double>(tres.s1.program_batches - tres.s0.program_batches), "count"});
    metrics.push_back({"serve.engine.unattributed_ms_per_req",
                       mean(service_ms) - mean(req_stage_ms), "ms"});
    metrics.push_back({"obs.tracing_overhead_frac", 1.0 - ratio(traced_rps, throughput), "frac"});
    metrics.insert(metrics.end(), replay.begin(), replay.end());
  }

  mark("end");
  std::printf("timeline:%s\n", timeline.c_str());
  std::printf("metrics:\n");
  print_metrics(metrics);

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
