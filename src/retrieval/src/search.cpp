#include "nvcim/retrieval/search.hpp"

namespace nvcim::retrieval {

float wmsdp(const Matrix& e, const Matrix& p, const ScaledSearchConfig& cfg) {
  NVCIM_CHECK_MSG(e.size() == p.size(), "WMSDP operands must have equal size");
  NVCIM_CHECK_MSG(cfg.scales.size() == cfg.weights.size() && !cfg.scales.empty(),
                  "scales/weights mismatch");
  double num = 0.0, denom = 0.0;
  for (std::size_t i = 0; i < cfg.scales.size(); ++i) {
    const Matrix pe = average_pool_flat(e, cfg.scales[i]);
    const Matrix pp = average_pool_flat(p, cfg.scales[i]);
    num += static_cast<double>(cfg.weights[i]) * dot(pe, pp);
    denom += cfg.weights[i];
  }
  return static_cast<float>(num / denom);
}

std::size_t mips_retrieve_exact(const Matrix& query, const std::vector<Matrix>& keys) {
  NVCIM_CHECK(!keys.empty());
  std::size_t best = 0;
  float best_score = -1e30f;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const float s = dot(query.flattened(), keys[i].flattened());
    if (s > best_score) {
      best_score = s;
      best = i;
    }
  }
  return best;
}

std::size_t ssa_retrieve_exact(const Matrix& query, const std::vector<Matrix>& keys,
                               const ScaledSearchConfig& cfg) {
  NVCIM_CHECK(!keys.empty());
  std::size_t best = 0;
  float best_score = -1e30f;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const float s = wmsdp(query, keys[i], cfg);
    if (s > best_score) {
      best_score = s;
      best = i;
    }
  }
  return best;
}

void CimRetriever::init_bank_layout() {
  bank_scales_.clear();
  bank_weights_.clear();
  if (cfg_.algorithm == Algorithm::MIPS) {
    bank_scales_.push_back(1);
    bank_weights_.push_back(1.0f);
  } else {
    NVCIM_CHECK(cfg_.ssa.scales.size() == cfg_.ssa.weights.size() && !cfg_.ssa.scales.empty());
    bank_scales_ = cfg_.ssa.scales;
    bank_weights_ = cfg_.ssa.weights;
  }
}

void CimRetriever::store(const std::vector<Matrix>& keys, Rng& rng) {
  NVCIM_CHECK_MSG(!keys.empty(), "no keys to store");
  mutable_mode_ = false;
  n_keys_ = keys.size();
  key_size_ = keys[0].size();
  for (const Matrix& k : keys)
    NVCIM_CHECK_MSG(k.size() == key_size_, "keys must share a common size");

  init_bank_layout();
  banks_.clear();
  for (std::size_t b = 0; b < bank_scales_.size(); ++b) {
    const std::size_t scale = bank_scales_[b];
    const std::size_t pooled_len = (key_size_ + scale - 1) / scale;
    Matrix pooled_keys(n_keys_, pooled_len);
    for (std::size_t i = 0; i < n_keys_; ++i)
      pooled_keys.set_row(i, average_pool_flat(keys[i], scale));
    auto acc = std::make_unique<cim::Accelerator>(cfg_.crossbar, cfg_.variation, cfg_.program);
    Rng bank_rng = rng.split(0xB00Bull + b);
    acc->store(pooled_keys, bank_rng);
    banks_.push_back(std::move(acc));
  }
}

void CimRetriever::store_mutable(std::size_t key_size, std::size_t capacity, const Rng& rng) {
  NVCIM_CHECK_MSG(key_size > 0 && capacity > 0, "empty mutable store");
  mutable_mode_ = true;
  key_size_ = key_size;
  init_bank_layout();
  banks_.clear();
  for (std::size_t b = 0; b < bank_scales_.size(); ++b) {
    const std::size_t scale = bank_scales_[b];
    const std::size_t pooled_len = (key_size_ + scale - 1) / scale;
    auto acc = std::make_unique<cim::Accelerator>(cfg_.crossbar, cfg_.variation, cfg_.program);
    // Same per-bank stream derivation as store(), so a mutable store seeded
    // identically programs identical noise at identical positions.
    acc->init_mutable(pooled_len, capacity, rng.split(0xB00Bull + b));
    banks_.push_back(std::move(acc));
  }
  n_keys_ = banks_[0]->n_keys();  // capacity rounded up to whole subarrays
}

void CimRetriever::program_keys(std::size_t col_begin, const std::vector<Matrix>& keys) {
  NVCIM_CHECK_MSG(mutable_mode_, "program_keys requires store_mutable");
  NVCIM_CHECK_MSG(!keys.empty(), "no keys to program");
  for (const Matrix& k : keys)
    NVCIM_CHECK_MSG(k.size() == key_size_, "keys must share a common size");
  NVCIM_CHECK_MSG(col_begin + keys.size() <= n_keys_,
                  "columns exceed capacity " << n_keys_ << " — grow with ensure_capacity()");
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    const std::size_t scale = bank_scales_[b];
    const std::size_t pooled_len = (key_size_ + scale - 1) / scale;
    Matrix pooled(keys.size(), pooled_len);
    for (std::size_t i = 0; i < keys.size(); ++i)
      pooled.set_row(i, average_pool_flat(keys[i], scale));
    banks_[b]->program_keys(pooled, col_begin);
  }
}

void CimRetriever::ensure_capacity(std::size_t n) {
  NVCIM_CHECK_MSG(mutable_mode_, "ensure_capacity requires store_mutable");
  for (auto& bank : banks_) bank->ensure_capacity(n);
  n_keys_ = banks_[0]->n_keys();
}

Matrix CimRetriever::scores(const Matrix& query) {
  NVCIM_CHECK_MSG(!banks_.empty(), "no keys stored");
  NVCIM_CHECK_MSG(query.size() == key_size_, "query size " << query.size()
                                                           << " != key size " << key_size_);
  Matrix total(1, n_keys_, 0.0f);
  float weight_sum = 0.0f;
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    const Matrix pooled = average_pool_flat(query, bank_scales_[b]);
    const Matrix s = banks_[b]->query(pooled);
    total.add_scaled(s, bank_weights_[b]);
    weight_sum += bank_weights_[b];
  }
  total *= 1.0f / weight_sum;
  return total;
}

Matrix CimRetriever::scores_batch(const Matrix& queries) {
  Matrix total;
  Scratch scratch;
  scores_batch_into(queries, total, scratch);
  return total;
}

void CimRetriever::scores_batch_into(const Matrix& queries, Matrix& out, Scratch& scratch) {
  scores_batch_into(queries, out, scratch, nullptr);
}

void CimRetriever::scores_batch_into(const Matrix& queries, Matrix& out, Scratch& scratch,
                                     const cim::CandidateSet* candidates) {
  NVCIM_CHECK_MSG(!banks_.empty(), "no keys stored");
  NVCIM_CHECK_MSG(queries.cols() == key_size_, "query width " << queries.cols()
                                                              << " != key size " << key_size_);
  out.resize(queries.rows(), n_keys_);
  out.fill(0.0f);
  float weight_sum = 0.0f;
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    // Scale 1 pools to the identity — feed the query block through directly.
    const Matrix* pooled = &queries;
    if (bank_scales_[b] != 1) {
      average_pool_rows_into(queries, bank_scales_[b], scratch.pooled);
      pooled = &scratch.pooled;
    }
    banks_[b]->query_batch_into(*pooled, scratch.bank_scores, scratch.acc, candidates);
    out.add_scaled(scratch.bank_scores, bank_weights_[b]);
    weight_sum += bank_weights_[b];
  }
  out *= 1.0f / weight_sum;
}

std::vector<std::size_t> CimRetriever::retrieve_batch(const Matrix& queries) {
  const Matrix s = scores_batch(queries);
  std::vector<std::size_t> best(s.rows(), 0);
  for (std::size_t r = 0; r < s.rows(); ++r)
    for (std::size_t i = 1; i < s.cols(); ++i)
      if (s(r, i) > s(r, best[r])) best[r] = i;
  return best;
}

Matrix CimRetriever::pack_queries(const std::vector<Matrix>& queries) const {
  NVCIM_CHECK_MSG(!queries.empty(), "no queries to pack");
  Matrix packed(queries.size(), key_size_);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    NVCIM_CHECK_MSG(queries[i].size() == key_size_, "query size " << queries[i].size()
                                                                  << " != key size " << key_size_);
    packed.set_row(i, queries[i].flattened());
  }
  return packed;
}

std::size_t CimRetriever::retrieve(const Matrix& query) {
  const Matrix s = scores(query);
  std::size_t best = 0;
  for (std::size_t i = 1; i < s.cols(); ++i)
    if (s(0, i) > s(0, best)) best = i;
  return best;
}

cim::OpCounters CimRetriever::counters() const {
  cim::OpCounters c;
  for (const auto& b : banks_) c += b->counters();
  return c;
}

std::size_t CimRetriever::n_subarrays() const {
  NVCIM_CHECK_MSG(!banks_.empty(), "no keys stored");
  return banks_[0]->n_subarrays();
}

std::size_t CimRetriever::cols_per_subarray() const {
  NVCIM_CHECK_MSG(!banks_.empty(), "no keys stored");
  return banks_[0]->cols_per_subarray();
}

std::size_t CimRetriever::inject_column_fault(std::size_t col, nvm::FaultKind kind,
                                              std::size_t cells_per_segment,
                                              std::uint64_t seed) {
  NVCIM_CHECK_MSG(!banks_.empty(), "no keys stored");
  std::size_t clamped = 0;
  for (std::size_t b = 0; b < banks_.size(); ++b)
    clamped += banks_[b]->inject_column_fault(col, kind, cells_per_segment,
                                              seed + 0xFA011ull * (b + 1));
  return clamped;
}

void CimRetriever::kill_subarray(std::size_t subarray) {
  NVCIM_CHECK_MSG(!banks_.empty(), "no keys stored");
  for (auto& b : banks_) b->kill_subarray(subarray);
}

void CimRetriever::set_drift_rate(double rate_per_tick) {
  for (auto& b : banks_) b->set_drift_rate(rate_per_tick);
}

void CimRetriever::advance_age(std::uint64_t ticks) {
  for (auto& b : banks_) b->advance_age(ticks);
}

cim::ColumnProbe CimRetriever::probe_column(std::size_t col) const {
  NVCIM_CHECK_MSG(!banks_.empty(), "no keys stored");
  cim::ColumnProbe pr;
  for (const auto& b : banks_) pr += b->probe_column(col);
  return pr;
}

}  // namespace nvcim::retrieval
