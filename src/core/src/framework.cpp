#include "nvcim/core/framework.hpp"

namespace nvcim::core {

NvcimPtFramework::NvcimPtFramework(llm::TinyLM& model, const data::LampTask& task,
                                   FrameworkConfig cfg)
    : model_(&model), task_(&task), cfg_(std::move(cfg)), rng_(cfg_.seed) {
  cfg_.autoencoder.input_dim = model.config().d_model;
  autoenc_ = std::make_shared<compress::Autoencoder>(cfg_.autoencoder);
  mitigation_ = mitigation::make_mitigation(cfg_.payload_mitigation);

  retrieval::CimRetriever::Config rcfg;
  rcfg.algorithm = cfg_.retrieval_algorithm;
  rcfg.ssa = cfg_.ssa;
  rcfg.crossbar = cfg_.crossbar;
  rcfg.variation = cfg_.variation;
  retriever_ = std::make_unique<retrieval::CimRetriever>(rcfg);
}

void NvcimPtFramework::ensure_private_autoencoder() {
  // use_count > 1 ⇒ an exported deployment (or engine) still references this
  // encoder; clone before mutating so live serving keeps its snapshot.
  if (autoenc_.use_count() > 1)
    autoenc_ = std::make_shared<compress::Autoencoder>(*autoenc_);
}

void NvcimPtFramework::initialize_autoencoder(std::size_t n_samples) {
  ensure_private_autoencoder();
  Rng rng = rng_.split(0xAE0ull);
  std::vector<Matrix> rows;
  rows.reserve(n_samples);
  for (std::size_t i = 0; i < n_samples; ++i) {
    const std::size_t d = rng.uniform_index(task_->config().n_domains);
    const data::Sample s = task_->sample(d, rng);
    rows.push_back(model_->embed(s.input));
  }
  autoenc_->train(rows);
}

Matrix NvcimPtFramework::encode_tokens(const Matrix& rows) const {
  return autoenc_->encode(resample_rows(rows, cfg_.tuner.n_virtual_tokens));
}

Matrix NvcimPtFramework::query_representation(const data::Sample& query) const {
  return encode_tokens(model_->embed(query.input));
}

void NvcimPtFramework::train_from_buffer(const std::vector<data::Sample>& buffer) {
  NVCIM_CHECK_MSG(!buffer.empty(), "empty buffer");
  ensure_private_autoencoder();

  // ---- Representative Selection (RS) ----
  std::vector<Matrix> embeddings;
  embeddings.reserve(buffer.size());
  for (const data::Sample& s : buffer) embeddings.push_back(model_->embed_mean(s.input));
  const std::size_t k = cluster::select_k(buffer.size(), cfg_.k_select);
  last_k_ = k;
  cluster::KMeansConfig kmcfg = cfg_.kmeans;
  kmcfg.seed = rng_.split(0x135ull).next_u64();
  const auto clusters = cluster::kmeans(embeddings, k, kmcfg);
  const auto reps = cluster::representatives(embeddings, clusters);

  // ---- Autoencoder refresh on the non-representative leftovers ----
  std::vector<Matrix> leftovers;
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    if (std::find(reps.begin(), reps.end(), i) == reps.end())
      leftovers.push_back(model_->embed(buffer[i].input));
  }
  if (!leftovers.empty()) autoenc_->update(leftovers, cfg_.autoencoder.steps / 4);

  // ---- Noise-aware Training (NT): one OVT per representative ----
  llm::TunerConfig tcfg = cfg_.tuner;
  if (cfg_.noise_aware) {
    NoiseBandConfig bands = cfg_.noise_bands;
    bands.sigma = cfg_.variation.global_sigma;
    tcfg.perturb = make_noise_hook(bands);
  }
  std::vector<Matrix> new_ovts;
  for (std::size_t ri = 0; ri < reps.size(); ++ri) {
    const data::Sample& rep = buffer[reps[ri]];
    // The representative anchors the OVT; its whole cluster provides the
    // training signal (a single sample is usually label-ambiguous across
    // domains).
    std::vector<llm::TrainExample> members;
    const std::size_t cluster_of_rep = clusters.assignment[reps[ri]];
    for (std::size_t i = 0; i < buffer.size(); ++i)
      if (clusters.assignment[i] == cluster_of_rep) members.push_back(buffer[i].example);
    llm::TunerConfig cfg_i = tcfg;
    cfg_i.seed = rng_.split(0x5EED0ull + ri).next_u64();
    // Warm-start the OVT from the representative's embedding (keeps the OVT
    // retrievable by inner-product search; see TunerConfig::init).
    cfg_i.init = resample_rows(model_->embed(rep.input), cfg_i.n_virtual_tokens);
    llm::SoftPromptTuner tuner(cfg_i);
    new_ovts.push_back(tuner.train(*model_, members));
    ovt_domains_.push_back(rep.domain);
  }

  // Anchored OVTs stay within the autoencoder's (augmentation-widened)
  // operating ball, so the leftovers-based refresh above suffices.
  for (const Matrix& ovt : new_ovts) ovt_payload_codes_.push_back(encode_tokens(ovt));

  // ---- Store & Scaled Search (SSA): write codes to NVM ----
  // Retrieval keys go into the search crossbar banks; the payload goes
  // through the configured mitigation storage path and is decoded into the
  // prompt inference will actually use.
  Rng store_rng = rng_.split(0x570Eull + ovt_payload_codes_.size());
  retriever_->store(ovt_payload_codes_, store_rng);
  stored_codes_.clear();
  restored_prompts_.clear();
  for (const Matrix& code : ovt_payload_codes_) {
    Rng cell_rng = store_rng.split(restored_prompts_.size() + 1);
    const Matrix noisy_code =
        mitigation_->store_and_restore(code, cfg_.crossbar, cfg_.variation, cell_rng);
    stored_codes_.push_back(noisy_code);
    restored_prompts_.push_back(autoenc_->decode(noisy_code));
  }
}

TrainedDeployment NvcimPtFramework::export_deployment() {
  NVCIM_CHECK_MSG(n_stored_ovts() > 0, "nothing trained to export");
  TrainedDeployment d;
  d.keys = std::move(ovt_payload_codes_);
  d.stored_codes = std::move(stored_codes_);
  d.domains = std::move(ovt_domains_);
  // Share, don't deep-copy: deployments exported from one encoder snapshot
  // alias the same Autoencoder, letting a serving engine fuse their encode
  // GEMMs. Isolation from retraining is preserved by copy-on-write — any
  // later mutating train step clones the framework's copy first (see
  // ensure_private_autoencoder()).
  d.autoencoder = autoenc_;
  d.n_virtual_tokens = cfg_.tuner.n_virtual_tokens;
  ovt_payload_codes_.clear();
  stored_codes_.clear();
  restored_prompts_.clear();
  ovt_domains_.clear();
  return d;
}

Matrix TrainedDeployment::query_representation(const llm::TinyLM& model,
                                               const data::Sample& query) const {
  NVCIM_CHECK_MSG(autoencoder != nullptr, "deployment has no autoencoder");
  return autoencoder->encode(resample_rows(model.embed(query.input), n_virtual_tokens));
}

Matrix TrainedDeployment::query_representation_batch(
    const llm::TinyLM& model, const std::vector<const TrainedDeployment*>& deps,
    const std::vector<const data::Sample*>& queries, EncodeScratch* scratch) {
  NVCIM_CHECK_MSG(!deps.empty() && deps.size() == queries.size(),
                  "batch of " << deps.size() << " deployments vs " << queries.size()
                              << " queries");
  const TrainedDeployment& lead = *deps[0];
  NVCIM_CHECK_MSG(lead.autoencoder != nullptr, "deployment has no autoencoder");
  for (const TrainedDeployment* d : deps)
    NVCIM_CHECK_MSG(d != nullptr && d->autoencoder.get() == lead.autoencoder.get() &&
                        d->n_virtual_tokens == lead.n_virtual_tokens,
                    "batched encode requires one shared autoencoder and token count");

  EncodeScratch local;
  EncodeScratch& ws = (scratch != nullptr ? *scratch : local);
  ws.seqs.clear();
  ws.seqs.reserve(queries.size());
  for (const data::Sample* q : queries) {
    NVCIM_CHECK_MSG(q != nullptr, "null query in batch");
    ws.seqs.push_back(&q->input);
  }
  model.embed_batch_into(ws.seqs, ws.embeds);
  ws.parts.clear();
  ws.parts.reserve(ws.embeds.size());
  for (const Matrix& e : ws.embeds) ws.parts.push_back(&e);

  // All B queries resampled to the shared virtual-token shape, stacked, and
  // pushed through one encode GEMM. Rows are independent under encode, so
  // row b of the result equals the serial per-query path bit-for-bit.
  resample_rows_batch(ws.parts, lead.n_virtual_tokens, ws.stacked);
  Matrix codes;
  lead.autoencoder->encode_into(ws.stacked, codes, &ws.autoencoder);
  const std::size_t code_dim = codes.cols();
  codes.reshape_inplace(deps.size(), lead.n_virtual_tokens * code_dim);
  return codes;
}

Matrix TrainedDeployment::decode_prompt(std::size_t idx) const {
  NVCIM_CHECK_MSG(idx < stored_codes.size(), "OVT index " << idx << " out of range");
  return autoencoder->decode(stored_codes[idx]);
}

std::size_t NvcimPtFramework::retrieve_index(const data::Sample& query) {
  NVCIM_CHECK_MSG(n_stored_ovts() > 0, "no OVTs stored; run train_from_buffer first");
  return retriever_->retrieve(query_representation(query));
}

std::size_t NvcimPtFramework::classify(const data::Sample& query) {
  const Matrix& prompt = restored_prompts_[retrieve_index(query)];
  return model_->classify(query.input, task_->label_ids(), &prompt);
}

std::vector<int> NvcimPtFramework::generate(const data::Sample& query, Rng& rng) {
  const Matrix& prompt = restored_prompts_[retrieve_index(query)];
  // Paper settings: temperature 0.1, bounded generation length.
  return model_->generate(query.input, task_->config().gen_len + 2, 0.1f, rng,
                          task_->eos_id(), &prompt);
}

double NvcimPtFramework::evaluate(const data::Sample& query, Rng& rng) {
  if (task_->config().kind == data::TaskKind::Classification) {
    const std::size_t pred = classify(query);
    return pred == static_cast<std::size_t>(query.label) ? 1.0 : 0.0;
  }
  const std::vector<int> hyp = generate(query, rng);
  return eval::rouge1(hyp, data::LampTask::reference_words(query)).f1;
}

}  // namespace nvcim::core
