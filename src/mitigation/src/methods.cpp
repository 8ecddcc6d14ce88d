#include "nvcim/mitigation/methods.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "nvcim/cim/quant.hpp"

namespace nvcim::mitigation {
namespace {

/// Program an integer matrix of arbitrary shape by tiling across subarrays
/// and read the noisy values back (cell-wise). `opts.verify_mask`, when set,
/// covers the whole matrix and is sliced per tile.
Matrix program_and_read_tiled(const Matrix& int_values, const cim::CrossbarConfig& cfg,
                              const nvm::VariationModel& var, Rng& rng,
                              const cim::ProgramOptions& opts, cim::OpCounters* counters) {
  Matrix out(int_values.rows(), int_values.cols(), 0.0f);
  const std::size_t row_tiles = (int_values.rows() + cfg.rows - 1) / cfg.rows;
  const std::size_t col_tiles = (int_values.cols() + cfg.cols - 1) / cfg.cols;
  for (std::size_t rt = 0; rt < row_tiles; ++rt) {
    const std::size_t r0 = rt * cfg.rows;
    const std::size_t r1 = std::min(r0 + cfg.rows, int_values.rows());
    for (std::size_t ct = 0; ct < col_tiles; ++ct) {
      const std::size_t c0 = ct * cfg.cols;
      const std::size_t c1 = std::min(c0 + cfg.cols, int_values.cols());
      cim::Crossbar xb(cfg);
      cim::ProgramOptions tile_opts = opts;
      Matrix mask_tile;
      if (opts.verify_mask != nullptr) {
        mask_tile = opts.verify_mask->row_slice(r0, r1).col_slice(c0, c1);
        tile_opts.verify_mask = &mask_tile;
      }
      Rng tile_rng = rng.split(rt * 104729 + ct);
      xb.program(int_values.row_slice(r0, r1).col_slice(c0, c1), var, tile_rng, tile_opts);
      const Matrix rb = xb.read_values();
      for (std::size_t r = 0; r < rb.rows(); ++r)
        for (std::size_t c = 0; c < rb.cols(); ++c) out(r0 + r, c0 + c) = rb(r, c);
      if (counters != nullptr) *counters += xb.counters();
    }
  }
  return out;
}

}  // namespace

Matrix nvm_roundtrip(const Matrix& w, const cim::CrossbarConfig& cfg,
                     const nvm::VariationModel& var, Rng& rng, cim::OpCounters* counters) {
  const cim::QuantizedMatrix q =
      cim::quantize_symmetric(w, static_cast<int>(cfg.value_bits));
  Matrix noisy = program_and_read_tiled(q.q, cfg, var, rng, {}, counters);
  return noisy * q.scale;
}

Matrix NoMitigation::store_and_restore(const Matrix& w, const cim::CrossbarConfig& cfg,
                                       const nvm::VariationModel& var, Rng& rng) const {
  return nvm_roundtrip(w, cfg, var, rng);
}

Matrix SelectiveWriteVerify::store_and_restore(const Matrix& w, const cim::CrossbarConfig& cfg,
                                               const nvm::VariationModel& var,
                                               Rng& rng) const {
  // Select the largest-magnitude fraction of weights for write-verify.
  std::vector<float> mags(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) mags[i] = std::fabs(w.at_flat(i));
  std::vector<float> sorted = mags;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t cut_idx = static_cast<std::size_t>(
      static_cast<double>(sorted.size()) * std::clamp(1.0 - opt_.fraction, 0.0, 1.0));
  const float threshold = sorted[std::min(cut_idx, sorted.size() - 1)];
  Matrix mask(w.rows(), w.cols(), 0.0f);
  for (std::size_t i = 0; i < w.size(); ++i)
    if (mags[i] >= threshold) mask.at_flat(i) = 1.0f;

  const cim::QuantizedMatrix q =
      cim::quantize_symmetric(w, static_cast<int>(cfg.value_bits));
  cim::ProgramOptions opts;
  opts.verify_tolerance = opt_.tolerance;
  opts.max_write_iterations = opt_.max_iterations;
  opts.verify_mask = &mask;
  Matrix noisy = program_and_read_tiled(q.q, cfg, var, rng, opts, nullptr);
  return noisy * q.scale;
}

Matrix CxDnn::store_and_restore(const Matrix& w, const cim::CrossbarConfig& cfg,
                                const nvm::VariationModel& var, Rng& rng) const {
  Matrix noisy = nvm_roundtrip(w, cfg, var, rng);
  // Per-column least-squares scale: alpha = <w, w'> / <w', w'>.
  for (std::size_t c = 0; c < w.cols(); ++c) {
    double num = 0.0, den = 0.0;
    for (std::size_t r = 0; r < w.rows(); ++r) {
      num += static_cast<double>(w(r, c)) * noisy(r, c);
      den += static_cast<double>(noisy(r, c)) * noisy(r, c);
    }
    const double alpha = den > 1e-12 ? num / den : 1.0;
    for (std::size_t r = 0; r < w.rows(); ++r)
      noisy(r, c) = static_cast<float>(noisy(r, c) * alpha);
  }
  return noisy;
}

Matrix CorrectNet::store_and_restore(const Matrix& w, const cim::CrossbarConfig& cfg,
                                     const nvm::VariationModel& var, Rng& rng) const {
  // Error suppression: clip outliers so the int16 grid covers the bulk of
  // the distribution more finely.
  std::vector<float> mags(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) mags[i] = std::fabs(w.at_flat(i));
  std::sort(mags.begin(), mags.end());
  const auto q_idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(mags.size() - 1),
                       opt_.clip_quantile * static_cast<double>(mags.size())));
  const float clip = std::max(mags[q_idx], 1e-12f);
  Matrix clipped = w;
  for (std::size_t i = 0; i < clipped.size(); ++i)
    clipped.at_flat(i) = std::clamp(clipped.at_flat(i), -clip, clip);

  Matrix noisy = nvm_roundtrip(clipped, cfg, var, rng);

  // Global affine compensation fit against the (known-at-write-time) target.
  double mw = 0.0, mn = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    mw += clipped.at_flat(i);
    mn += noisy.at_flat(i);
  }
  mw /= static_cast<double>(w.size());
  mn /= static_cast<double>(w.size());
  double cov = 0.0, varn = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double dn = noisy.at_flat(i) - mn;
    cov += (static_cast<double>(clipped.at_flat(i)) - mw) * dn;
    varn += dn * dn;
  }
  const double a = varn > 1e-12 ? cov / varn : 1.0;
  const double b = mw - a * mn;
  for (std::size_t i = 0; i < noisy.size(); ++i)
    noisy.at_flat(i) = static_cast<float>(a * noisy.at_flat(i) + b);
  return noisy;
}

std::unique_ptr<MitigationMethod> make_mitigation(Kind kind) {
  switch (kind) {
    case Kind::None:
      return std::make_unique<NoMitigation>();
    case Kind::SWV:
      return std::make_unique<SelectiveWriteVerify>();
    case Kind::CxDNN:
      return std::make_unique<CxDnn>();
    case Kind::CorrectNet:
      return std::make_unique<CorrectNet>();
  }
  NVCIM_CHECK_MSG(false, "unknown mitigation kind");
  return nullptr;
}

}  // namespace nvcim::mitigation
