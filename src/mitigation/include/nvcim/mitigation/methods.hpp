#pragma once

#include <memory>
#include <string>

#include "nvcim/cim/crossbar.hpp"

namespace nvcim::mitigation {

/// Round-trip a float matrix through NVM storage with *no* mitigation:
/// int16-quantize, program (tiled across subarrays, one pulse per cell),
/// read back, dequantize. Every mitigation baseline but SWV builds on this
/// path; SWV adds selective write-verify to the same tiling.
Matrix nvm_roundtrip(const Matrix& w, const cim::CrossbarConfig& cfg,
                     const nvm::VariationModel& var, Rng& rng,
                     cim::OpCounters* counters = nullptr);

/// A noise-mitigation strategy applied when writing a payload matrix (an
/// OVT) into NVM. `store_and_restore` returns what the system reads back —
/// i.e. the OVT the LLM will actually consume.
class MitigationMethod {
 public:
  virtual ~MitigationMethod() = default;
  virtual std::string name() const = 0;
  virtual Matrix store_and_restore(const Matrix& w, const cim::CrossbarConfig& cfg,
                                   const nvm::VariationModel& var, Rng& rng) const = 0;
};

/// Plain storage, no compensation (the "No-Miti" path).
class NoMitigation final : public MitigationMethod {
 public:
  std::string name() const override { return "No-Miti"; }
  Matrix store_and_restore(const Matrix& w, const cim::CrossbarConfig& cfg,
                           const nvm::VariationModel& var, Rng& rng) const override;
};

/// SWV (Yan et al., DAC'22): write-verify only the most impactful fraction
/// of the weights (here: largest magnitude), bounding programming effort.
class SelectiveWriteVerify final : public MitigationMethod {
 public:
  struct Options {
    double fraction = 0.25;        ///< fraction of weights that get verify
    double tolerance = 0.08;       ///< normalized conductance tolerance
    std::size_t max_iterations = 10;
  };
  SelectiveWriteVerify() : SelectiveWriteVerify(Options{}) {}
  explicit SelectiveWriteVerify(Options o) : opt_(o) {}
  std::string name() const override { return "SWV"; }
  Matrix store_and_restore(const Matrix& w, const cim::CrossbarConfig& cfg,
                           const nvm::VariationModel& var, Rng& rng) const override;

 private:
  Options opt_;
};

/// CxDNN (Jain & Raghunathan, TECS'19): hardware-software compensation —
/// after programming, a per-column digital scale factor (least-squares fit
/// computed at write time, when the target is known) corrects the read-out.
class CxDnn final : public MitigationMethod {
 public:
  std::string name() const override { return "CxDNN"; }
  Matrix store_and_restore(const Matrix& w, const cim::CrossbarConfig& cfg,
                           const nvm::VariationModel& var, Rng& rng) const override;
};

/// CorrectNet (Eldebiky et al., DATE'23): error suppression (outlier
/// clipping before write tightens the quantization grid) plus a global
/// affine compensation fit at write time.
class CorrectNet final : public MitigationMethod {
 public:
  struct Options {
    double clip_quantile = 0.995;  ///< magnitude quantile kept before write
  };
  CorrectNet() : CorrectNet(Options{}) {}
  explicit CorrectNet(Options o) : opt_(o) {}
  std::string name() const override { return "CorrectNet"; }
  Matrix store_and_restore(const Matrix& w, const cim::CrossbarConfig& cfg,
                           const nvm::VariationModel& var, Rng& rng) const override;

 private:
  Options opt_;
};

enum class Kind { None, SWV, CxDNN, CorrectNet };

std::unique_ptr<MitigationMethod> make_mitigation(Kind kind);

}  // namespace nvcim::mitigation
