#include <gtest/gtest.h>

#include "nvcim/mitigation/methods.hpp"

namespace nvcim::mitigation {
namespace {

cim::CrossbarConfig xbar_config() {
  cim::CrossbarConfig cfg;
  cfg.rows = 32;
  cfg.cols = 16;
  return cfg;
}

float roundtrip_error(const MitigationMethod& m, const Matrix& w, double sigma,
                      std::uint64_t seed) {
  Rng rng(seed);
  const Matrix restored =
      m.store_and_restore(w, xbar_config(), {nvm::fefet3(), sigma}, rng);
  return (restored - w).frobenius_norm() / w.frobenius_norm();
}

Matrix payload(std::uint64_t seed = 1, std::size_t r = 8, std::size_t c = 24) {
  Rng rng(seed);
  return Matrix::randn(r, c, rng, 0.4f);
}

TEST(NvmRoundtrip, NoiselessIsQuantizationOnly) {
  Rng rng(2);
  const Matrix w = payload(2);
  Rng store(3);
  const Matrix restored = nvm_roundtrip(w, xbar_config(), {nvm::rram1(), 0.0}, store);
  // Only int16 quantization error remains.
  EXPECT_LT((restored - w).frobenius_norm() / w.frobenius_norm(), 1e-3f);
}

TEST(NvmRoundtrip, TilesLargeMatrices) {
  Rng rng(4);
  const Matrix w = Matrix::randn(70, 40, rng);  // spans 3×3 tiles of 32×16
  Rng store(5);
  const Matrix restored = nvm_roundtrip(w, xbar_config(), {nvm::rram1(), 0.0}, store);
  EXPECT_EQ(restored.rows(), 70u);
  EXPECT_EQ(restored.cols(), 40u);
  EXPECT_LT((restored - w).frobenius_norm() / w.frobenius_norm(), 1e-3f);
}

TEST(NvmRoundtrip, CountersReported) {
  cim::OpCounters counters;
  Rng store(6);
  nvm_roundtrip(payload(6), xbar_config(), {nvm::rram1(), 0.0}, store, &counters);
  EXPECT_GT(counters.cells_programmed, 0u);
  EXPECT_GT(counters.write_pulses, 0u);
}

TEST(Mitigation, FactoryCoversAllKinds) {
  EXPECT_EQ(make_mitigation(Kind::None)->name(), "No-Miti");
  EXPECT_EQ(make_mitigation(Kind::SWV)->name(), "SWV");
  EXPECT_EQ(make_mitigation(Kind::CxDNN)->name(), "CxDNN");
  EXPECT_EQ(make_mitigation(Kind::CorrectNet)->name(), "CorrectNet");
}

TEST(Mitigation, AllMethodsPreserveShape) {
  const Matrix w = payload(7);
  for (Kind k : {Kind::None, Kind::SWV, Kind::CxDNN, Kind::CorrectNet}) {
    Rng rng(8);
    const Matrix r =
        make_mitigation(k)->store_and_restore(w, xbar_config(), {nvm::fefet3(), 0.1}, rng);
    EXPECT_EQ(r.rows(), w.rows());
    EXPECT_EQ(r.cols(), w.cols());
    EXPECT_TRUE(r.all_finite());
  }
}

TEST(Mitigation, SwvReducesErrorVsNoMitigation) {
  const Matrix w = payload(9, 12, 20);
  double err_none = 0.0, err_swv = 0.0;
  NoMitigation none;
  SelectiveWriteVerify swv;
  for (int rep = 0; rep < 5; ++rep) {
    err_none += roundtrip_error(none, w, 0.15, 100 + rep);
    err_swv += roundtrip_error(swv, w, 0.15, 100 + rep);
  }
  EXPECT_LT(err_swv, err_none);
}

TEST(Mitigation, SwvFullFractionBeatsPartial) {
  const Matrix w = payload(10);
  SelectiveWriteVerify::Options partial;
  partial.fraction = 0.1;
  SelectiveWriteVerify::Options full;
  full.fraction = 1.0;
  double err_partial = 0.0, err_full = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    err_partial += roundtrip_error(SelectiveWriteVerify(partial), w, 0.2, 300 + rep);
    err_full += roundtrip_error(SelectiveWriteVerify(full), w, 0.2, 300 + rep);
  }
  EXPECT_LT(err_full, err_partial);
}

TEST(Mitigation, CxDnnImprovesOverNoMitigation) {
  const Matrix w = payload(11, 16, 24);
  double err_none = 0.0, err_cx = 0.0;
  NoMitigation none;
  CxDnn cx;
  for (int rep = 0; rep < 8; ++rep) {
    err_none += roundtrip_error(none, w, 0.2, 400 + rep);
    err_cx += roundtrip_error(cx, w, 0.2, 400 + rep);
  }
  EXPECT_LT(err_cx, err_none * 1.02f);
}

TEST(Mitigation, CorrectNetHandlesOutliers) {
  // A payload with a huge outlier wastes the quantization grid; CorrectNet's
  // clipping must beat plain storage on the bulk of the values.
  Matrix w = payload(12);
  w(0, 0) = 40.0f;  // outlier ~100× the RMS
  NoMitigation none;
  CorrectNet cn;
  // Compare error on the non-outlier entries only.
  auto bulk_error = [&](const MitigationMethod& m, std::uint64_t seed) {
    Rng rng(seed);
    const Matrix r = m.store_and_restore(w, xbar_config(), {nvm::fefet3(), 0.1}, rng);
    double s = 0.0, n = 0.0;
    for (std::size_t i = 1; i < w.size(); ++i) {
      const double d = r.at_flat(i) - w.at_flat(i);
      s += d * d;
      n += static_cast<double>(w.at_flat(i)) * w.at_flat(i);
    }
    return std::sqrt(s / n);
  };
  double err_none = 0.0, err_cn = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    err_none += bulk_error(none, 500 + rep);
    err_cn += bulk_error(cn, 500 + rep);
  }
  EXPECT_LT(err_cn, err_none);
}

TEST(Mitigation, ErrorGrowsWithSigmaForAllMethods) {
  const Matrix w = payload(13);
  for (Kind k : {Kind::None, Kind::SWV, Kind::CxDNN, Kind::CorrectNet}) {
    auto m = make_mitigation(k);
    const float lo = roundtrip_error(*m, w, 0.02, 77);
    const float hi = roundtrip_error(*m, w, 0.3, 77);
    EXPECT_GT(hi, lo) << m->name();
  }
}

class MitigationSweep : public ::testing::TestWithParam<Kind> {};

TEST_P(MitigationSweep, DeterministicForSeed) {
  const Matrix w = payload(14);
  auto m = make_mitigation(GetParam());
  Rng r1(9), r2(9);
  const Matrix a = m->store_and_restore(w, xbar_config(), {nvm::fefet3(), 0.1}, r1);
  const Matrix b = m->store_and_restore(w, xbar_config(), {nvm::fefet3(), 0.1}, r2);
  EXPECT_TRUE(allclose(a, b));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, MitigationSweep,
                         ::testing::Values(Kind::None, Kind::SWV, Kind::CxDNN,
                                           Kind::CorrectNet));

}  // namespace
}  // namespace nvcim::mitigation
