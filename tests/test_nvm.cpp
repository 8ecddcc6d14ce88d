#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "nvcim/nvm/device.hpp"

namespace nvcim::nvm {

// gtest appends the printed parameter to each DeviceSweep test name; without
// this it prints a raw byte dump whose std::string pointer bytes change from
// run to run, so the names would not be stable.
void PrintTo(const DeviceModel& device, std::ostream* os) { *os << device.name; }

namespace {

TEST(DeviceModel, TableTwoValuesVerbatim) {
  const auto devs = table2_devices();
  ASSERT_EQ(devs.size(), 5u);
  EXPECT_EQ(devs[0].name, "RRAM1");
  EXPECT_EQ(devs[0].paper_id, "NVM-1");
  EXPECT_DOUBLE_EQ(devs[0].sigma_per_level[0], 0.0100);
  EXPECT_EQ(devs[1].name, "FeFET2");
  EXPECT_DOUBLE_EQ(devs[1].sigma_per_level[0], 0.0067);
  EXPECT_DOUBLE_EQ(devs[1].sigma_per_level[1], 0.0135);
  EXPECT_EQ(devs[2].name, "FeFET3");
  EXPECT_DOUBLE_EQ(devs[2].sigma_per_level[1], 0.0146);
  EXPECT_EQ(devs[3].name, "RRAM4");
  EXPECT_DOUBLE_EQ(devs[3].sigma_per_level[0], 0.0038);
  EXPECT_EQ(devs[4].name, "FeFET6");
  EXPECT_DOUBLE_EQ(devs[4].sigma_per_level[3], 0.0026);
  for (const auto& d : devs) {
    EXPECT_EQ(d.n_levels, 4u);
    EXPECT_EQ(d.bits_per_cell(), 2u);
  }
}

TEST(DeviceModel, SymmetricLevelStructure) {
  // Table II devices are symmetric: L0==L3 and L1==L2.
  for (const auto& d : table2_devices()) {
    EXPECT_DOUBLE_EQ(d.sigma_per_level[0], d.sigma_per_level[3]);
    EXPECT_DOUBLE_EQ(d.sigma_per_level[1], d.sigma_per_level[2]);
  }
}

TEST(VariationModel, EffectiveSigmaNormalizedToGlobal) {
  VariationModel var{fefet3(), 0.1};
  // Mean effective sigma across levels equals global sigma.
  double mean = 0.0;
  for (std::size_t l = 0; l < 4; ++l) mean += var.effective_sigma(l);
  mean /= 4.0;
  EXPECT_NEAR(mean, 0.1, 1e-9);
  // Level shape preserved: mid levels noisier than edges for FeFET3.
  EXPECT_GT(var.effective_sigma(1), var.effective_sigma(0));
}

TEST(VariationModel, ScalesLinearlyWithGlobalSigma) {
  VariationModel lo{rram1(), 0.05}, hi{rram1(), 0.15};
  for (std::size_t l = 0; l < 4; ++l)
    EXPECT_NEAR(hi.effective_sigma(l), 3.0 * lo.effective_sigma(l), 1e-9);
}

TEST(NearestLevel, QuantizesCorrectly) {
  EXPECT_EQ(nearest_level(0.0, 4), 0u);
  EXPECT_EQ(nearest_level(1.0, 4), 3u);
  EXPECT_EQ(nearest_level(0.33, 4), 1u);
  EXPECT_EQ(nearest_level(0.5, 4), 2u);  // ties round up
  EXPECT_EQ(nearest_level(-0.2, 4), 0u);  // clamped
  EXPECT_EQ(nearest_level(1.7, 4), 3u);   // clamped
}

TEST(ProgramCell, NoiseFreeAtZeroSigma) {
  VariationModel var{rram1(), 0.0};
  Rng rng(1);
  EXPECT_DOUBLE_EQ(program_cell(0.0, var, rng), 0.0);
  EXPECT_NEAR(program_cell(0.65, var, rng), 2.0 / 3.0, 1e-12);
}

TEST(ProgramCell, NoiseStatisticsMatchSigma) {
  VariationModel var{rram1(), 0.1};  // uniform shape -> effective sigma 0.1
  Rng rng(2);
  const double target = 1.0 / 3.0;
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = program_cell(target, var, rng);
    sum += g - target;
    sq += (g - target) * (g - target);
  }
  EXPECT_NEAR(sum / n, 0.0, 0.005);
  EXPECT_NEAR(std::sqrt(sq / n), 0.1, 0.01);
}

TEST(ProgramCell, OutputClampedToUnitRange) {
  VariationModel var{rram1(), 1.0};  // extreme noise
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double g = program_cell(1.0, var, rng);
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, 1.0);
  }
}

TEST(WriteVerify, ConvergesWithinTolerance) {
  VariationModel var{rram1(), 0.2};
  Rng rng(4);
  int exceeded = 0;
  for (int i = 0; i < 200; ++i) {
    const auto res = write_verify_cell(2.0 / 3.0, var, rng, 0.05, 50);
    if (std::fabs(res.conductance - 2.0 / 3.0) > 0.05) ++exceeded;
    EXPECT_GE(res.pulses, 1u);
    EXPECT_LE(res.pulses, 50u);
  }
  // With 50 attempts at sigma 0.2, nearly all cells land inside tolerance.
  EXPECT_LT(exceeded, 5);
}

TEST(WriteVerify, UsesMorePulsesAtHigherNoise) {
  Rng rng(5);
  VariationModel lo{rram1(), 0.02}, hi{rram1(), 0.3};
  std::size_t pulses_lo = 0, pulses_hi = 0;
  for (int i = 0; i < 300; ++i) {
    pulses_lo += write_verify_cell(1.0 / 3.0, lo, rng, 0.05, 20).pulses;
    pulses_hi += write_verify_cell(1.0 / 3.0, hi, rng, 0.05, 20).pulses;
  }
  EXPECT_GT(pulses_hi, pulses_lo);
}

TEST(WriteVerify, SinglePulseEqualsBlindWrite) {
  VariationModel var{rram1(), 0.1};
  Rng r1(6), r2(6);
  const auto wv = write_verify_cell(0.5, var, r1, 1e9, 1);
  const double blind = program_cell(0.5, var, r2);
  EXPECT_DOUBLE_EQ(wv.conductance, blind);
  EXPECT_EQ(wv.pulses, 1u);
}

class DeviceSweep : public ::testing::TestWithParam<DeviceModel> {};

TEST_P(DeviceSweep, ProgramEveryLevelWithBoundedError) {
  VariationModel var{GetParam(), 0.1};
  Rng rng(7);
  for (std::size_t level = 0; level < 4; ++level) {
    const double target = static_cast<double>(level) / 3.0;
    double worst = 0.0;
    for (int i = 0; i < 500; ++i)
      worst = std::max(worst, std::fabs(program_cell(target, var, rng) - target));
    // 5-sigma bound on the worst draw (clamping helps at the edges).
    EXPECT_LT(worst, 5.0 * var.effective_sigma(level) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDevices, DeviceSweep, ::testing::ValuesIn(table2_devices()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace nvcim::nvm
