#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "nvcim/cim/accelerator.hpp"
#include "nvcim/cim/perf.hpp"
#include "nvcim/cim/quant.hpp"

namespace nvcim::cim {
namespace {

nvm::VariationModel noiseless() { return {nvm::rram1(), 0.0}; }

CrossbarConfig small_config() {
  CrossbarConfig cfg;
  cfg.rows = 32;
  cfg.cols = 16;
  cfg.adc_bits = 0;  // ideal unless a test enables it
  return cfg;
}

Matrix random_int_matrix(std::size_t r, std::size_t c, long lo, long hi, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.at_flat(i) = static_cast<float>(
        lo + static_cast<long>(rng.uniform_index(static_cast<std::size_t>(hi - lo + 1))));
  return m;
}

TEST(Quant, RoundtripWithinHalfLsb) {
  Rng rng(1);
  const Matrix x = Matrix::randn(4, 5, rng);
  const QuantizedMatrix q = quantize_symmetric(x, 16);
  const Matrix back = q.dequantize();
  EXPECT_TRUE(allclose(back, x, q.scale * 0.51f, 0.0f));
}

TEST(Quant, IntegerEntriesWithinRange) {
  Rng rng(2);
  const Matrix x = Matrix::randn(3, 3, rng, 10.0f);
  const QuantizedMatrix q = quantize_symmetric(x, 8);
  for (std::size_t i = 0; i < q.q.size(); ++i) {
    EXPECT_FLOAT_EQ(q.q.at_flat(i), std::round(q.q.at_flat(i)));
    EXPECT_LE(std::fabs(q.q.at_flat(i)), 127.0f);
  }
}

TEST(Quant, ZeroMatrixSafe) {
  const QuantizedMatrix q = quantize_symmetric(Matrix(2, 2, 0.0f), 16);
  EXPECT_FLOAT_EQ(q.scale, 1.0f);
  EXPECT_FLOAT_EQ(q.q.max_abs(), 0.0f);
}

/// round_half_away(q) and std::round(q) as bit patterns.
void expect_round_bitwise(double q) {
  const double want = std::round(q), got = round_half_away(q);
  std::uint64_t w = 0, g = 0;
  std::memcpy(&w, &want, sizeof w);
  std::memcpy(&g, &got, sizeof g);
  EXPECT_EQ(g, w) << std::hexfloat << "q = " << q << ": " << got << " vs " << want;
}

TEST(Quant, RoundHalfAwayBitwiseEqualsStdRoundOnEdgeCases) {
  const double two52 = std::ldexp(1.0, 52);
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (const double q :
       {0.0, 0.5, 1.5, 2.5, 3.5, 0.49999999999999994, 1.0, 0.25, 0.75, 1e-300, denorm,
        std::numeric_limits<double>::min() / 3, two52 - 0.5, two52 - 1.5, two52, two52 + 1,
        std::ldexp(1.0, 53) - 1, std::ldexp(1.0, 60) + 4096, 1e308, inf,
        std::numeric_limits<double>::max()}) {
    expect_round_bitwise(q);
    expect_round_bitwise(-q);
  }
  // NaN comes back as NaN of the same bits (std::round preserves a quiet
  // NaN's payload and sign too).
  expect_round_bitwise(std::numeric_limits<double>::quiet_NaN());
  expect_round_bitwise(-std::numeric_limits<double>::quiet_NaN());
}

TEST(Quant, RoundHalfAwayBitwiseEqualsStdRoundOnRandomSweep) {
  // Halves and near-halves at every magnitude the ADC fold meets (analog /
  // lsb stays within ±n_codes), plus raw bit patterns of every exponent.
  Rng rng(4242);
  for (int i = 0; i < 200000; ++i) {
    const double n = std::floor(rng.uniform(-300.0, 300.0));
    expect_round_bitwise(n + 0.5);
    expect_round_bitwise(std::nextafter(n + 0.5, 0.0));
    expect_round_bitwise(std::nextafter(n + 0.5, 1e9));
    expect_round_bitwise(rng.uniform(-300.0, 300.0));
    const std::uint64_t bits = rng.next_u64();
    double raw = 0.0;
    std::memcpy(&raw, &bits, sizeof raw);
    if (std::isnan(raw))  // a signaling NaN is returned as is, not quieted
      EXPECT_TRUE(std::isnan(round_half_away(raw)));
    else
      expect_round_bitwise(raw);
  }
}

TEST(CrossbarConfig, SliceCountForInt16Differential) {
  CrossbarConfig cfg;  // 2-bit cells, 16-bit values, differential
  EXPECT_EQ(cfg.levels(), 4u);
  EXPECT_EQ(cfg.n_slices(), 8u);  // 15 magnitude bits / 2
}

TEST(Crossbar, NoiselessRoundtripExact) {
  Crossbar xb(small_config());
  Rng rng(3);
  const Matrix w = random_int_matrix(8, 6, -1000, 1000, rng);
  xb.program(w, noiseless(), rng);
  EXPECT_TRUE(allclose(xb.read_values(), w, 1e-3f, 0.0f));
}

TEST(Crossbar, NoiselessMatvecExact) {
  Crossbar xb(small_config());
  Rng rng(4);
  const Matrix w = random_int_matrix(8, 6, -500, 500, rng);
  xb.program(w, noiseless(), rng);
  const Matrix x = Matrix::randn(1, 8, rng);
  const Matrix y = xb.matvec(x);
  const Matrix expected = matmul(x, w);
  EXPECT_TRUE(allclose(y, expected, 0.05f, 1e-3f));
}

TEST(Crossbar, RejectsOversizedMatrix) {
  Crossbar xb(small_config());
  Rng rng(5);
  EXPECT_THROW(xb.program(Matrix(33, 4, 1.0f), noiseless(), rng), Error);
  EXPECT_THROW(xb.program(Matrix(4, 17, 1.0f), noiseless(), rng), Error);
}

TEST(Crossbar, RejectsNonIntegerAndOverflow) {
  Crossbar xb(small_config());
  Rng rng(6);
  EXPECT_THROW(xb.program(Matrix(2, 2, 0.5f), noiseless(), rng), Error);
  EXPECT_THROW(xb.program(Matrix(2, 2, 40000.0f), noiseless(), rng), Error);
}

TEST(Crossbar, MatvecRequiresProgramming) {
  Crossbar xb(small_config());
  Matrix x(1, 8, 1.0f);
  EXPECT_THROW(xb.matvec(x), Error);
}

TEST(Crossbar, MatvecWidthValidated) {
  Crossbar xb(small_config());
  Rng rng(7);
  xb.program(Matrix(8, 4, 1.0f), noiseless(), rng);
  EXPECT_THROW(xb.matvec(Matrix(1, 9, 1.0f)), Error);
}

TEST(Crossbar, NoiseScalesWithSigma) {
  Rng rng(8);
  const Matrix w = random_int_matrix(16, 8, -2000, 2000, rng);
  auto readback_err = [&](double sigma) {
    Crossbar xb(small_config());
    Rng r(99);
    xb.program(w, {nvm::rram1(), sigma}, r);
    return (xb.read_values() - w).frobenius_norm() / w.frobenius_norm();
  };
  const float e_lo = readback_err(0.02);
  const float e_hi = readback_err(0.2);
  EXPECT_GT(e_hi, 3.0f * e_lo);
}

TEST(Crossbar, AdcQuantizationBoundedError) {
  CrossbarConfig cfg = small_config();
  cfg.adc_bits = 8;
  Crossbar ideal(small_config()), adc(cfg);
  Rng r1(9), r2(9);
  const Matrix w = random_int_matrix(16, 8, -500, 500, r1);
  ideal.program(w, noiseless(), r1);
  adc.program(w, noiseless(), r2);
  Rng rx(10);
  const Matrix x = Matrix::randn(1, 16, rx);
  const Matrix y_ideal = ideal.matvec(x);
  const Matrix y_adc = adc.matvec(x);
  const float rel =
      (y_adc - y_ideal).frobenius_norm() / std::max(1e-6f, y_ideal.frobenius_norm());
  EXPECT_GT(rel, 0.0f);   // quantization does something
  EXPECT_LT(rel, 0.25f);  // but stays bounded at 8 bits
}

TEST(Crossbar, CountersTrackActivity) {
  Crossbar xb(small_config());
  Rng rng(11);
  xb.program(Matrix(8, 4, 3.0f), noiseless(), rng);
  const auto after_program = xb.counters();
  EXPECT_EQ(after_program.cells_programmed, 8u * 4u * 8u * 2u);  // slices × polarity
  EXPECT_EQ(after_program.subarray_activations, 0u);
  xb.matvec(Matrix(1, 8, 1.0f));
  const auto after_mv = xb.counters();
  EXPECT_EQ(after_mv.subarray_activations, 16u);       // 8 slices × 2 polarities
  EXPECT_EQ(after_mv.adc_conversions, 16u * 4u);       // × active cols
  xb.reset_counters();
  EXPECT_EQ(xb.counters().subarray_activations, 0u);
}

TEST(Accelerator, MatchesIdealReferenceWithoutNoise) {
  CrossbarConfig cfg = small_config();
  Accelerator acc(cfg, noiseless());
  Rng rng(12);
  const Matrix keys = Matrix::randn(5, 70, rng);  // forces 3 row tiles
  Rng store_rng(13);
  acc.store(keys, store_rng);
  EXPECT_EQ(acc.n_keys(), 5u);
  EXPECT_EQ(acc.key_len(), 70u);
  EXPECT_EQ(acc.n_tiles(), 3u);  // ceil(70/32) × ceil(5/16)
  const Matrix q = Matrix::randn(1, 70, rng);
  const Matrix scores = acc.query(q);
  const Matrix ideal = acc.query_ideal(q);
  EXPECT_TRUE(allclose(scores, ideal, 0.05f, 0.02f));
}

TEST(Accelerator, NoisePerturbsButPreservesTopKeyMostly) {
  CrossbarConfig cfg = small_config();
  Rng rng(14);
  // Orthogonal-ish keys with one strongly matching the query.
  Matrix keys(4, 32, 0.0f);
  for (std::size_t k = 0; k < 4; ++k)
    for (std::size_t i = 0; i < 8; ++i) keys(k, k * 8 + i) = 1.0f;
  Accelerator acc(cfg, {nvm::fefet3(), 0.1});
  Rng store_rng(15);
  acc.store(keys, store_rng);
  Matrix q(1, 32, 0.0f);
  for (std::size_t i = 0; i < 8; ++i) q(0, 16 + i) = 1.0f;  // matches key 2
  const Matrix scores = acc.query(q);
  std::size_t best = 0;
  for (std::size_t i = 1; i < 4; ++i)
    if (scores(0, i) > scores(0, best)) best = i;
  EXPECT_EQ(best, 2u);
}

TEST(Accelerator, QueryShapeValidated) {
  Accelerator acc(small_config(), noiseless());
  Rng rng(16);
  acc.store(Matrix::randn(3, 20, rng), rng);
  EXPECT_THROW(acc.query(Matrix(1, 21, 1.0f)), Error);
  EXPECT_THROW(acc.query(Matrix(2, 20, 1.0f)), Error);
}

TEST(Perf, CimLatencyScalesWithKeys) {
  const auto p = rram_perf_22nm();
  CrossbarConfig cfg;  // 384×128
  const auto small = cim_retrieval_cost(p, cfg, 128, 384);
  const auto large = cim_retrieval_cost(p, cfg, 128 * 64, 384);
  EXPECT_GT(large.latency_ns, small.latency_ns);
  EXPECT_GT(large.energy_pj, small.energy_pj * 32.0);
}

TEST(Perf, CpuPaysSsdBeyondDramBudget) {
  CpuPerfParams cpu;
  cpu.dram_capacity_gb = 0.001;  // 1 MB budget
  const std::size_t keys = 10000, len = 768;
  const auto with_ssd = cpu_retrieval_cost(cpu, keys, len);
  cpu.dram_capacity_gb = 100.0;
  const auto without = cpu_retrieval_cost(cpu, keys, len);
  EXPECT_GT(with_ssd.latency_ns, without.latency_ns * 2.0);
}

TEST(Perf, CimBeatsCpuAtScale) {
  // The paper's headline: up to ~120× latency, ~60× energy vs Jetson CPU.
  CrossbarConfig cfg;
  const std::size_t n = 1u << 20;  // ~1M stored OVT codes
  const std::size_t len = 384;
  const auto cim = cim_retrieval_cost(fefet_perf_22nm(), cfg, n, len);
  const auto cpu = cpu_retrieval_cost(jetson_orin_cpu(), n, len);
  const double lat_ratio = cpu.latency_ns / cim.latency_ns;
  const double e_ratio = cpu.energy_pj / cim.energy_pj;
  EXPECT_GT(lat_ratio, 20.0);
  EXPECT_LT(lat_ratio, 400.0);
  EXPECT_GT(e_ratio, 10.0);
  EXPECT_LT(e_ratio, 200.0);
}

TEST(Perf, CountersBasedCostMatchesAnalytic) {
  CrossbarConfig cfg = small_config();
  Accelerator acc(cfg, noiseless());
  Rng rng(17);
  acc.store(Matrix::randn(4, 40, rng), rng);
  acc.query(Matrix::randn(1, 40, rng));
  const auto measured = cim_cost_from_counters(rram_perf_22nm(), cfg, acc.counters());
  EXPECT_GT(measured.latency_ns, 0.0);
  EXPECT_GT(measured.energy_pj, 0.0);
}

TEST(Perf, OvtSizingMatchesPaperScale) {
  OvtSizingModel sizing;  // 20 tokens × 2048 dim × fp16
  EXPECT_DOUBLE_EQ(sizing.bytes_per_ovt(), 81920.0);
  // Fig. 2a: 90×100 OVTs ≈ 700+ MB.
  EXPECT_GT(sizing.total_bytes(9000), 7e8);
  // Fig. 2b: 100k OVTs over a 0.2 GB/s SSD ≈ 40 s.
  const double secs = ssd_transfer_seconds(sizing.total_bytes(100000), jetson_orin_cpu());
  EXPECT_GT(secs, 30.0);
  EXPECT_LT(secs, 60.0);
}

class ValueBitsSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ValueBitsSweep, NoiselessRoundtripExactForAllPrecisions) {
  CrossbarConfig cfg = small_config();
  cfg.value_bits = GetParam();
  Crossbar xb(cfg);
  Rng rng(18);
  const long vmax = qmax_for_bits(static_cast<int>(cfg.value_bits));
  const Matrix w = random_int_matrix(6, 6, -vmax, vmax, rng);
  xb.program(w, noiseless(), rng);
  EXPECT_TRUE(allclose(xb.read_values(), w, 1e-3f, 0.0f));
}

INSTANTIATE_TEST_SUITE_P(Precisions, ValueBitsSweep, ::testing::Values(4, 8, 12, 16));

}  // namespace
}  // namespace nvcim::cim
