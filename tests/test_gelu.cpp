#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "nvcim/autograd/tape.hpp"
#include "nvcim/common/rng.hpp"
#include "nvcim/nn/layers.hpp"

namespace nvcim::autograd {
namespace {

std::uint32_t bits(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, sizeof b);
  return b;
}

float from_bits(std::uint32_t b) {
  float f;
  std::memcpy(&f, &b, sizeof f);
  return f;
}

/// The same formula in double precision: x / (1 + e^(−2u)).
double gelu_reference(float xf) {
  const double x = xf;
  const double u = static_cast<double>(kGeluC) * (x + static_cast<double>(kGeluA) * x * x * x);
  return x / (1.0 + std::exp(-2.0 * u));
}

/// Distance between adjacent floats at |v|.
double float_ulp(double v) {
  const float a = static_cast<float>(std::fabs(v));
  return static_cast<double>(std::nextafter(a, std::numeric_limits<float>::infinity())) - a;
}

const float kSpecials[] = {0.0f,
                           -0.0f,
                           std::numeric_limits<float>::quiet_NaN(),
                           -std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           FLT_MAX,
                           -FLT_MAX,
                           FLT_MIN,
                           -FLT_MIN,
                           std::numeric_limits<float>::denorm_min(),
                           10.0f,
                           -10.0f,
                           9.9f,
                           -9.9f};

TEST(Gelu, ArrayLoopMatchesScalarForEveryLengthAndAlignment) {
  Rng rng(41);
  constexpr std::size_t kSpecialCount = sizeof(kSpecials) / sizeof(kSpecials[0]);
  for (std::size_t n = 0; n <= 130; ++n) {
    for (std::size_t offset : {0u, 1u}) {
      std::vector<float> buf(n + 1);
      for (std::size_t i = 0; i < n; ++i)
        buf[offset + i] = (i % 7 == 3) ? kSpecials[(i + n) % kSpecialCount]
                                       : static_cast<float>(rng.uniform(-12.0, 12.0));
      std::vector<float> expect(n);
      for (std::size_t i = 0; i < n; ++i) expect[i] = gelu_value(buf[offset + i]);
      gelu_inplace(buf.data() + offset, n);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(bits(buf[offset + i]), bits(expect[i]))
            << "n=" << n << " offset=" << offset << " i=" << i;
    }
  }
}

TEST(Gelu, TapeValueMatchesTapeFreeBytes) {
  Rng rng(43);
  const Matrix x = Matrix::randn(36, 128, rng, 2.0f);
  Tape tape;
  const Matrix taped = tape.gelu(tape.leaf(x, false)).value();
  Matrix direct = x;
  nn::gelu_inplace(direct);
  ASSERT_EQ(taped.size(), direct.size());
  EXPECT_EQ(std::memcmp(taped.data(), direct.data(), direct.size() * sizeof(float)), 0);
}

TEST(Gelu, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bits(gelu_value(0.0f)), bits(0.0f));
  EXPECT_EQ(bits(gelu_value(-0.0f)), bits(-0.0f));
  EXPECT_TRUE(std::isnan(gelu_value(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_EQ(gelu_value(inf), inf);
  for (float x : {10.0f, 10.5f, 37.0f, 1e3f, 1e6f, 1e20f, FLT_MAX}) EXPECT_EQ(gelu_value(x), x) << x;
  for (float x : {-10.0f, -10.5f, -37.0f, -1e3f, -1e6f, -1e8f, -1e20f, -FLT_MAX}) {
    const float y = gelu_value(x);
    EXPECT_GE(y, -1e-30f) << x;
    EXPECT_LE(y, 0.0f) << x;
  }
  // −inf meets e^(−2u) = +inf, so the quotient −inf / +inf is NaN (the
  // tanh form gave NaN too, from −inf · 0).
  EXPECT_TRUE(std::isnan(gelu_value(-inf)));
}

TEST(Gelu, AccuracyAgainstDoubleReference) {
  // Every 1009th float in [−8, 8], walked by bit pattern on each side of 0,
  // so small magnitudes are covered as densely (relatively) as large ones.
  const std::uint32_t top = bits(8.0f);
  for (std::uint32_t b = 0; b <= top; b += 1009) {
    for (float x : {from_bits(b), -from_bits(b)}) {
      const double ref = gelu_reference(x);
      const double err = std::fabs(static_cast<double>(gelu_value(x)) - ref);
      ASSERT_LE(err, 1e-6) << "x=" << x;
      if (x >= -3.0f) {
        ASSERT_LE(err / float_ulp(ref), 32.0) << "x=" << x;
      }
    }
  }
}

}  // namespace
}  // namespace nvcim::autograd
