#pragma once

#include <cmath>

#include "nvcim/tensor/matrix.hpp"

namespace nvcim::cim {

/// Symmetric int quantization of a float matrix: q = round(x / scale) with
/// scale = max|x| / qmax. Values are kept in a float Matrix whose entries are
/// exact integers in [-qmax, qmax] — the storage format the crossbar
/// programs. Default 16-bit matches the paper's "precision of int16".
struct QuantizedMatrix {
  Matrix q;          ///< integer-valued entries
  float scale = 1.0f;
  int bits = 16;

  Matrix dequantize() const { return q * scale; }
};

QuantizedMatrix quantize_symmetric(const Matrix& x, int bits = 16);

/// Max representable magnitude for a symmetric b-bit integer.
inline long qmax_for_bits(int bits) { return (1L << (bits - 1)) - 1; }

/// std::round (half away from zero), bitwise, without the libm call, so a
/// loop of them vectorizes: adding and subtracting 2^52 rounds |q| to the
/// nearest integer with ties to even, a tie that went down is bumped up,
/// and the sign of q is restored (so −0.3 gives −0). |q| ≥ 2^52 (already
/// integral), ±inf and NaN return q itself (a signaling NaN is not quieted,
/// the one input where the bits differ from std::round's).
inline double round_half_away(double q) {
  constexpr double kTwo52 = 4503599627370496.0;
  const double a = std::fabs(q);
  const double t = (a + kTwo52) - kTwo52;
  const double m = t + static_cast<double>(a - t == 0.5);
  return a < kTwo52 ? std::copysign(m, q) : q;
}

}  // namespace nvcim::cim
