#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>

#include "nvcim/tensor/matrix.hpp"

namespace nvcim {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m(1, 2), 1.5f);
  m(0, 1) = -2.0f;
  EXPECT_FLOAT_EQ(m(0, 1), -2.0f);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FLOAT_EQ(m(1, 0), 4.0f);
}

TEST(Matrix, OutOfBoundsThrows) {
  Matrix m(2, 2);
  EXPECT_THROW(m(2, 0), Error);
  EXPECT_THROW(m(0, 2), Error);
}

TEST(Matrix, Identity) {
  const Matrix i = Matrix::identity(3);
  EXPECT_FLOAT_EQ(i(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(i(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(i.sum(), 3.0f);
}

TEST(Matrix, ElementwiseOps) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{10, 20}, {30, 40}};
  const Matrix sum = a + b;
  EXPECT_FLOAT_EQ(sum(1, 1), 44.0f);
  const Matrix diff = b - a;
  EXPECT_FLOAT_EQ(diff(0, 0), 9.0f);
  const Matrix prod = hadamard(a, b);
  EXPECT_FLOAT_EQ(prod(1, 0), 90.0f);
  const Matrix scaled = a * 2.0f;
  EXPECT_FLOAT_EQ(scaled(0, 1), 4.0f);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(a += b, Error);
  EXPECT_THROW(hadamard(a, b), Error);
}

TEST(Matrix, AddScaled) {
  Matrix a{{1, 1}};
  Matrix b{{2, 4}};
  a.add_scaled(b, 0.5f);
  EXPECT_FLOAT_EQ(a(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(a(0, 1), 3.0f);
}

TEST(Matrix, MatmulAgainstManual) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  const Matrix c = matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 50.0f);
}

TEST(Matrix, MatmulShapeCheck) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(matmul(a, b), Error);
}

TEST(Matrix, MatmulVariantsAgree) {
  Rng rng(5);
  const Matrix a = Matrix::randn(4, 6, rng);
  const Matrix b = Matrix::randn(4, 5, rng);
  const Matrix c = Matrix::randn(5, 6, rng);
  EXPECT_TRUE(allclose(matmul_tn(a, b), matmul(a.transposed(), b), 1e-4f, 1e-4f));
  EXPECT_TRUE(allclose(matmul_nt(a, c), matmul(a, c.transposed()), 1e-4f, 1e-4f));
}

TEST(Matrix, TransposeRoundtrip) {
  Rng rng(6);
  const Matrix a = Matrix::randn(3, 7, rng);
  EXPECT_TRUE(allclose(a.transposed().transposed(), a));
}

TEST(Matrix, ReshapePreservesData) {
  Matrix a{{1, 2, 3, 4}};
  const Matrix r = a.reshaped(2, 2);
  EXPECT_FLOAT_EQ(r(1, 0), 3.0f);
  EXPECT_THROW(a.reshaped(3, 2), Error);
}

TEST(Matrix, RowAndColSlice) {
  Matrix m{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  const Matrix rows = m.row_slice(1, 3);
  EXPECT_EQ(rows.rows(), 2u);
  EXPECT_FLOAT_EQ(rows(0, 0), 4.0f);
  const Matrix cols = m.col_slice(1, 2);
  EXPECT_EQ(cols.cols(), 1u);
  EXPECT_FLOAT_EQ(cols(2, 0), 8.0f);
}

TEST(Matrix, SetRow) {
  Matrix m(2, 3, 0.0f);
  m.set_row(1, Matrix{{7, 8, 9}});
  EXPECT_FLOAT_EQ(m(1, 2), 9.0f);
  EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
}

TEST(Matrix, Reductions) {
  Matrix m{{-1, 2}, {3, -4}};
  EXPECT_FLOAT_EQ(m.sum(), 0.0f);
  EXPECT_FLOAT_EQ(m.mean(), 0.0f);
  EXPECT_FLOAT_EQ(m.min(), -4.0f);
  EXPECT_FLOAT_EQ(m.max(), 3.0f);
  EXPECT_FLOAT_EQ(m.max_abs(), 4.0f);
  EXPECT_NEAR(m.frobenius_norm(), std::sqrt(30.0f), 1e-5f);
}

TEST(Matrix, DotAndCosine) {
  Matrix a{{1, 0, 2}};
  Matrix b{{3, 5, 1}};
  EXPECT_FLOAT_EQ(dot(a, b), 5.0f);
  EXPECT_NEAR(cosine_similarity(a, a), 1.0f, 1e-6f);
  Matrix zero(1, 3, 0.0f);
  EXPECT_FLOAT_EQ(cosine_similarity(a, zero), 0.0f);
}

TEST(Matrix, Concat) {
  Matrix a{{1, 2}}, b{{3, 4}};
  const Matrix v = vconcat(a, b);
  EXPECT_EQ(v.rows(), 2u);
  EXPECT_FLOAT_EQ(v(1, 1), 4.0f);
  const Matrix h = hconcat(a, b);
  EXPECT_EQ(h.cols(), 4u);
  EXPECT_FLOAT_EQ(h(0, 3), 4.0f);
}

TEST(Matrix, AveragePoolFlat) {
  Matrix x{{1, 2, 3, 4, 5}};
  const Matrix p2 = average_pool_flat(x, 2);
  ASSERT_EQ(p2.size(), 3u);
  EXPECT_FLOAT_EQ(p2.at_flat(0), 1.5f);
  EXPECT_FLOAT_EQ(p2.at_flat(1), 3.5f);
  EXPECT_FLOAT_EQ(p2.at_flat(2), 5.0f);  // short tail window
  const Matrix p1 = average_pool_flat(x, 1);
  EXPECT_TRUE(allclose(p1, x.flattened()));
}

TEST(Matrix, AveragePoolPreservesMeanForExactWindows) {
  Rng rng(8);
  const Matrix x = Matrix::randn(1, 16, rng);
  const Matrix p = average_pool_flat(x, 4);
  EXPECT_NEAR(p.mean(), x.mean(), 1e-5f);
}

TEST(Matrix, ResampleRowsDown) {
  Matrix x{{1, 1}, {3, 3}, {5, 5}, {7, 7}};
  const Matrix r = resample_rows(x, 2);
  ASSERT_EQ(r.rows(), 2u);
  EXPECT_FLOAT_EQ(r(0, 0), 2.0f);  // mean of rows 0,1
  EXPECT_FLOAT_EQ(r(1, 0), 6.0f);  // mean of rows 2,3
}

TEST(Matrix, ResampleRowsUpRepeats) {
  Matrix x{{1, 1}, {3, 3}};
  const Matrix r = resample_rows(x, 4);
  ASSERT_EQ(r.rows(), 4u);
  EXPECT_FLOAT_EQ(r(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(r(3, 0), 3.0f);
}

TEST(Matrix, ResampleRowsIdentity) {
  Rng rng(4);
  const Matrix x = Matrix::randn(5, 3, rng);
  EXPECT_TRUE(allclose(resample_rows(x, 5), x));
}

// The textbook i-k-j loop, zero skip included: the oracle matmul_into must
// match bit for bit whenever B is finite. Its multiply-add is spelled out
// (fused on FMA targets, as -march=native builds contracted the old
// production loop) so the oracle does not hang on the compiler's choice.
Matrix textbook_matmul(const Matrix& a, const Matrix& b) {
  Matrix ref(a.rows(), b.cols(), 0.0f);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const float av = a(i, k);
      if (av == 0.0f) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
#ifdef __FMA__
        ref(i, j) = std::fma(av, b(k, j), ref(i, j));
#else
        ref(i, j) += av * b(k, j);
#endif
      }
    }
  return ref;
}

std::uint32_t bits(float v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

void expect_matches_oracle(const Matrix& a, const Matrix& b, Matrix& out) {
  matmul_into(a, b, out);
  const Matrix ref = textbook_matmul(a, b);
  ASSERT_TRUE(out.same_shape(ref));
  for (std::size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(bits(out.at_flat(i)), bits(ref.at_flat(i)))
        << a.rows() << "x" << a.cols() << "x" << b.cols() << " flat " << i;
}

TEST(Gemm, TileMatchesTextbookOracle) {
  Rng rng(31);
  // Fixed shapes: single elements, K = 0, K around 128, tall and wide, and
  // serving-sized products (d_model 64, autoencoder hidden 256).
  const std::size_t shapes[][3] = {{1, 1, 1},   {3, 5, 4},    {32, 128, 8}, {33, 129, 7},
                                   {70, 300, 5}, {2, 257, 3},  {5, 0, 9},    {53, 64, 256},
                                   {53, 256, 48}, {24, 256, 64}, {100, 64, 64}};
  for (const auto& s : shapes) {
    Matrix out;
    expect_matches_oracle(Matrix::randn(s[0], s[1], rng), Matrix::randn(s[1], s[2], rng), out);
  }
  // Random shapes: every N mod 32 class below and above one tile, every
  // M mod 4 class, K straddling 128, with exact zeros in A (scattered
  // entries and one whole row), into an `out` full of NaN garbage that is
  // the right size, larger or smaller.
  const std::size_t ks[] = {1, 2, 17, 64, 127, 128, 129, 200};
  const float garbage = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t n = 1; n <= 64; ++n) {
    const std::size_t m = 1 + rng.uniform_index(13);
    const std::size_t k = ks[rng.uniform_index(std::size(ks))];
    Matrix a = Matrix::randn(m, k, rng);
    for (std::size_t i = 0; i < a.size(); ++i)
      if (rng.uniform() < 0.3) a.at_flat(i) = 0.0f;
    const std::size_t zero_row = rng.uniform_index(m);
    for (std::size_t c = 0; c < k; ++c) a(zero_row, c) = 0.0f;
    const std::size_t out_rows[] = {m, m + 3, 1};
    Matrix out(out_rows[n % 3], n, garbage);
    expect_matches_oracle(a, Matrix::randn(k, n, rng), out);
  }
}

TEST(Matrix, MatmulIntoReusesStorage) {
  Rng rng(32);
  const Matrix a = Matrix::randn(6, 9, rng);
  const Matrix b = Matrix::randn(9, 4, rng);
  Matrix out(6, 4, 123.0f);  // pre-sized garbage; must be fully overwritten
  const float* before = out.data();
  matmul_into(a, b, out);
  EXPECT_EQ(out.data(), before);  // no reallocation when the size fits
  const Matrix ref = matmul(a, b);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out.at_flat(i), ref.at_flat(i));
}

TEST(Matrix, StackRowsConcatenatesInOrder) {
  Rng rng(33);
  const Matrix a = Matrix::randn(2, 3, rng);
  const Matrix b = Matrix::randn(1, 3, rng);
  const Matrix c = Matrix::randn(4, 3, rng);
  const Matrix s = stack_rows({&a, &b, &c});
  ASSERT_EQ(s.rows(), 7u);
  ASSERT_EQ(s.cols(), 3u);
  const Matrix ref = vconcat(vconcat(a, b), c);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(s.at_flat(i), ref.at_flat(i));
}

TEST(Matrix, ResampleRowsBatchMatchesSerialBitForBit) {
  Rng rng(34);
  for (std::size_t n_rows : {1u, 2u, 4u, 7u}) {
    std::vector<Matrix> items;
    for (std::size_t r : {1u, 2u, 4u, 5u, 13u, 17u}) items.push_back(Matrix::randn(r, 6, rng));
    std::vector<const Matrix*> ptrs;
    for (const Matrix& m : items) ptrs.push_back(&m);
    Matrix batched;
    resample_rows_batch(ptrs, n_rows, batched);
    ASSERT_EQ(batched.rows(), items.size() * n_rows);
    for (std::size_t b = 0; b < items.size(); ++b) {
      const Matrix serial = resample_rows(items[b], n_rows);
      for (std::size_t i = 0; i < serial.rows(); ++i)
        for (std::size_t c = 0; c < serial.cols(); ++c)
          ASSERT_EQ(batched(b * n_rows + i, c), serial(i, c))
              << "item " << b << " n_rows " << n_rows << " (" << i << "," << c << ")";
    }
  }
}

TEST(Matrix, ReshapeInplaceAndResize) {
  Matrix m(2, 6, 1.0f);
  const float* data = m.data();
  m.reshape_inplace(4, 3);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.data(), data);  // no copy
  EXPECT_THROW(m.reshape_inplace(5, 3), Error);
  m.resize(1, 3);
  EXPECT_EQ(m.size(), 3u);
  m.resize(10, 10);
  EXPECT_EQ(m.size(), 100u);
}

TEST(Matrix, AllFinite) {
  Matrix m(2, 2, 1.0f);
  EXPECT_TRUE(m.all_finite());
  m(0, 0) = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(m.all_finite());
}

TEST(Matrix, RandnStatistics) {
  Rng rng(21);
  const Matrix m = Matrix::randn(100, 100, rng, 2.0f);
  EXPECT_NEAR(m.mean(), 0.0f, 0.05f);
  const float var = m.frobenius_norm() * m.frobenius_norm() / static_cast<float>(m.size());
  EXPECT_NEAR(var, 4.0f, 0.2f);
}

class PoolScaleTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoolScaleTest, PooledLengthIsCeilDiv) {
  Rng rng(1);
  const std::size_t scale = GetParam();
  const Matrix x = Matrix::randn(3, 10, rng);  // 30 elements flattened
  const Matrix p = average_pool_flat(x, scale);
  EXPECT_EQ(p.size(), (30 + scale - 1) / scale);
}

INSTANTIATE_TEST_SUITE_P(Scales, PoolScaleTest, ::testing::Values(1, 2, 3, 4, 7, 30, 31));

}  // namespace
}  // namespace nvcim
