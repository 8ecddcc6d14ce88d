#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nvcim/autograd/tape.hpp"

namespace nvcim::autograd {
namespace {

/// Numerical gradient check: builds the graph twice per perturbed entry
/// (central differences) and compares with the analytic gradient.
void gradcheck(const std::function<Var(Tape&, Var)>& fn, Matrix x0, float tol = 2e-2f) {
  Tape tape;
  Var x = tape.leaf(x0, true);
  Var y = fn(tape, x);
  ASSERT_EQ(y.value().size(), 1u) << "gradcheck needs a scalar output";
  tape.backward(y);
  const Matrix analytic = x.grad();

  const float eps = 1e-2f;
  for (std::size_t i = 0; i < x0.size(); ++i) {
    Matrix xp = x0, xm = x0;
    xp.at_flat(i) += eps;
    xm.at_flat(i) -= eps;
    Tape tp, tm;
    const float fp = fn(tp, tp.leaf(xp, false)).value()(0, 0);
    const float fm = fn(tm, tm.leaf(xm, false)).value()(0, 0);
    const float numeric = (fp - fm) / (2.0f * eps);
    EXPECT_NEAR(analytic.at_flat(i), numeric, tol * (1.0f + std::fabs(numeric)))
        << "entry " << i;
  }
}

Matrix test_input(std::size_t r, std::size_t c, std::uint64_t seed = 3) {
  Rng rng(seed);
  return Matrix::randn(r, c, rng, 0.7f);
}

TEST(Autograd, AddGrad) {
  gradcheck(
      [](Tape& t, Var x) {
        Var c = t.leaf(Matrix(2, 3, 0.5f), false);
        return t.mean_all(t.add(x, c));
      },
      test_input(2, 3));
}

TEST(Autograd, SubAndScaleGrad) {
  gradcheck(
      [](Tape& t, Var x) {
        Var c = t.leaf(Matrix(2, 3, 1.0f), false);
        return t.mean_all(t.scale(t.sub(x, c), 3.0f));
      },
      test_input(2, 3));
}

TEST(Autograd, MulGrad) {
  gradcheck(
      [](Tape& t, Var x) {
        Var c = t.leaf(Matrix{{1, -2, 3}, {0.5, 2, -1}}, false);
        return t.mean_all(t.mul(x, c));
      },
      test_input(2, 3));
}

TEST(Autograd, SquareGrad) {
  gradcheck([](Tape& t, Var x) { return t.mean_all(t.square(x)); }, test_input(3, 2));
}

TEST(Autograd, MatmulGradLhs) {
  gradcheck(
      [](Tape& t, Var x) {
        Var w = t.leaf(test_input(3, 4, 11), false);
        return t.mean_all(t.matmul(x, w));
      },
      test_input(2, 3));
}

TEST(Autograd, MatmulGradRhs) {
  gradcheck(
      [](Tape& t, Var x) {
        Var a = t.leaf(test_input(4, 2, 13), false);
        return t.mean_all(t.matmul(a, x));
      },
      test_input(2, 3));
}

TEST(Autograd, MatmulNtGrad) {
  gradcheck(
      [](Tape& t, Var x) {
        Var b = t.leaf(test_input(5, 3, 17), false);
        return t.mean_all(t.matmul_nt(x, b));
      },
      test_input(2, 3));
}

TEST(Autograd, RowBroadcastBiasGrad) {
  gradcheck(
      [](Tape& t, Var x) {
        Var a = t.leaf(test_input(4, 3, 19), false);
        return t.mean_all(t.add_row_broadcast(a, x));
      },
      test_input(1, 3));
}

TEST(Autograd, ReluGrad) {
  gradcheck([](Tape& t, Var x) { return t.mean_all(t.relu(x)); }, test_input(3, 3, 23));
}

TEST(Autograd, GeluGrad) {
  gradcheck([](Tape& t, Var x) { return t.mean_all(t.gelu(x)); }, test_input(3, 3, 29));
}

TEST(Autograd, GeluGradWideRange) {
  // 20 inputs spread evenly over [−6, 6], both tails included; the sum (not
  // the mean) keeps each entry's gradient at GELU'(x), so the tolerance is
  // relative to the derivative itself.
  Matrix x0(4, 5);
  for (std::size_t i = 0; i < x0.size(); ++i)
    x0.at_flat(i) = -6.0f + 12.0f * (static_cast<float>(i) + 0.5f) / static_cast<float>(x0.size());
  gradcheck(
      [](Tape& t, Var x) {
        return t.scale(t.mean_all(t.gelu(x)), static_cast<float>(x.value().size()));
      },
      x0);
}

TEST(Autograd, TanhGrad) {
  gradcheck([](Tape& t, Var x) { return t.mean_all(t.tanh_op(x)); }, test_input(3, 3, 31));
}

TEST(Autograd, RowSoftmaxGrad) {
  gradcheck(
      [](Tape& t, Var x) {
        Var w = t.leaf(test_input(2, 4, 37), false);
        return t.mean_all(t.mul(t.row_softmax(x), w));
      },
      test_input(2, 4));
}

TEST(Autograd, RowSoftmaxRowsSumToOne) {
  Tape t;
  Var x = t.leaf(test_input(3, 5), false);
  const Matrix y = t.row_softmax(x).value();
  for (std::size_t r = 0; r < y.rows(); ++r) {
    float s = 0.0f;
    for (std::size_t c = 0; c < y.cols(); ++c) {
      s += y(r, c);
      EXPECT_GT(y(r, c), 0.0f);
    }
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
}

TEST(Autograd, LayerNormGradInput) {
  gradcheck(
      [](Tape& t, Var x) {
        Var g = t.leaf(Matrix(1, 4, 1.2f), false);
        Var b = t.leaf(Matrix(1, 4, 0.1f), false);
        Var w = t.leaf(test_input(3, 4, 41), false);
        return t.mean_all(t.mul(t.layernorm(x, g, b), w));
      },
      test_input(3, 4));
}

TEST(Autograd, LayerNormGradGainBias) {
  const Matrix x0 = test_input(3, 4, 43);
  gradcheck(
      [&](Tape& t, Var g) {
        Var x = t.leaf(x0, false);
        Var b = t.leaf(Matrix(1, 4, 0.0f), false);
        return t.mean_all(t.layernorm(x, g, b));
      },
      Matrix(1, 4, 1.0f));
}

TEST(Autograd, LayerNormNormalizesRows) {
  Tape t;
  Var x = t.leaf(test_input(4, 8, 47), false);
  Var g = t.leaf(Matrix(1, 8, 1.0f), false);
  Var b = t.leaf(Matrix(1, 8, 0.0f), false);
  const Matrix y = t.layernorm(x, g, b).value();
  for (std::size_t r = 0; r < y.rows(); ++r) {
    double mu = 0.0, var = 0.0;
    for (std::size_t c = 0; c < y.cols(); ++c) mu += y(r, c);
    mu /= y.cols();
    for (std::size_t c = 0; c < y.cols(); ++c) var += (y(r, c) - mu) * (y(r, c) - mu);
    var /= y.cols();
    EXPECT_NEAR(mu, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(Autograd, ConcatAndSliceRowsGrad) {
  gradcheck(
      [](Tape& t, Var x) {
        Var top = t.leaf(test_input(2, 3, 53), false);
        Var cat = t.concat_rows(top, x);
        return t.mean_all(t.slice_rows(cat, 1, 4));
      },
      test_input(2, 3));
}

TEST(Autograd, ConcatAndSliceColsGrad) {
  gradcheck(
      [](Tape& t, Var x) {
        Var left = t.leaf(test_input(2, 2, 59), false);
        Var cat = t.concat_cols(left, x);
        return t.mean_all(t.slice_cols(cat, 1, 4));
      },
      test_input(2, 3));
}

TEST(Autograd, ReshapeGrad) {
  gradcheck([](Tape& t, Var x) { return t.mean_all(t.reshape(x, 3, 2)); },
            test_input(2, 3));
}

TEST(Autograd, EmbeddingGradScattersToRows) {
  Tape t;
  Var table = t.leaf(test_input(5, 3, 61), true);
  Var out = t.embedding(table, {1, 3, 1});
  Var loss = t.mean_all(out);
  t.backward(loss);
  const Matrix g = table.grad();
  // Row 1 gathered twice, row 3 once, rows 0/2/4 never.
  EXPECT_NEAR(g(1, 0), 2.0f / 9.0f, 1e-5f);
  EXPECT_NEAR(g(3, 0), 1.0f / 9.0f, 1e-5f);
  EXPECT_FLOAT_EQ(g(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(g(4, 2), 0.0f);
}

TEST(Autograd, EmbeddingRejectsBadIds) {
  Tape t;
  Var table = t.leaf(Matrix(3, 2), false);
  EXPECT_THROW(t.embedding(table, {3}), Error);
  EXPECT_THROW(t.embedding(table, {-1}), Error);
}

TEST(Autograd, CrossEntropyGrad) {
  gradcheck(
      [](Tape& t, Var x) { return t.cross_entropy(x, {1, 0, -1}); },
      test_input(3, 4), 3e-2f);
}

TEST(Autograd, CrossEntropyIgnoresMaskedRows) {
  Tape t;
  Matrix z = test_input(2, 3, 67);
  Var a = t.leaf(z, true);
  Var l1 = t.cross_entropy(a, {1, -1});
  Tape t2;
  Var b = t2.leaf(z.row_slice(0, 1), true);
  Var l2 = t2.cross_entropy(b, {1});
  EXPECT_NEAR(l1.value()(0, 0), l2.value()(0, 0), 1e-5f);
}

TEST(Autograd, CrossEntropyAllMaskedThrows) {
  Tape t;
  Var a = t.leaf(Matrix(2, 3, 0.1f), false);
  EXPECT_THROW(t.cross_entropy(a, {-1, -1}), Error);
}

TEST(Autograd, MseGrad) {
  gradcheck(
      [](Tape& t, Var x) { return t.mse(x, Matrix(2, 3, 0.25f)); }, test_input(2, 3));
}

TEST(Autograd, BackwardRequiresScalar) {
  Tape t;
  Var x = t.leaf(Matrix(2, 2, 1.0f), true);
  Var y = t.add(x, x);
  EXPECT_THROW(t.backward(y), Error);
}

TEST(Autograd, GradAccumulatesAcrossUses) {
  Tape t;
  Var x = t.leaf(Matrix(1, 1, 2.0f), true);
  Var y = t.mean_all(t.mul(x, x));  // d/dx x² = 2x = 4
  t.backward(y);
  EXPECT_NEAR(x.grad()(0, 0), 4.0f, 1e-5f);
}

TEST(Autograd, NoGradForFrozenLeaf) {
  Tape t;
  Var x = t.leaf(Matrix(1, 2, 1.0f), false);
  Var y = t.mean_all(t.scale(x, 2.0f));
  t.backward(y);
  EXPECT_FALSE(t.has_grad(x));
}

TEST(Autograd, DeepChainGradient) {
  // f(x) = mean(tanh(gelu(x W1) W2)) — composite through several ops.
  gradcheck(
      [](Tape& t, Var x) {
        Var w1 = t.leaf(test_input(3, 5, 71), false);
        Var w2 = t.leaf(test_input(5, 2, 73), false);
        return t.mean_all(t.tanh_op(t.matmul(t.gelu(t.matmul(x, w1)), w2)));
      },
      test_input(2, 3));
}

TEST(Autograd, ClearInvalidatesGraph) {
  Tape t;
  Var x = t.leaf(Matrix(1, 1, 1.0f), true);
  (void)x;
  EXPECT_EQ(t.node_count(), 1u);
  t.clear();
  EXPECT_EQ(t.node_count(), 0u);
}

}  // namespace
}  // namespace nvcim::autograd
