#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include <cmath>

namespace qkc {
namespace {

const Complex kI{0.0, 1.0};

TEST(MatrixTest, IdentityMultiplication)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix i = Matrix::identity(2);
    EXPECT_TRUE((a * i).approxEqual(a));
    EXPECT_TRUE((i * a).approxEqual(a));
}

TEST(MatrixTest, MultiplyKnownValues)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{5.0, 6.0}, {7.0, 8.0}};
    Matrix expected{{19.0, 22.0}, {43.0, 50.0}};
    EXPECT_TRUE((a * b).approxEqual(expected));
}

TEST(MatrixTest, ComplexMultiply)
{
    Matrix a{{kI}};
    Matrix b{{kI}};
    EXPECT_TRUE((a * b).approxEqual(Matrix{{-1.0}}));
}

TEST(MatrixTest, AddSubtract)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{4.0, 3.0}, {2.0, 1.0}};
    Matrix sum{{5.0, 5.0}, {5.0, 5.0}};
    EXPECT_TRUE((a + b).approxEqual(sum));
    EXPECT_TRUE((sum - b).approxEqual(a));
}

TEST(MatrixTest, ScalarMultiply)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix doubled{{2.0, 4.0}, {6.0, 8.0}};
    EXPECT_TRUE((a * Complex{2.0}).approxEqual(doubled));
}

TEST(MatrixTest, AdjointConjugatesAndTransposes)
{
    Matrix a{{kI, 2.0}, {3.0, 4.0 * kI}};
    Matrix adj = a.adjoint();
    EXPECT_TRUE(approxEqual(adj(0, 0), -kI));
    EXPECT_TRUE(approxEqual(adj(0, 1), Complex{3.0}));
    EXPECT_TRUE(approxEqual(adj(1, 0), Complex{2.0}));
    EXPECT_TRUE(approxEqual(adj(1, 1), -4.0 * kI));
}

TEST(MatrixTest, KroneckerProduct)
{
    Matrix a{{1.0, 0.0}, {0.0, 1.0}};
    Matrix b{{0.0, 1.0}, {1.0, 0.0}};
    Matrix k = a.kron(b);
    ASSERT_EQ(k.rows(), 4u);
    // I (x) X is block diagonal with X blocks.
    EXPECT_TRUE(approxEqual(k(0, 1), Complex{1.0}));
    EXPECT_TRUE(approxEqual(k(1, 0), Complex{1.0}));
    EXPECT_TRUE(approxEqual(k(2, 3), Complex{1.0}));
    EXPECT_TRUE(approxEqual(k(3, 2), Complex{1.0}));
    EXPECT_TRUE(approxEqual(k(0, 0), Complex{0.0}));
}

TEST(MatrixTest, KroneckerOfVectors)
{
    Matrix ket0{{1.0}, {0.0}};
    Matrix ket1{{0.0}, {1.0}};
    Matrix k = ket0.kron(ket1);
    ASSERT_EQ(k.rows(), 4u);
    EXPECT_TRUE(approxEqual(k(1, 0), Complex{1.0}));
}

TEST(MatrixTest, Trace)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0 * kI}};
    EXPECT_TRUE(approxEqual(a.trace(), Complex{1.0} + 4.0 * kI));
}

TEST(MatrixTest, HadamardIsUnitary)
{
    double s = 1.0 / std::sqrt(2.0);
    Matrix h{{s, s}, {s, -s}};
    EXPECT_TRUE(h.isUnitary());
}

TEST(MatrixTest, NonUnitaryDetected)
{
    Matrix m{{1.0, 1.0}, {0.0, 1.0}};
    EXPECT_FALSE(m.isUnitary());
}

TEST(MatrixTest, PermutationLike)
{
    // CNOT swaps |10> and |11>: one unit entry per row and column.
    Matrix cnot{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}};
    EXPECT_TRUE(approxEqual(cnot(2, 3), Complex{1.0}));
    EXPECT_TRUE(approxEqual(cnot(3, 2), Complex{1.0}));
    EXPECT_TRUE(approxEqual(cnot(2, 2), Complex{}));
    EXPECT_TRUE(approxEqual(cnot(3, 3), Complex{}));

    // H has two non-zero entries in every row.
    double s = 1.0 / std::sqrt(2.0);
    Matrix h{{s, s}, {s, -s}};
    EXPECT_GT(std::abs(h(0, 1)), kAmpEps);
    EXPECT_GT(std::abs(h(1, 0)), kAmpEps);

    // Diagonal with phases: unit-modulus diagonal, zero off-diagonal.
    Matrix rz{{std::exp(-kI * 0.3), 0.0}, {0.0, std::exp(kI * 0.3)}};
    EXPECT_NEAR(std::abs(rz(0, 0)), 1.0, kAmpEps);
    EXPECT_NEAR(std::abs(rz(1, 1)), 1.0, kAmpEps);
    EXPECT_TRUE(approxEqual(rz(0, 1), Complex{}));
    EXPECT_TRUE(approxEqual(rz(1, 0), Complex{}));
}

TEST(MatrixTest, ApproxEqualRejectsShapeMismatch)
{
    Matrix a(2, 2);
    Matrix b(2, 3);
    EXPECT_FALSE(a.approxEqual(b));
}

} // namespace
} // namespace qkc
