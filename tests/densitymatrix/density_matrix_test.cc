#include "densitymatrix/density_matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/gate.h"
#include "circuit/noise.h"
#include "testing/oracles.h"

namespace qkc {
namespace {

TEST(DensityMatrixTest, InitialStatePure0)
{
    DensityMatrix rho(2);
    EXPECT_TRUE(approxEqual(rho.at(0, 0), Complex{1.0}));
    EXPECT_TRUE(approxEqual(rho.trace(), Complex{1.0}));
}

TEST(DensityMatrixTest, HadamardGivesCoherences)
{
    // Paper Equation 2: rho after H on |0> is all-1/2.
    DensityMatrix rho(1);
    testing::applyOp(rho, Gate(GateKind::H, {0}));
    for (int r = 0; r < 2; ++r)
        for (int c = 0; c < 2; ++c)
            EXPECT_TRUE(approxEqual(rho.at(r, c), Complex{0.5}));
}

TEST(DensityMatrixTest, PhaseDampingShrinksCoherence)
{
    // Paper Section 2.2.2: phase damping with gamma=0.36 scales the
    // off-diagonals of the |+><+| state by 0.8.
    DensityMatrix rho(1);
    testing::applyOp(rho, Gate(GateKind::H, {0}));
    testing::applyOp(rho, NoiseChannel::phaseDamping(0, 0.36));
    EXPECT_TRUE(approxEqual(rho.at(0, 0), Complex{0.5}));
    EXPECT_TRUE(approxEqual(rho.at(0, 1), Complex{0.4}));
    EXPECT_TRUE(approxEqual(rho.at(1, 0), Complex{0.4}));
    EXPECT_TRUE(approxEqual(rho.at(1, 1), Complex{0.5}));
}

TEST(DensityMatrixTest, NoisyBellFinalDensityMatrix)
{
    // Paper Equation 3: the noisy Bell circuit's final density matrix.
    DensityMatrix rho(2);
    testing::applyOp(rho, Gate(GateKind::H, {0}));
    testing::applyOp(rho, NoiseChannel::phaseDamping(0, 0.36));
    testing::applyOp(rho, Gate(GateKind::CNOT, {0, 1}));

    EXPECT_TRUE(approxEqual(rho.at(0, 0), Complex{0.5}));
    EXPECT_TRUE(approxEqual(rho.at(0, 3), Complex{0.4}));
    EXPECT_TRUE(approxEqual(rho.at(3, 0), Complex{0.4}));
    EXPECT_TRUE(approxEqual(rho.at(3, 3), Complex{0.5}));
    EXPECT_TRUE(approxEqual(rho.at(1, 1), Complex{0.0}));
    EXPECT_TRUE(approxEqual(rho.at(2, 2), Complex{0.0}));
}

TEST(DensityMatrixTest, UnitaryPreservesTrace)
{
    DensityMatrix rho(3);
    testing::applyOp(rho, Gate(GateKind::H, {1}));
    testing::applyOp(rho, Gate(GateKind::CNOT, {1, 2}));
    testing::applyOp(rho, Gate(GateKind::CCX, {0, 1, 2}));
    EXPECT_TRUE(approxEqual(rho.trace(), Complex{1.0}));
}

TEST(DensityMatrixTest, ChannelPreservesTrace)
{
    DensityMatrix rho(2);
    testing::applyOp(rho, Gate(GateKind::H, {0}));
    testing::applyOp(rho, NoiseChannel::amplitudeDamping(0, 0.4));
    testing::applyOp(rho, NoiseChannel::depolarizing(1, 0.2));
    EXPECT_TRUE(approxEqual(rho.trace(), Complex{1.0}));
}

TEST(DensityMatrixTest, FullyDepolarizedIsMaximallyMixed)
{
    DensityMatrix rho(1);
    // p = 1 symmetric depolarizing: I/2 plus Pauli conjugations average out.
    testing::applyOp(rho, NoiseChannel::depolarizing(0, 0.75));
    // For |0><0|, p=0.75 depolarizing gives diag(0.625, 0.375)? No:
    // (1-p)|0><0| + p/3 (X|0><0|X + Y|0><0|Y + Z|0><0|Z)
    //  = 0.25 |0><0| + 0.25 (|1><1| + |1><1| + |0><0|) = diag(0.5, 0.5).
    EXPECT_TRUE(approxEqual(rho.at(0, 0), Complex{0.5}));
    EXPECT_TRUE(approxEqual(rho.at(1, 1), Complex{0.5}));
}

TEST(DensityMatrixTest, DiagonalProbabilities)
{
    DensityMatrix rho(2);
    testing::applyOp(rho, Gate(GateKind::H, {0}));
    auto probs = rho.diagonalProbabilities();
    EXPECT_NEAR(probs[0], 0.5, 1e-12);
    EXPECT_NEAR(probs[2], 0.5, 1e-12);
    EXPECT_NEAR(probs[1], 0.0, 1e-12);
}

TEST(DensityMatrixTest, AmplitudeDampingToGround)
{
    DensityMatrix rho(1);
    testing::applyOp(rho, Gate(GateKind::X, {0}));
    testing::applyOp(rho, NoiseChannel::amplitudeDamping(0, 1.0));
    EXPECT_TRUE(approxEqual(rho.at(0, 0), Complex{1.0}));
    EXPECT_TRUE(approxEqual(rho.at(1, 1), Complex{0.0}));
}

TEST(DensityMatrixTest, RejectsBadQubitCount)
{
    EXPECT_THROW(DensityMatrix(0), std::invalid_argument);
    EXPECT_THROW(DensityMatrix(15), std::invalid_argument);
}

} // namespace
} // namespace qkc
