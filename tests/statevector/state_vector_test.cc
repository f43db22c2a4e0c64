#include "statevector/state_vector.h"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/gate.h"

namespace qkc {
namespace {

TEST(StateVectorTest, InitialState)
{
    StateVector sv(3);
    EXPECT_EQ(sv.dimension(), 8u);
    EXPECT_TRUE(approxEqual(sv.amplitude(0), Complex{1.0}));
    for (std::uint64_t i = 1; i < 8; ++i)
        EXPECT_TRUE(approxEqual(sv.amplitude(i), Complex{}));
}

TEST(StateVectorTest, HadamardOnQubit0)
{
    StateVector sv(2);
    sv.applySingleQubit(Gate(GateKind::H, {0}).unitary(), 0);
    double s = 1.0 / std::sqrt(2.0);
    // Qubit 0 is the high bit: |00> and |10> get amplitude.
    EXPECT_TRUE(approxEqual(sv.amplitude(0), Complex{s}));
    EXPECT_TRUE(approxEqual(sv.amplitude(2), Complex{s}));
    EXPECT_TRUE(approxEqual(sv.amplitude(1), Complex{}));
}

TEST(StateVectorTest, XOnLowQubit)
{
    StateVector sv(2);
    sv.applySingleQubit(Gate(GateKind::X, {1}).unitary(), 1);
    EXPECT_TRUE(approxEqual(sv.amplitude(1), Complex{1.0}));
}

TEST(StateVectorTest, BellStateViaKernels)
{
    StateVector sv(2);
    sv.applySingleQubit(Gate(GateKind::H, {0}).unitary(), 0);
    sv.applyTwoQubit(Gate(GateKind::CNOT, {0, 1}).unitary(), 0, 1);
    double s = 1.0 / std::sqrt(2.0);
    EXPECT_TRUE(approxEqual(sv.amplitude(0), Complex{s}));
    EXPECT_TRUE(approxEqual(sv.amplitude(3), Complex{s}));
    EXPECT_TRUE(approxEqual(sv.amplitude(1), Complex{}));
    EXPECT_TRUE(approxEqual(sv.amplitude(2), Complex{}));
}

TEST(StateVectorTest, TwoQubitRespectsOperandOrder)
{
    // CNOT with control=1, target=0: |01> -> |11>.
    StateVector sv(2);
    sv.applySingleQubit(Gate(GateKind::X, {1}).unitary(), 1);
    sv.applyTwoQubit(Gate(GateKind::CNOT, {1, 0}).unitary(), 1, 0);
    EXPECT_TRUE(approxEqual(sv.amplitude(3), Complex{1.0}));
}

TEST(StateVectorTest, ToffoliKernel)
{
    StateVector sv(3);
    sv.applySingleQubit(Gate(GateKind::X, {0}).unitary(), 0);
    sv.applySingleQubit(Gate(GateKind::X, {1}).unitary(), 1);
    sv.apply(compileKernel(Gate(GateKind::CCX, {0, 1, 2}).unitary(),
                           {sv.bitOf(0), sv.bitOf(1), sv.bitOf(2)}));
    EXPECT_TRUE(approxEqual(sv.amplitude(7), Complex{1.0}));
}

TEST(StateVectorTest, NonAdjacentQubits)
{
    // CNOT across qubits 0 and 2 in a 3-qubit register.
    StateVector sv(3);
    sv.applySingleQubit(Gate(GateKind::X, {0}).unitary(), 0);
    sv.applyTwoQubit(Gate(GateKind::CNOT, {0, 2}).unitary(), 0, 2);
    // |100> -> |101> = index 5.
    EXPECT_TRUE(approxEqual(sv.amplitude(5), Complex{1.0}));
}

TEST(StateVectorTest, NormAndNormalize)
{
    StateVector sv(1);
    sv.amplitude(0) = Complex{0.6, 0.0};
    sv.amplitude(1) = Complex{0.0, 0.6};
    EXPECT_NEAR(sv.norm(), 0.72, 1e-12);
    sv.normalize();
    EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(StateVectorTest, ProbabilitiesSumToOneAfterUnitaries)
{
    StateVector sv(4);
    sv.applySingleQubit(Gate(GateKind::H, {0}).unitary(), 0);
    sv.applySingleQubit(Gate(GateKind::Rx, {2}, 1.1).unitary(), 2);
    sv.applyTwoQubit(Gate(GateKind::ZZ, {1, 3}, 0.7).unitary(), 1, 3);
    auto probs = sv.probabilities();
    double total = 0.0;
    for (double p : probs)
        total += p;
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(StateVectorTest, RejectsBadQubitCount)
{
    EXPECT_THROW(StateVector(0), std::invalid_argument);
    EXPECT_THROW(StateVector(31), std::invalid_argument);
}

} // namespace
} // namespace qkc
