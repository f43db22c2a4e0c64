/**
 * Thread-count determinism (ISSUE 3 acceptance): 1-thread and N-thread runs
 * must produce bit-identical amplitudes and identical sampling outcomes —
 * not just statistically equivalent distributions. This is what makes
 * QKC_THREADS a pure performance knob.
 */
#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "circuit/noise.h"
#include "statevector/statevector_simulator.h"
#include "testing/session_runs.h"
#include "util/rng.h"
#include "vqa/backends.h"

namespace qkc {
namespace {

ExecPolicy
withThreads(std::size_t threads)
{
    ExecPolicy p;
    p.threads = threads;
    p.serialThreshold = 1; // force the pool path even at test sizes
    p.grain = 32;
    return p;
}

Circuit
benchmarkishCircuit(std::size_t n)
{
    Circuit c(n);
    for (std::size_t q = 0; q < n; ++q)
        c.h(q);
    for (std::size_t q = 0; q + 1 < n; ++q) {
        c.cnot(q, q + 1);
        c.rz(q, 0.31 * static_cast<double>(q + 1));
    }
    for (std::size_t q = 0; q < n; ++q)
        c.t(q);
    for (std::size_t q = 0; q + 2 < n; q += 2)
        c.zz(q, q + 2, 0.77);
    return c;
}

TEST(DeterminismTest, AmplitudesBitIdenticalAcrossThreadCounts)
{
    const Circuit c = benchmarkishCircuit(8);
    const StateVector reference = testing::finalState(c, withThreads(1));
    for (std::size_t threads : {2u, 4u, 7u}) {
        const StateVector sv = testing::finalState(c, withThreads(threads));
        for (std::uint64_t i = 0; i < sv.dimension(); ++i) {
            ASSERT_EQ(sv.amplitude(i).real(), reference.amplitude(i).real());
            ASSERT_EQ(sv.amplitude(i).imag(), reference.amplitude(i).imag());
        }
    }
}

TEST(DeterminismTest, NormBitIdenticalAcrossThreadCounts)
{
    StateVector a(10);
    a.setExecPolicy(withThreads(1));
    StateVector b(10);
    b.setExecPolicy(withThreads(4));
    const Matrix h = Gate(GateKind::H, {0}).unitary();
    for (std::size_t q = 0; q < 10; ++q) {
        a.applySingleQubit(h, q);
        b.applySingleQubit(h, q);
    }
    EXPECT_EQ(a.norm(), b.norm());
}

TEST(DeterminismTest, IdealSamplingIdenticalAcrossThreadCounts)
{
    const Circuit c = benchmarkishCircuit(7);
    const auto sample = [&c](std::size_t threads, Rng& rng) {
        return StateVectorSimulator::sampleFromDistribution(
            testing::finalState(c, withThreads(threads)).probabilities(), 500,
            rng);
    };
    Rng rngA(12345), rngB(12345);
    EXPECT_EQ(sample(1, rngA), sample(4, rngB));
}

TEST(DeterminismTest, NoisySamplingIdenticalAcrossThreadCounts)
{
    const Circuit noisy = benchmarkishCircuit(5).withNoiseAfterEachGate(
        NoiseKind::Depolarizing, 0.02);
    Rng rngA(777), rngB(777);
    const auto a = testing::samplesOf("sv:threads=1", noisy, 200, rngA);
    const auto b = testing::samplesOf("sv:threads=4", noisy, 200, rngB);
    EXPECT_EQ(a, b);
}

TEST(DeterminismTest, DensityMatrixBitIdenticalAcrossThreadCounts)
{
    // A 9-qubit rho (2^18 entries) gives every sweep many chunks per
    // thread. Depolarizing channels compile to generic 4x4 superoperators,
    // the two-qubit ones to 16x16 gather kernels.
    Circuit noisy = benchmarkishCircuit(9).withNoiseAfterEachGate(
        NoiseKind::AmplitudeDamping, 0.05);
    for (std::size_t q = 0; q < 9; q += 2)
        noisy.append(NoiseChannel::depolarizing(q, 0.04));
    noisy.append(NoiseChannel::twoQubitDepolarizing(1, 6, 0.03));
    noisy.append(NoiseChannel::twoQubitDepolarizing(8, 0, 0.02));
    const auto a = testing::finalRho(noisy, withThreads(1));
    const auto b = testing::finalRho(noisy, withThreads(4));
    for (std::uint64_t r = 0; r < a.dimension(); ++r) {
        for (std::uint64_t c2 = 0; c2 < a.dimension(); ++c2) {
            ASSERT_EQ(a.at(r, c2).real(), b.at(r, c2).real());
            ASSERT_EQ(a.at(r, c2).imag(), b.at(r, c2).imag());
        }
    }
}

TEST(DeterminismTest, BackendSpecThreadsIsAPurePerfKnob)
{
    // The CLI-visible form of the guarantee: sv vs sv:threads=N, same seed,
    // identical samples — ideal and noisy.
    const Circuit ideal = benchmarkishCircuit(6);
    const Circuit noisy =
        ideal.withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.01);
    for (const char* spec : {"sv:threads=2", "sv:threads=8"}) {
        Rng rngA(9), rngB(9);
        EXPECT_EQ(testing::samplesOf("sv:threads=1", ideal, 300, rngA),
                  testing::samplesOf(spec, ideal, 300, rngB));
        Rng rngC(11), rngD(11);
        EXPECT_EQ(testing::samplesOf("sv:threads=1", noisy, 100, rngC),
                  testing::samplesOf(spec, noisy, 100, rngD));
    }
}

TEST(DeterminismTest, TrajectorySeedingIndependentOfSampleCount)
{
    // Trajectory i depends only on the caller seed and i: a longer run's
    // prefix equals the shorter run.
    const Circuit noisy = benchmarkishCircuit(4).withNoiseAfterEachGate(
        NoiseKind::BitFlip, 0.05);
    Rng rngA(5), rngB(5);
    const auto small = testing::samplesOf("sv:threads=2", noisy, 50, rngA);
    const auto big = testing::samplesOf("sv:threads=2", noisy, 120, rngB);
    for (std::size_t i = 0; i < small.size(); ++i)
        ASSERT_EQ(small[i], big[i]);
}

} // namespace
} // namespace qkc
