/**
 * The state-vector diagonal-run sweep on whole circuits: seeded random
 * circuits whose runs touch index bits 0 and 1 and every diagonal kind
 * agree with the unfused simulation, and the payload is bit-identical for
 * every thread count and simd level.
 */
#include "statevector/statevector_simulator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/simd.h"
#include "testing/session_runs.h"
#include "util/rng.h"

namespace qkc {
namespace {

/** A diagonal gate of a random kind on random wires. */
void
appendDiagonal(Circuit& c, Rng& rng)
{
    const std::size_t n = c.numQubits();
    const std::size_t a = rng.below(n);
    std::size_t b = rng.below(n - 1);
    b += b >= a;
    const double theta = rng.uniform(-3.0, 3.0);
    switch (rng.below(10)) {
      case 0: c.cz(a, b); break;
      case 1: c.crz(a, b, theta); break;
      case 2: c.cphase(a, b, theta); break;
      case 3: c.zz(a, b, theta); break;
      case 4: c.zz(b, a, theta); break;
      case 5: c.rz(a, theta); break;
      case 6: c.t(a); break;
      case 7: c.s(a); break;
      case 8: c.phase(a, theta); break;
      default: c.z(a); break;
    }
}

/**
 * Layers of mixing gates, then a run of diagonal gates that always holds
 * two-qubit gates on the last two wires (index bits 0 and 1) and on the
 * first wire (the top bit).
 */
Circuit
randomRunCircuit(std::size_t n, Rng& rng)
{
    Circuit c(n);
    for (int layer = 0; layer < 3; ++layer) {
        for (std::size_t q = 0; q < n; ++q) {
            if (rng.below(3) == 0)
                c.h(q);
            else
                c.rx(q, rng.uniform(-3.0, 3.0));
        }
        const std::size_t target = n - 1 - layer;
        std::size_t control = rng.below(n - 1);
        control += control >= target;
        c.cnot(control, target);
        c.cz(n - 1, n - 2).crz(0, n - 1, rng.uniform(-3.0, 3.0));
        c.cphase(n - 2, 0, rng.uniform(-3.0, 3.0));
        const std::size_t extra = 4 + rng.below(12);
        for (std::size_t g = 0; g < extra; ++g)
            appendDiagonal(c, rng);
    }
    for (std::size_t q = 0; q < n; q += 2)
        c.ry(q, rng.uniform(-3.0, 3.0));
    return c;
}

void
expectBitwiseEqual(const StateVector& a, const StateVector& b)
{
    ASSERT_EQ(a.dimension(), b.dimension());
    for (std::uint64_t i = 0; i < a.dimension(); ++i) {
        ASSERT_EQ(a.amplitude(i).real(), b.amplitude(i).real()) << i;
        ASSERT_EQ(a.amplitude(i).imag(), b.amplitude(i).imag()) << i;
    }
}

TEST(DiagonalRunSweepTest, RandomRunsMatchTheUnfusedState)
{
    ExecPolicy raw;
    raw.fuseGates = false;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        // 5..14 qubits: from one table block up to blocks split at bit 12.
        const std::size_t n = 4 + (seed * 3) % 11;
        SCOPED_TRACE("seed " + std::to_string(seed) + " qubits " +
                     std::to_string(n));
        Rng rng(seed);
        const Circuit c = randomRunCircuit(n, rng);
        const ExecutionPlan plan = planCircuit(c, ExecPolicy{});
        ASSERT_EQ(plan.fusion.diagonalRuns, 3u);
        const StateVector fused =
            StateVectorSimulator(ExecPolicy{}).simulatePlanned(plan);
        const StateVector expected = testing::finalState(c, raw);
        for (std::uint64_t i = 0; i < fused.dimension(); ++i)
            ASSERT_TRUE(approxEqual(fused.amplitude(i), expected.amplitude(i),
                                    1e-12))
                << "index " << i;
    }
}

TEST(DiagonalRunSweepTest, BitIdenticalAcrossThreadsAndSimdLevels)
{
    std::vector<SimdMode> modes = {SimdMode::Off};
    if (activeSimdLevel() >= SimdLevel::Avx2)
        modes.push_back(SimdMode::Avx2);
    if (activeSimdLevel() >= SimdLevel::Avx512)
        modes.push_back(SimdMode::Avx512);

    Rng rng(99);
    const Circuit c = randomRunCircuit(15, rng);
    ExecPolicy reference;
    reference.simd = SimdMode::Off;
    reference.threads = 1;
    const StateVector expected =
        StateVectorSimulator(reference).simulatePlanned(
            planCircuit(c, reference));
    for (SimdMode mode : modes) {
        for (std::size_t threads : {1, 4}) {
            SCOPED_TRACE("simd " + std::to_string(static_cast<int>(mode)) +
                         " threads " + std::to_string(threads));
            ExecPolicy policy;
            policy.simd = mode;
            policy.threads = threads;
            if (threads > 1) {
                policy.serialThreshold = 1;
                policy.grain = 32;
            }
            expectBitwiseEqual(StateVectorSimulator(policy).simulatePlanned(
                                   planCircuit(c, policy)),
                               expected);
        }
    }
}

} // namespace
} // namespace qkc
