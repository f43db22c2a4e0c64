/**
 * Channel superoperator suite: every noise channel applied as one
 * Liouville-superoperator sweep must equal the Kraus sum E rho E^dagger
 * computed densely, at every operand position (so both the cache-blocked
 * and the gather sweeps run), and a new binding's plan must equal a fresh
 * one exactly.
 */
#include "densitymatrix/densitymatrix_simulator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuit/noise.h"
#include "testing/oracles.h"
#include "testing/plan_compare.h"
#include "testing/session_runs.h"
#include "util/rng.h"
#include "vqa/backends.h"

namespace qkc {
namespace {

constexpr std::size_t kQubits = 4;

/** A random full-rank mixed state A A^dagger / tr(A A^dagger). */
Matrix
randomMixedState(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    const std::size_t d = std::size_t{1} << n;
    Matrix a(d, d);
    for (std::size_t r = 0; r < d; ++r)
        for (std::size_t c = 0; c < d; ++c)
            a(r, c) = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    Matrix rho = a * a.adjoint();
    return rho * Complex(1.0 / rho.trace().real(), 0.0);
}

/** `e` on `qubits` (first operand most significant) of an n-qubit space. */
Matrix
embed(const Matrix& e, const std::vector<std::size_t>& qubits, std::size_t n)
{
    const std::size_t d = std::size_t{1} << n;
    std::uint64_t operandMask = 0;
    for (std::size_t q : qubits)
        operandMask |= std::uint64_t{1} << (n - 1 - q);
    auto local = [&](std::uint64_t x) {
        std::size_t l = 0;
        for (std::size_t q : qubits)
            l = (l << 1) | ((x >> (n - 1 - q)) & 1u);
        return l;
    };
    Matrix out(d, d);
    for (std::uint64_t r = 0; r < d; ++r)
        for (std::uint64_t c = 0; c < d; ++c)
            if ((r & ~operandMask) == (c & ~operandMask))
                out(r, c) = e(local(r), local(c));
    return out;
}

/** Every channel factory at a generic strength on the given operands. */
std::vector<NoiseChannel>
everyChannelOn(std::size_t q, std::size_t other, double p)
{
    return {
        NoiseChannel::bitFlip(q, p),
        NoiseChannel::phaseFlip(q, p),
        NoiseChannel::depolarizing(q, p),
        NoiseChannel::asymmetricDepolarizing(q, p, p / 2, p / 3),
        NoiseChannel::amplitudeDamping(q, p),
        NoiseChannel::phaseDamping(q, p),
        NoiseChannel::generalizedAmplitudeDamping(q, p, 0.3),
        NoiseChannel::twoQubitDepolarizing(q, other, p),
    };
}

void
expectSameRho(const DensityMatrix& x, const DensityMatrix& y)
{
    ASSERT_EQ(x.dimension(), y.dimension());
    for (std::uint64_t r = 0; r < x.dimension(); ++r)
        for (std::uint64_t c = 0; c < x.dimension(); ++c) {
            ASSERT_EQ(x.at(r, c).real(), y.at(r, c).real());
            ASSERT_EQ(x.at(r, c).imag(), y.at(r, c).imag());
        }
}

TEST(ChannelSuperoperatorTest, EveryChannelMatchesKrausSumAtEveryPosition)
{
    // On 4 qubits a one-qubit channel on qubit 0 or 1 has column bit >= 2,
    // so its 4x4 kernel takes the blocked sweep; qubits 2 and 3 (and every
    // 16x16 two-qubit kernel) take the gather sweep.
    const Matrix rho0 = randomMixedState(kQubits, 31);
    for (std::size_t q = 0; q < kQubits; ++q) {
        for (std::size_t other = 0; other < kQubits; ++other) {
            if (other == q)
                continue;
            for (const NoiseChannel& ch : everyChannelOn(q, other, 0.17)) {
                // One-qubit channels do not depend on `other`.
                if (ch.arity() == 1 && other != (q + 1) % kQubits)
                    continue;
                SCOPED_TRACE(ch.name() + " on q" + std::to_string(q) +
                             (ch.arity() == 2 ? ",q" + std::to_string(other)
                                              : std::string()));
                DensityMatrix rho(kQubits);
                for (std::uint64_t r = 0; r < rho.dimension(); ++r)
                    for (std::uint64_t c = 0; c < rho.dimension(); ++c)
                        rho.at(r, c) = rho0(r, c);
                testing::applyOp(rho, ch);

                Matrix expected = Matrix::zero(rho0.rows(), rho0.cols());
                for (const Matrix& e : ch.krausOperators()) {
                    const Matrix full = embed(e, ch.qubits(), kQubits);
                    expected = expected + full * rho0 * full.adjoint();
                }
                for (std::uint64_t r = 0; r < rho.dimension(); ++r)
                    for (std::uint64_t c = 0; c < rho.dimension(); ++c)
                        ASSERT_TRUE(approxEqual(rho.at(r, c), expected(r, c),
                                                1e-13))
                            << "(" << r << ", " << c << ")";
                EXPECT_NEAR(rho.trace().real(), 1.0, 1e-13);
                EXPECT_NEAR(rho.trace().imag(), 0.0, 1e-13);
            }
        }
    }
}

/** A small noisy circuit carrying every channel kind at strength p. */
Circuit
noisyCircuit(double p)
{
    Circuit c(kQubits);
    c.h(0).h(1).cnot(0, 2).rx(3, 0.7).zz(1, 3, 0.4);
    for (const NoiseChannel& ch : everyChannelOn(1, 3, p))
        c.append(ch);
    c.cnot(2, 1).ry(0, -0.5);
    c.append(NoiseChannel::depolarizing(2, p));
    return c;
}

TEST(ChannelSuperoperatorTest, StrengthRebindMatchesFreshPlanBitForBit)
{
    for (bool fuse : {true, false}) {
        ExecPolicy policy;
        policy.fuseGates = fuse;
        const DensityMatrixSimulator sim(policy);
        DmExecutionPlan plan = planCircuitDm(noisyCircuit(0.01), policy);
        const Circuit next = noisyCircuit(0.02);
        ASSERT_TRUE(tryRebindDmPlan(plan, next));
        expectSameRho(sim.simulatePlanned(plan),
                      sim.simulatePlanned(planCircuitDm(next, policy)));
    }
}

TEST(ChannelSuperoperatorTest, IdentityChannelRebindsToNonZeroStrength)
{
    // At p = 0 every channel's superoperator is the identity, and its
    // kernel classifies as Identity. The two-qubit gate ends the wire run
    // before the channel, so the channel's kernel is its own. A non-zero
    // strength rebinds to the kernel a fresh plan gives it.
    ExecPolicy policy;
    for (const NoiseChannel& ch : everyChannelOn(1, 3, 0.0)) {
        SCOPED_TRACE(ch.name());
        Circuit quiet(kQubits);
        quiet.cnot(1, 3);
        quiet.append(ch);
        DmExecutionPlan plan = planCircuitDm(quiet, policy);
        ASSERT_EQ(plan.ops.back().kernels.front().op, GateKernel::Op::Identity);
    }
    const DensityMatrixSimulator sim(policy);
    DmExecutionPlan plan = planCircuitDm(noisyCircuit(0.0), policy);
    const Circuit noisy = noisyCircuit(0.05);
    ASSERT_TRUE(tryRebindDmPlan(plan, noisy));
    const DmExecutionPlan fresh = planCircuitDm(noisy, policy);
    testing::expectSamePlan(plan, fresh);
    EXPECT_NE(plan.ops.back().kernels.front().op, GateKernel::Op::Identity);
    expectSameRho(sim.simulatePlanned(plan), sim.simulatePlanned(fresh));
}

TEST(ChannelSuperoperatorTest, SessionReusesPlanWhenIdentityChannelRebinds)
{
    DensityMatrixBackend backend;
    auto session = backend.open(noisyCircuit(0.0));
    Rng rng(7);
    const std::vector<std::size_t> all = {0, 1, 2, 3};
    session->run(Probabilities{all}, rng); // evolves the session's rho once
    const Circuit noisy = noisyCircuit(0.05);
    session->bind(noisy); // dm plans every binding afresh
    EXPECT_EQ(session->planBuilds(), 1u + 1u);
    EXPECT_EQ(session->planReuses(), 0u);

    const std::vector<double> viaSession =
        session->run(Probabilities{all}, rng).probabilities;
    const std::vector<double> direct =
        testing::finalRho(noisy).diagonalProbabilities();
    ASSERT_EQ(viaSession.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(viaSession[i], direct[i]) << "outcome " << i;
}

} // namespace
} // namespace qkc
