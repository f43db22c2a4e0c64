/**
 * Wire-run suite: the dm plan gives each wire's run of one-qubit gates and
 * channels one 4x4 superoperator kernel. The runs must split at every
 * multi-qubit op on their wire, agree with exhaustive Kraus enumeration,
 * stay bit-identical across threads, simd levels and rebinds, and keep
 * every sweep of a circuit off the low column bits on the blocked path.
 */
#include "densitymatrix/densitymatrix_simulator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuit/noise.h"
#include "obs/metrics.h"
#include "testing/oracles.h"
#include "testing/simd_levels.h"
#include "util/rng.h"
#include "vqa/workloads.h"

namespace qkc {
namespace {

std::size_t
sweepsOf(const DmExecutionPlan& plan)
{
    std::size_t sweeps = 0;
    for (const PlannedOp& op : plan.ops)
        sweeps += op.kernels.size();
    return sweeps;
}

void
expectSameRho(const DensityMatrix& x, const DensityMatrix& y)
{
    ASSERT_EQ(x.dimension(), y.dimension());
    for (std::uint64_t r = 0; r < x.dimension(); ++r)
        for (std::uint64_t c = 0; c < x.dimension(); ++c) {
            ASSERT_EQ(x.at(r, c).real(), y.at(r, c).real()) << r << "," << c;
            ASSERT_EQ(x.at(r, c).imag(), y.at(r, c).imag()) << r << "," << c;
        }
}

/** Every one-qubit channel kind on `q`, the k-th at strength p(k). */
NoiseChannel
oneQubitChannel(std::size_t kind, std::size_t q, double p)
{
    switch (kind % 7) {
      case 0: return NoiseChannel::bitFlip(q, p);
      case 1: return NoiseChannel::phaseFlip(q, p);
      case 2: return NoiseChannel::depolarizing(q, p);
      case 3: return NoiseChannel::asymmetricDepolarizing(q, p, p / 2, p / 3);
      case 4: return NoiseChannel::amplitudeDamping(q, p);
      case 5: return NoiseChannel::phaseDamping(q, p);
      default: return NoiseChannel::generalizedAmplitudeDamping(q, p, 0.3);
    }
}

/**
 * A seeded random noisy circuit: one- and two-qubit gates, one-qubit
 * channels of every kind (so runs mix gates and channels), and the odd
 * two-qubit channel.
 */
Circuit
randomNoisyCircuit(std::size_t n, std::size_t numOps, std::size_t channels,
                   Rng& rng)
{
    Circuit c(n);
    std::size_t placed = 0;
    for (std::size_t i = 0; i < numOps; ++i) {
        const std::size_t a = rng.below(n);
        std::size_t b = rng.below(n - 1);
        b += b >= a;
        const double theta = rng.uniform(0.1, 3.0);
        const bool channel = placed < channels && rng.below(3) == 0;
        if (channel) {
            if (rng.below(8) == 0)
                c.append(NoiseChannel::twoQubitDepolarizing(a, b, 0.07));
            else
                c.append(oneQubitChannel(placed, a, 0.05 + 0.03 * (placed % 7)));
            ++placed;
            continue;
        }
        switch (rng.below(9)) {
          case 0: c.h(a); break;
          case 1: c.x(a); break;
          case 2: c.y(a); break;
          case 3: c.s(a); break;
          case 4: c.rx(a, theta); break;
          case 5: c.ry(a, theta); break;
          case 6: c.rz(a, theta); break;
          case 7: c.cnot(a, b); break;
          default: c.zz(a, b, theta); break;
        }
    }
    return c;
}

/** The noisy_dm shape: QAOA p=1 on a 3-regular graph, noise after gates. */
Circuit
noisyQaoa(std::size_t n, std::uint64_t seed, double gamma, double beta)
{
    Rng rng(seed);
    return QaoaMaxCut::randomRegular(n, 3, 1, rng)
        .circuit({gamma, beta})
        .withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.01);
}

TEST(WireRunTest, RunOfGatesAndChannelsIsOneKernel)
{
    Circuit c(3);
    c.h(0);
    c.append(NoiseChannel::depolarizing(0, 0.05));
    c.rz(0, 0.7);
    c.append(NoiseChannel::amplitudeDamping(0, 0.2));
    c.append(NoiseChannel::phaseDamping(0, 0.1));
    const DmExecutionPlan plan = planCircuitDm(c, ExecPolicy{});
    ASSERT_EQ(plan.ops.size(), 1u);
    EXPECT_EQ(plan.ops[0].kernels.size(), 1u);
    EXPECT_EQ(plan.ops[0].opIndices.size(), 5u);
    EXPECT_TRUE(plan.ops[0].isChannel);
}

TEST(WireRunTest, TwoQubitGateSplitsTheRun)
{
    Circuit c(3);
    c.h(0);
    c.append(NoiseChannel::depolarizing(0, 0.05));
    c.cnot(0, 1);
    c.rz(0, 0.7);
    c.append(NoiseChannel::amplitudeDamping(0, 0.2));
    c.append(NoiseChannel::phaseDamping(0, 0.1));
    const DmExecutionPlan plan = planCircuitDm(c, ExecPolicy{});
    ASSERT_EQ(plan.ops.size(), 3u);
    EXPECT_EQ(plan.ops[0].opIndices, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(plan.ops[0].kernels.size(), 1u);
    EXPECT_EQ(plan.ops[1].opIndices, (std::vector<std::size_t>{2}));
    EXPECT_EQ(plan.ops[1].kernels.size(), 2u); // row, then column kernel
    EXPECT_EQ(plan.ops[2].opIndices, (std::vector<std::size_t>{3, 4, 5}));
    EXPECT_EQ(plan.ops[2].kernels.size(), 1u);
}

TEST(WireRunTest, NoisyQaoaPlansToSeventySweeps)
{
    // 10 H + 10 Rx + 15 ZZ gates, a depolarizing channel after each gate
    // on each of its wires: 4 runs per qubit (one before, two between and
    // one after its three ZZs) plus a row/column pair per ZZ.
    const DmExecutionPlan plan =
        planCircuitDm(noisyQaoa(10, 1001, -0.55, 0.3), ExecPolicy{});
    EXPECT_EQ(plan.ops.size(), 55u);
    EXPECT_EQ(sweepsOf(plan), 70u);
}

TEST(WireRunTest, MatchesKrausEnumeration)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        const Circuit c = randomNoisyCircuit(3, 24, 6, rng);
        const std::vector<double> enumerated =
            testing::noisyDistributionExhaustive(c);
        for (bool fuse : {true, false}) {
            ExecPolicy policy;
            policy.fuseGates = fuse;
            const std::vector<double> viaRho =
                DensityMatrixSimulator(policy)
                    .simulatePlanned(planCircuitDm(c, policy))
                    .diagonalProbabilities();
            ASSERT_EQ(viaRho.size(), enumerated.size());
            for (std::size_t i = 0; i < viaRho.size(); ++i)
                EXPECT_NEAR(viaRho[i], enumerated[i], 1e-12) << "outcome " << i;
        }
    }
}

TEST(WireRunTest, BitIdenticalAcrossThreadsAndSimdLevels)
{
    Rng rng(17);
    const Circuit c = randomNoisyCircuit(6, 60, 20, rng);
    ExecPolicy reference;
    reference.simd = SimdLevel::Scalar;
    reference.threads = 1;
    const DensityMatrix expected = DensityMatrixSimulator(reference)
        .simulatePlanned(planCircuitDm(c, reference));
    for (SimdLevel level : testing::simdLevels()) {
        for (std::size_t threads : {1, 4}) {
            SCOPED_TRACE(std::string("simd ") + simdLevelName(level) +
                         " threads " + std::to_string(threads));
            ExecPolicy policy;
            policy.simd = level;
            policy.threads = threads;
            if (threads > 1) {
                policy.serialThreshold = 1;
                policy.grain = 32;
            }
            expectSameRho(DensityMatrixSimulator(policy).simulatePlanned(
                              planCircuitDm(c, policy)),
                          expected);
        }
    }
}

TEST(WireRunTest, RebindToNewAnglesMatchesFreshPlanBitForBit)
{
    ExecPolicy policy;
    const DensityMatrixSimulator sim(policy);
    DmExecutionPlan plan =
        planCircuitDm(noisyQaoa(6, 5, -0.55, 0.3), policy);
    for (const auto& [gamma, beta] :
         std::vector<std::pair<double, double>>{{-0.47, 0.36}, {0.9, -1.2}}) {
        const Circuit next = noisyQaoa(6, 5, gamma, beta);
        ASSERT_TRUE(tryRebindDmPlan(plan, next));
        expectSameRho(sim.simulatePlanned(plan),
                      sim.simulatePlanned(planCircuitDm(next, policy)));
    }
}

TEST(WireRunTest, PermutationRunKeepsItsRowColumnPair)
{
    // X (x) conj(X) is a 2-target permutation, which has no blocked sweep;
    // the run keeps the pair of 1-target swaps, which do.
    for (bool y : {false, true}) {
        Circuit c(4);
        if (y)
            c.y(1);
        else
            c.x(1);
        const DmExecutionPlan plan = planCircuitDm(c, ExecPolicy{});
        ASSERT_EQ(plan.ops.size(), 1u);
        ASSERT_EQ(plan.ops[0].kernels.size(), 2u);
        for (const GateKernel& k : plan.ops[0].kernels) {
            EXPECT_EQ(k.op, GateKernel::Op::Perm);
            EXPECT_EQ(k.targets, 1u);
        }
    }
}

TEST(WireRunTest, NoGatherSweepOffTheLowColumnBits)
{
    // Qubits n-1 and n-2 own column bits 0 and 1, the only bits whose runs
    // are too short for the blocked sweep. A circuit that leaves them idle
    // never takes the gather sweep, lone X and Y runs included. (Two-qubit
    // channels and two-qubit permutations such as SWAP take it anywhere:
    // 4-target and 2-target Perm kernels have no run primitive.)
    constexpr std::size_t n = 5;
    Circuit c(n);
    c.h(1);
    c.append(NoiseChannel::depolarizing(1, 0.05));
    c.cnot(0, 1).x(0).ccx(0, 1, 2).zz(1, 2, 0.4);
    c.append(NoiseChannel::amplitudeDamping(1, 0.2));
    c.rz(2, 0.3).cz(0, 2).y(0).x(2);
    c.append(NoiseChannel::phaseDamping(1, 0.1));

    obs::setEnabled(true);
    for (bool fuse : {true, false}) {
        SCOPED_TRACE(fuse ? "fused" : "unfused");
        ExecPolicy policy;
        policy.fuseGates = fuse;
        const DmExecutionPlan plan = planCircuitDm(c, policy);
        obs::MetricsRegistry::instance().reset();
        DensityMatrixSimulator(policy).simulatePlanned(plan);
        const obs::MetricsSnapshot snap =
            obs::MetricsRegistry::instance().snapshot();
        EXPECT_GT(snap.counter("exec.kernel.blockedSweeps"), 0u);
        EXPECT_EQ(snap.counter("exec.kernel.gatherSweeps"), 0u);
    }
}

/** Ideal QAOA p=2 on a 3-regular graph (no channels, so runs form). */
Circuit
idealQaoa(std::size_t n, std::uint64_t seed, const std::vector<double>& angles)
{
    Rng rng(seed);
    return QaoaMaxCut::randomRegular(n, 3, 2, rng).circuit(angles);
}

TEST(WireRunTest, DiagonalRunIsOneSweep)
{
    // 8 qubits: 4 H pairs, a run of 12 ZZ, 4 Rx pairs, a run, 4 Rx pairs.
    // Each pair is a row/column kernel pair; each run one DiagRun kernel.
    const Circuit c = idealQaoa(8, 3, {0.3, -0.7, 1.1, 0.4});
    const DmExecutionPlan plan = planCircuitDm(c, ExecPolicy{});
    std::size_t runs = 0;
    for (const PlannedOp& op : plan.ops)
        runs += op.kernels[0].op == GateKernel::Op::DiagRun;
    EXPECT_EQ(runs, 2u);
    EXPECT_EQ(sweepsOf(plan), 26u);

    ExecPolicy raw;
    raw.fuseGates = false;
    const DensityMatrix expected =
        DensityMatrixSimulator(raw).simulatePlanned(planCircuitDm(c, raw));
    const DensityMatrix rho =
        DensityMatrixSimulator(ExecPolicy{}).simulatePlanned(plan);
    for (std::uint64_t r = 0; r < rho.dimension(); ++r)
        for (std::uint64_t col = 0; col < rho.dimension(); ++col)
            ASSERT_TRUE(approxEqual(rho.at(r, col), expected.at(r, col), 1e-12))
                << r << "," << col;
}

TEST(WireRunTest, DiagonalRunIsBitIdenticalAcrossThreadsSimdAndRebinds)
{
    const Circuit c = idealQaoa(8, 3, {-0.45, 0.36, 0.8, -1.2});
    ExecPolicy reference;
    reference.simd = SimdLevel::Scalar;
    reference.threads = 1;
    const DensityMatrix expected = DensityMatrixSimulator(reference)
        .simulatePlanned(planCircuitDm(c, reference));
    for (SimdLevel level : testing::simdLevels()) {
        for (std::size_t threads : {1, 4}) {
            SCOPED_TRACE(std::string("simd ") + simdLevelName(level) +
                         " threads " + std::to_string(threads));
            ExecPolicy policy;
            policy.simd = level;
            policy.threads = threads;
            if (threads > 1) {
                policy.serialThreshold = 1;
                policy.grain = 32;
            }
            expectSameRho(DensityMatrixSimulator(policy).simulatePlanned(
                              planCircuitDm(c, policy)),
                          expected);
        }
    }

    DmExecutionPlan plan =
        planCircuitDm(idealQaoa(8, 3, {0.3, -0.7, 1.1, 0.4}), reference);
    ASSERT_TRUE(tryRebindDmPlan(plan, c));
    expectSameRho(DensityMatrixSimulator(reference).simulatePlanned(plan),
                  expected);
}

TEST(WireRunTest, WithoutFusionEachOpIsItsOwnRun)
{
    Circuit c(3);
    c.h(0).rz(0, 0.4);
    c.append(NoiseChannel::depolarizing(0, 0.05));
    c.rx(0, 0.2).cnot(0, 1).x(2);
    ExecPolicy policy;
    policy.fuseGates = false;
    const DmExecutionPlan plan = planCircuitDm(c, policy);
    ASSERT_EQ(plan.ops.size(), c.size());
    for (std::size_t i = 0; i < plan.ops.size(); ++i)
        EXPECT_EQ(plan.ops[i].opIndices, (std::vector<std::size_t>{i}));
    EXPECT_EQ(plan.ops[0].kernels.size(), 1u); // H (x) conj(H)
    EXPECT_EQ(plan.ops[4].kernels.size(), 2u); // CNOT row/column pair
    EXPECT_EQ(plan.ops[5].kernels.size(), 2u); // X keeps its pair
}

} // namespace
} // namespace qkc
