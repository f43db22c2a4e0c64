/**
 * Diagonal-run lowering: the ideal_sv QAOA circuit plans to one table sweep
 * per cost layer plus paired one-qubit kernels, plans without a run keep
 * their kernel counts, a DiagRun kernel agrees with its per-factor
 * reference, and a rebound plan equals a fresh one bit for bit.
 */
#include "exec/execution_plan.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "densitymatrix/densitymatrix_simulator.h"
#include "obs/metrics.h"
#include "statevector/statevector_simulator.h"
#include "testing/plan_compare.h"
#include "testing/session_runs.h"
#include "util/rng.h"
#include "vqa/workloads.h"

namespace qkc {
namespace {

std::size_t
sweepsOf(const ExecutionPlan& plan)
{
    std::size_t sweeps = 0;
    for (const PlannedOp& op : plan.ops)
        sweeps += op.kernels.size();
    return sweeps;
}

std::size_t
diagRunsOf(const ExecutionPlan& plan)
{
    std::size_t runs = 0;
    for (const PlannedOp& op : plan.ops)
        for (const GateKernel& k : op.kernels)
            runs += k.op == GateKernel::Op::DiagRun;
    return runs;
}

Circuit
qaoa(std::size_t n, std::uint64_t seed, const std::vector<double>& angles)
{
    Rng rng(seed);
    return QaoaMaxCut::randomRegular(n, 3, angles.size() / 2, rng)
        .circuit(angles);
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

TEST(DiagonalRunTest, IdealSvCircuitPlansToThirtyEightSweeps)
{
    // The repository benchmark's ideal_sv shape: 24 qubits, p = 2,
    // 3-regular. 12 H pairs, a run, 12 Rx pairs, a run, 12 Rx pairs.
    for (std::uint64_t seed : {1001u, 7u}) {
        const ExecutionPlan plan =
            planCircuit(qaoa(24, seed, {0.3, -0.7, 1.1, 0.4}), ExecPolicy{});
        EXPECT_LE(sweepsOf(plan), 38u);
        EXPECT_EQ(diagRunsOf(plan), 2u);
        EXPECT_EQ(plan.fusion.diagonalRuns, 2u);
    }
}

TEST(DiagonalRunTest, ServeMixAnsatzKeepsItsTwentyTwoKernels)
{
    // The serve_mix ansatz: 12 qubits, two layers of rx/ry per qubit and a
    // CNOT ladder. No diagonal gate, no run: every pending folds into the
    // ladder as before.
    Rng rng(3);
    Circuit c(12);
    for (int layer = 0; layer < 2; ++layer) {
        for (std::size_t q = 0; q < 12; ++q)
            c.rx(q, rng.uniform(0.05, 3.0)).ry(q, rng.uniform(0.05, 3.0));
        for (std::size_t q = 0; q + 1 < 12; ++q)
            c.cnot(q, q + 1);
    }
    const ExecutionPlan plan = planCircuit(c, ExecPolicy{});
    EXPECT_EQ(sweepsOf(plan), 22u);
    EXPECT_EQ(diagRunsOf(plan), 0u);
}

TEST(DiagonalRunTest, RebindMatchesAFreshPlanBitForBit)
{
    // The last two bindings take every Rx from 0.3 to pi and back: -iX
    // pairs lower to Perm kernels, Rx(0.3) pairs to Generic ones.
    constexpr double halfPi = 1.57079632679489661923;
    const ExecPolicy policy;
    const StateVectorSimulator sim(policy);
    ExecutionPlan plan = planCircuit(qaoa(14, 9, {0.3, -0.7, 1.1, 0.4}),
                                     policy);
    for (const auto& angles : std::vector<std::vector<double>>{
             {-0.45, 0.36, 0.8, -1.2}, {2.1, 0.05, -0.3, 0.9},
             {0.3, 0.15, 1.1, 0.15}, {0.3, halfPi, 1.1, halfPi},
             {0.3, 0.15, 1.1, 0.15}}) {
        const Circuit next = qaoa(14, 9, angles);
        ASSERT_TRUE(tryRebindPlan(plan, next));
        const ExecutionPlan fresh = planCircuit(next, policy);
        testing::expectSamePlan(plan, fresh);
        EXPECT_EQ(plan.ops.back().kernels[0].op,
                  angles[3] == halfPi ? GateKernel::Op::Perm
                                      : GateKernel::Op::Generic);
        expectBitwiseEqual(sim.simulatePlanned(plan),
                           sim.simulatePlanned(fresh));
    }
}

TEST(DiagonalRunTest, SweepMatchesThePerFactorReference)
{
    // 14 bits: the table splits at bit 12, so factors land low, high and
    // mixed (either operand order), one-qubit factors included.
    constexpr std::size_t n = 14;
    Rng rng(21);
    std::vector<DiagFactor> factors;
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs = {
        {0, 1}, {3, 11}, {12, 13}, {13, 0}, {2, 12}, {1, 0}, {11, 12}};
    for (const auto& [hi, lo] : pairs) {
        DiagFactor f;
        f.arity = 2;
        f.bits = {hi, lo};
        for (Complex& d : f.diag)
            d = std::polar(1.0, rng.uniform(-3.0, 3.0));
        factors.push_back(f);
    }
    for (std::uint32_t bit : {0u, 5u, 12u, 13u}) {
        DiagFactor f;
        f.bits = {bit, 0};
        f.diag = {std::polar(1.0, rng.uniform(-3.0, 3.0)),
                  std::polar(1.0, rng.uniform(-3.0, 3.0)), Complex{},
                  Complex{}};
        factors.push_back(f);
    }
    const GateKernel k = compileDiagRun(factors);
    EXPECT_STREQ(k.className(), "diag-run");

    std::vector<Complex> state(std::size_t{1} << n);
    for (Complex& a : state)
        a = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    std::vector<Complex> reference = state;
    applyKernelReference(k, reference.data(), reference.size());

    std::vector<Complex> swept = state;
    applyKernel(k, swept.data(), swept.size(), ExecPolicy{});
    for (std::size_t i = 0; i < swept.size(); ++i)
        ASSERT_TRUE(approxEqual(swept[i], reference[i], 1e-13)) << i;
}

TEST(DiagonalRunTest, CompileKeepsFactorBitsAndRejectsBadFactors)
{
    DiagFactor f;
    f.arity = 2;
    f.bits = {3, 1};
    f.diag = {Complex{1.0}, Complex{-1.0}, Complex{-1.0}, Complex{1.0}};
    const GateKernel k = compileDiagRun({f});
    ASSERT_EQ(k.factors.size(), 1u);
    EXPECT_EQ(k.factors[0].bits, f.bits);

    DiagFactor same = f;
    same.bits = {2, 2};
    EXPECT_THROW(compileDiagRun({same}), std::invalid_argument);
    EXPECT_THROW(diagFactorOf(Gate(GateKind::H, {0}), {0}),
                 std::invalid_argument);
}

TEST(DiagonalRunTest, XBeforeCnotTakesNoGatherSweep)
{
    // The X is emitted on its own instead of folding into a two-target
    // permutation; with qubits 3 and 4 idle, every sweep is blocked.
    Circuit c(5);
    c.x(0).cnot(0, 1);
    ExecPolicy raw;
    raw.fuseGates = false;
    const StateVector expected = testing::finalState(c, raw);
    const DensityMatrix expectedRho = testing::finalRho(c, raw);

    obs::setEnabled(true);
    const ExecPolicy fused;
    obs::MetricsRegistry::instance().reset();
    const StateVector psi = testing::finalState(c, fused);
    const DensityMatrix rho = testing::finalRho(c, fused);
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::instance().snapshot();
    EXPECT_GT(snap.counter("exec.kernel.blockedSweeps"), 0u);
    EXPECT_EQ(snap.counter("exec.kernel.gatherSweeps"), 0u);

    for (std::uint64_t i = 0; i < psi.dimension(); ++i)
        EXPECT_TRUE(approxEqual(psi.amplitude(i), expected.amplitude(i),
                                1e-12));
    for (std::uint64_t r = 0; r < rho.dimension(); ++r)
        for (std::uint64_t col = 0; col < rho.dimension(); ++col)
            EXPECT_TRUE(approxEqual(rho.at(r, col), expectedRho.at(r, col),
                                    1e-12));
}

} // namespace
} // namespace qkc
