/**
 * Block runs (applyKernels): a stretch of kernels on bits below
 * kBlockRunBits, applied block by block, must leave the array bit for bit
 * as the per-kernel applyKernel loop does — for every kernel class, at
 * every thread count and simd level — and the counters must count each
 * kernel once and each stretch once.
 */
#include "exec/gate_kernels.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/gate.h"
#include "circuit/noise.h"
#include "densitymatrix/densitymatrix_simulator.h"
#include "exec/execution_plan.h"
#include "linalg/aligned.h"
#include "obs/metrics.h"
#include "statevector/statevector_simulator.h"
#include "testing/simd_levels.h"
#include "util/rng.h"

namespace qkc {
namespace {

constexpr std::uint32_t B = kBlockRunBits;

/** The smallest array that forms a block run, in index bits. */
constexpr unsigned kFirstBits = B + 2;
static_assert(std::uint64_t{1} << (kFirstBits - B) == kBlockRunMinBlocks);

AmpVector
randomState(unsigned bits, std::uint64_t seed)
{
    Rng rng(seed);
    AmpVector amps(std::size_t{1} << bits);
    for (auto& a : amps)
        a = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    return amps;
}

Matrix
unitaryOf(GateKind kind, double angle = 0.0)
{
    const std::size_t arity = gateInfo(kind).arity;
    std::vector<std::size_t> qubits(arity);
    for (std::size_t i = 0; i < arity; ++i)
        qubits[i] = i;
    return Gate(kind, qubits, angle).unitary();
}

/** A controlled Ry (control first): a Generic kernel with a control. */
Matrix
controlledRy(double angle)
{
    const Matrix ry = unitaryOf(GateKind::Ry, angle);
    Matrix m = Matrix::identity(4);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            m(2 + r, 2 + c) = ry(r, c);
    return m;
}

/**
 * Kernels of every class on bits below B: identity, phase, diag and
 * ctrl-diag, perm and ctrl-perm, generic 1q/2q and ctrl-generic, the
 * gather shapes on bits 0-1, a kernel on bit B-1, and a DiagRun.
 */
std::vector<GateKernel>
lowKernels()
{
    const Matrix h = unitaryOf(GateKind::H);
    const Matrix dense2q = h.kron(unitaryOf(GateKind::Ry, 0.3)) *
                           unitaryOf(GateKind::CNOT);
    std::vector<GateKernel> ks;
    ks.push_back(compileKernel(Matrix::identity(2), {3}));
    ks.push_back(compileKernel(Matrix::identity(2) * Complex(0.6, 0.8), {5}));
    ks.push_back(compileKernel(unitaryOf(GateKind::Rz, 0.7), {7}));
    ks.push_back(compileKernel(unitaryOf(GateKind::CPhase, 0.9), {9, 2}));
    ks.push_back(compileKernel(unitaryOf(GateKind::X), {4}));
    ks.push_back(compileKernel(unitaryOf(GateKind::CNOT), {B - 1, 1}));
    ks.push_back(compileKernel(h, {0}));
    ks.push_back(compileKernel(dense2q, {1, 0}));
    ks.push_back(compileKernel(h, {B - 1}));
    ks.push_back(compileKernel(dense2q, {14, 6}));
    ks.push_back(compileKernel(controlledRy(0.4), {12, 3}));
    ks.push_back(compileDiagRun(
        {diagFactorOf(Gate(GateKind::ZZ, {0, 1}, 0.4), {13, 2}),
         diagFactorOf(Gate(GateKind::Rz, {0}, -1.1), {0}),
         diagFactorOf(Gate(GateKind::ZZ, {0, 1}, 0.8), {B - 1, 11})}));
    ks.push_back(compileKernel(unitaryOf(GateKind::Y), {8}));
    return ks;
}

/**
 * The low kernels cut into four stretches by a kernel on bit B, a kernel
 * controlled at bit B and a high DiagRun factor; the third stretch is a
 * single kernel, which applies on its own. `stretches` receives 3.
 */
std::vector<GateKernel>
brokenSequence(std::size_t& stretches)
{
    const std::vector<GateKernel> low = lowKernels();
    std::vector<GateKernel> ks(low.begin(), low.begin() + 5);
    ks.push_back(compileKernel(unitaryOf(GateKind::H), {B}));
    ks.insert(ks.end(), low.begin() + 5, low.begin() + 9);
    ks.push_back(compileKernel(unitaryOf(GateKind::CNOT), {B, 2}));
    ks.push_back(low[9]);
    ks.push_back(compileDiagRun(
        {diagFactorOf(Gate(GateKind::ZZ, {0, 1}, 0.5), {B + 1, 3})}));
    ks.insert(ks.end(), low.begin() + 10, low.end());
    stretches = 3;
    return ks;
}

std::vector<const GateKernel*>
pointersTo(const std::vector<GateKernel>& ks)
{
    std::vector<const GateKernel*> ptrs;
    for (const GateKernel& k : ks)
        ptrs.push_back(&k);
    return ptrs;
}

ExecPolicy
policyFor(SimdLevel level, std::size_t threads)
{
    ExecPolicy p;
    p.simd = level;
    p.threads = threads;
    return p;
}

void
expectSameBytes(const AmpVector& a, const AmpVector& b, const std::string& at)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)), 0)
        << at;
}

/** The per-kernel loop applyKernels must reproduce. */
AmpVector
perKernel(const std::vector<GateKernel>& ks, AmpVector amps,
          const ExecPolicy& policy)
{
    for (const GateKernel& k : ks)
        applyKernel(k, amps.data(), amps.size(), policy);
    return amps;
}

std::uint64_t
counterDelta(const std::string& name, const std::vector<GateKernel>& ks,
             unsigned bits, bool blockRuns)
{
    AmpVector amps = randomState(bits, 5);
    obs::MetricsRegistry::instance().reset();
    if (blockRuns)
        applyKernels(pointersTo(ks), amps.data(), amps.size(), ExecPolicy{});
    else
        perKernel(ks, amps, ExecPolicy{});
    return obs::MetricsRegistry::instance().snapshot().counter(name);
}

TEST(BlockRunTest, MatchesThePerKernelLoopAtEveryThreadCountAndLevel)
{
    std::size_t stretches = 0;
    const std::vector<std::vector<GateKernel>> sequences = {
        lowKernels(), brokenSequence(stretches)};
    for (unsigned bits : {kFirstBits - 1, kFirstBits}) {
        const AmpVector input = randomState(bits, 1001 + bits);
        for (std::size_t s = 0; s < sequences.size(); ++s) {
            const AmpVector expected = perKernel(
                sequences[s], input, policyFor(SimdLevel::Scalar, 1));
            for (SimdLevel level : testing::simdLevels()) {
                for (std::size_t threads : {1u, 2u, 4u}) {
                    AmpVector got = input;
                    applyKernels(pointersTo(sequences[s]), got.data(),
                                 got.size(), policyFor(level, threads));
                    expectSameBytes(
                        expected, got,
                        "bits=" + std::to_string(bits) + " sequence=" +
                            std::to_string(s) + " simd=" +
                            simdLevelName(level) +
                            " threads=" + std::to_string(threads));
                }
            }
        }
    }
}

TEST(BlockRunTest, CountsEachKernelOnceAndEachStretchOnce)
{
    obs::setEnabled(true);
    std::size_t stretches = 0;
    const std::vector<GateKernel> broken = brokenSequence(stretches);
    for (const char* name :
         {"exec.kernel.identity", "exec.kernel.globalPhase",
          "exec.kernel.diag", "exec.kernel.perm", "exec.kernel.generic",
          "exec.kernel.diagRun", "exec.kernel.blockedSweeps",
          "exec.kernel.gatherSweeps"}) {
        const std::uint64_t loop = counterDelta(name, broken, kFirstBits, false);
        EXPECT_GT(loop, 0u) << name;
        EXPECT_EQ(counterDelta(name, broken, kFirstBits, true), loop) << name;
    }
    EXPECT_EQ(counterDelta("exec.kernel.blockRuns", broken, kFirstBits, true),
              stretches);
    EXPECT_EQ(
        counterDelta("exec.kernel.blockRuns", lowKernels(), kFirstBits, true),
        1u);
    // Below kBlockRunMinBlocks blocks every kernel sweeps on its own.
    EXPECT_EQ(counterDelta("exec.kernel.blockRuns", lowKernels(),
                           kFirstBits - 1, true),
              0u);
}

Circuit
noisyNineQubitCircuit()
{
    Circuit c(9);
    for (std::size_t q = 0; q < 9; ++q)
        c.h(q);
    for (std::size_t q = 0; q + 1 < 9; ++q)
        c.cnot(q, q + 1).rz(q + 1, 0.3 * static_cast<double>(q + 1));
    for (std::size_t q = 0; q < 9; q += 2)
        c.zz(q, (q + 4) % 9, 0.7).rx(q, -0.4);
    c.cz(8, 0).ry(4, 1.2);
    return c.withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.01)
        .withNoiseAfterEachGate(NoiseKind::AmplitudeDamping, 0.02);
}

TEST(BlockRunTest, NoisyDensityMatrixPlanMatchesThePerKernelLoop)
{
    // 9 qubits: rho's flat index has 18 bits, so it holds four blocks.
    obs::setEnabled(true);
    for (std::size_t threads : {1u, 4u}) {
        ExecPolicy policy;
        policy.threads = threads;
        const DmExecutionPlan plan = planCircuitDm(noisyNineQubitCircuit(),
                                                   policy);
        DensityMatrix expected(plan.numQubits);
        expected.setExecPolicy(policy);
        for (const PlannedOp& op : plan.ops)
            for (const GateKernel& k : op.kernels)
                expected.apply(k);

        obs::MetricsRegistry::instance().reset();
        const DensityMatrix rho =
            DensityMatrixSimulator(policy).simulatePlanned(plan);
        EXPECT_GT(obs::MetricsRegistry::instance().snapshot().counter(
                      "exec.kernel.blockRuns"),
                  0u);
        const std::size_t entries = rho.dimension() * rho.dimension();
        EXPECT_EQ(std::memcmp(&rho.at(0, 0), &expected.at(0, 0),
                              entries * sizeof(Complex)),
                  0)
            << "threads=" << threads;
    }
}

TEST(BlockRunTest, StateVectorPlanMatchesThePerKernelLoop)
{
    obs::setEnabled(true);
    Circuit c(kFirstBits);
    for (std::size_t q = 0; q < kFirstBits; ++q)
        c.h(q).rz(q, 0.1 * static_cast<double>(q));
    for (std::size_t q = 0; q + 1 < kFirstBits; ++q)
        c.cnot(q, q + 1);
    for (std::size_t q = 0; q < kFirstBits; ++q)
        c.rx(q, -0.2 * static_cast<double>(q)).ry(q, 0.5);
    for (std::size_t threads : {1u, 4u}) {
        ExecPolicy policy;
        policy.threads = threads;
        const ExecutionPlan plan = planCircuit(c, policy);
        StateVector expected(plan.numQubits, policy);
        for (const PlannedOp& op : plan.ops)
            expected.apply(op.kernels[0]);

        obs::MetricsRegistry::instance().reset();
        const StateVector psi =
            StateVectorSimulator(policy).simulatePlanned(plan);
        EXPECT_GT(obs::MetricsRegistry::instance().snapshot().counter(
                      "exec.kernel.blockRuns"),
                  0u);
        EXPECT_EQ(std::memcmp(psi.data(), expected.data(),
                              psi.dimension() * sizeof(Complex)),
                  0)
            << "threads=" << threads;
    }
}

} // namespace
} // namespace qkc
