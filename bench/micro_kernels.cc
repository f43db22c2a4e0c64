/**
 * google-benchmark microbenchmarks for the hot kernels of every simulator
 * family: state-vector gate application (seed generic path vs. specialized
 * kernels, serial vs. parallel, fused vs. unfused), AC upward/downward
 * passes, incremental re-evaluation after a parameter refresh, one Gibbs
 * sweep, and end-to-end knowledge compilation.
 *
 * The *_SeedGeneric rows reproduce the pre-exec dense loops exactly
 * (applyKernelReference); the *_Kernel rows run the specialized kernel with
 * the thread count in the second argument, so `ratio(SeedGeneric, Kernel)`
 * is the ISSUE-3 acceptance number.
 *
 * After the google-benchmark tables, a JSON-lines section (grep '^{')
 * compares the scalar and AVX2 sweeps per kernel class and the
 * cache-blocked run sweep against the PR 7 gather-only sweep on a
 * high-stride target — `ratio(off, avx2)` on generic1q is the ISSUE-8
 * acceptance number. Then come generic kernels on index bits 0 and 1,
 * which only the gather sweep serves; X then CNOT on the top bit pair as
 * two blocked sweeps against their product's one gather sweep; and one
 * 24-qubit QAOA cost layer as one diagonal-run sweep against its per-gate
 * kernels. The last rows sweep the ideal_sv plan's longest low-bit stretch
 * kernel by kernel and as block runs, and fail the driver unless both end
 * in the same bytes.
 */
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "ac/gibbs_sampler.h"
#include "ac/kc_simulator.h"
#include "bench_common.h"
#include "circuit/circuit.h"
#include "circuit/fusion.h"
#include "exec/execution_plan.h"
#include "exec/gate_kernels.h"
#include "exec/simd.h"
#include "statevector/statevector_simulator.h"
#include "vqa/workloads.h"

using namespace qkc;

namespace {

ExecPolicy
policyWithThreads(std::int64_t threads)
{
    ExecPolicy p;
    p.threads = static_cast<std::size_t>(threads);
    return p;
}

GateKernel
kernelFor(const Gate& g, std::size_t n)
{
    std::vector<std::uint32_t> bits;
    for (std::size_t q : g.qubits())
        bits.push_back(static_cast<std::uint32_t>(n - 1 - q));
    return compileKernel(g.unitary(), bits);
}

// -- Single-qubit application: seed generic vs specialized+parallel ----------

void
BM_Apply1qSeedGeneric(benchmark::State& state)
{
    // The pre-exec path: serial dense 2x2 on every amplitude pair.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    StateVector sv(n);
    GateKernel t = kernelFor(Gate(GateKind::T, {0}), n);
    std::size_t q = 0;
    for (auto _ : state) {
        t.fullBits[0] = static_cast<std::uint32_t>(n - 1 - q);
        applyKernelReference(t, sv.data(), sv.dimension());
        q = (q + 1) % n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            (1LL << n));
}
BENCHMARK(BM_Apply1qSeedGeneric)->Arg(16)->Arg(20)->Arg(22);

void
BM_Apply1qKernel(benchmark::State& state)
{
    // Specialized kernel (T classifies as ctrl-diag: touches half the
    // amplitudes, multiply only), threads = second argument.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const ExecPolicy policy = policyWithThreads(state.range(1));
    StateVector sv(n);
    std::vector<GateKernel> kernels;
    for (std::size_t q = 0; q < n; ++q)
        kernels.push_back(kernelFor(Gate(GateKind::T, {q}), n));
    std::size_t q = 0;
    for (auto _ : state) {
        applyKernel(kernels[q], sv.data(), sv.dimension(), policy);
        q = (q + 1) % n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            (1LL << n));
}
BENCHMARK(BM_Apply1qKernel)
    ->Args({16, 1})->Args({20, 1})->Args({22, 1})
    ->Args({16, 2})->Args({20, 2})->Args({22, 2})
    ->Args({20, 4})->Args({22, 4})
    ->Args({20, 8})->Args({22, 8});

void
BM_ApplyHGenericKernel(benchmark::State& state)
{
    // H stays in the generic class: this isolates the parallel_for gain
    // from the specialization gain.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const ExecPolicy policy = policyWithThreads(state.range(1));
    StateVector sv(n);
    std::vector<GateKernel> kernels;
    for (std::size_t q = 0; q < n; ++q)
        kernels.push_back(kernelFor(Gate(GateKind::H, {q}), n));
    std::size_t q = 0;
    for (auto _ : state) {
        applyKernel(kernels[q], sv.data(), sv.dimension(), policy);
        q = (q + 1) % n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            (1LL << n));
}
BENCHMARK(BM_ApplyHGenericKernel)
    ->Args({20, 1})->Args({20, 2})->Args({20, 4})->Args({20, 8});

// -- Two-qubit application ---------------------------------------------------

void
BM_ApplyCnotSeedGeneric(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    StateVector sv(n);
    std::size_t q = 0;
    for (auto _ : state) {
        applyKernelReference(
            kernelFor(Gate(GateKind::CNOT, {q, (q + 1) % n}), n), sv.data(),
            sv.dimension());
        q = (q + 1) % n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            (1LL << n));
}
BENCHMARK(BM_ApplyCnotSeedGeneric)->Arg(16)->Arg(20);

void
BM_ApplyCnotKernel(benchmark::State& state)
{
    // CNOT classifies as ctrl-perm: a gather-free swap on the controlled
    // half of the amplitudes.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const ExecPolicy policy = policyWithThreads(state.range(1));
    StateVector sv(n);
    std::vector<GateKernel> kernels;
    for (std::size_t q = 0; q < n; ++q)
        kernels.push_back(kernelFor(Gate(GateKind::CNOT, {q, (q + 1) % n}), n));
    std::size_t q = 0;
    for (auto _ : state) {
        applyKernel(kernels[q], sv.data(), sv.dimension(), policy);
        q = (q + 1) % n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            (1LL << n));
}
BENCHMARK(BM_ApplyCnotKernel)
    ->Args({16, 1})->Args({20, 1})->Args({16, 2})->Args({20, 2})
    ->Args({20, 4})->Args({20, 8});

// -- Fusion ------------------------------------------------------------------

void
BM_SimulateQaoaUnfused(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const Circuit c = bench::qaoaCircuit(n, 2, 19);
    ExecPolicy policy = policyWithThreads(state.range(1));
    policy.fuseGates = false;
    StateVectorSimulator sim(policy);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sim.simulatePlanned(planCircuit(c, policy)).amplitude(0));
    state.counters["gates"] = static_cast<double>(c.gateCount());
}
BENCHMARK(BM_SimulateQaoaUnfused)->Args({16, 1})->Args({20, 1})->Args({20, 4});

void
BM_SimulateQaoaFused(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const Circuit c = bench::qaoaCircuit(n, 2, 19);
    ExecPolicy policy = policyWithThreads(state.range(1));
    policy.fuseGates = true;
    StateVectorSimulator sim(policy);
    FusionStats stats;
    const Circuit fused = fuseGates(c, &stats);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sim.simulatePlanned(planCircuit(c, policy)).amplitude(0));
    state.counters["gates"] = static_cast<double>(stats.gatesOut);
}
BENCHMARK(BM_SimulateQaoaFused)->Args({16, 1})->Args({20, 1})->Args({20, 4});

// -- Legacy rows (kept for continuity with earlier runs) ---------------------

void
BM_StateVectorHadamard(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    StateVector sv(n);
    Matrix h = Gate(GateKind::H, {0}).unitary();
    std::size_t q = 0;
    for (auto _ : state) {
        sv.applySingleQubit(h, q);
        q = (q + 1) % n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            (1LL << n));
}
BENCHMARK(BM_StateVectorHadamard)->Arg(12)->Arg(16)->Arg(20);

void
BM_StateVectorCnot(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    StateVector sv(n);
    Matrix u = Gate(GateKind::CNOT, {0, 1}).unitary();
    std::size_t q = 0;
    for (auto _ : state) {
        sv.applyTwoQubit(u, q, (q + 1) % n);
        q = (q + 1) % n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            (1LL << n));
}
BENCHMARK(BM_StateVectorCnot)->Arg(12)->Arg(16)->Arg(20);

void
BM_AcUpwardPass(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    KcSimulator kc(bench::qaoaCircuit(n, 1, 19));
    std::uint64_t x = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(kc.amplitude(x));
        x = (x + 1) & ((std::uint64_t{1} << n) - 1);
    }
    state.counters["ac_nodes"] =
        static_cast<double>(kc.metrics().acNodes);
}
BENCHMARK(BM_AcUpwardPass)->Arg(8)->Arg(16)->Arg(24);

void
BM_AcDownwardPass(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    KcSimulator kc(bench::qaoaCircuit(n, 1, 19));
    kc.amplitude(0);
    for (auto _ : state) {
        kc.evaluator().computeDerivatives();
        benchmark::DoNotOptimize(kc.evaluator().derivative(0, 1));
    }
}
BENCHMARK(BM_AcDownwardPass)->Arg(8)->Arg(16)->Arg(24);

void
BM_ParamRefreshEvaluate(benchmark::State& state)
{
    // The variational inner loop: new angles -> refresh leaves -> amplitude.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Circuit base = bench::qaoaCircuit(n, 1, 19);
    KcSimulator kc(base);
    double gamma = -0.55;
    for (auto _ : state) {
        gamma += 0.001;
        Circuit c = base;
        for (std::size_t idx : c.parameterizedGateIndices())
            c.setGateParam(idx, gamma);
        kc.refreshParams(c);
        benchmark::DoNotOptimize(kc.amplitude(0));
    }
}
BENCHMARK(BM_ParamRefreshEvaluate)->Arg(8)->Arg(16);

void
BM_GibbsSweep(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    KcSimulator kc(bench::qaoaCircuit(n, 1, 19));
    GibbsSampler sampler(kc.bayesNet(), kc.evaluator());
    Rng rng(5);
    sampler.init(rng);
    for (auto _ : state)
        sampler.sweep(rng);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_GibbsSweep)->Arg(8)->Arg(16)->Arg(24);

void
BM_CompileQaoa(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Circuit c = bench::qaoaCircuit(n, 1, 19);
    for (auto _ : state) {
        KcSimulator kc(c);
        benchmark::DoNotOptimize(kc.metrics().acNodes);
    }
}
BENCHMARK(BM_CompileQaoa)->Arg(8)->Arg(12)->Arg(16)->Unit(benchmark::kMillisecond);

void
BM_CircuitToBayesNet(benchmark::State& state)
{
    Circuit c = bench::qaoaCircuit(16, 2, 19);
    for (auto _ : state) {
        auto bn = circuitToBayesNet(c);
        benchmark::DoNotOptimize(bn.variables().size());
    }
}
BENCHMARK(BM_CircuitToBayesNet);

// -- SIMD dispatch-level comparison (JSON lines) -----------------------------

/**
 * One warm-up call, then the minimum over `reps` timed calls — the minimum
 * rejects scheduler noise; the payloads are unitary so the state stays
 * finite across reps.
 */
template <class F>
double
bestSeconds(const F& apply, int reps)
{
    apply();
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const obs::TimedSpan sweep("bench.sweep");
        apply();
        const double elapsed = sweep.seconds();
        if (r == 0 || elapsed < best)
            best = elapsed;
    }
    return best;
}

double
secondsPerApply(const GateKernel& kernel, StateVector& sv,
                const ExecPolicy& policy, bool blocked)
{
    return bestSeconds([&] {
        if (blocked)
            applyKernel(kernel, sv.data(), sv.dimension(), policy);
        else
            applyKernelUnblocked(kernel, sv.data(), sv.dimension(), policy);
    }, 10);
}

/** One row per (kernel class, simd level): ns/amp + speedup vs scalar. */
void
runSimdComparison(std::size_t n)
{
    struct Case {
        const char* name;
        Gate gate;
    };
    const Case cases[] = {
        {"generic1q", Gate(GateKind::H, {1})},
        {"diag1q", Gate(GateKind::Rz, {1}, 0.7)},
        {"diag2q", Gate(GateKind::ZZ, {1, 2}, 0.4)},
        {"perm1q", Gate(GateKind::X, {1})},
        {"ctrlperm", Gate(GateKind::CNOT, {1, 2})},
    };
    std::vector<SimdLevel> levels = {SimdLevel::Scalar};
    if (activeSimdLevel() >= SimdLevel::Avx2)
        levels.push_back(SimdLevel::Avx2);

    std::printf("# simd sweep comparison, %zu qubits, threads=1\n", n);
    const double amps = static_cast<double>(std::uint64_t{1} << n);
    StateVector sv(n);
    for (const Case& c : cases) {
        const GateKernel kernel = kernelFor(c.gate, n);
        double scalarSec = 0.0;
        for (SimdLevel level : levels) {
            ExecPolicy policy;
            policy.threads = 1;
            policy.simd = level;
            const double sec = secondsPerApply(kernel, sv, policy, true);
            if (level == SimdLevel::Scalar)
                scalarSec = sec;
            const char* name = simdLevelName(level);
            std::printf("simd %-10s %-7s %8.3f ns/amp  x%.2f\n", c.name,
                        name, sec / amps * 1e9, scalarSec / sec);
            bench::JsonRow("micro_kernels")
                .field("kernel", c.name)
                .field("qubits", n)
                .field("simd", name)
                .field("sec_per_apply", sec)
                .field("speedup_vs_scalar", scalarSec / sec);
        }
    }
}

/**
 * Blocked vs gather-only sweep on a high-stride target (residual bit
 * >= 20): the blocked sweep streams unit-stride runs where the gather
 * sweep strides 2^bit through the array.
 */
double
runBlockedComparison(std::size_t n)
{
    // Qubit 1 of n maps to bit n-2: 22 qubits puts the target at bit 20,
    // giving 2^20-amplitude runs.
    const Gate gate(GateKind::H, {1});
    const GateKernel kernel = kernelFor(gate, n);
    StateVector sv(n);
    ExecPolicy policy;
    policy.threads = 1;
    const char* level = simdLevelName(policy.resolvedSimd());

    std::printf("# blocked vs gather sweep, %zu qubits, target bit %zu\n", n,
                n - 2);
    const double amps = static_cast<double>(std::uint64_t{1} << n);
    const double gatherSec = secondsPerApply(kernel, sv, policy, false);
    const double blockedSec = secondsPerApply(kernel, sv, policy, true);
    std::printf("sweep gather  %-7s %8.3f ns/amp\n", level,
                gatherSec / amps * 1e9);
    std::printf("sweep blocked %-7s %8.3f ns/amp  x%.2f\n", level,
                blockedSec / amps * 1e9, gatherSec / blockedSec);
    bench::JsonRow("micro_kernels")
        .field("kernel", "generic1q_highstride")
        .field("qubits", n)
        .field("simd", level)
        .field("mode", "gather")
        .field("sec_per_apply", gatherSec);
    bench::JsonRow("micro_kernels")
        .field("kernel", "generic1q_highstride")
        .field("qubits", n)
        .field("simd", level)
        .field("mode", "blocked")
        .field("sec_per_apply", blockedSec)
        .field("speedup_vs_gather", gatherSec / blockedSec);
    return blockedSec / amps;
}

/**
 * Generic kernels on the lowest index bits, next to the bit-20 row above:
 * their runs are shorter than the blocked sweep's minimum, so applyKernel
 * takes the gather sweep (one index-gather per residual group). These are
 * the shapes of a dm kernel on qubit n-1 or n-2, whose column bit is 0 or
 * 1. `secPerAmpHighStride` is the blocked bit-20 sweep's time per amp.
 */
void
runLowBitRows(std::size_t n, double secPerAmpHighStride)
{
    const Matrix h = Gate(GateKind::H, {0}).unitary();
    const Matrix dense2q =
        h.kron(Gate(GateKind::Ry, {0}, 0.3).unitary()) *
        Gate(GateKind::CNOT, {0, 1}).unitary();
    struct Case {
        const char* name;
        GateKernel kernel;
    };
    const Case cases[] = {
        {"generic1q_bit0", compileKernel(h, {0})},
        {"generic1q_bit1", compileKernel(h, {1})},
        {"generic2q_bits10", compileKernel(dense2q, {1, 0})},
    };
    StateVector sv(n);
    ExecPolicy policy;
    policy.threads = 1;
    const char* level = simdLevelName(policy.resolvedSimd());
    const double amps = static_cast<double>(std::uint64_t{1} << n);

    std::printf("# low-bit kernels (gather sweep), %zu qubits\n", n);
    for (const Case& c : cases) {
        const double sec = secondsPerApply(c.kernel, sv, policy, true);
        const double groups = amps / static_cast<double>(1u << c.kernel.targets);
        std::printf("sweep %-17s %-7s %8.3f ns/amp %8.3f ns/group  "
                    "x%.2f vs bit-20 blocked\n",
                    c.name, level, sec / amps * 1e9, sec / groups * 1e9,
                    sec / amps / secPerAmpHighStride);
        bench::JsonRow("micro_kernels")
            .field("kernel", c.name)
            .field("qubits", n)
            .field("simd", level)
            .field("mode", "gather")
            .field("sec_per_apply", sec)
            .field("ns_per_group", sec / groups * 1e9)
            .field("slowdown_vs_highstride_blocked",
                   sec / amps / secPerAmpHighStride);
    }
}

/**
 * X then CNOT on the top bit pair, two ways: the two kernels fusion now
 * emits, each a blocked sweep, against their product, a 2-target
 * permutation that only the gather sweep serves.
 */
void
runFlipBeforeCnotRows(std::size_t n)
{
    const Gate x(GateKind::X, {0});
    const Gate cnot(GateKind::CNOT, {0, 1});
    const GateKernel kx = kernelFor(x, n);
    const GateKernel kcnot = kernelFor(cnot, n);
    const GateKernel folded = kernelFor(
        Gate::custom({0, 1}, cnot.unitary() *
                                 x.unitary().kron(Matrix::identity(2))),
        n);
    StateVector sv(n);
    ExecPolicy policy;
    policy.threads = 1;
    const char* level = simdLevelName(policy.resolvedSimd());
    const double amps = static_cast<double>(std::uint64_t{1} << n);
    const double twoSec = bestSeconds([&] {
        applyKernel(kx, sv.data(), sv.dimension(), policy);
        applyKernel(kcnot, sv.data(), sv.dimension(), policy);
    }, 10);
    const double oneSec = secondsPerApply(folded, sv, policy, true);

    std::printf("# x then cnot on bits (%zu, %zu), %zu qubits, threads=1\n",
                n - 1, n - 2, n);
    std::printf("sweep x+cnot    two blocked %-7s %8.3f ns/amp  x%.2f\n",
                level, twoSec / amps * 1e9, oneSec / twoSec);
    std::printf("sweep x*cnot    one gather  %-7s %8.3f ns/amp\n", level,
                oneSec / amps * 1e9);
    bench::JsonRow("micro_kernels")
        .field("kernel", "x_cnot_highbits")
        .field("qubits", n)
        .field("simd", level)
        .field("mode", "two_blocked")
        .field("sec_per_apply", twoSec)
        .field("speedup_vs_one_gather", oneSec / twoSec);
    bench::JsonRow("micro_kernels")
        .field("kernel", "x_cnot_highbits")
        .field("qubits", n)
        .field("simd", level)
        .field("mode", "one_gather")
        .field("sec_per_apply", oneSec);
}

/**
 * One QAOA cost layer (a ZZ per edge of a 3-regular graph) at the host's
 * thread count, two ways: one diagonal-run table sweep, and one kernel per
 * gate as a plan without runs sweeps it. GB/s counts a read and a write of
 * every amplitude per sweep.
 */
void
runCostLayerRows(std::size_t n)
{
    Rng rng(1001);
    const QaoaMaxCut problem = QaoaMaxCut::randomRegular(n, 3, 1, rng);
    std::vector<GateKernel> perGate;
    std::vector<DiagFactor> factors;
    for (const auto& [u, v] : problem.graph().edges()) {
        const Gate zz(GateKind::ZZ, {u, v}, 0.4);
        perGate.push_back(kernelFor(zz, n));
        factors.push_back(diagFactorOf(
            zz, {static_cast<std::uint32_t>(n - 1 - u),
                 static_cast<std::uint32_t>(n - 1 - v)}));
    }
    const GateKernel run = compileDiagRun(std::move(factors));
    const ExecPolicy policy;
    StateVector sv(n, policy);
    const double amps = static_cast<double>(std::uint64_t{1} << n);
    const double runSec = bestSeconds([&] {
        applyKernel(run, sv.data(), sv.dimension(), policy);
    }, 3);
    const double gateSec = bestSeconds([&] {
        for (const GateKernel& k : perGate)
            applyKernel(k, sv.data(), sv.dimension(), policy);
    }, 3);

    const char* level = simdLevelName(policy.resolvedSimd());
    std::printf("# qaoa cost layer, %zu ZZ, %zu qubits, threads=%zu\n",
                perGate.size(), n, policy.resolvedThreads());
    const struct {
        const char* mode;
        double sec;
        std::size_t sweeps;
    } rows[] = {{"diag_run", runSec, 1}, {"per_gate", gateSec, perGate.size()}};
    for (const auto& r : rows) {
        const double gbps = static_cast<double>(r.sweeps) * 32.0 * amps /
                            r.sec / 1e9;
        std::printf("layer %-9s %-7s %8.3f ns/amp %7.1f GB/s  x%.2f\n",
                    r.mode, level, r.sec / amps * 1e9, gbps, gateSec / r.sec);
        bench::JsonRow("micro_kernels")
            .field("kernel", "qaoa_cost_layer")
            .field("qubits", n)
            .field("gates", perGate.size())
            .field("threads", policy.resolvedThreads())
            .field("simd", level)
            .field("mode", r.mode)
            .field("sec_per_apply", r.sec)
            .field("ns_per_amp", r.sec / amps * 1e9)
            .field("gbps", gbps)
            .field("speedup_vs_per_gate", gateSec / r.sec);
    }
}

/** FNV-1a over the state's bytes. */
std::uint64_t
stateHash(const StateVector& sv)
{
    const auto* p = reinterpret_cast<const unsigned char*>(sv.data());
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < sv.dimension() * sizeof(Complex); ++i)
        h = (h ^ p[i]) * 1099511628211ull;
    return h;
}

/** The CPU model line of /proc/cpuinfo, or "unknown". */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    return "unknown";
}

/**
 * The longest low-bit stretch of the ideal_sv plan (24-qubit QAOA p=2 on a
 * 3-regular graph, 4 threads) two ways: one applyKernel sweep per kernel,
 * and applyKernels, which sweeps it block by block. GB/s counts a read and
 * a write of every amplitude per kernel for both. Both ways start from the
 * same state and must end in the same bytes; a mismatch fails the driver.
 */
void
runBlockRunRows()
{
    constexpr std::size_t n = 24;
    Rng rng(1001);
    const QaoaMaxCut problem = QaoaMaxCut::randomRegular(n, 3, 2, rng);
    ExecPolicy policy;
    policy.threads = 4;
    const ExecutionPlan plan =
        planCircuit(problem.circuit({-0.55, 0.3, -0.5, 0.35}), policy);
    std::vector<const GateKernel*> stretch, current;
    for (const PlannedOp& op : plan.ops) {
        if (!insideBlockRun(op.kernels[0])) {
            current.clear();
            continue;
        }
        current.push_back(&op.kernels[0]);
        if (current.size() > stretch.size())
            stretch = current;
    }

    StateVector sv(n, policy);
    auto prepare = [&] {
        Complex* a = sv.data();
        const double scale = 1.0 / std::sqrt(static_cast<double>(sv.dimension()));
        parallelFor(policy, sv.dimension(), [&](std::uint64_t b, std::uint64_t e) {
            for (std::uint64_t i = b; i < e; ++i)
                a[i] = Complex(std::cos(0.001 * static_cast<double>(i)),
                               std::sin(0.003 * static_cast<double>(i))) *
                       scale;
        });
    };
    auto perKernel = [&] {
        for (const GateKernel* k : stretch)
            applyKernel(*k, sv.data(), sv.dimension(), policy);
    };
    auto blockRuns = [&] {
        applyKernels(stretch, sv.data(), sv.dimension(), policy);
    };
    prepare();
    perKernel();
    const std::uint64_t loopHash = stateHash(sv);
    prepare();
    blockRuns();
    if (stateHash(sv) != loopHash)
        throw std::runtime_error(
            "block_runs: block runs and the per-kernel loop differ");

    const double loopSec = bestSeconds(perKernel, 5);
    const double blockSec = bestSeconds(blockRuns, 5);
    const char* level = simdLevelName(policy.resolvedSimd());
    const double amps = static_cast<double>(sv.dimension());
    const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
    std::printf("# block runs: %zu low-bit kernels of the ideal_sv plan, "
                "%zu qubits, threads=%zu, block 2^%u\n",
                stretch.size(), n, policy.resolvedThreads(), kBlockRunBits);
    const struct {
        const char* mode;
        double sec;
    } rows[] = {{"per_kernel", loopSec}, {"block_runs", blockSec}};
    for (const auto& r : rows) {
        const double gbps = static_cast<double>(stretch.size()) * 32.0 *
                            amps / r.sec / 1e9;
        std::printf("stretch %-10s %-7s %8.3f ns/amp %7.1f GB/s  x%.2f\n",
                    r.mode, level, r.sec / amps * 1e9, gbps, loopSec / r.sec);
        bench::JsonRow("micro_kernels")
            .field("kernel", "block_runs")
            .field("qubits", n)
            .field("kernels", stretch.size())
            .field("block_bits", static_cast<std::size_t>(kBlockRunBits))
            .field("threads", policy.resolvedThreads())
            .field("simd", level)
            .field("cpu", cpuModel())
            .field("hw_threads",
                   static_cast<std::size_t>(std::thread::hardware_concurrency()))
            .field("l2_bytes", static_cast<std::size_t>(l2 > 0 ? l2 : 0))
            .field("mode", r.mode)
            .field("sec_per_apply", r.sec)
            .field("ns_per_amp", r.sec / amps * 1e9)
            .field("gbps", gbps)
            .field("speedup_vs_per_kernel", loopSec / r.sec)
            .field("bit_identical", true);
    }
}

} // namespace

int
driverMain(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    runSimdComparison(20);
    runLowBitRows(22, runBlockedComparison(22));
    runFlipBeforeCnotRows(22);
    runCostLayerRows(24);
    runBlockRunRows();
    return 0;
}

int
main(int argc, char** argv)
{
    return bench::runDriver(argc, argv, driverMain);
}
