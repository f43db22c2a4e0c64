/**
 * Kernel-equivalence suite (ISSUE 3): every specialized kernel class is
 * cross-checked against the generic dense reference path on randomized
 * states and circuits with fixed seeds, in both serial and forced-parallel
 * execution, and the classifier's verdicts for the gate vocabulary are
 * pinned down so a regression to the generic path is caught.
 */
#include "exec/gate_kernels.h"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/circuit.h"
#include "circuit/gate.h"
#include "circuit/noise.h"
#include "statevector/statevector_simulator.h"
#include "testing/simd_levels.h"
#include "util/rng.h"

namespace qkc {
namespace {

constexpr double kTol = 1e-12;

std::vector<Complex>
randomState(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Complex> amps(std::size_t{1} << n);
    double norm = 0.0;
    for (auto& a : amps) {
        a = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
        norm += norm2(a);
    }
    const double inv = 1.0 / std::sqrt(norm);
    for (auto& a : amps)
        a *= inv;
    return amps;
}

ExecPolicy
forcedParallel()
{
    ExecPolicy p;
    p.threads = 4;
    p.serialThreshold = 1;
    p.grain = 32;
    return p;
}

std::vector<std::uint32_t>
bitsFor(const std::vector<std::size_t>& qubits, std::size_t n)
{
    std::vector<std::uint32_t> bits;
    for (std::size_t q : qubits)
        bits.push_back(static_cast<std::uint32_t>(n - 1 - q));
    return bits;
}

void
expectMatchesReference(const Matrix& m, const std::vector<std::size_t>& qubits,
                       std::size_t n, std::uint64_t seed)
{
    const GateKernel kernel = compileKernel(m, bitsFor(qubits, n));
    auto specializedSerial = randomState(n, seed);
    auto specializedParallel = specializedSerial;
    auto reference = specializedSerial;
    const std::uint64_t dim = reference.size();

    applyKernel(kernel, specializedSerial.data(), dim, ExecPolicy{});
    applyKernel(kernel, specializedParallel.data(), dim, forcedParallel());
    applyKernelReference(kernel, reference.data(), dim);

    for (std::uint64_t i = 0; i < dim; ++i) {
        ASSERT_TRUE(approxEqual(specializedSerial[i], reference[i], kTol))
            << "serial kernel " << kernel.className() << " at index " << i;
        // Serial and parallel kernels must agree *bitwise*.
        ASSERT_EQ(specializedSerial[i].real(), specializedParallel[i].real());
        ASSERT_EQ(specializedSerial[i].imag(), specializedParallel[i].imag());
    }

    // And every SIMD dispatch level must agree bitwise with the default.
    for (SimdLevel level : testing::simdLevels()) {
        ExecPolicy leveled;
        leveled.simd = level;
        auto atLevel = randomState(n, seed);
        applyKernel(kernel, atLevel.data(), dim, leveled);
        for (std::uint64_t i = 0; i < dim; ++i) {
            ASSERT_EQ(specializedSerial[i].real(), atLevel[i].real())
                << kernel.className() << " simd=" << simdLevelName(level)
                << " index " << i;
            ASSERT_EQ(specializedSerial[i].imag(), atLevel[i].imag())
                << kernel.className() << " simd=" << simdLevelName(level)
                << " index " << i;
        }
    }
}

TEST(KernelClassificationTest, GateVocabularyLandsInSpecializedClasses)
{
    const std::size_t n = 4;
    auto classOf = [&](const Gate& g) {
        return std::string(
            compileKernel(g.unitary(), bitsFor(g.qubits(), n)).className());
    };
    EXPECT_EQ(classOf(Gate(GateKind::I, {0})), "identity");
    EXPECT_EQ(classOf(Gate(GateKind::X, {1})), "perm");
    EXPECT_EQ(classOf(Gate(GateKind::Y, {2})), "perm");
    EXPECT_EQ(classOf(Gate(GateKind::Z, {0})), "ctrl-diag");
    EXPECT_EQ(classOf(Gate(GateKind::S, {0})), "ctrl-diag");
    EXPECT_EQ(classOf(Gate(GateKind::T, {3})), "ctrl-diag");
    EXPECT_EQ(classOf(Gate(GateKind::H, {0})), "generic");
    EXPECT_EQ(classOf(Gate(GateKind::Rx, {0}, 0.7)), "generic");
    EXPECT_EQ(classOf(Gate(GateKind::Rz, {0}, 0.7)), "diag");
    EXPECT_EQ(classOf(Gate(GateKind::PhaseZ, {0}, 0.7)), "ctrl-diag");
    EXPECT_EQ(classOf(Gate(GateKind::CNOT, {0, 1})), "ctrl-perm");
    EXPECT_EQ(classOf(Gate(GateKind::CZ, {1, 3})), "ctrl-diag");
    EXPECT_EQ(classOf(Gate(GateKind::SWAP, {0, 2})), "perm");
    EXPECT_EQ(classOf(Gate(GateKind::CRz, {0, 1}, 0.4)), "ctrl-diag");
    EXPECT_EQ(classOf(Gate(GateKind::CPhase, {0, 1}, 0.4)), "ctrl-diag");
    EXPECT_EQ(classOf(Gate(GateKind::ZZ, {0, 1}, 0.4)), "diag");
    EXPECT_EQ(classOf(Gate(GateKind::CCX, {0, 1, 2})), "ctrl-perm");
    EXPECT_EQ(classOf(Gate(GateKind::CCZ, {0, 1, 2})), "ctrl-diag");
    EXPECT_EQ(classOf(Gate(GateKind::CSWAP, {0, 1, 2})), "ctrl-perm");
}

TEST(KernelClassificationTest, KrausOperatorsClassifyToo)
{
    const std::size_t n = 3;
    // Damping E0 = diag(1, sqrt(1-g)): one controlled diagonal entry.
    const auto damping = NoiseChannel::amplitudeDamping(0, 0.3);
    EXPECT_EQ(std::string(compileKernel(damping.krausOperators()[0],
                                        bitsFor({0}, n))
                              .className()),
              "ctrl-diag");
    // Bit-flip E0 = sqrt(1-p) I: a global phase sweep.
    const auto flip = NoiseChannel::bitFlip(1, 0.2);
    EXPECT_EQ(std::string(
                  compileKernel(flip.krausOperators()[0], bitsFor({1}, n))
                      .className()),
              "phase");
    EXPECT_EQ(std::string(
                  compileKernel(flip.krausOperators()[1], bitsFor({1}, n))
                      .className()),
              "perm");
}

TEST(KernelEquivalenceTest, EveryGateKindMatchesReference)
{
    const std::size_t n = 6;
    std::uint64_t seed = 100;
    const std::vector<Gate> gates = {
        Gate(GateKind::I, {0}),
        Gate(GateKind::X, {1}),
        Gate(GateKind::Y, {5}),
        Gate(GateKind::Z, {2}),
        Gate(GateKind::H, {3}),
        Gate(GateKind::S, {4}),
        Gate(GateKind::Sdg, {0}),
        Gate(GateKind::T, {1}),
        Gate(GateKind::Tdg, {2}),
        Gate(GateKind::Rx, {3}, 0.81),
        Gate(GateKind::Ry, {4}, -1.2),
        Gate(GateKind::Rz, {5}, 2.7),
        Gate(GateKind::PhaseZ, {0}, 0.33),
        Gate(GateKind::CNOT, {0, 4}),
        Gate(GateKind::CNOT, {4, 0}),
        Gate(GateKind::CZ, {2, 5}),
        Gate(GateKind::SWAP, {1, 3}),
        Gate(GateKind::CRz, {5, 2}, 1.9),
        Gate(GateKind::CPhase, {3, 0}, -0.6),
        Gate(GateKind::ZZ, {2, 4}, 0.95),
        Gate(GateKind::CCX, {0, 2, 4}),
        Gate(GateKind::CCX, {5, 3, 1}),
        Gate(GateKind::CCZ, {1, 2, 3}),
        Gate(GateKind::CSWAP, {2, 0, 5}),
    };
    for (const Gate& g : gates) {
        SCOPED_TRACE(g.name());
        expectMatchesReference(g.unitary(), g.qubits(), n, seed++);
    }
}

TEST(KernelEquivalenceTest, RandomCustomUnitariesMatchReference)
{
    const std::size_t n = 5;
    Rng rng(7);
    for (int trial = 0; trial < 10; ++trial) {
        // Random 2x2 unitary from Euler angles.
        const double a = rng.uniform(0.0, 2.0 * M_PI);
        const double b = rng.uniform(0.0, 2.0 * M_PI);
        const double c = rng.uniform(0.0, 2.0 * M_PI);
        const Complex i{0.0, 1.0};
        Matrix u{{std::exp(i * a) * std::cos(c), std::exp(i * b) * std::sin(c)},
                 {-std::exp(-i * b) * std::sin(c),
                  std::exp(-i * a) * std::cos(c)}};
        const std::size_t q = rng.below(n);
        expectMatchesReference(u, {q}, n, 500 + trial);
    }
}

TEST(KernelEquivalenceTest, KrausOperatorsMatchReference)
{
    const std::size_t n = 5;
    std::uint64_t seed = 900;
    const std::vector<NoiseChannel> channels = {
        NoiseChannel::bitFlip(0, 0.25),
        NoiseChannel::phaseFlip(1, 0.1),
        NoiseChannel::depolarizing(2, 0.15),
        NoiseChannel::amplitudeDamping(3, 0.4),
        NoiseChannel::phaseDamping(4, 0.3),
        NoiseChannel::generalizedAmplitudeDamping(0, 0.35, 0.6),
        NoiseChannel::twoQubitDepolarizing(1, 3, 0.2),
    };
    for (const auto& ch : channels) {
        SCOPED_TRACE(ch.name());
        for (const Matrix& e : ch.krausOperators())
            expectMatchesReference(e, ch.qubits(), n, seed++);
    }
}

TEST(KernelEquivalenceTest, PreScaleFoldsIntoOnePass)
{
    const std::size_t n = 5;
    const std::uint64_t dim = std::uint64_t{1} << n;
    const auto damping = NoiseChannel::amplitudeDamping(2, 0.37);
    for (const Matrix& e : damping.krausOperators()) {
        const GateKernel kernel = compileKernel(e, bitsFor({2}, n));
        auto scaled = randomState(n, 42);
        auto twoPass = scaled;

        const double w =
            normAfterKernel(kernel, scaled.data(), dim, ExecPolicy{});
        const Complex s{1.0 / std::sqrt(w), 0.0};
        applyKernel(kernel, scaled.data(), dim, ExecPolicy{}, s);

        applyKernel(kernel, twoPass.data(), dim, ExecPolicy{});
        for (auto& a : twoPass)
            a *= s;

        for (std::uint64_t idx = 0; idx < dim; ++idx)
            ASSERT_TRUE(approxEqual(scaled[idx], twoPass[idx], kTol));

        // And the hoisted application really lands on a unit-norm state.
        double norm = 0.0;
        for (const auto& a : scaled)
            norm += norm2(a);
        EXPECT_NEAR(norm, 1.0, 1e-9);
    }
}

TEST(KernelEquivalenceTest, NormAfterMatchesApplyThenNorm)
{
    const std::size_t n = 6;
    const std::uint64_t dim = std::uint64_t{1} << n;
    const auto ch = NoiseChannel::depolarizing(3, 0.2);
    auto state = randomState(n, 77);
    for (const Matrix& e : ch.krausOperators()) {
        const GateKernel kernel = compileKernel(e, bitsFor({3}, n));
        auto applied = state;
        applyKernel(kernel, applied.data(), dim, ExecPolicy{});
        double expected = 0.0;
        for (const auto& a : applied)
            expected += norm2(a);
        EXPECT_NEAR(normAfterKernel(kernel, state.data(), dim, ExecPolicy{}),
                    expected, 1e-12);
    }
}

TEST(KernelEquivalenceTest, RandomizedCircuitsMatchReferenceEndToEnd)
{
    // Whole random circuits: specialized+parallel execution against the
    // dense reference, amplitude for amplitude.
    const std::size_t n = 6;
    Rng rng(2024);
    for (int trial = 0; trial < 5; ++trial) {
        std::vector<GateKernel> kernels;
        for (int g = 0; g < 40; ++g) {
            const int pick = static_cast<int>(rng.below(8));
            std::size_t a = rng.below(n);
            std::size_t b = (a + 1 + rng.below(n - 1)) % n;
            std::size_t c = 0;
            do {
                c = rng.below(n);
            } while (c == a || c == b);
            Gate gate = [&]() {
                switch (pick) {
                  case 0: return Gate(GateKind::H, {a});
                  case 1: return Gate(GateKind::T, {a});
                  case 2: return Gate(GateKind::Rx, {a}, rng.uniform(-3, 3));
                  case 3: return Gate(GateKind::Rz, {a}, rng.uniform(-3, 3));
                  case 4: return Gate(GateKind::CNOT, {a, b});
                  case 5: return Gate(GateKind::CZ, {a, b});
                  case 6: return Gate(GateKind::ZZ, {a, b}, rng.uniform(-3, 3));
                  default: return Gate(GateKind::CCX, {a, b, c});
                }
            }();
            kernels.push_back(
                compileKernel(gate.unitary(), bitsFor(gate.qubits(), n)));
        }

        auto fast = randomState(n, 3000 + trial);
        auto reference = fast;
        const std::uint64_t dim = fast.size();
        for (const auto& k : kernels) {
            applyKernel(k, fast.data(), dim, forcedParallel());
            applyKernelReference(k, reference.data(), dim);
        }
        for (std::uint64_t i = 0; i < dim; ++i)
            ASSERT_TRUE(approxEqual(fast[i], reference[i], 1e-10))
                << "trial " << trial << " index " << i;
    }
}

/** A random 16x16 matrix of the given four-bit kernel shape. */
Matrix
randomFourBitMatrix(GateKernel::Op shape, std::uint64_t seed)
{
    Rng rng(seed);
    auto phase = [&] {
        return std::polar(1.0, rng.uniform(0.1, 2.0 * M_PI - 0.1));
    };
    Matrix m(16, 16);
    switch (shape) {
      case GateKernel::Op::Diag:
        for (std::size_t l = 0; l < 16; ++l)
            m(l, l) = phase();
        break;
      case GateKernel::Op::Perm: {
        // A fixed-point-free permutation, so no bit strips as a control.
        for (std::size_t r = 0; r < 16; ++r)
            m(r, (r * 7 + 3) % 16) = phase();
        break;
      }
      default:
        for (std::size_t r = 0; r < 16; ++r)
            for (std::size_t c = 0; c < 16; ++c)
                m(r, c) = Complex(rng.uniform(-0.25, 0.25),
                                  rng.uniform(-0.25, 0.25));
        break;
    }
    return m;
}

TEST(FourBitKernelTest, CompileAcceptsOneToFourBits)
{
    EXPECT_THROW(compileKernel(Matrix(1, 1), {}), std::invalid_argument);
    EXPECT_THROW(compileKernel(Matrix::identity(32), {0, 1, 2, 3, 4}),
                 std::invalid_argument);
    const GateKernel k = compileKernel(Matrix::identity(16), {0, 1, 2, 3});
    EXPECT_EQ(k.arity, 4);
    EXPECT_EQ(k.op, GateKernel::Op::Identity);
}

TEST(FourBitKernelTest, EveryClassMatchesReference)
{
    // Four-bit kernels take the gather sweep; cover operand sets with and
    // without bit 0 and in non-monotone order.
    const std::size_t n = 7;
    const std::vector<std::vector<std::size_t>> operandSets = {
        {0, 2, 3, 5}, {6, 1, 4, 2}, {3, 4, 5, 6}};
    const struct {
        GateKernel::Op op;
        const char* name;
    } shapes[] = {{GateKernel::Op::Diag, "diag"},
                  {GateKernel::Op::Perm, "perm"},
                  {GateKernel::Op::Generic, "generic"}};
    std::uint64_t seed = 1600;
    for (const auto& shape : shapes) {
        for (const auto& qubits : operandSets) {
            SCOPED_TRACE(shape.name);
            const Matrix m = randomFourBitMatrix(shape.op, seed);
            EXPECT_EQ(std::string(
                          compileKernel(m, bitsFor(qubits, n)).className()),
                      shape.name);
            expectMatchesReference(m, qubits, n, seed++);
        }
    }
}

TEST(FourBitKernelTest, NormAfterMatchesApplyThenNorm)
{
    const std::size_t n = 6;
    const std::uint64_t dim = std::uint64_t{1} << n;
    const GateKernel kernel =
        compileKernel(randomFourBitMatrix(GateKernel::Op::Generic, 1700),
                      bitsFor({4, 0, 2, 5}, n));
    ASSERT_EQ(kernel.op, GateKernel::Op::Generic);
    const auto state = randomState(n, 1701);
    auto applied = state;
    applyKernel(kernel, applied.data(), dim, ExecPolicy{});
    double expected = 0.0;
    for (const auto& a : applied)
        expected += norm2(a);
    EXPECT_NEAR(normAfterKernel(kernel, state.data(), dim, ExecPolicy{}),
                expected, 1e-12);
}

} // namespace
} // namespace qkc
