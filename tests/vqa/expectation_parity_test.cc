/**
 * Expectation parity across backends (ISSUE 4 acceptance): exact
 * Expectation results agree across sv/dm/kc/dd to 1e-9 on analytically
 * known GHZ values and on the VQE Ising Hamiltonian — without sampling —
 * and sampled estimates converge to the exact values within CLT bounds.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "linalg/matrix.h"
#include "testing/session_runs.h"
#include "testing/test_circuits.h"
#include "vqa/backends.h"
#include "vqa/driver.h"

namespace qkc {
namespace {

constexpr const char* kExactBackends[] = {"sv", "dm", "kc", "dd"};

double
exactExpectation(const char* name, const Circuit& c, const PauliSum& h)
{
    auto session = makeBackend(name)->open(c);
    Rng rng(1);
    Result r = session->run(Expectation{h, 0}, rng);
    EXPECT_TRUE(r.meta.exact) << name;
    EXPECT_EQ(r.meta.fallbackShots, 0u) << name;
    return r.expectation;
}

TEST(ExpectationParityTest, GhzStabilizersAreExactOnAllFourBackends)
{
    // |GHZ_4>: <Z_i Z_j> = 1, <X X X X> = 1, <Z_i> = 0, <X I I I> = 0.
    const Circuit c = ghzCircuit(4);
    PauliSum zz, xxxx, z1, x1;
    zz.add(1.0, PauliString("ZIIZ"));
    xxxx.add(1.0, PauliString("XXXX"));
    z1.add(1.0, PauliString("IZII"));
    x1.add(1.0, PauliString("XIII"));

    for (const char* name : kExactBackends) {
        EXPECT_NEAR(exactExpectation(name, c, zz), 1.0, 1e-9) << name;
        EXPECT_NEAR(exactExpectation(name, c, xxxx), 1.0, 1e-9) << name;
        EXPECT_NEAR(exactExpectation(name, c, z1), 0.0, 1e-9) << name;
        EXPECT_NEAR(exactExpectation(name, c, x1), 0.0, 1e-9) << name;
    }
}

TEST(ExpectationParityTest, AsymmetricObservablesPinQubitIndexing)
{
    // Qubit-asymmetric state and observables: Ry(0.8) on qubit 0 and
    // Rx(0.5) on qubit 1 give <XI> = sin 0.8, <IX> = 0, <IY> = -sin 0.5,
    // <YI> = 0, <ZI> = cos 0.8, <IZ> = cos 0.5. A swapped qubit index or
    // bit convention in any native expectation path cannot survive these
    // (the GHZ/Bell cases are permutation-invariant and would).
    Circuit c(2);
    c.ry(0, 0.8).rx(1, 0.5);
    const struct {
        const char* pauli;
        double value;
    } cases[] = {
        {"XI", std::sin(0.8)}, {"IX", 0.0},
        {"YI", 0.0},           {"IY", -std::sin(0.5)},
        {"ZI", std::cos(0.8)}, {"IZ", std::cos(0.5)},
    };
    for (const char* name : kExactBackends) {
        for (const auto&[text, value] : cases) {
            PauliSum h;
            h.add(1.0, PauliString(text));
            EXPECT_NEAR(exactExpectation(name, c, h), value, 1e-9)
                << name << " <" << text << ">";
        }
    }
}

/** The dense 2^n x 2^n matrix of a Pauli string (qubit 0 = MSB). */
Matrix
denseMatrix(const PauliString& pauli)
{
    const Complex i{0.0, 1.0};
    Matrix m = Matrix::identity(1);
    for (std::size_t q = 0; q < pauli.numQubits(); ++q) {
        switch (pauli.pauli(q)) {
          case 'X': m = m.kron(Matrix{{0.0, 1.0}, {1.0, 0.0}}); break;
          case 'Y': m = m.kron(Matrix{{0.0, -i}, {i, 0.0}}); break;
          case 'Z': m = m.kron(Matrix{{1.0, 0.0}, {0.0, -1.0}}); break;
          default: m = m.kron(Matrix::identity(2)); break;
        }
    }
    return m;
}

/**
 * A random n-qubit Pauli sum: one term with exactly 1, 2 and 3 Y factors
 * each (every i^nY phase), the other factors drawn from I/X/Z, plus an X
 * term, a Z term and an identity term.
 */
PauliSum
randomPauliSum(std::size_t n, Rng& rng)
{
    const auto randomText = [&](std::size_t numY, const char* others) {
        std::string text(n, 'I');
        for (std::size_t q = 0; q < n; ++q)
            text[q] = others[rng.below(3)];
        for (std::size_t placed = 0; placed < numY;) {
            const std::size_t q = rng.below(n);
            if (text[q] != 'Y') {
                text[q] = 'Y';
                ++placed;
            }
        }
        return text;
    };
    PauliSum h;
    for (std::size_t numY = 1; numY <= 3; ++numY)
        h.add(rng.uniform(-1.0, 1.0), PauliString(randomText(numY, "IXZ")));
    std::string x = randomText(0, "IXZ");
    x[rng.below(n)] = 'X';
    h.add(rng.uniform(-1.0, 1.0), PauliString(x));
    std::string z = randomText(0, "IIZ");
    z[rng.below(n)] = 'Z';
    h.add(rng.uniform(-1.0, 1.0), PauliString(z));
    h.add(rng.uniform(-1.0, 1.0), PauliString(std::string(n, 'I')));
    return h;
}

/** psi^dagger P psi from the dense matrix of P. */
double
denseExpectation(const StateVector& psi, const PauliString& pauli)
{
    const Matrix p = denseMatrix(pauli);
    Complex value{0.0, 0.0};
    for (std::uint64_t r = 0; r < psi.dimension(); ++r)
        for (std::uint64_t c = 0; c < psi.dimension(); ++c)
            value += std::conj(psi.amplitude(r)) * p(r, c) * psi.amplitude(c);
    return value.real();
}

/** tr(rho P) from the dense matrix of P. */
double
denseTrace(const DensityMatrix& rho, const PauliString& pauli)
{
    const Matrix p = denseMatrix(pauli);
    Complex trace{0.0, 0.0};
    for (std::uint64_t r = 0; r < rho.dimension(); ++r)
        for (std::uint64_t c = 0; c < rho.dimension(); ++c)
            trace += rho.at(r, c) * p(c, r);
    return trace.real();
}

/**
 * Runs each observable on one session of `spec` and checks the exact value
 * against the reference within 1e-12.
 */
void
expectExactValues(const std::string& spec, const Circuit& c,
                  const std::vector<PauliSum>& observables,
                  const std::vector<double>& references)
{
    auto session = makeBackend(spec)->open(c);
    Rng unused(0);
    for (std::size_t k = 0; k < observables.size(); ++k) {
        const Result r = session->run(Expectation{observables[k], 0}, unused);
        EXPECT_TRUE(r.meta.exact) << spec;
        EXPECT_NEAR(r.expectation, references[k], 1e-12)
            << spec << " observable " << k;
    }
}

TEST(ExpectationParityTest, EveryPhaseCaseMatchesADenseReference)
{
    // psi^dagger P psi (and tr(rho P) under noise) from dense Kronecker
    // products, term by term and summed: a wrong Y phase, sign mask or
    // flip convention in the shared expectation pass flips or zeroes at
    // least one term. Every reference term is checked to be non-zero, so
    // a sign error cannot hide behind a vanishing value.
    for (std::uint64_t seed : {801u, 802u, 803u, 804u}) {
        Rng rng(seed);
        const std::size_t n = 3 + rng.below(3);
        // Random single-qubit layers around the random circuit make every
        // amplitude complex and generic, so no term vanishes by symmetry.
        Circuit c(n);
        for (std::size_t q = 0; q < n; ++q)
            c.ry(q, rng.uniform(0.1, 3.0)).rz(q, rng.uniform(0.1, 3.0));
        c.extend(testing::randomCircuit(n, 12, rng));
        for (std::size_t q = 0; q < n; ++q)
            c.ry(q, rng.uniform(0.1, 3.0)).rz(q, rng.uniform(0.1, 3.0));
        const Circuit noisy =
            c.withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.03);
        const PauliSum h = randomPauliSum(n, rng);
        const StateVector psi = testing::finalState(c);
        const DensityMatrix rho = testing::finalRho(noisy);

        std::vector<PauliSum> observables;
        std::vector<double> ideal;
        std::vector<double> mixed;
        double idealSum = 0.0;
        double mixedSum = 0.0;
        for (const auto& [coeff, pauli] : h.terms) {
            observables.emplace_back().add(coeff, pauli);
            ideal.push_back(coeff * denseExpectation(psi, pauli));
            mixed.push_back(coeff * denseTrace(rho, pauli));
            idealSum += ideal.back();
            mixedSum += mixed.back();
            EXPECT_GT(std::abs(ideal.back()), 1e-6)
                << "seed=" << seed << " " << pauli.text();
            EXPECT_GT(std::abs(mixed.back()), 1e-6)
                << "seed=" << seed << " " << pauli.text();
        }
        observables.push_back(h);
        ideal.push_back(idealSum);
        mixed.push_back(mixedSum);

        for (const char* name : kExactBackends)
            expectExactValues(name, c, observables, ideal);
        expectExactValues("dm", noisy, observables, mixed);
    }
}

TEST(ExpectationParityTest, VqeIsingHamiltonianAgreesAcrossBackends)
{
    // The full VQE Ising Hamiltonian on a mid-optimization ansatz state:
    // every exact backend must agree with the brute-force value from the
    // state-vector distribution to 1e-9.
    Rng modelRng(5);
    VqeIsing problem(2, 3, 1, modelRng);
    const Circuit c = problem.circuit({0.37, 0.81});
    const PauliSum h = problem.hamiltonian();

    Rng distRng(1);
    auto dist = makeBackend("sv")->open(c)->run(Probabilities{{}}, distRng);
    const double reference = problem.expectedEnergyExact(dist.probabilities);

    for (const char* name : kExactBackends)
        EXPECT_NEAR(exactExpectation(name, c, h), reference, 1e-9) << name;
}

TEST(ExpectationParityTest, NoisyDiagonalExpectationExactOnDmAndKc)
{
    // Channels included: dm via tr(rho P), kc via the noise-summed outcome
    // distribution (feasible here: two channels). Both must agree to 1e-9
    // on a diagonal observable.
    Circuit bell(2);
    bell.h(0).cnot(0, 1);
    const Circuit noisy =
        bell.withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.03);
    PauliSum h;
    h.add(0.8, PauliString("ZZ")).add(-0.3, PauliString("ZI"));

    const double dm = exactExpectation("dm", noisy, h);
    const double kc = exactExpectation("kc", noisy, h);
    EXPECT_NEAR(dm, kc, 1e-9);

    // And the noise moves the value: it must differ from the ideal one.
    const double ideal = exactExpectation("dm", bell, h);
    EXPECT_GT(std::abs(dm - ideal), 1e-6);
}

TEST(ExpectationParityTest, KcFallsBackToGibbsBeyondTheFeasibilityLimit)
{
    // A heavily-noised VQE circuit has too many noise assignments for the
    // exact AC sweep: the kc session must degrade to Gibbs shots (flagged
    // non-exact) instead of hanging on the enumeration, and the estimate
    // must still land near the exact dm value. Two qubits with a channel on
    // each wire of each of the 7 gates (8 channels) need 2^2 * 4^8 =
    // 262144 evaluations, four times the 2^16 limit. Almost all of the
    // test's time is the Gibbs shots, not the AC compile, and they cost in
    // proportion to the circuit, so it is kept this small.
    Rng modelRng(5);
    VqeIsing problem(1, 2, 1, modelRng);
    const Circuit noisy =
        problem.circuit({0.37, 0.81})
            .withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.01);
    const PauliSum h = problem.hamiltonian();

    auto session = makeBackend("kc:burnin=32")->open(noisy);
    Rng rng(31);
    Result r = session->run(Expectation{h, 2048}, rng);
    EXPECT_FALSE(r.meta.exact);
    EXPECT_GT(r.meta.fallbackShots, 0u);

    const double reference = exactExpectation("dm", noisy, h);
    double coeffSum = 0.0;
    for (const auto& [coeff, pauli] : h.terms) {
        (void)pauli;
        coeffSum += std::abs(coeff);
    }
    EXPECT_NEAR(r.expectation, reference,
                5.0 * coeffSum / std::sqrt(2048.0) + 0.05);
}

TEST(ExpectationParityTest, SampledEstimatesConvergeWithinCltBounds)
{
    // tn (always sampled) and sv-under-noise (trajectory fallback for the
    // non-diagonal term) must land within 5 sigma of the exact value.
    Rng modelRng(5);
    VqeIsing problem(2, 2, 1, modelRng);
    const Circuit c = problem.circuit({0.37, 0.81});
    const PauliSum h = problem.hamiltonian();
    const double reference = exactExpectation("sv", c, h);

    double coeffSum = 0.0;
    for (const auto& [coeff, pauli] : h.terms) {
        (void)pauli;
        coeffSum += std::abs(coeff);
    }

    const std::size_t shots = 8192;
    // Each term's estimator has variance <= coeff^2 / shots; bound the sum
    // conservatively by (sum |coeff|)^2 / shots.
    const double bound = 5.0 * coeffSum / std::sqrt(double(shots));

    auto session = makeBackend("tn")->open(c);
    Rng rng(23);
    Result r = session->run(Expectation{h, shots}, rng);
    EXPECT_FALSE(r.meta.exact);
    EXPECT_GT(r.meta.fallbackShots, 0u);
    EXPECT_NEAR(r.expectation, reference, bound);
}

TEST(ExpectationParityTest, NoisyNonDiagonalFallsBackToShotsOnSv)
{
    // Bell pair + depolarizing noise: <XX> is non-diagonal, so the noisy
    // sv session samples rotated trajectories; the estimate must still
    // track the exact dm value within CLT distance.
    Circuit bell(2);
    bell.h(0).cnot(0, 1);
    const Circuit noisy =
        bell.withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.02);
    PauliSum h;
    h.add(1.0, PauliString("XX"));

    const double reference = exactExpectation("dm", noisy, h);

    auto session = makeBackend("sv")->open(noisy);
    Rng rng(29);
    const std::size_t shots = 8192;
    Result r = session->run(Expectation{h, shots}, rng);
    EXPECT_FALSE(r.meta.exact);
    EXPECT_EQ(r.meta.fallbackShots, shots);
    // The rotated-basis fallback runs one Kraus trajectory per shot, and
    // the metadata must account for them.
    EXPECT_EQ(r.meta.trajectories, shots);
    EXPECT_NEAR(r.expectation, reference,
                5.0 / std::sqrt(double(shots)));
}

} // namespace
} // namespace qkc
