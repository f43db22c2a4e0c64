/**
 * Cross-backend equivalence: every registry backend must agree on
 * amplitudes and outcome probabilities for random circuits drawn with fixed
 * seeds and for the GHZ family; under noise, the exact backends (dm, kc)
 * must match exhaustive Kraus enumeration and the trajectory backends (sv,
 * dd) must pass a chi-square test against it.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "ac/kc_simulator.h"
#include "algorithms/algorithms.h"
#include "circuit/noise.h"
#include "statevector/statevector_simulator.h"
#include "testing/chi_square.h"
#include "testing/session_runs.h"
#include "testing/test_circuits.h"
#include "vqa/backends.h"

namespace qkc {
namespace {

/** Total variation distance between two outcome distributions. */
double
totalVariation(const std::vector<double>& p, const std::vector<double>& q)
{
    double tv = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i)
        tv += std::abs(p[i] - q[i]);
    return 0.5 * tv;
}

struct EquivalenceCase {
    std::uint64_t seed;
    std::size_t numQubits;
    std::size_t numGates;
    bool threeQubit;
};

/** Names a case seed_qubits_gates ("101_2q_8g"); the seeds are distinct. */
void
PrintTo(const EquivalenceCase& p, std::ostream* os)
{
    *os << p.seed << "_" << p.numQubits << "q_" << p.numGates << "g";
}

class BackendEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(BackendEquivalenceTest, AmplitudesAgreeAcrossBackends)
{
    const EquivalenceCase& p = GetParam();
    Rng rng(p.seed);
    Circuit c =
        testing::randomCircuit(p.numQubits, p.numGates, rng, p.threeQubit);

    const StateVector exact = testing::finalState(c);
    std::vector<std::uint64_t> basis(exact.dimension());
    std::iota(basis.begin(), basis.end(), std::uint64_t{0});

    for (const std::string& name : backendNames()) {
        if (name == "densitymatrix")
            continue; // a mixed-state representation holds no amplitudes
        Rng unused(0);
        const auto amps =
            makeBackend(name)->open(c)->run(Amplitudes{basis}, unused)
                .amplitudes;
        ASSERT_EQ(amps.size(), basis.size()) << name;
        for (std::uint64_t x = 0; x < basis.size(); ++x)
            EXPECT_TRUE(approxEqual(amps[x], exact.amplitude(x), 1e-9))
                << name << " amplitude mismatch at x=" << x;
    }
}

TEST_P(BackendEquivalenceTest, ProbabilitiesAgreeAcrossBackends)
{
    const EquivalenceCase& p = GetParam();
    Rng rng(p.seed);
    Circuit c =
        testing::randomCircuit(p.numQubits, p.numGates, rng, p.threeQubit);

    const auto exact = testing::finalState(c).probabilities();
    for (const std::string& name : backendNames()) {
        const auto dist = testing::probabilitiesOf(name, c);
        ASSERT_EQ(dist.size(), exact.size()) << name;
        for (std::uint64_t x = 0; x < exact.size(); ++x)
            EXPECT_NEAR(dist[x], exact[x], 1e-9) << name << " x=" << x;
    }

    // The headline acceptance bound: the DD backend is within 1e-9 total
    // variation distance of the exact state-vector distribution.
    EXPECT_LE(totalVariation(testing::probabilitiesOf("dd", c), exact), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    FixedSeeds, BackendEquivalenceTest,
    ::testing::Values(EquivalenceCase{101, 2, 8, false},
                      EquivalenceCase{102, 3, 10, true},
                      EquivalenceCase{103, 3, 14, false},
                      EquivalenceCase{104, 4, 12, true},
                      EquivalenceCase{105, 4, 16, true},
                      EquivalenceCase{106, 5, 10, false}));

TEST(BackendEquivalenceTest, NoisyProbabilitiesAgreeAcrossBackends)
{
    // Random 3-4 qubit circuits with 3-5 single-qubit channels between
    // gate blocks plus one two-qubit depolarizing channel. The kinds cycle
    // from a random start, so no circuit holds more than two depolarizing
    // channels and kc's exact-evaluation budget (2^16) always holds.
    const std::vector<double> ps = {0.05, 0.1, 0.2};
    for (std::uint64_t seed : {701u, 702u, 703u, 704u}) {
        Rng rng(seed);
        const std::size_t n = 3 + rng.below(2);
        const std::size_t channels = 3 + rng.below(3);
        const std::size_t firstKind = rng.below(4);
        Circuit c(n);
        for (std::size_t k = 0; k < channels; ++k) {
            c.extend(testing::randomCircuit(n, 3, rng, false));
            const std::size_t q = rng.below(n);
            const double p = ps[rng.below(ps.size())];
            switch ((firstKind + k) % 4) {
              case 0: c.append(NoiseChannel::depolarizing(q, p)); break;
              case 1: c.append(NoiseChannel::amplitudeDamping(q, p)); break;
              case 2: c.append(NoiseChannel::phaseDamping(q, p)); break;
              default: c.append(NoiseChannel::bitFlip(q, p)); break;
            }
        }
        c.extend(testing::randomCircuit(n, 3, rng, false));
        c.append(NoiseChannel::twoQubitDepolarizing(0, n - 1, 0.1));

        const auto exact =
            StateVectorSimulator().noisyDistributionExhaustive(c);
        for (const char* name : {"dm", "kc"}) {
            const auto dist = testing::probabilitiesOf(name, c);
            ASSERT_EQ(dist.size(), exact.size()) << name;
            for (std::uint64_t x = 0; x < exact.size(); ++x)
                EXPECT_NEAR(dist[x], exact[x], 1e-9)
                    << name << " seed=" << seed << " x=" << x;
        }
        // Distinct shot seeds: sv and dd draw trajectory seeds the same
        // way, so one shared seed would correlate their two tests.
        Rng shots(seed * 31);
        for (const char* name : {"sv", "dd"})
            testing::expectChiSquarePasses(testing::samplesOf(name, c, 20000, shots),
                                  exact, name);
    }
}

class GhzFamilyEquivalenceTest : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(GhzFamilyEquivalenceTest, AllBackendsAgreeOnGhz)
{
    const std::size_t n = GetParam();
    Circuit c = ghzCircuit(n);

    auto exact = testing::finalState(c).probabilities();

    EXPECT_LE(totalVariation(testing::probabilitiesOf("dd", c), exact), 1e-9);

    KcSimulator kc(c);
    auto kcDist = kc.outcomeDistribution();
    EXPECT_LE(totalVariation(kcDist, exact), 1e-9);

    EXPECT_LE(totalVariation(testing::probabilitiesOf("dm", c), exact), 1e-9);
}

TEST_P(GhzFamilyEquivalenceTest, RegistryBackendsSampleOnlyGhzOutcomes)
{
    const std::size_t n = GetParam();
    Circuit c = ghzCircuit(n);
    const std::uint64_t all = (std::uint64_t{1} << n) - 1;

    const char* const names[] = {"decisiondiagram", "statevector",
                                 "knowledgecompilation"};
    for (const char* name : names) {
        auto session = makeBackend(name)->open(c);
        Rng rng(29);
        const Result r = session->run(Sample{64}, rng);
        for (std::uint64_t s : r.samples) {
            EXPECT_TRUE(s == 0 || s == all)
                << name << " sampled non-GHZ outcome " << s;
        }
    }
}

TEST_P(GhzFamilyEquivalenceTest, SessionTasksAgreeOnGhz)
{
    // The task API's exact payloads on one session: probabilities and
    // amplitudes both match the closed-form GHZ state.
    const std::size_t n = GetParam();
    Circuit c = ghzCircuit(n);
    const std::uint64_t all = (std::uint64_t{1} << n) - 1;
    const double amp = 1.0 / std::sqrt(2.0);

    for (const char* name : {"statevector", "decisiondiagram",
                             "knowledgecompilation"}) {
        auto session = makeBackend(name)->open(c);
        Rng rng(31);

        auto probs = session->run(Probabilities{{}}, rng).probabilities;
        EXPECT_NEAR(probs[0], 0.5, 1e-9) << name;
        EXPECT_NEAR(probs[all], 0.5, 1e-9) << name;

        auto amps =
            session->run(Amplitudes{{0, all}}, rng).amplitudes;
        EXPECT_NEAR(amps[0].real(), amp, 1e-9) << name;
        EXPECT_NEAR(amps[1].real(), amp, 1e-9) << name;
        EXPECT_NEAR(amps[0].imag(), 0.0, 1e-9) << name;
        EXPECT_NEAR(amps[1].imag(), 0.0, 1e-9) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(GhzSizes, GhzFamilyEquivalenceTest,
                         ::testing::Values(2, 3, 4, 6, 8));

} // namespace
} // namespace qkc
