/**
 * Cross-module integration tests: the four simulator families must agree on
 * every workload they can all express, and the compiled artifacts must
 * round-trip through their file formats.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <sstream>

#include "ac/kc_simulator.h"
#include "algorithms/algorithms.h"
#include "tensornet/tensornet_simulator.h"
#include "testing/param_printers.h"
#include "testing/readers.h"
#include "testing/session_runs.h"
#include "testing/test_circuits.h"
#include "testing/variable_elimination.h"
#include "util/stats.h"
#include "vqa/workloads.h"

namespace qkc {
namespace {

class FourWayAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(FourWayAgreementTest, AllSimulatorsAgreeOnIdealCircuits)
{
    Rng rng(4000 + GetParam());
    Circuit c = testing::randomCircuit(4, 12, rng);

    auto exact = testing::probabilitiesOf("sv", c);

    KcSimulator kc(c);
    auto kcDist = kc.outcomeDistribution();

    TensorNetworkSimulator tn;
    auto dmDist = testing::probabilitiesOf("dm", c);

    for (std::uint64_t x = 0; x < exact.size(); ++x) {
        EXPECT_NEAR(kcDist[x], exact[x], 1e-9) << "kc x=" << x;
        EXPECT_NEAR(dmDist[x], exact[x], 1e-9) << "dm x=" << x;
        EXPECT_NEAR(norm2(tn.amplitude(c, x)), exact[x], 1e-9) << "tn x=" << x;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FourWayAgreementTest, ::testing::Range(0, 6));

class NoisyChannelAgreementTest
    : public ::testing::TestWithParam<NoiseKind> {};

TEST_P(NoisyChannelAgreementTest, KcVeDmAgree)
{
    NoiseKind kind = GetParam();
    auto makeChannel = [&](std::size_t q) -> NoiseChannel {
        switch (kind) {
          case NoiseKind::BitFlip: return NoiseChannel::bitFlip(q, 0.1);
          case NoiseKind::PhaseFlip: return NoiseChannel::phaseFlip(q, 0.15);
          case NoiseKind::Depolarizing:
            return NoiseChannel::depolarizing(q, 0.08);
          case NoiseKind::AsymmetricDepolarizing:
            return NoiseChannel::asymmetricDepolarizing(q, 0.05, 0.03, 0.02);
          case NoiseKind::AmplitudeDamping:
            return NoiseChannel::amplitudeDamping(q, 0.2);
          case NoiseKind::PhaseDamping:
            return NoiseChannel::phaseDamping(q, 0.25);
          default:
            return NoiseChannel::generalizedAmplitudeDamping(q, 0.2, 0.6);
        }
    };

    Circuit c(3);
    c.h(0).cnot(0, 1);
    c.append(makeChannel(1));
    c.ry(2, 0.9).cnot(1, 2);
    c.append(makeChannel(2));
    c.rx(0, 0.4);

    auto exact = testing::probabilitiesOf("dm", c);

    KcSimulator kc(c);
    auto kcDist = kc.outcomeDistribution();

    testing::VariableElimination ve(kc.bayesNet());
    auto veDist = ve.outcomeDistribution();

    for (std::uint64_t x = 0; x < exact.size(); ++x) {
        EXPECT_NEAR(kcDist[x], exact[x], 1e-9) << "x=" << x;
        EXPECT_NEAR(veDist[x], exact[x], 1e-9) << "x=" << x;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Channels, NoisyChannelAgreementTest,
    ::testing::Values(NoiseKind::BitFlip, NoiseKind::PhaseFlip,
                      NoiseKind::Depolarizing,
                      NoiseKind::AsymmetricDepolarizing,
                      NoiseKind::AmplitudeDamping, NoiseKind::PhaseDamping,
                      NoiseKind::GeneralizedAmplitudeDamping));

TEST(EndToEndTest, VariationalSweepReusesCompilation)
{
    // Simulate several optimizer iterations and verify each refreshed
    // evaluation equals a from-scratch compile at those angles.
    Circuit base = testing::ringQaoaCircuit(5, 0.1, 0.1);
    KcSimulator reused(base);

    for (int iter = 1; iter <= 5; ++iter) {
        double gamma = 0.15 * iter;
        double beta = 0.1 + 0.08 * iter;
        Circuit c = testing::ringQaoaCircuit(5, gamma, beta);
        reused.refreshParams(c);
        auto exact = testing::probabilitiesOf("sv", c);
        for (std::uint64_t x = 0; x < exact.size(); x += 3)
            EXPECT_NEAR(reused.probability(x), exact[x], 1e-9)
                << "iter=" << iter << " x=" << x;
    }
}

TEST(EndToEndTest, DimacsAndNnfArtifactsRoundTrip)
{
    Circuit c = noisyBellCircuit(0.36);
    KcSimulator kc(c);

    // CNF round trip.
    std::stringstream dimacs;
    kc.cnf().writeDimacs(dimacs);
    Cnf cnfBack = testing::readDimacs(dimacs);
    EXPECT_EQ(cnfBack.numClauses(), kc.cnf().numClauses());

    // AC round trip: the reloaded circuit evaluates identically.
    std::stringstream nnf;
    kc.ac().writeNnf(nnf);
    ArithmeticCircuit acBack = testing::readNnf(nnf);

    std::vector<std::size_t> cards(kc.bayesNet().variables().size());
    for (BnVarId v = 0; v < cards.size(); ++v)
        cards[v] = kc.bayesNet().variable(v).cardinality;
    AcEvaluator eval(acBack, cards, kc.bayesNet().paramValues());

    const auto& finals = kc.bayesNet().finalVars();
    eval.setEvidence(finals[0], 1);
    eval.setEvidence(finals[1], 1);
    eval.setEvidence(kc.bayesNet().noiseVars()[0], 0);
    EXPECT_TRUE(approxEqual(eval.evaluate(),
                            kc.amplitude(0b11, {0}), 1e-12));
}

TEST(EndToEndTest, GibbsMatchesDensityMatrixOnNoisyQaoa)
{
    Rng graphRng(5);
    auto problem = QaoaMaxCut::randomRegular(4, 3, 1, graphRng);
    Circuit c = problem.circuit({-0.5, 0.35})
                    .withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.01);

    auto exact = testing::probabilitiesOf("dm", c);

    KcSimulator kc(c);
    Rng rng(77);
    GibbsOptions options;
    options.burnIn = 200;
    auto samples = kc.sample(6000, rng, options);
    auto emp = empiricalDistribution(samples, exact.size());
    EXPECT_LT(totalVariation(exact, emp), 0.08);
}

TEST(EndToEndTest, ShorEndToEndFactorsFifteen)
{
    // Order finding for a=7 gives r=4; gcd(7^2 +- 1, 15) = {3, 5}.
    Circuit c = shorOrderFindingCircuit(4, 7);
    KcSimulator kc(c);
    Rng rng(99);
    GibbsOptions options;
    options.burnIn = 64;
    auto samples = kc.sample(64, rng, options);

    // Estimate the order from the sampled phases m / 2^4 ~ k / r.
    bool sawQuarter = false;
    for (std::uint64_t s : samples) {
        std::uint64_t m = s >> 4;  // counting register (leading 4 qubits)
        EXPECT_EQ(m % 4, 0u) << "phase must be a multiple of 2^t / r";
        sawQuarter = sawQuarter || m == 4 || m == 12;
    }
    EXPECT_TRUE(sawQuarter);  // odd multiples reveal the full order r = 4
    unsigned r = 4;
    unsigned factor1 = std::gcd(49u - 1u, 15u);  // 7^(r/2) - 1 = 48 -> gcd 3
    unsigned factor2 = std::gcd(49u + 1u, 15u);  // 7^(r/2) + 1 = 50 -> gcd 5
    EXPECT_EQ(factor1 * factor2, 15u);
    (void)r;
}

TEST(EndToEndTest, MetricsMatchPaperBallparkFor16QubitQaoa)
{
    // Paper Table 6: 32-qubit QAOA p=1 compiles to ~3.1k AC nodes; at half
    // the size the AC should be well under that.
    Rng rng(19);
    auto problem = QaoaMaxCut::randomRegular(16, 3, 1, rng);
    KcSimulator kc(problem.circuit({-0.55, 0.35}));
    auto m = kc.metrics();
    EXPECT_LT(m.acNodes, 3000u);
    EXPECT_GT(m.acNodes, 100u);
    EXPECT_LT(m.compileSeconds, 10.0);
}

} // namespace
} // namespace qkc
