#include "ac/gibbs_sampler.h"

#include <gtest/gtest.h>

#include "ac/kc_simulator.h"
#include "algorithms/algorithms.h"
#include "testing/algorithm_circuits.h"
#include "testing/session_runs.h"
#include "testing/test_circuits.h"
#include "util/stats.h"

namespace qkc {
namespace {

TEST(GibbsSamplerTest, BellConvergesToHalfHalf)
{
    KcSimulator kc(testing::bellCircuit());
    Rng rng(11);
    auto samples = kc.sample(4000, rng);
    auto emp = empiricalDistribution(samples, 4);
    EXPECT_NEAR(emp[0], 0.5, 0.05);
    EXPECT_NEAR(emp[3], 0.5, 0.05);
    EXPECT_NEAR(emp[1] + emp[2], 0.0, 1e-12);
}

TEST(GibbsSamplerTest, NoisyBellMarginalizesNoise)
{
    KcSimulator kc(noisyBellCircuit(0.36));
    Rng rng(13);
    auto samples = kc.sample(4000, rng);
    auto emp = empiricalDistribution(samples, 4);
    EXPECT_NEAR(emp[0], 0.5, 0.05);
    EXPECT_NEAR(emp[3], 0.5, 0.05);
}

TEST(GibbsSamplerTest, QaoaDistributionKlShrinks)
{
    // Figure 7's qualitative claim: Gibbs KL divergence falls with samples.
    Circuit c = testing::ringQaoaCircuit(6, 0.6, 0.4);
    KcSimulator kc(c);
    auto exact = kc.outcomeDistribution();

    Rng rng(17);
    GibbsOptions options;
    options.burnIn = 128;
    auto samples = kc.sample(8000, rng, options);

    auto few = std::vector<std::uint64_t>(samples.begin(),
                                          samples.begin() + 100);
    double klFew = klDivergence(exact, empiricalDistribution(few, 64));
    double klMany = klDivergence(exact, empiricalDistribution(samples, 64));
    EXPECT_LT(klMany, klFew);
    EXPECT_LT(klMany, 0.1);
}

TEST(GibbsSamplerTest, DeterministicOutcomeFoundBySequentialInit)
{
    // Hidden shift's output is a single basis state: random restarts almost
    // surely miss it, so initialization must construct it sequentially.
    const std::uint64_t shift = 0b1011;
    KcSimulator kc(testing::hiddenShiftCircuit(4, shift));
    Rng rng(19);
    auto samples = kc.sample(32, rng);
    for (auto s : samples)
        EXPECT_EQ(s, shift);
}

TEST(GibbsSamplerTest, NoisyDistributionMatchesDensityDiagonal)
{
    Circuit c = testing::bellCircuit().withNoiseAfterEachGate(
        NoiseKind::Depolarizing, 0.1);
    KcSimulator kc(c);
    auto exact = kc.outcomeDistribution();
    Rng rng(23);
    GibbsOptions options;
    options.burnIn = 256;
    auto samples = kc.sample(6000, rng, options);
    auto emp = empiricalDistribution(samples, 4);
    for (std::size_t x = 0; x < 4; ++x)
        EXPECT_NEAR(emp[x], exact[x], 0.05) << "x=" << x;
}

TEST(GibbsSamplerTest, SweepKeepsSupport)
{
    KcSimulator kc(testing::bellCircuit());
    GibbsSampler sampler(kc.bayesNet(), kc.evaluator());
    Rng rng(29);
    ASSERT_TRUE(sampler.init(rng));
    for (int i = 0; i < 50; ++i) {
        sampler.sweep(rng);
        auto outcome = sampler.outcome();
        EXPECT_TRUE(outcome == 0 || outcome == 3) << outcome;
    }
}

TEST(GibbsSamplerTest, StateVectorAndGibbsAgreeOnRandomCircuit)
{
    Rng circuitRng(31);
    Circuit c = testing::randomCircuit(4, 10, circuitRng);
    KcSimulator kc(c);
    auto exact = testing::probabilitiesOf("sv", c);

    Rng rng(37);
    GibbsOptions options;
    options.burnIn = 256;
    auto samples = kc.sample(8000, rng, options);
    auto emp = empiricalDistribution(samples, exact.size());
    EXPECT_LT(totalVariation(exact, emp), 0.08);
}

} // namespace
} // namespace qkc
