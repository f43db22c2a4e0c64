/**
 * Miscellaneous coverage: sampler options, evaluator evidence lifecycle,
 * and non-adjacent multi-qubit kernels.
 */
#include <gtest/gtest.h>

#include "ac/gibbs_sampler.h"
#include "ac/kc_simulator.h"
#include "algorithms/algorithms.h"
#include "testing/algorithm_circuits.h"
#include "testing/session_runs.h"
#include "testing/test_circuits.h"
#include "util/stats.h"

namespace qkc {
namespace {

TEST(MiscCoverageTest, GibbsThinningProducesRequestedCount)
{
    KcSimulator kc(testing::bellCircuit());
    Rng rng(1);
    GibbsOptions options;
    options.burnIn = 8;
    options.thin = 5;
    auto samples = kc.sample(37, rng, options);
    EXPECT_EQ(samples.size(), 37u);
}

TEST(MiscCoverageTest, IndependenceMovesCanBeDisabled)
{
    // With sweeps alone (no independence moves between them), Bell's
    // single-site chain cannot leave its initial support component —
    // documenting the reducibility the moves in run() fix.
    KcSimulator kc(testing::bellCircuit());
    GibbsSampler sampler(kc.bayesNet(), kc.evaluator());
    Rng rng(2);
    ASSERT_TRUE(sampler.init(rng));
    std::size_t zeros = 0, ones = 0;
    for (int i = 0; i < 500; ++i) {
        sampler.sweep(rng);
        zeros += sampler.outcome() == 0b00;
        ones += sampler.outcome() == 0b11;
    }
    EXPECT_EQ(zeros + ones, 500u);
    EXPECT_TRUE(zeros == 0 || ones == 0);  // stuck in one mode
}

TEST(MiscCoverageTest, IndependenceMoveReportsAcceptance)
{
    KcSimulator kc(testing::bellCircuit());
    GibbsSampler sampler(kc.bayesNet(), kc.evaluator());
    Rng rng(3);
    ASSERT_TRUE(sampler.init(rng));
    std::size_t accepted = 0;
    for (int i = 0; i < 50; ++i)
        accepted += sampler.independenceMove(rng);
    // Bell's two support states have equal mass: proposals always accept.
    EXPECT_EQ(accepted, 50u);
}

TEST(MiscCoverageTest, EvaluatorEvidenceLifecycle)
{
    KcSimulator kc(ghzCircuit(3));
    auto& eval = kc.evaluator();
    // Free everything: sum of amplitudes = sqrt(2) * 1/sqrt(2) * 2 halves...
    eval.clearEvidence();
    Complex total = eval.evaluate();
    // GHZ: A(000) + A(111) = 2/sqrt(2) = sqrt(2).
    EXPECT_TRUE(approxEqual(total, Complex{std::sqrt(2.0)}, 1e-9));

    // Pin, unpin, pin again: memoization must stay consistent.
    const auto& finals = kc.bayesNet().finalVars();
    eval.setEvidence(finals[0], 1);
    eval.setEvidence(finals[1], 1);
    eval.setEvidence(finals[2], 1);
    EXPECT_TRUE(approxEqual(eval.evaluate(),
                            Complex{1.0 / std::sqrt(2.0)}, 1e-9));
    eval.setEvidence(finals[1], AcEvaluator::kFree);
    eval.setEvidence(finals[1], 0);
    EXPECT_TRUE(approxEqual(eval.evaluate(), Complex{}, 1e-12));
    eval.clearEvidence();
    EXPECT_TRUE(approxEqual(eval.evaluate(), Complex{std::sqrt(2.0)}, 1e-9));
}

TEST(MiscCoverageTest, ThreeQubitKernelNonAdjacent)
{
    // CCX on qubits (4, 1, 3) of a 5-qubit register.
    Circuit c(5);
    c.x(4).x(1).ccx(4, 1, 3);
    auto probs = testing::probabilitiesOf("sv", c);
    // Expect |01011>: qubits 1, 3, 4 set.
    EXPECT_NEAR(probs[basisIndex({0, 1, 0, 1, 1})], 1.0, 1e-12);

    KcSimulator kc(c);
    EXPECT_NEAR(kc.probability(basisIndex({0, 1, 0, 1, 1})), 1.0, 1e-12);
}

TEST(MiscCoverageTest, SampleCountsAreExact)
{
    Rng rng(7);
    Circuit c = testing::ringQaoaCircuit(4, 0.5, 0.3);
    KcSimulator kc(c);
    for (std::size_t n : {1u, 17u, 100u}) {
        auto samples = kc.sample(n, rng);
        EXPECT_EQ(samples.size(), n);
    }
}

} // namespace
} // namespace qkc
