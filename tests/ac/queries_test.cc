#include "ac/queries.h"

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/algorithms.h"
#include "testing/algorithm_circuits.h"
#include "testing/test_circuits.h"

namespace qkc {
namespace {

TEST(SensitivityTest, MatchesFiniteDifferences)
{
    Circuit c = testing::ringQaoaCircuit(4, 0.5, 0.3);
    KcSimulator kc(c);
    kc.amplitude(0b0110);  // fixes evidence
    auto sens = parameterSensitivities(kc);
    ASSERT_FALSE(sens.empty());

    // Check the top three parameters against a central finite difference.
    auto& eval = kc.evaluator();
    auto params = kc.bayesNet().paramValues();
    const double h = 1e-6;
    for (std::size_t i = 0; i < std::min<std::size_t>(3, sens.size()); ++i) {
        const auto& s = sens[i];
        auto plus = params, minus = params;
        plus[s.paramId] += h;
        minus[s.paramId] -= h;
        eval.setParams(plus);
        Complex fPlus = eval.evaluate();
        eval.setParams(minus);
        Complex fMinus = eval.evaluate();
        eval.setParams(params);
        eval.evaluate();
        Complex fd = (fPlus - fMinus) / (2.0 * h);
        EXPECT_TRUE(approxEqual(fd, s.derivative, 1e-5))
            << "param " << s.paramId << " fd=" << fd
            << " analytic=" << s.derivative;
    }
}

TEST(SensitivityTest, SortedByInfluence)
{
    Circuit c = testing::ringQaoaCircuit(4, 0.5, 0.3);
    KcSimulator kc(c);
    kc.amplitude(3);
    auto sens = parameterSensitivities(kc);
    for (std::size_t i = 1; i < sens.size(); ++i)
        EXPECT_GE(sens[i - 1].influence, sens[i].influence);
}

TEST(SensitivityTest, UnusedParamHasZeroDerivative)
{
    // Evidence |00>: the noisy Bell's sqrt(gamma) entry (only reachable via
    // |11> with rv=1) cannot influence the amplitude.
    KcSimulator kc(noisyBellCircuit(0.36));
    kc.amplitude(0b00, {0});
    auto sens = parameterSensitivities(kc);
    // Find the parameter whose value is 0.6 (= sqrt(0.36)).
    bool found = false;
    for (const auto& s : sens) {
        if (std::abs(s.value.real() - 0.6) < 1e-12) {
            EXPECT_NEAR(std::abs(s.derivative), 0.0, 1e-12);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(MpeTest, NoisyBellExplanations)
{
    KcSimulator kc(noisyBellCircuit(0.36));
    Rng rng(3);
    // Outcome |11>: both rv=0 (amp 0.8/sqrt2) and rv=1 (amp 0.6/sqrt2) are
    // possible; the MPE is rv=0.
    auto r = mostProbableExplanation(kc, 0b11, rng);
    EXPECT_TRUE(r.exact);
    ASSERT_EQ(r.noiseAssignment.size(), 1u);
    EXPECT_EQ(r.noiseAssignment[0], 0u);
    EXPECT_NEAR(r.mass, 0.64 / 2.0, 1e-12);

    // Outcome |00>: only rv=0 has support.
    auto r0 = mostProbableExplanation(kc, 0b00, rng);
    EXPECT_EQ(r0.noiseAssignment[0], 0u);
    EXPECT_NEAR(r0.mass, 0.5, 1e-12);
}

TEST(MpeTest, BitFlipDiagnosis)
{
    // GHZ with a strong bit flip channel: observing |0111> is best explained
    // by the flip having fired on qubit 1 after entanglement.
    Circuit c(4);
    c.h(0).cnot(0, 1);
    c.append(NoiseChannel::bitFlip(0, 0.2));
    c.cnot(1, 2).cnot(2, 3);

    KcSimulator kc(c);
    Rng rng(5);
    auto r = mostProbableExplanation(kc, 0b0111, rng);
    EXPECT_TRUE(r.exact);
    EXPECT_EQ(r.noiseAssignment[0], 1u);  // the flip fired
    EXPECT_GT(r.mass, 0.0);

    // Clean outcome |1111>: no flip.
    auto rClean = mostProbableExplanation(kc, 0b1111, rng);
    EXPECT_EQ(rClean.noiseAssignment[0], 0u);
}

TEST(MpeTest, AnnealedMatchesExactOnMediumInstance)
{
    // Enough channels that annealing is exercised when exactLimit is tiny.
    Circuit c = ghzCircuit(3).withNoiseAfterEachGate(NoiseKind::BitFlip, 0.1);
    KcSimulator kc(c);
    Rng rngA(7), rngB(7);
    auto exact = mostProbableExplanation(kc, 0b011, rngA, /*exactLimit=*/4096);
    ASSERT_TRUE(exact.exact);
    auto annealed = mostProbableExplanation(kc, 0b011, rngB, /*exactLimit=*/1,
                                            /*annealSweeps=*/96);
    EXPECT_FALSE(annealed.exact);
    EXPECT_NEAR(annealed.mass, exact.mass, 1e-9);
}

TEST(MpeTest, MassMatchesAmplitude)
{
    Circuit c = testing::bellCircuit().withNoiseAfterEachGate(
        NoiseKind::PhaseFlip, 0.15);
    KcSimulator kc(c);
    Rng rng(11);
    auto r = mostProbableExplanation(kc, 0b00, rng);
    double direct = norm2(kc.amplitude(0b00, r.noiseAssignment));
    EXPECT_NEAR(r.mass, direct, 1e-12);
}

} // namespace
} // namespace qkc
