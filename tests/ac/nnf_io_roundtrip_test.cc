/**
 * NNF round trip: a compiled arithmetic circuit written with writeNnf and
 * re-read with readNnf must describe the same function — identical live
 * node/edge counts (the reader rebuilds through the same hash-consing
 * constructor) and identical evaluations under every evidence setting.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "ac/kc_simulator.h"
#include "testing/readers.h"
#include "testing/test_circuits.h"

namespace qkc {
namespace {

std::vector<std::size_t> cardinalities(const QuantumBayesNet& bn)
{
    std::vector<std::size_t> cards(bn.variables().size());
    for (BnVarId v = 0; v < cards.size(); ++v)
        cards[v] = bn.variable(v).cardinality;
    return cards;
}

TEST(NnfRoundTripTest, CountsSurviveRoundTrip)
{
    Rng rng(210);
    KcSimulator kc(testing::randomCircuit(3, 10, rng));

    std::stringstream first;
    std::size_t bytes = kc.ac().writeNnf(first);
    EXPECT_GT(bytes, 0u);

    ArithmeticCircuit back = testing::readNnf(first);
    EXPECT_EQ(back.liveNodeCount(), kc.ac().liveNodeCount());
    EXPECT_EQ(back.liveEdgeCount(), kc.ac().liveEdgeCount());

    // Writing the reloaded circuit reproduces the serialized form exactly:
    // the format is canonical for a given live structure.
    std::stringstream second;
    back.writeNnf(second);
    EXPECT_EQ(second.str(), first.str());
}

TEST(NnfRoundTripTest, EvaluationsSurviveRoundTrip)
{
    Rng rng(211);
    Circuit c = testing::randomCircuit(3, 12, rng);
    KcSimulator kc(c);

    std::stringstream nnf;
    kc.ac().writeNnf(nnf);
    ArithmeticCircuit back = testing::readNnf(nnf);

    const QuantumBayesNet& bn = kc.bayesNet();
    AcEvaluator eval(back, cardinalities(bn), bn.paramValues());

    // Outcome bits map to final vars big-endian (finals[q] <- bit n-1-q),
    // matching KcSimulator::amplitude.
    const auto& finals = bn.finalVars();
    const std::size_t n = finals.size();
    for (std::uint64_t outcome = 0; outcome < (1u << n); ++outcome) {
        for (std::size_t q = 0; q < n; ++q)
            eval.setEvidence(finals[q],
                             (outcome >> (n - 1 - q)) & 1u ? 1 : 0);
        EXPECT_TRUE(approxEqual(eval.evaluate(), kc.amplitude(outcome), 1e-10))
            << "outcome=" << outcome;
    }
}

TEST(NnfRoundTripTest, NoisyCircuitRoundTripPreservesEvaluation)
{
    Circuit c(2);
    c.h(0).cnot(0, 1);
    c.append(NoiseChannel::bitFlip(1, 0.2));

    KcSimulator kc(c);
    std::stringstream nnf;
    kc.ac().writeNnf(nnf);
    ArithmeticCircuit back = testing::readNnf(nnf);
    EXPECT_EQ(back.liveNodeCount(), kc.ac().liveNodeCount());
    EXPECT_EQ(back.liveEdgeCount(), kc.ac().liveEdgeCount());

    const QuantumBayesNet& bn = kc.bayesNet();
    AcEvaluator eval(back, cardinalities(bn), bn.paramValues());
    const auto& finals = bn.finalVars();
    const std::size_t n = finals.size();
    for (std::size_t noise = 0; noise < 2; ++noise) {
        for (std::uint64_t outcome = 0; outcome < 4; ++outcome) {
            for (std::size_t q = 0; q < n; ++q)
                eval.setEvidence(finals[q],
                                 (outcome >> (n - 1 - q)) & 1u ? 1 : 0);
            eval.setEvidence(bn.noiseVars()[0], static_cast<int>(noise));
            EXPECT_TRUE(approxEqual(eval.evaluate(),
                                    kc.amplitude(outcome, {noise}), 1e-10))
                << "outcome=" << outcome << " noise=" << noise;
        }
    }
}

} // namespace
} // namespace qkc
