#include "knowledge/compiler.h"

#include <gtest/gtest.h>

#include "ac/kc_simulator.h"
#include "algorithms/algorithms.h"
#include "cnf/bn_to_cnf.h"
#include "testing/algorithm_circuits.h"
#include "testing/param_printers.h"
#include "testing/session_runs.h"
#include "testing/test_circuits.h"

namespace qkc {
namespace {

/** Compiles `circuit` with `options` and checks every amplitude vs qsim. */
void
expectMatchesStateVector(const Circuit& circuit, CompileOptions options,
                         double eps = 1e-9)
{
    KcSimulator kc(circuit, options);
    auto amps = testing::finalState(circuit).amplitudes();
    for (std::uint64_t x = 0; x < amps.size(); ++x) {
        EXPECT_TRUE(approxEqual(kc.amplitude(x), amps[x], eps))
            << "x=" << x << " kc=" << kc.amplitude(x) << " sv=" << amps[x];
    }
}

class HeuristicTest : public ::testing::TestWithParam<DecisionHeuristic> {};

TEST_P(HeuristicTest, BellAndGhzExact)
{
    CompileOptions options;
    options.heuristic = GetParam();
    expectMatchesStateVector(testing::bellCircuit(), options);
    expectMatchesStateVector(ghzCircuit(4), options);
}

TEST_P(HeuristicTest, RandomCircuitsExact)
{
    CompileOptions options;
    options.heuristic = GetParam();
    for (int seed = 0; seed < 5; ++seed) {
        Rng rng(500 + seed);
        Circuit c = testing::randomCircuit(3, 10, rng);
        expectMatchesStateVector(c, options);
    }
}

INSTANTIATE_TEST_SUITE_P(AllHeuristics, HeuristicTest,
                         ::testing::Values(DecisionHeuristic::Lexicographic,
                                           DecisionHeuristic::MinFill,
                                           DecisionHeuristic::Dynamic));

TEST(CompilerTest, CachingAndDecompositionTogglesPreserveSemantics)
{
    Rng rng(88);
    Circuit c = testing::randomCircuit(3, 8, rng);
    for (bool cache : {true, false}) {
        for (bool decomp : {true, false}) {
            CompileOptions options;
            options.componentCaching = cache;
            options.componentDecomposition = decomp;
            expectMatchesStateVector(c, options);
        }
    }
}

TEST(CompilerTest, ElisionTogglePreservesSemantics)
{
    Rng rng(99);
    Circuit c = testing::randomCircuit(3, 8, rng);
    CompileOptions options;
    options.elideInternalStates = false;
    expectMatchesStateVector(c, options);
}

TEST(CompilerTest, ElisionShrinksCircuit)
{
    Circuit c = testing::ringQaoaCircuit(6, 0.4, 0.3);
    CompileOptions elided;
    CompileOptions full;
    full.elideInternalStates = false;
    KcSimulator a(c, elided), b(c, full);
    EXPECT_LT(a.metrics().acNodes, b.metrics().acNodes);
}

TEST(CompilerTest, CacheHitsHappenOnStructuredCircuits)
{
    Circuit c = testing::ringQaoaCircuit(8, 0.4, 0.3);
    KcSimulator kc(c);
    EXPECT_GT(kc.compileStats().cacheHits, 0u);
    EXPECT_GT(kc.compileStats().decisions, 0u);
}

TEST(CompilerTest, DecompositionReducesDecisions)
{
    // Two disconnected GHZ halves: decomposition should split them.
    Circuit c(6);
    c.h(0).cnot(0, 1).cnot(1, 2);
    c.h(3).cnot(3, 4).cnot(4, 5);

    CompileOptions with;
    CompileOptions without;
    without.componentDecomposition = false;
    without.componentCaching = false;
    with.componentCaching = false;

    KnowledgeCompiler cWith(with), cWithout(without);
    auto bn = circuitToBayesNet(c);
    Cnf cnf = bayesNetToCnf(bn);
    cWith.compile(cnf);
    cWithout.compile(cnf);
    EXPECT_LT(cWith.stats().decisions, cWithout.stats().decisions);
}

TEST(CompilerTest, DenseGatesAndSwapsExact)
{
    for (int seed = 0; seed < 4; ++seed) {
        Rng rng(700 + seed);
        Circuit c = testing::randomDenseCircuit(3, 8, rng);
        expectMatchesStateVector(c, {});
    }
}

TEST(CompilerTest, DeterministicCircuitCompilesToTinyAc)
{
    // X + CNOT chain: pure logic, no parameters; the AC collapses to
    // (nearly) just the indicator product.
    Circuit c(3);
    c.x(0).cnot(0, 1).cnot(1, 2);
    KcSimulator kc(c);
    EXPECT_LE(kc.metrics().acNodes, 8u);
    EXPECT_NEAR(kc.probability(7), 1.0, 1e-12);  // |111>
}

TEST(CompilerTest, StatsReportCacheEntries)
{
    Circuit c = testing::ringQaoaCircuit(6, 0.4, 0.3);
    KcSimulator kc(c);
    EXPECT_GT(kc.compileStats().cacheEntries, 0u);
}

} // namespace
} // namespace qkc
