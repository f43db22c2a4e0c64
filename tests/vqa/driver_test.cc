#include "vqa/driver.h"

#include <gtest/gtest.h>

#include "util/graph.h"

namespace qkc {
namespace {

VqaOptions
smallRun(std::uint64_t seed)
{
    VqaOptions options;
    options.samplesPerEvaluation = 128;
    options.optimizer.maxIterations = 15;
    options.seed = seed;
    return options;
}

TEST(VqaDriverTest, QaoaImprovesOverUniformWithKc)
{
    Rng rng(3);
    auto problem = QaoaMaxCut::randomRegular(6, 3, 1, rng);
    auto backend = makeBackend("kc");
    auto result = runQaoaMaxCut(problem, *backend, smallRun(5));
    // Uniform superposition cuts half the edges on average.
    double uniform = problem.graph().numEdges() / 2.0;
    EXPECT_LT(result.bestObjective, -(uniform + 0.1));
    EXPECT_GT(result.circuitEvaluations, 10u);
}

TEST(VqaDriverTest, KcSessionCompilesOnce)
{
    // Every Nelder-Mead evaluation uses the same circuit structure, so the
    // KC session must compile exactly once and only refresh weights — the
    // paper's central reuse claim, reported by the driver's metadata.
    Rng rng(7);
    auto problem = QaoaMaxCut::randomRegular(6, 3, 1, rng);
    auto backend = makeBackend("kc");
    auto result = runQaoaMaxCut(problem, *backend, smallRun(9));
    EXPECT_EQ(result.planBuilds, 1u);
    EXPECT_EQ(result.planReuses, result.circuitEvaluations - 1);
    EXPECT_GT(result.circuitEvaluations, 10u);
}

TEST(VqaDriverTest, StateVectorSessionPlansOncePerEvaluation)
{
    // The run keeps one sv session, which plans every evaluation afresh;
    // runQaoaMaxCut's metadata counts each plan.
    Rng rng(7);
    auto problem = QaoaMaxCut::randomRegular(6, 3, 1, rng);
    StateVectorBackend backend;
    auto result = runQaoaMaxCut(problem, backend, smallRun(9));
    EXPECT_EQ(result.planBuilds, result.circuitEvaluations);
    EXPECT_EQ(result.planReuses, 0u);
}

TEST(VqaDriverTest, StateVectorAndKcFindSimilarOptima)
{
    Rng rng(11);
    auto problem = QaoaMaxCut::randomRegular(6, 3, 1, rng);
    auto kc = makeBackend("kc");
    StateVectorBackend sv;
    auto rKc = runQaoaMaxCut(problem, *kc, smallRun(13));
    auto rSv = runQaoaMaxCut(problem, sv, smallRun(13));
    EXPECT_NEAR(rKc.bestObjective, rSv.bestObjective, 0.8);
}

TEST(VqaDriverTest, VqeLowersEnergy)
{
    Rng rng(17);
    VqeIsing problem(2, 2, 1, rng);
    auto backend = makeBackend("kc");
    auto result = runVqeIsing(problem, *backend, smallRun(19));
    // The uniform superposition has expected energy ~0 (random signs);
    // the optimizer should find something decidedly below it and above the
    // ground state.
    EXPECT_LT(result.bestObjective, -0.2);
    EXPECT_GE(result.bestObjective, problem.groundStateEnergy() - 1e-9);
}

TEST(VqaDriverTest, ExactExpectationObjectiveMatchesWorkload)
{
    // With exactExpectation the sv session scores the Expectation task:
    // the objective at the optimum must equal the exact expected energy of
    // the optimal circuit (no shot noise), and stay above the ground state.
    Rng rng(17);
    VqeIsing problem(2, 2, 1, rng);
    StateVectorBackend backend;
    VqaOptions options = smallRun(19);
    options.exactExpectation = true;
    auto result = runVqeIsing(problem, backend, options);
    EXPECT_GE(result.bestObjective, problem.groundStateEnergy() - 1e-9);

    // Re-evaluate the reported optimum exactly via the distribution.
    Circuit best = problem.circuit(result.bestParams);
    auto session = backend.open(best);
    Rng queryRng(1);
    auto dist = session->run(Probabilities{{}}, queryRng).probabilities;
    EXPECT_NEAR(result.bestObjective, problem.expectedEnergyExact(dist),
                1e-9);
}

TEST(VqaDriverTest, NoisyRunUsesChannels)
{
    Rng rng(23);
    auto problem = QaoaMaxCut::randomRegular(4, 3, 1, rng);
    VqaOptions options = smallRun(29);
    options.noisy = true;
    options.noiseStrength = 0.01;
    options.optimizer.maxIterations = 6;
    options.samplesPerEvaluation = 64;

    DensityMatrixBackend backend;
    auto result = runQaoaMaxCut(problem, backend, options);
    EXPECT_GT(result.circuitEvaluations, 4u);
    EXPECT_GT(result.sampleSeconds, 0.0);
}

TEST(VqaDriverTest, BackendNames)
{
    EXPECT_EQ(StateVectorBackend().name(), "statevector");
    EXPECT_EQ(DensityMatrixBackend().name(), "densitymatrix");
}

TEST(VqaDriverTest, MakeBackendResolvesEveryRegistryName)
{
    // Every canonical name resolves to a backend that reports that name —
    // the registry and the classes can't drift apart.
    for (const std::string& name : backendNames()) {
        auto backend = makeBackend(name);
        ASSERT_NE(backend, nullptr) << name;
        EXPECT_EQ(backend->name(), name);
    }
}

TEST(VqaDriverTest, MakeBackendAcceptsShortAliases)
{
    EXPECT_EQ(makeBackend("sv")->name(), "statevector");
    EXPECT_EQ(makeBackend("dm")->name(), "densitymatrix");
    EXPECT_EQ(makeBackend("tn")->name(), "tensornetwork");
    EXPECT_EQ(makeBackend("dd")->name(), "decisiondiagram");
    EXPECT_EQ(makeBackend("kc")->name(), "knowledgecompilation");
}

TEST(VqaDriverTest, MakeBackendRejectsUnknownNames)
{
    EXPECT_THROW(makeBackend("qsim"), std::invalid_argument);
    EXPECT_THROW(makeBackend(""), std::invalid_argument);
    EXPECT_THROW(makeBackend("Statevector"), std::invalid_argument);
}

TEST(VqaDriverTest, DecisionDiagramBackendDrivesQaoa)
{
    Rng rng(31);
    auto problem = QaoaMaxCut::randomRegular(6, 3, 1, rng);
    auto kc = makeBackend("kc");
    auto dd = makeBackend("dd");
    auto rKc = runQaoaMaxCut(problem, *kc, smallRun(13));
    auto rDd = runQaoaMaxCut(problem, *dd, smallRun(13));
    EXPECT_NEAR(rKc.bestObjective, rDd.bestObjective, 0.8);
}

TEST(VqaDriverTest, DecisionDiagramBackendHandlesNoisyRun)
{
    Rng rng(37);
    auto problem = QaoaMaxCut::randomRegular(4, 3, 1, rng);
    VqaOptions options = smallRun(41);
    options.noisy = true;
    options.noiseStrength = 0.01;
    options.optimizer.maxIterations = 4;
    options.samplesPerEvaluation = 32;

    auto backend = makeBackend("decisiondiagram");
    auto result = runQaoaMaxCut(problem, *backend, options);
    EXPECT_GT(result.circuitEvaluations, 3u);
}

} // namespace
} // namespace qkc
