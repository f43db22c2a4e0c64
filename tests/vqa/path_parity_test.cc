/**
 * Cross-path parity on dd: pairwise/bracket planners must agree with the
 * gate-by-gate build to 1e-9 total variation while measurably reducing
 * apply-table lookups. The path option flows through the registry (dd
 * only; every other backend rejects it), the sessions' meta.path stamps
 * and the batched rebind cache.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"
#include "vqa/backends.h"

namespace qkc {
namespace {

/** H layer, ZZ ring, RX layer — a one-iteration QAOA shape. */
Circuit
qaoaLike(std::size_t n, double gamma, double beta)
{
    Circuit c(n);
    for (std::size_t q = 0; q < n; ++q)
        c.h(q);
    for (std::size_t q = 0; q < n; ++q)
        c.zz(q, (q + 1) % n, gamma);
    for (std::size_t q = 0; q < n; ++q)
        c.rx(q, beta);
    return c;
}

/** 64 alternating Rz / CNOT-ladder layers — deep but DD-structured. */
Circuit
depth64Circuit(std::size_t n)
{
    Circuit c(n);
    for (std::size_t q = 0; q < n; ++q)
        c.h(q);
    for (std::size_t layer = 0; layer < 64; ++layer) {
        if (layer % 2 == 0) {
            for (std::size_t q = 0; q < n; ++q)
                c.rz(q, 0.1 + 0.01 * static_cast<double>(layer));
        } else {
            for (std::size_t q = 0; q + 1 < n; ++q)
                c.cnot(q, q + 1);
        }
    }
    return c;
}

Result
runTask(const std::string& spec, const Circuit& c, const Task& task,
        std::uint64_t seed)
{
    auto backend = makeBackend(spec);
    auto session = backend->open(c);
    Rng rng(seed);
    return session->run(task, rng);
}

double
totalVariation(const std::vector<double>& p, const std::vector<double>& q)
{
    EXPECT_EQ(p.size(), q.size());
    double tv = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i)
        tv += std::abs(p[i] - q[i]);
    return tv / 2.0;
}

TEST(PathParityTest, DdPairwiseMatchesLinearDistribution)
{
    const Circuit c = qaoaLike(5, 0.7, 0.4);
    const Result linear =
        runTask("decisiondiagram:path=linear", c, Probabilities{}, 41);
    const Result pairwise =
        runTask("decisiondiagram:path=pairwise", c, Probabilities{}, 41);
    EXPECT_LE(totalVariation(linear.probabilities, pairwise.probabilities),
              1e-9);
    EXPECT_EQ(pairwise.meta.path.planner, "pairwise");
    EXPECT_GT(pairwise.meta.path.nodes, 0u);
    EXPECT_GT(pairwise.meta.path.mmNodes, 0u);
    EXPECT_GT(pairwise.meta.path.mmProducts, 0u);
}

TEST(PathParityTest, MetaPathStamps)
{
    const Circuit c = qaoaLike(4, 0.3, 0.6);

    // Dense results carry the default stamp, the same as a linear dd run.
    const Result sv = runTask("statevector", c, Sample{32}, 51);
    EXPECT_EQ(sv.meta.path.planner, "linear");
    EXPECT_EQ(sv.meta.path.nodes, 0u);

    const Result dd = runTask("decisiondiagram", c, Sample{32}, 53);
    EXPECT_EQ(dd.meta.path.planner, "linear");
    EXPECT_EQ(dd.meta.path.mmNodes, 0u);

    const Result ddBracket =
        runTask("decisiondiagram:path=bracket4", c, Sample{32}, 54);
    EXPECT_EQ(ddBracket.meta.path.planner, "bracket");
    EXPECT_GT(ddBracket.meta.path.mmNodes, 0u);
}

TEST(PathParityTest, DdBatchReusesPlanAndFrozenSubtrees)
{
    const Circuit c = qaoaLike(4, 0.3, 0.3);
    auto backend = makeBackend("decisiondiagram:path=pairwise,threads=2");
    auto session = backend->open(c);

    const auto paramIdx = c.parameterizedGateIndices();
    ASSERT_FALSE(paramIdx.empty());
    std::vector<ParamBinding> bindings;
    for (std::size_t b = 0; b < 8; ++b) {
        Circuit bound = c;
        for (std::size_t idx : paramIdx)
            bound.setGateParam(idx, 0.2 + 0.05 * static_cast<double>(b));
        bindings.push_back(std::move(bound));
    }

    Rng rng(61);
    const auto results = session->runBatch(bindings, Sample{64}, rng);
    ASSERT_EQ(results.size(), 8u);
    EXPECT_GT(session->planReuses(), 0u);

    // The H prefix is parameter-free: its MM subtrees stay frozen across
    // the sweep, so rebound bindings serve them from the protected cache.
    const bool anyCached = std::any_of(
        results.begin(), results.end(), [](const Result& r) {
            return r.meta.path.cachedSubtrees > 0;
        });
    EXPECT_TRUE(anyCached);
}

TEST(PathParityTest, DdDepth64PairwiseReducesApplyLookups)
{
    const Circuit c = depth64Circuit(6);
    const Result linear =
        runTask("decisiondiagram:path=linear", c, Sample{64}, 71);
    const Result pairwise =
        runTask("decisiondiagram:path=pairwise", c, Sample{64}, 71);

    // Same sampled distribution...
    const Result lp =
        runTask("decisiondiagram:path=linear", c, Probabilities{}, 72);
    const Result pp =
        runTask("decisiondiagram:path=pairwise", c, Probabilities{}, 72);
    EXPECT_LE(totalVariation(lp.probabilities, pp.probabilities), 1e-9);

    // ...for measurably fewer apply-table lookups: the MxM folds go
    // through their own compute table, so the final spine applies are a
    // fraction of the 300+ gate-by-gate sweeps.
    const std::size_t linearLookups = linear.meta.ddMemory.taskApply.lookups();
    const std::size_t pairwiseLookups =
        pairwise.meta.ddMemory.taskApply.lookups();
    EXPECT_GT(linearLookups, 0u);
    EXPECT_LT(pairwiseLookups, linearLookups);
}

TEST(PathParityTest, TnAndKcRejectThePathOption)
{
    for (const char* spec :
         {"tensornetwork:path=pairwise", "knowledgecompilation:path=linear",
          "statevector:path=pairwise", "densitymatrix:path=bracket4"}) {
        try {
            parseBackendSpec(spec);
            FAIL() << spec << " was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "applies to decisiondiagram only"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(PathParityTest, RegistryAdvertisesPathWhereSupported)
{
    for (const auto& info : backendRegistry()) {
        const bool hasPath =
            std::find(info.optionKeys.begin(), info.optionKeys.end(),
                      "path") != info.optionKeys.end();
        EXPECT_EQ(hasPath, info.name == "decisiondiagram") << info.name;
    }
    EXPECT_NO_THROW(parseBackendSpec("decisiondiagram:path=bracket8"));
    EXPECT_THROW(parseBackendSpec("decisiondiagram:path=bogus"),
                 std::invalid_argument);
    EXPECT_THROW(parseBackendSpec("statevector:path=linear"),
                 std::invalid_argument);
    EXPECT_THROW(parseBackendSpec("densitymatrix:path=pairwise"),
                 std::invalid_argument);
}

} // namespace
} // namespace qkc
