#include "cnf/bn_to_cnf.h"

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/algorithms.h"
#include "testing/algorithm_circuits.h"
#include "testing/session_runs.h"
#include "testing/test_circuits.h"

namespace qkc {
namespace {

/**
 * Brute-force weighted model count over every CNF assignment: the gold
 * semantics the compiled pipeline must match. `evidence[bnVar]` = required
 * value or -1 for free.
 */
Complex
bruteForceWmc(const Cnf& cnf, const QuantumBayesNet& bn,
              const std::vector<int>& evidence)
{
    const std::size_t n = cnf.numVars();
    EXPECT_LE(n, 24u) << "brute force WMC too large";
    Complex total{};
    for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << n); ++bits) {
        auto truth = [&](int var) { return ((bits >> (var - 1)) & 1) != 0; };
        bool ok = true;
        for (const Clause& c : cnf.clauses) {
            bool sat = false;
            for (int lit : c)
                sat = sat || (lit > 0 ? truth(lit) : !truth(-lit));
            if (!sat) {
                ok = false;
                break;
            }
        }
        if (!ok)
            continue;

        Complex weight{1.0};
        for (std::size_t v = 1; v <= n && weight != Complex{}; ++v) {
            const CnfVariable& info = cnf.vars[v - 1];
            bool val = truth(static_cast<int>(v));
            switch (info.kind) {
              case CnfVarKind::Param:
                if (val)
                    weight *= bn.paramValues()[info.paramId];
                break;
              case CnfVarKind::BinaryIndicator: {
                int ev = evidence[info.bnVar];
                if (ev != -1 && ev != (val ? 1 : 0))
                    weight = Complex{};
                break;
              }
              case CnfVarKind::OneHotIndicator: {
                int ev = evidence[info.bnVar];
                if (ev != -1 && val &&
                    static_cast<std::uint32_t>(ev) != info.value)
                    weight = Complex{};
                break;
              }
            }
        }
        total += weight;
    }
    return total;
}

std::vector<int>
freeEvidence(const QuantumBayesNet& bn)
{
    return std::vector<int>(bn.variables().size(), -1);
}

TEST(BnToCnfTest, BellModelsAreFeynmanPaths)
{
    auto bn = circuitToBayesNet(testing::bellCircuit());
    Cnf cnf = bayesNetToCnf(bn);

    auto amps = testing::finalState(testing::bellCircuit()).amplitudes();
    for (std::uint64_t x = 0; x < 4; ++x) {
        auto ev = freeEvidence(bn);
        ev[bn.finalVars()[0]] = static_cast<int>((x >> 1) & 1);
        ev[bn.finalVars()[1]] = static_cast<int>(x & 1);
        Complex wmc = bruteForceWmc(cnf, bn, ev);
        EXPECT_TRUE(approxEqual(wmc, amps[x], 1e-9)) << "x=" << x;
    }
}

TEST(BnToCnfTest, NoisyBellWeightedCountsMatchTable5)
{
    auto bn = circuitToBayesNet(noisyBellCircuit(0.36));
    Cnf cnf = bayesNetToCnf(bn);
    double s = 1.0 / std::sqrt(2.0);

    auto query = [&](int q0, int q1, int rv) {
        auto ev = freeEvidence(bn);
        ev[bn.finalVars()[0]] = q0;
        ev[bn.finalVars()[1]] = q1;
        ev[bn.noiseVars()[0]] = rv;
        return bruteForceWmc(cnf, bn, ev);
    };
    EXPECT_TRUE(approxEqual(query(0, 0, 0), Complex{s}, 1e-9));
    EXPECT_TRUE(approxEqual(query(1, 1, 0), Complex{0.8 * s}, 1e-9));
    EXPECT_NEAR(std::abs(query(1, 1, 1)), 0.6 * s, 1e-9);
    EXPECT_TRUE(approxEqual(query(0, 1, 0), Complex{}, 1e-12));
    EXPECT_TRUE(approxEqual(query(0, 0, 1), Complex{}, 1e-12));
}

TEST(BnToCnfTest, UnitResolutionShrinksClauses)
{
    auto bn = circuitToBayesNet(ghzCircuit(3));
    Cnf with = bayesNetToCnf(bn, {.unitResolution = true});
    Cnf without = bayesNetToCnf(bn, {.unitResolution = false});
    EXPECT_LT(with.numClauses(), without.numClauses());
    // Same variable set either way.
    EXPECT_EQ(with.numVars(), without.numVars());
}

TEST(BnToCnfTest, UnitResolutionPreservesSemantics)
{
    Rng rng(42);
    Circuit c = testing::randomCircuit(2, 4, rng, false);
    auto bn = circuitToBayesNet(c);
    Cnf with = bayesNetToCnf(bn, {.unitResolution = true});
    Cnf without = bayesNetToCnf(bn, {.unitResolution = false});
    for (int q0 = 0; q0 < 2; ++q0) {
        for (int q1 = 0; q1 < 2; ++q1) {
            auto ev = freeEvidence(bn);
            ev[bn.finalVars()[0]] = q0;
            ev[bn.finalVars()[1]] = q1;
            EXPECT_TRUE(approxEqual(bruteForceWmc(with, bn, ev),
                                    bruteForceWmc(without, bn, ev), 1e-9));
        }
    }
}

TEST(BnToCnfTest, OneHotGroupsGetExactlyOneClauses)
{
    Circuit c(1);
    c.h(0);
    c.append(NoiseChannel::depolarizing(0, 0.05));
    auto bn = circuitToBayesNet(c);
    Cnf cnf = bayesNetToCnf(bn, {.unitResolution = false});

    // Find the 4 one-hot vars for the depolarizing RV.
    std::vector<int> group;
    for (std::size_t i = 0; i < cnf.vars.size(); ++i)
        if (cnf.vars[i].kind == CnfVarKind::OneHotIndicator)
            group.push_back(static_cast<int>(i + 1));
    ASSERT_EQ(group.size(), 4u);

    // At-least-one clause present.
    bool foundAlo = false;
    for (const Clause& cl : cnf.clauses)
        foundAlo = foundAlo || cl == Clause(group.begin(), group.end());
    EXPECT_TRUE(foundAlo);

    // All 6 pairwise at-most-one clauses present.
    std::size_t amo = 0;
    for (const Clause& cl : cnf.clauses) {
        if (cl.size() == 2 && cl[0] < 0 && cl[1] < 0 &&
            cnf.vars[-cl[0] - 1].kind == CnfVarKind::OneHotIndicator &&
            cnf.vars[-cl[1] - 1].kind == CnfVarKind::OneHotIndicator)
            ++amo;
    }
    EXPECT_EQ(amo, 6u);
}

TEST(BnToCnfTest, DeterministicGatesProduceNoParams)
{
    Circuit c(2);
    c.x(0).cnot(0, 1);
    auto bn = circuitToBayesNet(c);
    Cnf cnf = bayesNetToCnf(bn);
    for (const auto& v : cnf.vars)
        EXPECT_NE(v.kind, CnfVarKind::Param);
}

TEST(BnToCnfTest, RandomCircuitWmcMatchesStateVector)
{
    for (int seed = 0; seed < 6; ++seed) {
        Rng rng(300 + seed);
        Circuit c = testing::randomCircuit(2, 3, rng, false);
        auto bn = circuitToBayesNet(c);
        Cnf cnf = bayesNetToCnf(bn);
        if (cnf.numVars() > 24)
            continue;  // keep brute force tractable
        auto amps = testing::finalState(c).amplitudes();
        for (std::uint64_t x = 0; x < 4; ++x) {
            auto ev = freeEvidence(bn);
            ev[bn.finalVars()[0]] = static_cast<int>((x >> 1) & 1);
            ev[bn.finalVars()[1]] = static_cast<int>(x & 1);
            EXPECT_TRUE(approxEqual(bruteForceWmc(cnf, bn, ev), amps[x], 1e-9))
                << "seed=" << seed << " x=" << x << "\n" << c.toString();
        }
    }
}

} // namespace
} // namespace qkc
