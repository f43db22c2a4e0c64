#include "cnf/cnf.h"

#include <gtest/gtest.h>

#include <sstream>

#include "algorithms/algorithms.h"
#include "cnf/bn_to_cnf.h"
#include "testing/algorithm_circuits.h"
#include "testing/readers.h"

namespace qkc {
namespace {

TEST(CnfTest, IndicatorVarCount)
{
    Cnf cnf;
    cnf.vars.push_back({CnfVarKind::BinaryIndicator, 0, 0, -1, true});
    cnf.vars.push_back({CnfVarKind::Param, 0, 0, 3, false});
    cnf.vars.push_back({CnfVarKind::OneHotIndicator, 1, 2, -1, true});
    EXPECT_EQ(cnf.numVars(), 3u);
    EXPECT_EQ(cnf.numIndicatorVars(), 2u);
}

TEST(CnfTest, DimacsRoundTrip)
{
    auto bn = circuitToBayesNet(noisyBellCircuit(0.36));
    Cnf cnf = bayesNetToCnf(bn);

    std::stringstream ss;
    cnf.writeDimacs(ss);
    Cnf back = testing::readDimacs(ss);

    ASSERT_EQ(back.numVars(), cnf.numVars());
    ASSERT_EQ(back.numClauses(), cnf.numClauses());
    for (std::size_t i = 0; i < cnf.vars.size(); ++i) {
        EXPECT_EQ(back.vars[i].kind, cnf.vars[i].kind) << i;
        EXPECT_EQ(back.vars[i].bnVar, cnf.vars[i].bnVar) << i;
        EXPECT_EQ(back.vars[i].value, cnf.vars[i].value) << i;
        EXPECT_EQ(back.vars[i].paramId, cnf.vars[i].paramId) << i;
        EXPECT_EQ(back.vars[i].query, cnf.vars[i].query) << i;
    }
    EXPECT_EQ(back.clauses, cnf.clauses);
    EXPECT_EQ(back.bnVarIndicators, cnf.bnVarIndicators);
}

TEST(CnfTest, DimacsHeaderLine)
{
    auto bn = circuitToBayesNet(testing::bellCircuit());
    Cnf cnf = bayesNetToCnf(bn);
    std::stringstream ss;
    cnf.writeDimacs(ss);
    std::string text = ss.str();
    std::ostringstream expect;
    expect << "p cnf " << cnf.numVars() << " " << cnf.numClauses();
    EXPECT_NE(text.find(expect.str()), std::string::npos);
}

} // namespace
} // namespace qkc
