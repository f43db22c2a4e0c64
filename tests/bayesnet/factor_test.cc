#include "testing/factor.h"

#include <gtest/gtest.h>

#include "testing/algorithm_circuits.h"

namespace qkc::testing {
namespace {

TEST(FactorTest, ScalarFactor)
{
    Factor f(Complex{2.0, 1.0});
    EXPECT_TRUE(approxEqual(f.scalar(), Complex(2.0, 1.0)));
}

TEST(FactorTest, MultiplyDisjointScopes)
{
    Factor a({0}, {2});
    a.at(0) = 2.0;
    a.at(1) = 3.0;
    Factor b({1}, {2});
    b.at(0) = 5.0;
    b.at(1) = 7.0;
    Factor p = a.multiply(b);
    ASSERT_EQ(p.tableSize(), 4u);
    EXPECT_TRUE(approxEqual(p.value({0, 0}), Complex{10.0}));
    EXPECT_TRUE(approxEqual(p.value({1, 1}), Complex{21.0}));
    EXPECT_TRUE(approxEqual(p.value({0, 1}), Complex{14.0}));
}

TEST(FactorTest, MultiplySharedVariable)
{
    Factor a({0, 1}, {2, 2});
    for (std::size_t i = 0; i < 4; ++i)
        a.at(i) = static_cast<double>(i + 1);
    Factor b({1}, {2});
    b.at(0) = 10.0;
    b.at(1) = 100.0;
    Factor p = a.multiply(b);
    EXPECT_TRUE(approxEqual(p.value({0, 0}), Complex{10.0}));
    EXPECT_TRUE(approxEqual(p.value({0, 1}), Complex{200.0}));
    EXPECT_TRUE(approxEqual(p.value({1, 0}), Complex{30.0}));
    EXPECT_TRUE(approxEqual(p.value({1, 1}), Complex{400.0}));
}

TEST(FactorTest, SumOut)
{
    Factor a({0, 1}, {2, 2});
    for (std::size_t i = 0; i < 4; ++i)
        a.at(i) = static_cast<double>(i + 1);
    Factor s = a.sumOut(1);
    ASSERT_EQ(s.vars().size(), 1u);
    EXPECT_TRUE(approxEqual(s.value({0}), Complex{3.0}));   // 1 + 2
    EXPECT_TRUE(approxEqual(s.value({1}), Complex{7.0}));   // 3 + 4
}

TEST(FactorTest, SumOutToScalar)
{
    Factor a({5}, {3});
    a.at(0) = 1.0;
    a.at(1) = Complex{0.0, 2.0};
    a.at(2) = -1.0;
    EXPECT_TRUE(approxEqual(a.sumOut(5).scalar(), Complex(0.0, 2.0)));
}

TEST(FactorTest, Condition)
{
    Factor a({0, 1}, {2, 2});
    for (std::size_t i = 0; i < 4; ++i)
        a.at(i) = static_cast<double>(i + 1);
    Factor c = a.condition(0, 1);
    ASSERT_EQ(c.vars().size(), 1u);
    EXPECT_EQ(c.vars()[0], 1u);
    EXPECT_TRUE(approxEqual(c.value({0}), Complex{3.0}));
    EXPECT_TRUE(approxEqual(c.value({1}), Complex{4.0}));
}

TEST(FactorTest, ConditionMultiValued)
{
    Factor a({0, 1}, {2, 3});
    for (std::size_t i = 0; i < 6; ++i)
        a.at(i) = static_cast<double>(i);
    Factor c = a.condition(1, 2);
    EXPECT_TRUE(approxEqual(c.value({0}), Complex{2.0}));
    EXPECT_TRUE(approxEqual(c.value({1}), Complex{5.0}));
}

TEST(FactorTest, FromPotentialUsesParamValues)
{
    auto bn = circuitToBayesNet(bellCircuit());
    // Find the H potential (scope size 2).
    for (const auto& pot : bn.potentials()) {
        if (pot.vars.size() == 2) {
            Factor f = Factor::fromPotential(bn, pot);
            EXPECT_NEAR(f.at(0).real(), 1.0 / std::sqrt(2.0), 1e-12);
            EXPECT_NEAR(f.at(3).real(), -1.0 / std::sqrt(2.0), 1e-12);
        }
        if (pot.vars.size() == 1) {
            Factor f = Factor::fromPotential(bn, pot);
            EXPECT_NEAR(f.at(0).real(), 1.0, 1e-12);
            EXPECT_NEAR(f.at(1).real(), 0.0, 1e-12);
        }
    }
}

TEST(FactorTest, ScalarThrowsOnNonEmptyScope)
{
    Factor a({0}, {2});
    EXPECT_THROW(a.scalar(), std::logic_error);
}

TEST(FactorTest, ValueOutOfScopeThrows)
{
    Factor a({0}, {2});
    EXPECT_THROW(a.condition(7, 0), std::invalid_argument);
}

} // namespace
} // namespace qkc::testing
