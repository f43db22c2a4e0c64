#include "ac/arithmetic_circuit.h"

#include <gtest/gtest.h>

#include <sstream>

#include "testing/readers.h"

namespace qkc {
namespace {

TEST(ArithmeticCircuitTest, HashConsingDeduplicatesLeaves)
{
    ArithmeticCircuit ac;
    EXPECT_EQ(ac.indicator(3, 1), ac.indicator(3, 1));
    EXPECT_NE(ac.indicator(3, 1), ac.indicator(3, 0));
    EXPECT_EQ(ac.param(7), ac.param(7));
    EXPECT_EQ(ac.constant(Complex{2.0}), ac.constant(Complex{2.0}));
    EXPECT_NE(ac.constant(Complex{2.0}), ac.constant(Complex{2.0, 1.0}));
}

TEST(ArithmeticCircuitTest, HashConsingDeduplicatesInterior)
{
    ArithmeticCircuit ac;
    auto a = ac.indicator(0, 0);
    auto b = ac.param(1);
    auto m1 = ac.mul({a, b});
    auto m2 = ac.mul({b, a});  // order-insensitive
    EXPECT_EQ(m1, m2);
    auto s1 = ac.add({m1, ac.param(2)});
    auto s2 = ac.add({ac.param(2), m2});
    EXPECT_EQ(s1, s2);
}

TEST(ArithmeticCircuitTest, MulFolding)
{
    ArithmeticCircuit ac;
    auto x = ac.indicator(0, 1);
    EXPECT_EQ(ac.mul({x, ac.one()}), x);          // unit dropped
    EXPECT_EQ(ac.mul({x, ac.zero()}), ac.zero()); // annihilator
    EXPECT_EQ(ac.mul({}), ac.one());              // empty product
    EXPECT_EQ(ac.mul({x}), x);                    // single child
}

TEST(ArithmeticCircuitTest, AddFolding)
{
    ArithmeticCircuit ac;
    auto x = ac.indicator(0, 1);
    EXPECT_EQ(ac.add({x, ac.zero()}), x);
    EXPECT_EQ(ac.add({}), ac.zero());
    EXPECT_EQ(ac.add({x}), x);
}

TEST(ArithmeticCircuitTest, FlattenNested)
{
    ArithmeticCircuit ac;
    auto a = ac.param(0), b = ac.param(1), c = ac.param(2);
    auto inner = ac.mul({a, b});
    auto outer = ac.mul({inner, c});
    EXPECT_EQ(ac.node(outer).numChildren(), 3u);
    auto innerSum = ac.add({a, b});
    auto outerSum = ac.add({innerSum, c});
    EXPECT_EQ(ac.node(outerSum).numChildren(), 3u);
}

TEST(ArithmeticCircuitTest, LiveCountsExcludeGarbage)
{
    ArithmeticCircuit ac;
    auto a = ac.param(0), b = ac.param(1);
    ac.mul({a, b});            // dead node
    auto root = ac.add({a, b});
    ac.setRoot(root);
    EXPECT_EQ(ac.liveNodeCount(), 3u);  // root + 2 leaves
    EXPECT_EQ(ac.liveEdgeCount(), 2u);
    EXPECT_GT(ac.numNodes(), ac.liveNodeCount());
}

TEST(ArithmeticCircuitTest, NnfRoundTrip)
{
    ArithmeticCircuit ac;
    auto i0 = ac.indicator(0, 0);
    auto i1 = ac.indicator(0, 1);
    auto p = ac.param(4);
    auto c = ac.constant(Complex{0.5, -0.25});
    auto root = ac.add({ac.mul({i0, p}), ac.mul({i1, c})});
    ac.setRoot(root);

    std::stringstream ss;
    std::size_t bytes = ac.writeNnf(ss);
    EXPECT_GT(bytes, 0u);
    ArithmeticCircuit back = testing::readNnf(ss);

    // Same live shape.
    EXPECT_EQ(back.liveNodeCount(), ac.liveNodeCount());
    EXPECT_EQ(back.liveEdgeCount(), ac.liveEdgeCount());
    EXPECT_EQ(back.node(back.root()).kind, AcNodeKind::Add);
}

TEST(ArithmeticCircuitTest, NnfRejectsGarbage)
{
    std::stringstream ss("bogus 1 2\n");
    EXPECT_THROW(testing::readNnf(ss), std::invalid_argument);
    std::stringstream ss2("qnnf 1 0\nI 0 0\n");  // missing root
    EXPECT_THROW(testing::readNnf(ss2), std::invalid_argument);
}

} // namespace
} // namespace qkc
