#include "util/min_fill.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "testing/oracles.h"
#include "util/graph.h"

namespace qkc {
namespace {

TEST(MinFillTest, OrderIsPermutation)
{
    Graph g = gridGraph(3, 3);
    auto order = minFillOrdering(g);
    ASSERT_EQ(order.size(), 9u);
    auto sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < 9; ++i)
        EXPECT_EQ(sorted[i], i);
}

TEST(MinFillTest, TreeHasWidthOne)
{
    // A path graph is a tree: any min-fill order has induced width 1.
    Graph g(6);
    for (std::size_t v = 0; v + 1 < 6; ++v)
        g.addEdge(v, v + 1);
    auto order = minFillOrdering(g);
    EXPECT_EQ(testing::inducedWidth(g, order), 1u);
}

TEST(MinFillTest, CliqueWidthIsNMinusOne)
{
    Graph g(5);
    for (std::size_t u = 0; u < 5; ++u)
        for (std::size_t v = u + 1; v < 5; ++v)
            g.addEdge(u, v);
    auto order = minFillOrdering(g);
    EXPECT_EQ(testing::inducedWidth(g, order), 4u);
}

TEST(MinFillTest, GridWidthMatchesKnownBound)
{
    // Treewidth of an n x n grid is n; min-fill achieves it on small grids.
    Graph g = gridGraph(3, 3);
    auto order = minFillOrdering(g);
    EXPECT_LE(testing::inducedWidth(g, order), 3u);
    EXPECT_GE(testing::inducedWidth(g, order), 2u);
}

TEST(MinFillTest, BeatsBadOrderOnGrid)
{
    Graph g = gridGraph(4, 4);
    auto mf = minFillOrdering(g);
    std::vector<std::size_t> lex(16);
    for (std::size_t i = 0; i < 16; ++i)
        lex[i] = i;
    EXPECT_LE(testing::inducedWidth(g, mf), testing::inducedWidth(g, lex));
}

TEST(MinFillTest, EmptyGraph)
{
    Graph g(0);
    EXPECT_TRUE(minFillOrdering(g).empty());
}

TEST(MinFillTest, DisconnectedGraph)
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(2, 3);
    auto order = minFillOrdering(g);
    EXPECT_EQ(order.size(), 4u);
    EXPECT_EQ(testing::inducedWidth(g, order), 1u);
}

} // namespace
} // namespace qkc
