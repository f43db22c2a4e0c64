#include "util/graph.h"

#include <gtest/gtest.h>

namespace qkc {
namespace {

TEST(GraphTest, AddEdgeBasics)
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0));
    EXPECT_FALSE(g.hasEdge(0, 2));
}

TEST(GraphTest, IgnoresSelfLoopsAndDuplicates)
{
    Graph g(3);
    g.addEdge(0, 0);
    g.addEdge(0, 1);
    g.addEdge(1, 0);
    EXPECT_EQ(g.numEdges(), 1u);
    EXPECT_EQ(g.degree(0), 1u);
}

TEST(GraphTest, RandomRegularDegrees)
{
    Rng rng(5);
    for (std::size_t n : {4, 6, 8, 12, 16}) {
        Graph g = randomRegularGraph(n, 3, rng);
        EXPECT_EQ(g.numVertices(), n);
        EXPECT_EQ(g.numEdges(), n * 3 / 2);
        for (std::size_t v = 0; v < n; ++v)
            EXPECT_EQ(g.degree(v), 3u) << "vertex " << v << " n " << n;
    }
}

TEST(GraphTest, RandomRegularRejectsBadArgs)
{
    Rng rng(5);
    EXPECT_THROW(randomRegularGraph(5, 3, rng), std::invalid_argument);
    EXPECT_THROW(randomRegularGraph(3, 3, rng), std::invalid_argument);
}

TEST(GraphTest, GridGraphShape)
{
    Graph g = gridGraph(3, 4);
    EXPECT_EQ(g.numVertices(), 12u);
    // Edges: 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8.
    EXPECT_EQ(g.numEdges(), 17u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(0, 4));
    EXPECT_FALSE(g.hasEdge(3, 4));  // row wrap must not connect
}

TEST(GraphTest, CutValueOnTriangle)
{
    Graph g(3);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(0, 2);
    // Assignment 0b100: vertex 0 on one side (bit 0 of the assignment is
    // vertex 0's side in LSB-first encoding: assignment>>v & 1).
    EXPECT_EQ(cutValue(g, 0b001), 2u);
    EXPECT_EQ(cutValue(g, 0b000), 0u);
    EXPECT_EQ(cutValue(g, 0b111), 0u);
}

TEST(GraphTest, MaxCutBruteForceTriangle)
{
    Graph g(3);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(0, 2);
    EXPECT_EQ(maxCutBruteForce(g), 2u);
}

TEST(GraphTest, MaxCutBruteForceBipartite)
{
    // Even cycles are bipartite: max cut = all edges.
    Graph g(6);
    for (std::size_t v = 0; v < 6; ++v)
        g.addEdge(v, (v + 1) % 6);
    EXPECT_EQ(maxCutBruteForce(g), 6u);
}

} // namespace
} // namespace qkc
