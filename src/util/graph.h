#ifndef QKC_UTIL_GRAPH_H
#define QKC_UTIL_GRAPH_H

#include <cstddef>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace qkc {

/**
 * Small undirected simple graph used for variational workload generation
 * (Max-Cut instances, 2D Ising grids) and for structural orderings in the
 * knowledge compiler (primal graphs of CNFs).
 */
class Graph {
  public:
    explicit Graph(std::size_t numVertices = 0);

    std::size_t numVertices() const { return adj_.size(); }
    std::size_t numEdges() const { return edges_.size(); }

    /** Adds an undirected edge u-v; self loops and duplicates are ignored. */
    void addEdge(std::size_t u, std::size_t v);

    bool hasEdge(std::size_t u, std::size_t v) const;

    const std::vector<std::size_t>& neighbors(std::size_t v) const
    {
        return adj_[v];
    }

    /** All edges as (u, v) pairs with u < v, in insertion order. */
    const std::vector<std::pair<std::size_t, std::size_t>>& edges() const
    {
        return edges_;
    }

    std::size_t degree(std::size_t v) const { return adj_[v].size(); }

  private:
    std::vector<std::vector<std::size_t>> adj_;
    std::vector<std::pair<std::size_t, std::size_t>> edges_;
};

/**
 * Random d-regular graph via the pairing model with restarts (the paper's
 * QAOA Max-Cut instances use random 3-regular graphs). Requires n*d even and
 * d < n.
 */
Graph randomRegularGraph(std::size_t n, std::size_t d, Rng& rng);

/** rows x cols 2D grid graph (nearest-neighbor Ising couplings for VQE). */
Graph gridGraph(std::size_t rows, std::size_t cols);

/**
 * Size of the cut induced by `assignment` (bit i = side of vertex i):
 * the number of edges whose endpoints fall on different sides.
 */
std::size_t cutValue(const Graph& g, std::uint64_t assignment);

/** The maximum cut value over all 2^n assignments (brute force, n <= 24). */
std::size_t maxCutBruteForce(const Graph& g);

} // namespace qkc

#endif // QKC_UTIL_GRAPH_H
