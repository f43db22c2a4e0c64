#include "util/min_fill.h"

#include <algorithm>
#include <set>

#include "util/graph.h"

namespace qkc {

namespace {

using AdjSets = std::vector<std::set<std::size_t>>;

AdjSets
toAdjSets(const Graph& g)
{
    AdjSets adj(g.numVertices());
    for (const auto& [u, v] : g.edges()) {
        adj[u].insert(v);
        adj[v].insert(u);
    }
    return adj;
}

/** Number of missing edges among the neighbors of v. */
std::size_t
fillCount(const AdjSets& adj, std::size_t v)
{
    std::size_t fill = 0;
    const auto& nbrs = adj[v];
    for (auto it = nbrs.begin(); it != nbrs.end(); ++it) {
        auto jt = it;
        for (++jt; jt != nbrs.end(); ++jt) {
            if (!adj[*it].count(*jt))
                ++fill;
        }
    }
    return fill;
}

/** Removes v from the graph, connecting its neighbors into a clique. */
void
eliminate(AdjSets& adj, std::size_t v)
{
    const auto nbrs = adj[v];
    for (std::size_t u : nbrs) {
        for (std::size_t w : nbrs) {
            if (u < w) {
                adj[u].insert(w);
                adj[w].insert(u);
            }
        }
    }
    for (std::size_t u : nbrs)
        adj[u].erase(v);
    adj[v].clear();
}

} // namespace

std::vector<std::size_t>
minFillOrdering(const Graph& g)
{
    const std::size_t n = g.numVertices();
    AdjSets adj = toAdjSets(g);
    std::vector<bool> eliminated(n, false);
    std::vector<std::size_t> order;
    order.reserve(n);

    for (std::size_t step = 0; step < n; ++step) {
        std::size_t best = SIZE_MAX;
        std::size_t bestFill = SIZE_MAX;
        std::size_t bestDegree = SIZE_MAX;
        for (std::size_t v = 0; v < n; ++v) {
            if (eliminated[v])
                continue;
            std::size_t fill = fillCount(adj, v);
            std::size_t deg = adj[v].size();
            // Tie-break min-fill by min-degree, then index, for determinism.
            if (fill < bestFill || (fill == bestFill && deg < bestDegree)) {
                best = v;
                bestFill = fill;
                bestDegree = deg;
            }
        }
        order.push_back(best);
        eliminated[best] = true;
        eliminate(adj, best);
    }
    return order;
}

} // namespace qkc
