#include "util/graph.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace qkc {

Graph::Graph(std::size_t numVertices) : adj_(numVertices) {}

void
Graph::addEdge(std::size_t u, std::size_t v)
{
    assert(u < numVertices() && v < numVertices());
    if (u == v || hasEdge(u, v))
        return;
    adj_[u].push_back(v);
    adj_[v].push_back(u);
    edges_.emplace_back(std::min(u, v), std::max(u, v));
}

bool
Graph::hasEdge(std::size_t u, std::size_t v) const
{
    const auto& nu = adj_[u];
    return std::find(nu.begin(), nu.end(), v) != nu.end();
}

Graph
randomRegularGraph(std::size_t n, std::size_t d, Rng& rng)
{
    if (n * d % 2 != 0 || d >= n)
        throw std::invalid_argument("randomRegularGraph: need n*d even, d < n");

    // Pairing model: n*d half-edge stubs are matched uniformly; retry on
    // self loops or parallel edges. For small d this converges quickly.
    for (int attempt = 0; attempt < 1000; ++attempt) {
        std::vector<std::size_t> stubs;
        stubs.reserve(n * d);
        for (std::size_t v = 0; v < n; ++v)
            for (std::size_t k = 0; k < d; ++k)
                stubs.push_back(v);
        rng.shuffle(stubs);

        Graph g(n);
        bool ok = true;
        for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
            std::size_t u = stubs[i];
            std::size_t v = stubs[i + 1];
            if (u == v || g.hasEdge(u, v)) {
                ok = false;
                break;
            }
            g.addEdge(u, v);
        }
        if (ok)
            return g;
    }
    throw std::runtime_error("randomRegularGraph: failed to converge");
}

Graph
gridGraph(std::size_t rows, std::size_t cols)
{
    Graph g(rows * cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            std::size_t v = r * cols + c;
            if (c + 1 < cols)
                g.addEdge(v, v + 1);
            if (r + 1 < rows)
                g.addEdge(v, v + cols);
        }
    }
    return g;
}

std::size_t
cutValue(const Graph& g, std::uint64_t assignment)
{
    std::size_t cut = 0;
    for (const auto& [u, v] : g.edges()) {
        bool su = (assignment >> u) & 1;
        bool sv = (assignment >> v) & 1;
        if (su != sv)
            ++cut;
    }
    return cut;
}

std::size_t
maxCutBruteForce(const Graph& g)
{
    assert(g.numVertices() <= 24);
    std::size_t best = 0;
    const std::uint64_t total = std::uint64_t{1} << g.numVertices();
    for (std::uint64_t a = 0; a < total; ++a)
        best = std::max(best, cutValue(g, a));
    return best;
}

} // namespace qkc
