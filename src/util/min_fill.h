#ifndef QKC_UTIL_MIN_FILL_H
#define QKC_UTIL_MIN_FILL_H

#include <cstddef>
#include <vector>

namespace qkc {

class Graph;

/**
 * Min-fill elimination ordering over an interaction graph.
 *
 * The knowledge compiler (Section 3.2.2 of the paper) chooses the order in
 * which qubit-state variables are decided; the paper compares lexicographic
 * ordering against a hypergraph-partitioning order. Min-fill over the CNF
 * primal graph is the classical structure-aware heuristic we use as the
 * stand-in: at each step eliminate the vertex whose neighborhood needs the
 * fewest fill-in edges to become a clique, then connect its neighbors.
 *
 * Returns a permutation of [0, n): order[i] is the i-th vertex eliminated.
 */
std::vector<std::size_t> minFillOrdering(const Graph& g);

} // namespace qkc

#endif // QKC_UTIL_MIN_FILL_H
