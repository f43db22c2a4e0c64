#ifndef QKC_DD_DD_NODE_H
#define QKC_DD_DD_NODE_H

#include <array>
#include <cstddef>
#include <cstdint>

#include "linalg/types.h"

namespace qkc {

/**
 * Node and edge types of the complex-edge-weighted quantum multiple-valued
 * decision diagram (QMDD) package — the JKQ DDSIM simulator family the
 * paper benchmarks against exploits exactly this representation.
 *
 * A state vector (or gate matrix) is a DAG of decision nodes, one level per
 * qubit; qubit 0 — the MOST significant bit of a basis index, matching the
 * Circuit convention — is tested at the root (level 0) and the terminal
 * sits below level n-1. Edges carry complex weights; the value of a basis
 * entry is the product of the edge weights along its path. Structured
 * states (GHZ, stabilizer-like, peaked) share subtrees aggressively, so
 * node counts grow with the state's structure rather than with 2^n.
 *
 * The package keeps diagrams *quasi-reduced*: along any non-zero path every
 * level appears exactly once, and an all-zero subtree is always represented
 * by the canonical zero edge (terminal node, weight 0). Combined with the
 * per-node weight normalization performed by DdPackage, equal
 * sub-vectors/sub-matrices are represented by the same node, which is what
 * the unique table relies on for deduplication.
 */

/** An edge: target node (nullptr = the terminal) plus a complex weight. */
template <typename NodeT>
struct DdEdge {
    NodeT* node = nullptr;
    Complex weight{0.0, 0.0};

    bool isTerminal() const { return node == nullptr; }

    /** The canonical all-zero vector/matrix. */
    bool isZero() const
    {
        return node == nullptr && weight.real() == 0.0 && weight.imag() == 0.0;
    }
};

struct VNode;
struct MNode;

using VEdge = DdEdge<VNode>;
using MEdge = DdEdge<MNode>;

/**
 * Vector-DD node: branches on one qubit; children[b] is the sub-vector for
 * that qubit being |b>. Normalization invariant (established by
 * DdPackage::makeVNode): |w0|^2 + |w1|^2 = 1 and the first non-zero child
 * weight is real non-negative, so outcome probabilities can be read off
 * edge weights directly during sampling.
 *
 * Lifecycle fields: `mark` is the generation stamp of the last
 * mark-and-sweep pass that reached this node from a protected root;
 * `nextFree` chains collected nodes on the package's free list for reuse.
 */
struct VNode {
    std::array<VEdge, 2> children;
    std::size_t level = 0;
    VNode* nextFree = nullptr;
    std::uint32_t mark = 0;
};

/**
 * Matrix-DD node: branches on one qubit's (row bit, column bit) pair;
 * children[2*r + c] is the sub-matrix block. Normalization invariant: the
 * largest-magnitude child weight is exactly 1 (the first such child under
 * the fixed 00,01,10,11 order). Lifecycle fields as in VNode.
 */
struct MNode {
    std::array<MEdge, 4> children;
    std::size_t level = 0;
    MNode* nextFree = nullptr;
    std::uint32_t mark = 0;
};

/**
 * Edge-weight quantization used for compute-table keys (the add cache's
 * weight ratio).
 *
 * The unique tables use the real resolution — canonical interned values
 * from the DDSIM-style ComplexTable (see dd/complex_table.h) — but the add
 * cache keys on an *unbounded* weight ratio, where an absolute-tolerance
 * interning table would grow without limit; a fixed 1e-12 grid is the right
 * trade there. Two ratios that quantize to the same cell are merged (an
 * error far below the library-wide kAmpEps = 1e-9); values past the clamp
 * range below alias each other, so callers must bypass the cache outside
 * the grid's exact range.
 */
inline std::int64_t
ddQuantize(double x)
{
    constexpr double kGrid = 1e12; // cell width 1e-12
    double scaled = x * kGrid;
    // Clamp: keys only need to distinguish values, not represent them.
    if (scaled > 9.2e18)
        return INT64_MAX;
    if (scaled < -9.2e18)
        return INT64_MIN;
    return static_cast<std::int64_t>(scaled >= 0.0 ? scaled + 0.5
                                                   : scaled - 0.5);
}

/** Quantized (re, im) pair for hashing/equality of edge weights. */
struct QuantizedComplex {
    std::int64_t re = 0;
    std::int64_t im = 0;

    bool operator==(const QuantizedComplex& o) const
    {
        return re == o.re && im == o.im;
    }
};

inline QuantizedComplex
ddQuantize(const Complex& w)
{
    return {ddQuantize(w.real()), ddQuantize(w.imag())};
}

/** 64-bit mix for composing hash keys (splitmix64 finalizer). */
inline std::uint64_t
ddHashMix(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    return h;
}

} // namespace qkc

#endif // QKC_DD_DD_NODE_H
