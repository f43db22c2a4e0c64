#ifndef QKC_CIRCUIT_FUSION_H
#define QKC_CIRCUIT_FUSION_H

#include <cstddef>
#include <vector>

#include "circuit/circuit.h"

namespace qkc {

/** What the pass did — reported by benches and asserted by tests. */
struct FusionStats {
    std::size_t gatesIn = 0;
    std::size_t gatesOut = 0;
    std::size_t merged1q = 0;       ///< 1q gates absorbed into another 1q
    std::size_t foldedInto2q = 0;   ///< 1q matrices folded into a 2q gate
    std::size_t merged2q = 0;       ///< 2q gates chained into a same-pair 4x4
    std::size_t droppedIdentity = 0; ///< fused products equal to identity
    std::size_t diagonalRuns = 0;    ///< diagonal runs kept as one group
    std::size_t kronPairs = 0;       ///< pairs of 1q products as one 2q gate
};

/** A span of a circuit's ops, [begin, end). */
struct OpSpan {
    std::size_t begin = 0;
    std::size_t end = 0;
};

/**
 * Greedy gate fusion: adjacent single-qubit gates on the same wire are
 * multiplied into one 2x2 matrix, pending 1q matrices are folded into the
 * next two-qubit gate touching their wire, and adjacent two-qubit gates on
 * the same ordered wire pair chain into one 4x4 kernel until another
 * operation touches either wire, so the dense simulators sweep the
 * amplitude array once where the source circuit would have swept it
 * several times. Products that reduce to the identity are dropped entirely.
 * A pending product of X and Y gates is not folded into a CNOT, CZ, CRz,
 * CPhase or ZZ: the result would be a two-target permutation, which only
 * the gather sweep serves, so it is emitted on its own.
 *
 * Diagonal runs: a maximal stretch of consecutive diagonal gates
 * (Gate::isDiagonal) holding at least two two-qubit gates is kept verbatim
 * as one group, which the dense engines sweep once. The run is a barrier
 * on its wires: the pending products there are flushed ahead of it, never
 * folded into its gates. Products flushed together — ahead of a run, or at
 * the end of a circuit that has a run — are emitted two at a time, on
 * consecutive wires in ascending order, as one 2q gate Pa (x) Pb. A
 * circuit without a run fuses exactly as if runs did not exist.
 *
 * Noise channels and three-qubit gates act as barriers on their wires:
 * pending matrices are flushed before them, so the fused circuit is
 * operation-for-operation equivalent to the original (same final state,
 * including global phase; channels see exactly the state they saw before).
 *
 * One pass: each fused product is emitted as the pass decides it,
 * accumulated from the identity in application order. `runs`, when given,
 * receives the diagonal runs' spans in the fused circuit, in order.
 */
Circuit fuseGates(const Circuit& circuit, FusionStats* stats = nullptr,
                  std::vector<OpSpan>* runs = nullptr);

} // namespace qkc

#endif // QKC_CIRCUIT_FUSION_H
