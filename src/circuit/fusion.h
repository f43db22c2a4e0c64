#ifndef QKC_CIRCUIT_FUSION_H
#define QKC_CIRCUIT_FUSION_H

#include <cstddef>
#include <cstdint>
#include <optional>
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

/**
 * The structural outcome of one fusion pass, separated from the matrix
 * arithmetic so that a variational sweep can re-run the arithmetic on new
 * gate parameters without re-running the greedy pass. Each group names the
 * source operation indices that fuse into one emitted operation (or into a
 * dropped identity); `materializeFusion` replays the products.
 */
struct FusionRecipe {
    struct Group {
        enum class Kind : std::uint8_t {
            Passthrough, ///< one op copied verbatim (2q/3q gate, no pendings)
            Channel,     ///< a noise channel copied verbatim
            Fused1q,     ///< product of 1q gates on one wire
            Fused2q,     ///< same-pair 2q chain with pending 1q folded in
            DiagonalRun, ///< a diagonal run's gates, each copied verbatim
            Kron1q,      ///< two wires' 1q products as one 2q gate Pa (x) Pb
        };
        Kind kind = Kind::Passthrough;
        /** Fused1q: the 1q source ops on `qubits[0]`, first-applied first.
         *  DiagonalRun: the run's gates in op order (the engines sweep them
         *  as one pass, see loweringUnits in exec/execution_plan.h). */
        std::vector<std::size_t> sources;
        /** Fused2q: the chained 2q gates' op indices, first-applied first
         *  (one entry for a plain fold, several for a same-pair chain). */
        std::vector<std::size_t> gateIndices;
        /** Fused2q: per-stage pending 1q sources, first-applied first;
         *  pendingHigh[s]/pendingLow[s] act before gateIndices[s]. Kron1q:
         *  one stage, the 1q sources of each wire. */
        std::vector<std::vector<std::size_t>> pendingHigh; ///< qubits[0] (MSB)
        std::vector<std::vector<std::size_t>> pendingLow;  ///< qubits[1] (LSB)
        /** Operand wires of the emitted operation; DiagonalRun: the
         *  operand wires of every gate, concatenated in op order. */
        std::vector<std::size_t> qubits;
        /** The fused product was the identity; nothing is emitted. */
        bool dropped = false;
    };

    std::size_t numQubits = 0;
    std::size_t numOps = 0;    ///< op count of the planned circuit
    std::vector<Group> groups; ///< emission order, dropped groups in place
    FusionStats stats;         ///< gatesOut filled by materializeFusion
};

/**
 * Runs the greedy pass on `circuit` and records which ops fuse into which
 * emitted operation. The grouping decisions are structural (wires and
 * arities) except for identity drops, which depend on the gate values; the
 * drop decisions made here are recorded so materializeFusion can detect
 * when new parameters invalidate them.
 */
FusionRecipe planFusion(const Circuit& circuit);

/**
 * Replays `recipe` on `circuit` (same structure as the planned one: op
 * count, kinds, arities and wires must match — parameters and matrix
 * values are free to differ). Returns the fused circuit, or std::nullopt
 * when the recipe no longer applies: a product crossed the identity
 * boundary (a previously-dropped product is no longer the identity, or
 * vice versa), or the circuit's structure does not match the plan (checked
 * defensively — indices, op kinds and arities are validated before use).
 * Either way the caller should re-plan.
 */
std::optional<Circuit> materializeFusion(const FusionRecipe& recipe,
                                         const Circuit& circuit,
                                         FusionStats* stats = nullptr);

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
 * Equivalent to planFusion + materializeFusion in one call.
 */
Circuit fuseGates(const Circuit& circuit, FusionStats* stats = nullptr);

} // namespace qkc

#endif // QKC_CIRCUIT_FUSION_H
