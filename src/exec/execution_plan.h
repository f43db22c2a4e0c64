#ifndef QKC_EXEC_EXECUTION_PLAN_H
#define QKC_EXEC_EXECUTION_PLAN_H

#include <cstddef>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/fusion.h"
#include "exec/gate_kernels.h"
#include "exec/thread_pool.h"

namespace qkc {

/**
 * One circuit operation lowered for dense state-vector execution: either a
 * compiled gate kernel or a noise channel whose Kraus operators have each
 * been compiled (damping E0 classifies as Diag, mixture operators as scaled
 * Paulis, ...). `opIndex` refers into the owning plan's circuit.
 */
struct PlannedOp {
    std::size_t opIndex = 0;
    bool isChannel = false;
    GateKernel gate;                ///< valid when !isChannel
    std::vector<GateKernel> kraus;  ///< valid when isChannel
};

/**
 * A circuit prepared for repeated dense execution: fusion has run (if the
 * policy asks for it) and every gate and Kraus matrix has been inspected
 * and classified exactly once. Trajectory sampling re-executes the plan per
 * shot without touching a Matrix again.
 */
struct ExecutionPlan {
    std::size_t numQubits = 0;
    Circuit circuit{1};       ///< the (possibly fused) circuit kernels map to
    std::vector<PlannedOp> ops;
    FusionStats fusion;       ///< zeros when fusion was disabled
    bool fusionEnabled = false;
    FusionRecipe recipe;      ///< valid when fusionEnabled

    const NoiseChannel& channelAt(const PlannedOp& op) const
    {
        return std::get<NoiseChannel>(circuit.operations()[op.opIndex]);
    }
};

/**
 * Builds the execution plan for `circuit` under `policy` (fusion honored;
 * thread settings are not consulted here — they matter at apply time).
 * Kernel bit convention: qubit q lives at bit position numQubits-1-q,
 * matching the StateVector basis-index layout.
 */
ExecutionPlan planCircuit(const Circuit& circuit, const ExecPolicy& policy);

/**
 * Empty tag kept only so the repository benchmark (vqabench/) still
 * compiles its `planCircuit(c, policy, PathOptions{})` calls; it selects
 * nothing.
 */
struct PathOptions {};

/** Forwarder for the benchmark's calls: the two-argument plan. */
ExecutionPlan planCircuit(const Circuit& circuit, const ExecPolicy& policy,
                          const PathOptions& pathOptions);

/**
 * True when `a` and `b` share a circuit *structure*: same qubit count and
 * op sequence (gate kinds, operand wires, channel shapes); gate parameters,
 * custom-gate entries and Kraus values are free to differ. This is the
 * precondition for rebinding an execution plan or an open backend session.
 */
bool sameStructure(const Circuit& a, const Circuit& b);

/**
 * A 64-bit digest of exactly the fields sameStructure compares: qubit
 * count, op sequence, gate kinds and wires, channel wires and Kraus
 * counts. sameStructure(a, b) implies structureHash(a) == structureHash(b),
 * so the hash can key a session cache (the server's LRU) without consulting
 * circuit contents; colliding structures are still correct — a bind onto a
 * cached session transparently re-plans when the structures differ.
 */
std::uint64_t structureHash(const Circuit& circuit);

/**
 * Rebinds `plan` to a new circuit with the same structure (the variational
 * fast path): replays the recorded fusion recipe on the new gate values and
 * refreshes every kernel in place — no greedy fusion pass, no kernel
 * re-classification. Returns false when the structure differs, a fused
 * product crossed the identity boundary, or a parameter change invalidated
 * a kernel's stored class; the plan may then be partially refreshed and the
 * caller must re-plan before executing it.
 */
bool tryRebindPlan(ExecutionPlan& plan, const Circuit& circuit);

} // namespace qkc

#endif // QKC_EXEC_EXECUTION_PLAN_H
