#ifndef QKC_EXEC_EXECUTION_PLAN_H
#define QKC_EXEC_EXECUTION_PLAN_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/fusion.h"
#include "exec/gate_kernels.h"
#include "exec/thread_pool.h"

namespace qkc {

/**
 * One circuit operation lowered to the kernels its engine sweeps (see
 * OpLowering). `opIndex` refers into the owning plan's circuit.
 */
struct PlannedOp {
    std::size_t opIndex = 0;
    bool isChannel = false;
    std::vector<GateKernel> kernels;
};

/** The engine whose lowering compiled a plan's kernels. */
enum class PlanEngine : std::uint8_t { StateVector, DensityMatrix };

/**
 * How one dense engine lowers a circuit operation to kernels. The plan
 * builder and rebinder below own everything else (fusion, the recipe
 * replay or structure check, the per-op loops), so an engine supplies
 * only these two rules.
 */
struct OpLowering {
    PlanEngine engine;
    /** The kernels of `op` in a `numQubits`-qubit circuit. */
    std::vector<GateKernel> (*compile)(const Operation& op,
                                       std::size_t numQubits);
    /**
     * Refreshes `kernels` in place for a same-structure `op` without
     * re-classification (see tryRefreshKernel); false when a new value no
     * longer fits a stored kernel class.
     */
    bool (*refresh)(std::vector<GateKernel>& kernels, const Operation& op);
};

/**
 * A circuit prepared for repeated dense execution: fusion has run (if the
 * policy asks for it) and every gate and channel has been lowered and
 * classified exactly once.
 *
 *  - State vector: a gate is one kernel; a channel is one kernel per Kraus
 *    operator, and a trajectory picks one. Qubit q lives at bit
 *    numQubits-1-q, matching the StateVector basis-index layout.
 *  - Density matrix: a gate is its row kernel then its column kernel; a
 *    channel is its single Liouville kernel. Every kernel applies in order.
 *
 * Trajectory sampling and variational sweeps re-execute the plan without
 * touching a Matrix again.
 */
struct ExecutionPlan {
    PlanEngine engine = PlanEngine::StateVector;
    std::size_t numQubits = 0;
    Circuit circuit{1};       ///< the (possibly fused) circuit kernels map to
    std::vector<PlannedOp> ops;
    FusionStats fusion;       ///< zeros when fusion was disabled
    bool fusionEnabled = false;
    FusionRecipe recipe;      ///< valid when fusionEnabled
};

/** A plan lowered by the density-matrix engine (see planCircuitDm). */
using DmExecutionPlan = ExecutionPlan;

/**
 * Builds the plan for `circuit` under `policy` with `lowering` (fusion
 * honored; thread settings are not consulted here — they matter at apply
 * time).
 */
ExecutionPlan buildPlan(const Circuit& circuit, const ExecPolicy& policy,
                        const OpLowering& lowering);

/**
 * Rebinds `plan` to a new circuit with the same structure (the variational
 * fast path): replays the recorded fusion recipe on the new gate values,
 * or checks sameStructure when fusion is off, and refreshes every op's
 * kernels in place — no greedy fusion pass, no kernel re-classification.
 * Returns false when the plan was lowered by another engine, the structure
 * differs, a fused product crossed the identity boundary, or a new value
 * invalidated a kernel's stored class; the plan may then be partially
 * refreshed and the caller must re-plan before executing it.
 */
bool rebindPlan(ExecutionPlan& plan, const Circuit& circuit,
                const OpLowering& lowering);

/** Builds the state-vector plan for `circuit` under `policy`. */
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

/** rebindPlan with the state-vector lowering. */
bool tryRebindPlan(ExecutionPlan& plan, const Circuit& circuit);

} // namespace qkc

#endif // QKC_EXEC_EXECUTION_PLAN_H
