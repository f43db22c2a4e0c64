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
 * Circuit operations lowered to the kernels their engine sweeps, in order.
 * `opIndices` lists the source ops in the owning plan's circuit,
 * first-applied first: exactly one for a state-vector op; a density-matrix
 * wire run (densitymatrix_simulator.h) lists every one-qubit gate and
 * channel it merges.
 */
struct PlannedOp {
    std::vector<std::size_t> opIndices;
    /** A source op is a noise channel (sv: its kernels are the Kraus
     *  operators a trajectory picks from). */
    bool isChannel = false;
    std::vector<GateKernel> kernels;
};

/** The engine whose lowering compiled a plan's kernels. */
enum class PlanEngine : std::uint8_t { StateVector, DensityMatrix };

/**
 * A circuit prepared for repeated dense execution: fusion has run (if the
 * policy asks for it) and every gate and channel has been lowered and
 * classified exactly once.
 *
 *  - State vector: a gate is one kernel; a channel is one kernel per Kraus
 *    operator, and a trajectory picks one. Qubit q lives at bit
 *    numQubits-1-q, matching the StateVector basis-index layout.
 *  - Density matrix: each wire's run of one-qubit gates and channels is
 *    one 4x4 superoperator kernel; a multi-qubit gate is its row kernel
 *    then its column kernel, and a multi-qubit channel its single
 *    Liouville kernel. Every kernel applies in order.
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
 * The engine-independent half of planning: an `engine` plan whose circuit
 * is `circuit` fused under `policy` (when it asks for fusion), with no op
 * lowered yet. Thread settings are not consulted here — they matter at
 * apply time.
 */
ExecutionPlan preparePlan(const Circuit& circuit, const ExecPolicy& policy,
                          PlanEngine engine);

/**
 * The engine-independent half of a rebind to a circuit with the same
 * structure (the variational fast path): replays the recorded fusion
 * recipe on the new gate values, or checks sameStructure when fusion is
 * off, into plan.circuit — no greedy fusion pass. The engine then
 * refreshes every op's kernels in place without re-classification.
 * Returns false when `engine` did not lower the plan, the structure
 * differs, or a fused product crossed the identity boundary; the caller
 * must then re-plan before executing it.
 */
bool rebindPlanCircuit(ExecutionPlan& plan, const Circuit& circuit,
                       PlanEngine engine);

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

/**
 * Rebinds a state-vector plan (see rebindPlanCircuit) and refreshes its
 * kernels; false when a new value leaves a stored kernel class, and the
 * plan may then be partially refreshed.
 */
bool tryRebindPlan(ExecutionPlan& plan, const Circuit& circuit);

} // namespace qkc

#endif // QKC_EXEC_EXECUTION_PLAN_H
