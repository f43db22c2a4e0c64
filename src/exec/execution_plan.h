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
 * first-applied first: a diagonal run (see loweringUnits) lists its gates
 * and sweeps as one DiagRun kernel on either engine; any other
 * state-vector op lists exactly one; a density-matrix wire run
 * (densitymatrix_simulator.h) lists every one-qubit gate and channel it
 * merges.
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
 * policy asks for it) and every gate and channel has been lowered to its
 * engine's kernels. A rebind (rebindPlanCircuit) replays the fusion recipe
 * and lowers every op again, so a rebound plan's ops equal a fresh plan's.
 *
 *  - State vector: a gate is one kernel; a diagonal run of gates is one
 *    DiagRun kernel; a channel is one kernel per Kraus operator, and a
 *    trajectory picks one. Qubit q lives at bit numQubits-1-q, matching
 *    the StateVector basis-index layout.
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
    /** The circuit the plan was built from. A rebind checks its circuit's
     *  structure against this and keeps it, so only its structure is
     *  current. */
    Circuit source{1};
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
 * structure (the variational fast path): checks sameStructure against
 * plan.source, then replays the recorded fusion recipe on the new gate
 * values into plan.circuit — no greedy fusion pass. The engine then
 * lowers every planned op again from its source ops, as planning does.
 * Returns false, with the plan unchanged, when `engine` did not lower the
 * plan, the structure differs, or a fused product crossed the identity
 * boundary; the caller must then re-plan.
 */
bool rebindPlanCircuit(ExecutionPlan& plan, const Circuit& circuit,
                       PlanEngine engine);

/**
 * plan.circuit's ops grouped as the engines lower them, in order: the
 * gates of each diagonal run (a FusionRecipe DiagonalRun group) form one
 * unit, and every other op is a unit of its own. Without fusion every op
 * is its own unit.
 */
std::vector<std::vector<std::size_t>> loweringUnits(const ExecutionPlan& plan);

/**
 * A diagonal gate (Gate::isDiagonal) as one DiagRun factor on `bits`
 * (local MSB first). Throws std::invalid_argument for any other gate.
 */
DiagFactor diagFactorOf(const Gate& gate,
                        const std::vector<std::uint32_t>& bits);

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
 * Rebinds a state-vector plan (see rebindPlanCircuit) and lowers its ops
 * again as planCircuit does, so on success its ops equal those of a fresh
 * planCircuit of `circuit` under the same policy, kernel for kernel.
 * False, with the plan unchanged, when rebindPlanCircuit refuses.
 */
bool tryRebindPlan(ExecutionPlan& plan, const Circuit& circuit);

} // namespace qkc

#endif // QKC_EXEC_EXECUTION_PLAN_H
