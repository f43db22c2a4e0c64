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
 * first-applied first: a diagonal run (see preparePlan) lists its gates
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
 * engine's kernels. A plan is built for one binding; a new binding is
 * planned afresh (sessions re-plan on every bind).
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
 * Trajectory sampling re-executes the plan without touching a Matrix
 * again.
 */
struct ExecutionPlan {
    PlanEngine engine = PlanEngine::StateVector;
    std::size_t numQubits = 0;
    Circuit circuit{1};       ///< the (possibly fused) circuit kernels map to
    std::vector<PlannedOp> ops;
    FusionStats fusion;       ///< zeros when fusion was disabled
    bool fusionEnabled = false;
};

/** A plan lowered by the density-matrix engine (see planCircuitDm). */
using DmExecutionPlan = ExecutionPlan;

/**
 * The engine-independent half of planning: an `engine` plan whose circuit
 * is `circuit` fused under `policy` (when it asks for fusion), with no op
 * lowered yet. `units` receives plan.circuit's ops grouped as the engines
 * lower them, in order: each diagonal run (fuseGates' runs) is one unit,
 * and every other op is a unit of its own. Thread settings are not
 * consulted here — they matter at apply time.
 */
ExecutionPlan preparePlan(const Circuit& circuit, const ExecPolicy& policy,
                          PlanEngine engine, std::vector<OpSpan>& units);

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
 * nothing. It goes with the benchmark's next revision, as do the rebind
 * shims (tryRebindPlan, tryRebindDmPlan).
 */
struct PathOptions {};

/** Forwarder for the benchmark's calls: the two-argument plan. */
ExecutionPlan planCircuit(const Circuit& circuit, const ExecPolicy& policy,
                          const PathOptions& pathOptions);

/**
 * True when `a` and `b` share a circuit *structure*: same qubit count and
 * op sequence (gate kinds, operand wires, channel shapes); gate parameters,
 * custom-gate entries and Kraus values are free to differ. An open backend
 * session reuses its per-structure state (kc, tn, dd) only across binds
 * that keep the structure.
 */
bool sameStructure(const Circuit& a, const Circuit& b);

/**
 * A 64-bit digest of exactly the fields sameStructure compares: qubit
 * count, op sequence, gate kinds and wires, channel wires and Kraus
 * counts. sameStructure(a, b) implies structureHash(a) == structureHash(b),
 * so the hash can key a session cache (the server's LRU) without consulting
 * circuit contents; colliding structures are still correct, since
 * Session::bind compares the structures itself.
 */
std::uint64_t structureHash(const Circuit& circuit);

/**
 * Shim kept only for the repository benchmark (vqabench/), like
 * PathOptions: plans `circuit` afresh into `plan`, fused when `plan` was,
 * and returns true.
 */
bool tryRebindPlan(ExecutionPlan& plan, const Circuit& circuit);

} // namespace qkc

#endif // QKC_EXEC_EXECUTION_PLAN_H
