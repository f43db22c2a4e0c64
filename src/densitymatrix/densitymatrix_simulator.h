#ifndef QKC_DENSITYMATRIX_DENSITYMATRIX_SIMULATOR_H
#define QKC_DENSITYMATRIX_DENSITYMATRIX_SIMULATOR_H

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "densitymatrix/density_matrix.h"
#include "exec/execution_plan.h"
#include "exec/thread_pool.h"
#include "util/rng.h"

namespace qkc {

/**
 * Builds the density-matrix plan for `circuit` under `policy`: the shared
 * dense plan (exec/execution_plan.h) lowered by DensityMatrix::compileRun.
 * Each wire's maximal run of one-qubit gates and channels becomes one
 * planned op, placed just before the multi-qubit op that ends it (runs
 * open at the circuit's end follow in wire order); every multi-qubit op is
 * its own. Executing the plan sweeps rho once per run (twice for a
 * permutation run), twice per multi-qubit gate and once per multi-qubit
 * channel, in place. Without fusion every op is its own run. A session
 * holds one plan per circuit structure and refreshes it across parameter
 * rebinds, so its planReuses metadata corresponds to classification work
 * actually saved.
 */
DmExecutionPlan planCircuitDm(const Circuit& circuit, const ExecPolicy& policy);

/** The dm counterpart of exec's benchmark forwarder: the two-argument plan. */
DmExecutionPlan planCircuitDm(const Circuit& circuit, const ExecPolicy& policy,
                              const PathOptions& pathOptions);

/**
 * Rebinds a dm plan to a same-structure circuit (rebindPlanCircuit,
 * exec/execution_plan.h), then recomputes each run's product and refreshes
 * its kernels in place (DensityMatrix::tryRefreshRun). False when the
 * structure differs or a new value leaves a stored kernel class; the
 * caller must then re-plan.
 */
bool tryRebindDmPlan(DmExecutionPlan& plan, const Circuit& circuit);

/**
 * The planned-level density-matrix engine — the stand-in for the Cirq
 * density-matrix baseline in the paper's noisy-circuit evaluation
 * (Figure 9). Handles arbitrary mixtures and channels exactly.
 * Circuit-level callers open a session (makeBackend("dm")->open(circuit),
 * vqa/simulator_api.h), which plans the circuit once with planCircuitDm
 * and evolves rho through this class.
 *
 * Gate fusion and the shared-thread-pool kernels apply here exactly as in
 * the state-vector engine: the ExecPolicy is forwarded to DensityMatrix,
 * whose superoperator sweeps run on the flattened 2n-bit index space.
 */
class DensityMatrixSimulator {
  public:
    DensityMatrixSimulator() = default;
    explicit DensityMatrixSimulator(const ExecPolicy& policy)
        : policy_(policy)
    {
    }

    const ExecPolicy& execPolicy() const { return policy_; }
    void setExecPolicy(const ExecPolicy& policy) { policy_ = policy; }

    /**
     * Evolves |0..0><0..0| through a pre-built plan. Backend sessions plan
     * a circuit structure once and re-execute it across parameter binds
     * without re-paying fusion or kernel classification. Throws
     * std::invalid_argument for a plan planCircuitDm did not build.
     */
    DensityMatrix simulatePlanned(const DmExecutionPlan& plan) const;

    /**
     * The same evolution into a caller-held matrix of plan.numQubits
     * qubits, reset first: a session re-running its plan per binding
     * reuses one 16·4^n buffer instead of allocating one per run.
     */
    void simulatePlanned(const DmExecutionPlan& plan, DensityMatrix& rho) const;

  private:
    ExecPolicy policy_;
};

} // namespace qkc

#endif // QKC_DENSITYMATRIX_DENSITYMATRIX_SIMULATOR_H
