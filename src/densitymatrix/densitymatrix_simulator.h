#ifndef QKC_DENSITYMATRIX_DENSITYMATRIX_SIMULATOR_H
#define QKC_DENSITYMATRIX_DENSITYMATRIX_SIMULATOR_H

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/fusion.h"
#include "densitymatrix/density_matrix.h"
#include "exec/execution_plan.h"
#include "exec/thread_pool.h"
#include "util/rng.h"

namespace qkc {

/**
 * One circuit operation lowered for superoperator execution: a left/right
 * kernel pair for a gate, or one Liouville-superoperator kernel for a
 * channel. `opIndex` refers into the owning plan's (possibly fused) circuit.
 */
struct DmPlannedOp {
    std::size_t opIndex = 0;
    bool isChannel = false;
    DensityMatrix::SuperKernel gate; ///< valid when !isChannel
    GateKernel channel;              ///< valid when isChannel
};

/**
 * A circuit prepared for repeated density-matrix execution — the dm
 * counterpart of exec's ExecutionPlan: fusion has run (if the policy asks
 * for it), every gate has been classified into its left/right kernel pair
 * and every channel compiled into its superoperator kernel exactly once.
 * Executing it sweeps rho once per channel and twice per gate, in place. A
 * session holds one of these per circuit structure and refreshes it across
 * parameter rebinds, so its planReuses metadata corresponds to
 * classification work actually saved.
 */
struct DmExecutionPlan {
    std::size_t numQubits = 0;
    Circuit circuit{1};       ///< the (possibly fused) circuit kernels map to
    std::vector<DmPlannedOp> ops;
    FusionStats fusion;       ///< zeros when fusion was disabled
    bool fusionEnabled = false;
    FusionRecipe recipe;      ///< valid when fusionEnabled
};

/** Builds the superoperator plan for `circuit` under `policy`. */
DmExecutionPlan planCircuitDm(const Circuit& circuit, const ExecPolicy& policy);

/** The dm counterpart of exec's benchmark forwarder: the two-argument plan. */
DmExecutionPlan planCircuitDm(const Circuit& circuit, const ExecPolicy& policy,
                              const PathOptions& pathOptions);

/**
 * Rebinds `plan` to a same-structure circuit (the variational fast path):
 * replays the recorded fusion recipe on the new gate values and refreshes
 * every gate pair and channel kernel in place — no greedy fusion pass, no
 * re-classification. Returns false when the structure differs, a fused
 * product crossed the identity boundary, or a parameter or channel-strength
 * change invalidated a stored kernel class; the plan may then be partially
 * refreshed and the caller must re-plan before executing it.
 */
bool tryRebindDmPlan(DmExecutionPlan& plan, const Circuit& circuit);

/**
 * Density matrix circuit simulator — the stand-in for the Cirq
 * density-matrix baseline in the paper's noisy-circuit evaluation
 * (Figure 9). Handles arbitrary mixtures and channels exactly.
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

    /** Evolves |0..0><0..0| through all gates and channels. */
    DensityMatrix simulate(const Circuit& circuit) const;

    /**
     * Evolves |0..0><0..0| through a pre-built plan. Backend sessions plan
     * a circuit structure once and re-execute it across parameter binds
     * without re-paying fusion or kernel classification.
     */
    DensityMatrix simulatePlanned(const DmExecutionPlan& plan) const;

    /**
     * The same evolution into a caller-held matrix of plan.numQubits
     * qubits, reset first: a session re-running its plan per binding
     * reuses one 16·4^n buffer instead of allocating one per run.
     */
    void simulatePlanned(const DmExecutionPlan& plan, DensityMatrix& rho) const;

    /** Exact outcome distribution: diagonal of the final density matrix. */
    std::vector<double> distribution(const Circuit& circuit) const;

    /**
     * Draws measurement outcomes. The density matrix is computed once and
     * outcomes are drawn from its diagonal.
     */
    std::vector<std::uint64_t> sample(const Circuit& circuit,
                                      std::size_t numSamples, Rng& rng) const;

  private:
    ExecPolicy policy_;
};

} // namespace qkc

#endif // QKC_DENSITYMATRIX_DENSITYMATRIX_SIMULATOR_H
