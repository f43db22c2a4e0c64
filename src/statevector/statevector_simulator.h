#ifndef QKC_STATEVECTOR_STATEVECTOR_SIMULATOR_H
#define QKC_STATEVECTOR_STATEVECTOR_SIMULATOR_H

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "exec/execution_plan.h"
#include "exec/thread_pool.h"
#include "statevector/state_vector.h"
#include "util/rng.h"

namespace qkc {

/**
 * The planned-level state-vector engine — our stand-in for Google's qsim
 * baseline (paper Section 4.1). Circuit-level callers open a session
 * (makeBackend("sv")->open(circuit), vqa/simulator_api.h), which plans the
 * circuit once with planCircuit and runs every task through this class.
 *
 * An execution plan (greedy gate fusion + per-gate kernel classification)
 * drives amplitude sweeps on the shared thread pool per the engine's
 * ExecPolicy. Ideal plans run exactly: the full 2^n wavefunction is
 * produced and outcomes are drawn from |psi|^2 by sampleFromDistribution.
 *
 * Noisy plans use Monte-Carlo trajectories: each trajectory picks one
 * Kraus operator per channel with the Born probability — computed by a
 * read-only norm kernel, no state copies — and folds the 1/sqrt(w)
 * renormalization into the selected operator's application. Trajectories
 * are independent, so sampleNoisyPlanned fans them out over worker lanes
 * on per-trajectory RNG streams seeded from the caller's generator;
 * results land in trajectory order, making the output independent of the
 * thread count.
 */
class StateVectorSimulator {
  public:
    StateVectorSimulator() = default;
    explicit StateVectorSimulator(const ExecPolicy& policy) : policy_(policy) {}

    const ExecPolicy& execPolicy() const { return policy_; }
    void setExecPolicy(const ExecPolicy& policy) { policy_ = policy; }

    /**
     * Runs a pre-built ideal plan (no channels). Backend sessions plan a
     * circuit structure once and re-execute it across parameter binds.
     * Throws std::invalid_argument for a plan planCircuit did not build.
     */
    StateVector simulatePlanned(const ExecutionPlan& plan) const;

    /**
     * Draws one outcome per noisy trajectory (the qsim-style noisy sampling
     * cost model: every sample pays a full re-simulation). Gates apply
     * exactly; every channel chooses a Kraus operator k with probability
     * ||E_k psi||^2, applies it, and renormalizes. Trajectories run in
     * parallel when the policy allows; the sample vector is identical for
     * every thread count.
     */
    std::vector<std::uint64_t> sampleNoisyPlanned(const ExecutionPlan& plan,
                                                  std::size_t numSamples,
                                                  Rng& rng) const;

    /**
     * Exact outcome distribution of a noisy circuit by enumerating every
     * combination of Kraus choices. Exponential in the channel count; meant
     * for validation at small sizes.
     */
    std::vector<double> noisyDistributionExhaustive(const Circuit& circuit) const;

    /** Draws outcomes from an explicit probability vector (ideal sampling). */
    static std::vector<std::uint64_t> sampleFromDistribution(
        const std::vector<double>& probs, std::size_t numSamples, Rng& rng);

  private:
    /** One trajectory over a pre-built plan (state policy already set). */
    StateVector runTrajectory(const ExecutionPlan& plan, Rng& rng,
                              const ExecPolicy& statePolicy) const;

    ExecPolicy policy_;
};

} // namespace qkc

#endif // QKC_STATEVECTOR_STATEVECTOR_SIMULATOR_H
