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
 * (makeBackend("sv")->open(circuit), vqa/simulator_api.h), which plans
 * each binding with planCircuit and runs every task through this class.
 *
 * An execution plan (greedy gate fusion + per-gate kernel classification)
 * drives amplitude sweeps on the shared thread pool per the engine's
 * ExecPolicy. Ideal plans run exactly: the full 2^n wavefunction is
 * produced, into a caller's state when one is passed (a session keeps one
 * buffer across binds), and sampleFromState draws outcomes from |psi|^2
 * straight off the amplitudes: one pass of fixed-size chunk sums, then one
 * scan of each chunk that holds a draw. No 2^n probability or CDF vector
 * is built.
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
     * Runs a pre-built ideal plan (no channels). Throws
     * std::invalid_argument for a plan planCircuit did not build.
     */
    StateVector simulatePlanned(const ExecutionPlan& plan) const;

    /**
     * Runs the plan into `state`: resets it in place to |0...0>, or
     * reallocates it when its qubit count differs from the plan's. The
     * state takes the engine's ExecPolicy. Amplitudes are bit-identical
     * to the returning form's.
     */
    void simulatePlanned(const ExecutionPlan& plan, StateVector& state) const;

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
     * Draws outcomes x with probability |amp_x|^2 / norm, reading the
     * amplitudes in place. One rng.uniform() per shot, in shot order; the
     * draws are resolved in sorted order against fixed-size chunk sums
     * (kSampleChunk entries, whatever the thread count), so each chunk
     * that holds a draw is scanned once. Never returns an outcome of zero
     * weight. Samples are identical for every thread count.
     */
    static std::vector<std::uint64_t> sampleFromState(const StateVector& state,
                                                      std::size_t numSamples,
                                                      Rng& rng);

    /** The same sampler over an explicit probability vector. */
    static std::vector<std::uint64_t> sampleFromDistribution(
        const std::vector<double>& probs, std::size_t numSamples, Rng& rng);

    /** Entries per chunk sum of the samplers. */
    static constexpr std::uint64_t kSampleChunk = std::uint64_t{1} << 8;

  private:
    /** Applies an ideal plan's kernels to a state at |0...0>. */
    void runIdeal(const ExecutionPlan& plan, StateVector& state) const;

    /** One trajectory over a pre-built plan, run in `sv` from |0...0>. */
    void runTrajectory(const ExecutionPlan& plan, Rng& rng,
                       StateVector& sv) const;

    ExecPolicy policy_;
};

} // namespace qkc

#endif // QKC_STATEVECTOR_STATEVECTOR_SIMULATOR_H
