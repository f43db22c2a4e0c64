#ifndef QKC_AC_GIBBS_SAMPLER_H
#define QKC_AC_GIBBS_SAMPLER_H

#include <cstdint>
#include <vector>

#include "ac/evaluator.h"
#include "bayesnet/bayes_net.h"
#include "util/rng.h"

namespace qkc {

/** Knobs for the MCMC wavefunction sampler (paper Section 3.3.2). */
struct GibbsOptions {
    /** Sweeps discarded before the first recorded sample. */
    std::size_t burnIn = 64;
    /** Sweeps between recorded samples (1 = record every sweep). */
    std::size_t thin = 1;
};

/**
 * Gibbs sampler over the compiled arithmetic circuit: draws joint
 * assignments of (final qubit states, noise random variables) with
 * probability proportional to |amplitude|^2, using the downward
 * (differential) pass to obtain every single-variable full conditional in
 * one linear traversal (paper Section 3.3.2). Discarding the noise
 * variables marginalizes them, which yields measurement outcomes with the
 * density-matrix distribution.
 */
class GibbsSampler {
  public:
    GibbsSampler(const QuantumBayesNet& bn, AcEvaluator& eval,
                 GibbsOptions options = {});

    /**
     * Initializes the chain at a nonzero-amplitude assignment: random
     * restarts first, then a sequential conditional construction.
     * Returns false if no support was found (the evaluator is left free).
     */
    bool init(Rng& rng);

    /** One Gibbs sweep: resamples every query variable once, in order. */
    void sweep(Rng& rng);

    /**
     * One Metropolis-Hastings independence move: proposes a fresh state by
     * sampling each variable from its |amplitude|^2 conditional given the
     * earlier choices (later variables summed out) and accepts with the MH
     * ratio. Returns true if the proposal was accepted.
     */
    bool independenceMove(Rng& rng);

    /** Current assignment of the query variables (bn.queryVars() order). */
    const std::vector<int>& state() const { return state_; }

    /** Current measurement outcome: the final qubit bits as a basis index. */
    std::uint64_t outcome() const;

    /**
     * Runs the full chain: init, burn-in, then records `numSamples`
     * measurement outcomes (one per `thin` sweeps). Every sweep is followed
     * by one independence move: single-site Gibbs alone is not irreducible
     * on GHZ/Bell-like wavefunctions whose support states differ in several
     * bits with zero-amplitude states in between, and the move restores
     * irreducibility while preserving the |amplitude|^2 target exactly.
     * Throws if no support is found during initialization.
     */
    std::vector<std::uint64_t> run(std::size_t numSamples, Rng& rng);

  private:
    void applyState();

    /**
     * Sequential-conditional construction: fills `out` one variable at a
     * time, drawing value k of variable i with probability proportional to
     * |f(out_{<i}, k, rest free)|^2. On success returns true and stores the
     * proposal's log-density in `logDensity`. When `evaluateOnly` is set,
     * `out` is treated as fixed and only its log-density is computed.
     */
    bool sequentialConditional(Rng& rng, std::vector<int>& out,
                               double& logDensity, bool evaluateOnly);

    const QuantumBayesNet* bn_;
    AcEvaluator* eval_;
    GibbsOptions options_;
    std::vector<BnVarId> queryVars_;
    std::vector<std::size_t> cards_;
    std::vector<int> state_;
};

} // namespace qkc

#endif // QKC_AC_GIBBS_SAMPLER_H
