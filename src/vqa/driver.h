#ifndef QKC_VQA_DRIVER_H
#define QKC_VQA_DRIVER_H

#include <functional>

#include "vqa/backends.h"
#include "vqa/nelder_mead.h"
#include "vqa/workloads.h"

namespace qkc {

/** Builds the circuit for one parameter vector (ansatz closure). */
using CircuitBuilder = std::function<Circuit(const std::vector<double>&)>;

/** Outcome of one batched gradient evaluation (parameterShiftGradient). */
struct GradientResult {
    std::vector<double> gradient;  ///< d<H>/dparam_i
    double value = 0.0;            ///< <H> at the unshifted point
    std::size_t batchSize = 0;     ///< bindings evaluated: 2*numParams + 1
    double seconds = 0.0;          ///< wall time of the single runBatch call
};

/**
 * Gradient of <H> by the two-point shift rule, evaluated as ONE
 * Session::runBatch of 2*numParams + 1 bindings (the unshifted point plus
 * a +/- shift per parameter) fanned across the thread pool:
 *
 *   grad_i = (E(p + s e_i) - E(p - s e_i)) / (2 sin s)
 *
 * With the default s = pi/2 this is the parameter-shift rule — *exact* (up
 * to the backend's own estimator noise) whenever parameter i feeds a single
 * gate of the form exp(-i theta G / 2) with G^2 = I (Rx/Ry/Rz and their
 * controlled/two-qubit forms), because <H>(theta) is then a frequency-1
 * sinusoid. For parameters reused across several gates (a QAOA gamma
 * multiplying every edge) pass a small s instead: 2 sin s -> 2s turns the
 * same batch into a central finite difference.
 *
 * `shots` only feeds the Expectation sampling fallback; exact backends
 * ignore it. Results are bit-identical for every thread count (runBatch's
 * determinism discipline).
 */
GradientResult parameterShiftGradient(Session& session,
                                      const CircuitBuilder& makeCircuit,
                                      const PauliSum& observable,
                                      const std::vector<double>& params,
                                      Rng& rng,
                                      double shift = 1.5707963267948966,
                                      std::size_t shots = 4096);

/** Configuration of one hybrid quantum-classical run. */
struct VqaOptions {
    std::size_t samplesPerEvaluation = 256;
    NelderMeadOptions optimizer{.maxIterations = 40, .initialStep = 0.4};
    std::uint64_t seed = 1;
    /** Optional noise inserted after every gate (paper Figure 9 setup). */
    bool noisy = false;
    NoiseKind noiseKind = NoiseKind::Depolarizing;
    double noiseStrength = 0.005;
    /**
     * Score evaluations with the Expectation task on the workload's Pauli
     * observable instead of shot estimates. Backends that serve it natively
     * (sv/dm/kc/dd on these diagonal objectives) then optimize the exact
     * value — no shot noise in the objective; samplesPerEvaluation only
     * feeds the sampling fallback.
     */
    bool exactExpectation = false;
    /**
     * When > 1, score this many random starting points in one
     * Session::runBatch (fanned across the thread pool) and hand the best
     * one to Nelder-Mead as its initial vertex — the batched simplex-seeding
     * sweep. 0 or 1 keeps the single deterministic start.
     */
    std::size_t batchedStarts = 0;
};

/** Outcome of a hybrid run. */
struct VqaResult {
    std::vector<double> bestParams;
    double bestObjective = 0.0;     ///< minimized objective
    std::size_t circuitEvaluations = 0;
    /**
     * Total wall time inside the backend: per-task seconds from the Result
     * metadata plus the open/bind work (plan or compile on the first
     * evaluation, a bind on every later one).
     */
    double sampleSeconds = 0.0;
    /**
     * Session reuse metadata after the run: a backend with full variational
     * reuse (kc, tn, dd) shows planBuilds == 1 and planReuses ==
     * circuitEvaluations - 1 (one structure compilation, every later
     * evaluation rebinds parameters) — the paper's Section 3.2 property.
     * sv and dm plan every evaluation afresh: planBuilds ==
     * circuitEvaluations, planReuses == 0.
     */
    std::size_t planBuilds = 0;
    std::size_t planReuses = 0;
};

/**
 * Full hybrid loop for QAOA Max-Cut: Nelder-Mead proposes (gamma, beta)
 * vectors, one backend session (opened on the first evaluation, rebound on
 * every later one) serves the shots or exact expectation, and the mean cut
 * (negated) feeds back as the objective (paper Section 2.3). Returns the
 * best parameters found; bestObjective is -E[cut].
 */
VqaResult runQaoaMaxCut(const QaoaMaxCut& problem, const Backend& backend,
                        const VqaOptions& options);

/** Same loop for the VQE Ising workload; objective is E[energy]. */
VqaResult runVqeIsing(const VqeIsing& problem, const Backend& backend,
                      const VqaOptions& options);

} // namespace qkc

#endif // QKC_VQA_DRIVER_H
