#ifndef QKC_TENSORNET_TENSORNET_SIMULATOR_H
#define QKC_TENSORNET_TENSORNET_SIMULATOR_H

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "tensornet/tensor.h"
#include "util/rng.h"

namespace qkc {

/**
 * Tensor-network contraction for ideal circuits — the stand-in for the
 * qTorch baseline (paper Section 4.1). Circuit-level callers open a
 * session (makeBackend("tn")->open(circuit), vqa/simulator_api.h); this
 * class builds a circuit's network (initial-state vectors, gate tensors,
 * measurement vectors) and contracts single amplitudes pairwise with a
 * greedy minimum-result-size order. Sampling and marginals contract the
 * DOUBLED (ket + conjugate bra) network through TnSampler — one
 * contraction per qubit per sample, which is the per-sample cost profile
 * Figure 8 measures against knowledge compilation.
 */
class TensorNetworkSimulator {
  public:
    /** Amplitude <bitstring| C |0...0>. Throws on noisy circuits. */
    Complex amplitude(const Circuit& circuit, std::uint64_t bitstring) const;

    struct Network {
        std::vector<Tensor> tensors;
        std::vector<int> outputEdges;  ///< per qubit
        int nextEdge = 0;
    };

    /** Builds the single-layer (ket) network; conjugated if `conj`. */
    static Network buildNetwork(const Circuit& circuit, bool conj);

  private:
    /** Greedy pairwise contraction to a scalar. */
    static Complex contractToScalar(std::vector<Tensor> tensors);
};

/**
 * Reusable tensor-network sampler: contraction plans for every prefix
 * length are computed once at construction (structural, value-independent)
 * and replayed per sample, so drawing many samples only pays contraction
 * arithmetic — the qTorch-style sampling loop used by the Figure 8 bench.
 */
class TnSampler {
  public:
    explicit TnSampler(const Circuit& circuit);

    /**
     * Refreshes every tensor's values from a circuit with the *same
     * structure* (gate kinds and wires; parameters may differ) while
     * keeping the precomputed contraction plans — the variational fast
     * path: a parameter sweep re-pays only contraction arithmetic, never
     * contraction planning. Throws std::invalid_argument on a structure
     * mismatch.
     */
    void rebind(const Circuit& circuit);

    /** P(first prefixLen qubits measure the low bits of prefixBits). */
    double prefixProbability(std::uint64_t prefixBits, std::size_t prefixLen);

    /** Draws measurement outcomes bit-by-bit from conditional marginals. */
    std::vector<std::uint64_t> sample(std::size_t numSamples, Rng& rng);

    /** Greedy structural contraction order over `tensors`. */
    static std::vector<std::pair<std::size_t, std::size_t>> planContraction(
        const std::vector<Tensor>& tensors);

    /** Replays a contraction plan on concrete tensor values. */
    static Complex executePlan(
        std::vector<Tensor> tensors,
        const std::vector<std::pair<std::size_t, std::size_t>>& plan);

    /**
     * A reusable doubled-network (ket x bra) marginal query over a qubit
     * subset: the tensors, one projector pair per selected qubit, and a
     * contraction plan replayed per assignment. The per-prefix sampling
     * plans and the Probabilities task's arbitrary-subset marginals are
     * both instances of this.
     */
    struct MarginalPlan {
        std::vector<Tensor> tensors;
        /** Per selected qubit: (ket projector index, bra projector index). */
        std::vector<std::pair<std::size_t, std::size_t>> projectors;
        std::vector<std::pair<std::size_t, std::size_t>> plan;
    };

    /**
     * Builds the doubled network for a marginal over `qubits` (the given
     * order defines the output index, qubits[0] = MSB): unselected output
     * edges are identified (traced out), selected qubits get projector
     * placeholders. `plan` is left empty — fill it with planContraction to
     * make the result reusable across assignments. Throws on out-of-range
     * or repeated qubits and on noisy circuits.
     */
    static MarginalPlan buildMarginalTensors(
        const Circuit& circuit, const std::vector<std::size_t>& qubits);

    /** P(selected qubits read the bits of `assignment`), plan filled in. */
    static double marginalProbability(const MarginalPlan& mp,
                                      std::uint64_t assignment);

  private:
    std::size_t numQubits_;
    std::vector<MarginalPlan> plans_; ///< per prefix length 1..n
};

} // namespace qkc

#endif // QKC_TENSORNET_TENSORNET_SIMULATOR_H
