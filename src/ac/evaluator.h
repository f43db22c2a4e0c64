#ifndef QKC_AC_EVALUATOR_H
#define QKC_AC_EVALUATOR_H

#include <vector>

#include "ac/arithmetic_circuit.h"

namespace qkc {

/**
 * Evaluates a compiled arithmetic circuit: the upward pass computes the
 * weighted model count (a probability amplitude) for the current evidence
 * and parameters; the downward pass computes, in one linear sweep, the
 * amplitude the circuit would take if any single query-variable indicator
 * were switched — Darwiche's differential approach (paper Sections 3.3.1
 * and 3.3.2).
 *
 * The evaluator memoizes node values: parameter or evidence updates mark
 * only the affected leaves' ancestor cones dirty, so repeated queries with
 * small changes (variational parameter sweeps, Gibbs single-flips) cost far
 * less than a full traversal.
 */
class AcEvaluator {
  public:
    /**
     * Binds the evaluator to a circuit and a query-variable universe.
     * `varCardinality[v]` is the cardinality of BN variable v (only query
     * variables matter; others may be 0).
     */
    AcEvaluator(const ArithmeticCircuit& ac,
                std::vector<std::size_t> varCardinality,
                std::vector<Complex> params);

    /** Replaces all parameter weights (variational iteration). */
    void setParams(std::vector<Complex> params);

    /** Sets evidence var = value; pass kFree to sum the variable out. */
    void setEvidence(BnVarId var, int value);

    /** Frees every variable. */
    void clearEvidence();

    int evidence(BnVarId var) const { return evidence_[var]; }

    static constexpr int kFree = -1;

    /** Upward pass: amplitude under current evidence (memoized). */
    Complex evaluate();

    /**
     * Downward pass (call after evaluate()): populates the per-indicator
     * partial derivatives. Always a full linear sweep.
     */
    void computeDerivatives();

    /**
     * d(root)/d(lambda_{var=value}) from the last computeDerivatives():
     * the amplitude the circuit takes when `var` is switched to `value`
     * and all other evidence stays put.
     */
    Complex derivative(BnVarId var, std::uint32_t value) const;

    /**
     * d(root)/d(weight of `paramId`) from the last computeDerivatives():
     * the sensitivity of the queried amplitude to one table entry (every
     * Feynman path uses a given entry at most once, so the circuit is
     * multilinear in the weights and this is an exact partial derivative).
     */
    Complex paramDerivative(std::int32_t paramId) const;

    /** Number of node recomputations performed by the last evaluate(). */
    std::size_t lastRecomputeCount() const { return lastRecompute_; }

  private:
    void markDirty(AcNodeId leaf);
    Complex leafValue(const AcNode& n) const;

    const ArithmeticCircuit* ac_;
    std::vector<std::size_t> cards_;
    std::vector<Complex> params_;
    std::vector<int> evidence_;

    std::vector<Complex> value_;
    std::vector<bool> dirty_;
    bool anyDirty_ = true;
    std::size_t lastRecompute_ = 0;

    /** Parent adjacency (built once) for dirty propagation. */
    std::vector<std::uint32_t> parentEdges_;
    std::vector<std::uint32_t> parentBegin_;

    static constexpr AcNodeId kNoLeaf = UINT32_MAX;

    /** indicatorLeaf_[var][value] = leaf node id (kNoLeaf if absent). */
    std::vector<std::vector<AcNodeId>> indicatorLeaf_;
    /** paramLeaf_[paramId] = leaf node id (kNoLeaf if absent). */
    std::vector<AcNodeId> paramLeaf_;

    std::vector<Complex> derivative_;
    /** Suffix sibling products of one Mul node (sized to the max arity). */
    std::vector<Complex> siblingScratch_;
};

} // namespace qkc

#endif // QKC_AC_EVALUATOR_H
