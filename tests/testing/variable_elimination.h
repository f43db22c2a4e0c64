#ifndef QKC_TESTS_TESTING_VARIABLE_ELIMINATION_H
#define QKC_TESTS_TESTING_VARIABLE_ELIMINATION_H

#include <cstdint>
#include <vector>

#include "bayesnet/bayes_net.h"
#include "linalg/types.h"

namespace qkc::testing {

/**
 * Exact inference on complex-valued quantum Bayesian networks via variable
 * elimination. The paper used this classical algorithm to establish that
 * complex-valued BN inference performs correct circuit simulation before
 * switching to knowledge compilation (Section 3.2); here it serves as the
 * independent reference the compiled pipeline is tested against.
 */
class VariableElimination {
  public:
    explicit VariableElimination(const QuantumBayesNet& bn) : bn_(&bn) {}

    /**
     * Amplitude of one Feynman-path family: all query variables (final
     * qubit states + noise RVs) fixed to `queryAssignment` (indexed as
     * bn.queryVars()), every other variable summed out.
     */
    Complex amplitude(const std::vector<std::size_t>& queryAssignment) const;

    /**
     * Full joint amplitude table over the query variables, indexed in mixed
     * radix over bn.queryVars() (last variable fastest). Exponential in the
     * number of query variables; for validation at small sizes.
     */
    std::vector<Complex> queryAmplitudes() const;

    /**
     * Measurement distribution over final qubit states:
     * P(x) = sum_nu |A(x, nu)|^2 over noise assignments nu.
     */
    std::vector<double> outcomeDistribution() const;

  private:
    const QuantumBayesNet* bn_;
};

} // namespace qkc::testing

#endif // QKC_TESTS_TESTING_VARIABLE_ELIMINATION_H
