#ifndef QKC_TESTS_TESTING_FACTOR_H
#define QKC_TESTS_TESTING_FACTOR_H

#include <vector>

#include "bayesnet/bayes_net.h"
#include "linalg/types.h"

namespace qkc::testing {

/**
 * A dense complex-valued factor over a set of Bayesian-network variables,
 * used by the variable-elimination reference engine (the exact-inference
 * algorithm the paper's authors used to first validate complex-valued BNs,
 * Section 3.2).
 *
 * Values are stored in mixed radix over `vars` with the last variable
 * fastest-varying — the same convention as BnPotential.
 */
class Factor {
  public:
    /** A scalar factor (empty scope). */
    explicit Factor(Complex scalar = 1.0);

    /** A factor over `vars` with all values zero. */
    Factor(std::vector<BnVarId> vars, std::vector<std::size_t> cards);

    /** Materializes a potential's table using the network's param values. */
    static Factor fromPotential(const QuantumBayesNet& bn,
                                const BnPotential& pot);

    const std::vector<BnVarId>& vars() const { return vars_; }
    const std::vector<std::size_t>& cards() const { return cards_; }
    std::size_t tableSize() const { return values_.size(); }

    Complex& at(std::size_t flatIndex) { return values_[flatIndex]; }
    const Complex& at(std::size_t flatIndex) const { return values_[flatIndex]; }

    /** Value for a full assignment of this factor's scope. */
    const Complex& value(const std::vector<std::size_t>& assignment) const;

    /** Factor product: scope = union of scopes, entries multiply. */
    Factor multiply(const Factor& other) const;

    /** Sums a variable out of the scope. */
    Factor sumOut(BnVarId var) const;

    /** Restricts a variable to a fixed value (drops it from the scope). */
    Factor condition(BnVarId var, std::size_t value) const;

    /** The scalar of an empty-scope factor. */
    Complex scalar() const;

  private:
    std::size_t indexOf(BnVarId var) const;

    std::vector<BnVarId> vars_;
    std::vector<std::size_t> cards_;
    std::vector<Complex> values_;
};

} // namespace qkc::testing

#endif // QKC_TESTS_TESTING_FACTOR_H
