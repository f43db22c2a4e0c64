#ifndef QKC_CNF_CNF_H
#define QKC_CNF_CNF_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "bayesnet/bayes_net.h"

namespace qkc {

/** What a CNF Boolean variable stands for. */
enum class CnfVarKind : std::uint8_t {
    /**
     * Qubit-state indicator for a binary BN variable: the positive literal
     * means value 1 (|1>), the negative literal value 0 (|0>) — the paper's
     * "q0m0 = |0> XOR q0m0 = |1>" pair collapsed onto one Boolean.
     */
    BinaryIndicator,
    /**
     * One member of a one-hot group encoding a multi-valued noise random
     * variable (value k true iff the RV takes value k).
     */
    OneHotIndicator,
    /**
     * Weight variable standing in for a numeric amplitude / probability
     * parameter (Table 3, third column): true on exactly the table entries
     * that use the weight; resolved to a number at simulation time.
     */
    Param,
};

/** Metadata for one CNF variable. */
struct CnfVariable {
    CnfVarKind kind;
    BnVarId bnVar = 0;          ///< for indicators: the BN variable
    std::uint32_t value = 0;    ///< for OneHotIndicator: which value
    std::int32_t paramId = -1;  ///< for Param: index into BN param values
    bool query = false;         ///< indicator of a query (final/noise) var
};

/** A clause: non-empty set of DIMACS-style literals (var ids are 1-based). */
using Clause = std::vector<int>;

/**
 * CNF encoding of a quantum Bayesian network's structure (paper Section
 * 3.2.1). Satisfying assignments correspond one-to-one with Feynman paths;
 * the product of the weights attached to true Param variables along a model
 * is the path amplitude.
 */
struct Cnf {
    std::vector<CnfVariable> vars;
    std::vector<Clause> clauses;

    /** For each BN variable, its indicator CNF var ids (1-based, size 1 for
     *  binary variables, cardinality for one-hot groups). */
    std::vector<std::vector<int>> bnVarIndicators;

    std::size_t numVars() const { return vars.size(); }
    std::size_t numClauses() const { return clauses.size(); }

    /** Count of indicator variables only (the paper's Figure 6 x-axis). */
    std::size_t numIndicatorVars() const;

    /**
     * Writes the extended DIMACS format: a standard `p cnf` body plus
     * comment lines carrying variable metadata (`c qkc ind|hot|par ...`)
     * so the file is consumable by stock model counters.
     */
    void writeDimacs(std::ostream& os) const;
};

} // namespace qkc

#endif // QKC_CNF_CNF_H
