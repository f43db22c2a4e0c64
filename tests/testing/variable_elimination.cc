#include "testing/variable_elimination.h"

#include <algorithm>
#include <cassert>

#include "linalg/types.h"
#include "testing/factor.h"
#include "util/graph.h"
#include "util/min_fill.h"

namespace qkc::testing {

namespace {

/**
 * Eliminates all variables from `factors` in a min-fill order over the
 * interaction graph, multiplying everything that remains into a scalar.
 * Query variables must already be conditioned away.
 */
Complex
eliminateAll(std::vector<Factor> factors, std::size_t numVars)
{
    // Interaction graph over the remaining variables.
    Graph g(numVars);
    for (const Factor& f : factors)
        for (std::size_t i = 0; i < f.vars().size(); ++i)
            for (std::size_t j = i + 1; j < f.vars().size(); ++j)
                g.addEdge(f.vars()[i], f.vars()[j]);

    std::vector<bool> present(numVars, false);
    for (const Factor& f : factors)
        for (BnVarId v : f.vars())
            present[v] = true;

    for (std::size_t v : minFillOrdering(g)) {
        if (!present[v])
            continue;
        // Multiply all factors mentioning v, then sum v out.
        Factor merged(Complex{1.0});
        std::vector<Factor> rest;
        rest.reserve(factors.size());
        for (Factor& f : factors) {
            const auto& vars = f.vars();
            if (std::find(vars.begin(), vars.end(), static_cast<BnVarId>(v)) !=
                vars.end()) {
                merged = merged.multiply(f);
            } else {
                rest.push_back(std::move(f));
            }
        }
        rest.push_back(merged.sumOut(static_cast<BnVarId>(v)));
        factors = std::move(rest);
    }

    Complex result{1.0};
    for (const Factor& f : factors) {
        assert(f.vars().empty());
        result *= f.scalar();
    }
    return result;
}

} // namespace

Complex
VariableElimination::amplitude(
    const std::vector<std::size_t>& queryAssignment) const
{
    auto query = bn_->queryVars();
    assert(queryAssignment.size() == query.size());

    std::vector<Factor> factors;
    factors.reserve(bn_->potentials().size());
    for (const auto& pot : bn_->potentials()) {
        Factor f = Factor::fromPotential(*bn_, pot);
        for (std::size_t qi = 0; qi < query.size(); ++qi) {
            const auto& vars = f.vars();
            if (std::find(vars.begin(), vars.end(), query[qi]) != vars.end())
                f = f.condition(query[qi], queryAssignment[qi]);
        }
        factors.push_back(std::move(f));
    }
    return eliminateAll(std::move(factors), bn_->variables().size());
}

std::vector<Complex>
VariableElimination::queryAmplitudes() const
{
    auto query = bn_->queryVars();
    std::size_t total = 1;
    for (BnVarId v : query)
        total *= bn_->variable(v).cardinality;

    std::vector<Complex> amps(total);
    std::vector<std::size_t> assign(query.size(), 0);
    for (std::size_t flat = 0; flat < total; ++flat) {
        std::size_t rem = flat;
        for (std::size_t i = query.size(); i-- > 0;) {
            assign[i] = rem % bn_->variable(query[i]).cardinality;
            rem /= bn_->variable(query[i]).cardinality;
        }
        amps[flat] = amplitude(assign);
    }
    return amps;
}

std::vector<double>
VariableElimination::outcomeDistribution() const
{
    auto query = bn_->queryVars();
    const std::size_t numFinal = bn_->finalVars().size();
    std::size_t noiseCombos = 1;
    for (std::size_t i = numFinal; i < query.size(); ++i)
        noiseCombos *= bn_->variable(query[i]).cardinality;

    auto amps = queryAmplitudes();
    std::vector<double> dist(std::size_t{1} << numFinal, 0.0);
    for (std::size_t flat = 0; flat < amps.size(); ++flat) {
        // Final qubit vars are the leading digits: index = x * noiseCombos + nu.
        std::size_t x = flat / noiseCombos;
        dist[x] += norm2(amps[flat]);
    }
    return dist;
}

} // namespace qkc::testing
