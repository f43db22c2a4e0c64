#include "testing/factor.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace qkc::testing {

Factor::Factor(Complex scalar) : values_{scalar} {}

Factor::Factor(std::vector<BnVarId> vars, std::vector<std::size_t> cards)
    : vars_(std::move(vars)), cards_(std::move(cards))
{
    assert(vars_.size() == cards_.size());
    std::size_t size = 1;
    for (std::size_t c : cards_)
        size *= c;
    values_.assign(size, Complex{});
}

Factor
Factor::fromPotential(const QuantumBayesNet& bn, const BnPotential& pot)
{
    std::vector<std::size_t> cards;
    cards.reserve(pot.vars.size());
    for (BnVarId v : pot.vars)
        cards.push_back(bn.variable(v).cardinality);
    Factor f(pot.vars, std::move(cards));
    for (std::size_t i = 0; i < pot.entries.size(); ++i) {
        switch (pot.entries[i].kind) {
          case BnEntryKind::StructuralZero:
            f.values_[i] = Complex{};
            break;
          case BnEntryKind::StructuralOne:
            f.values_[i] = 1.0;
            break;
          case BnEntryKind::Parameter:
            f.values_[i] = bn.paramValues()[pot.entries[i].paramId];
            break;
        }
    }
    return f;
}

const Complex&
Factor::value(const std::vector<std::size_t>& assignment) const
{
    assert(assignment.size() == vars_.size());
    std::size_t idx = 0;
    for (std::size_t i = 0; i < vars_.size(); ++i) {
        assert(assignment[i] < cards_[i]);
        idx = idx * cards_[i] + assignment[i];
    }
    return values_[idx];
}

std::size_t
Factor::indexOf(BnVarId var) const
{
    auto it = std::find(vars_.begin(), vars_.end(), var);
    if (it == vars_.end())
        throw std::invalid_argument("Factor: variable not in scope");
    return static_cast<std::size_t>(it - vars_.begin());
}

Factor
Factor::multiply(const Factor& other) const
{
    // Union scope, keeping this factor's order and appending new variables.
    std::vector<BnVarId> vars = vars_;
    std::vector<std::size_t> cards = cards_;
    for (std::size_t i = 0; i < other.vars_.size(); ++i) {
        if (std::find(vars.begin(), vars.end(), other.vars_[i]) == vars.end()) {
            vars.push_back(other.vars_[i]);
            cards.push_back(other.cards_[i]);
        }
    }
    Factor out(vars, cards);

    // For each joint assignment, look up both operands.
    const std::size_t n = vars.size();
    std::vector<std::size_t> assign(n, 0);
    std::vector<std::size_t> posA(vars_.size()), posB(other.vars_.size());
    for (std::size_t i = 0; i < vars_.size(); ++i)
        posA[i] = i;  // this factor's vars are a prefix of the union
    for (std::size_t i = 0; i < other.vars_.size(); ++i)
        posB[i] = static_cast<std::size_t>(
            std::find(vars.begin(), vars.end(), other.vars_[i]) - vars.begin());

    for (std::size_t flat = 0; flat < out.values_.size(); ++flat) {
        // Decode mixed-radix (last fastest).
        std::size_t rem = flat;
        for (std::size_t i = n; i-- > 0;) {
            assign[i] = rem % cards[i];
            rem /= cards[i];
        }
        std::size_t ia = 0;
        for (std::size_t i = 0; i < vars_.size(); ++i)
            ia = ia * cards_[i] + assign[posA[i]];
        std::size_t ib = 0;
        for (std::size_t i = 0; i < other.vars_.size(); ++i)
            ib = ib * other.cards_[i] + assign[posB[i]];
        out.values_[flat] = values_[ia] * other.values_[ib];
    }
    return out;
}

Factor
Factor::sumOut(BnVarId var) const
{
    std::size_t pos = indexOf(var);
    std::vector<BnVarId> vars;
    std::vector<std::size_t> cards;
    for (std::size_t i = 0; i < vars_.size(); ++i) {
        if (i != pos) {
            vars.push_back(vars_[i]);
            cards.push_back(cards_[i]);
        }
    }
    Factor out(vars, cards);

    std::vector<std::size_t> assign(vars_.size(), 0);
    for (std::size_t flat = 0; flat < values_.size(); ++flat) {
        std::size_t rem = flat;
        for (std::size_t i = vars_.size(); i-- > 0;) {
            assign[i] = rem % cards_[i];
            rem /= cards_[i];
        }
        std::size_t idx = 0;
        for (std::size_t i = 0; i < vars_.size(); ++i) {
            if (i != pos)
                idx = idx * cards_[i] + assign[i];
        }
        out.values_[idx] += values_[flat];
    }
    return out;
}

Factor
Factor::condition(BnVarId var, std::size_t value) const
{
    std::size_t pos = indexOf(var);
    assert(value < cards_[pos]);
    std::vector<BnVarId> vars;
    std::vector<std::size_t> cards;
    for (std::size_t i = 0; i < vars_.size(); ++i) {
        if (i != pos) {
            vars.push_back(vars_[i]);
            cards.push_back(cards_[i]);
        }
    }
    Factor out(vars, cards);

    std::vector<std::size_t> assign(vars_.size(), 0);
    for (std::size_t flat = 0; flat < values_.size(); ++flat) {
        std::size_t rem = flat;
        for (std::size_t i = vars_.size(); i-- > 0;) {
            assign[i] = rem % cards_[i];
            rem /= cards_[i];
        }
        if (assign[pos] != value)
            continue;
        std::size_t idx = 0;
        for (std::size_t i = 0; i < vars_.size(); ++i) {
            if (i != pos)
                idx = idx * cards_[i] + assign[i];
        }
        out.values_[idx] = values_[flat];
    }
    return out;
}

Complex
Factor::scalar() const
{
    if (!vars_.empty())
        throw std::logic_error("Factor::scalar: non-empty scope");
    return values_[0];
}

} // namespace qkc::testing
