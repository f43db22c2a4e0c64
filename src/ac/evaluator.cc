#include "ac/evaluator.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.h"

namespace qkc {

AcEvaluator::AcEvaluator(const ArithmeticCircuit& ac,
                         std::vector<std::size_t> varCardinality,
                         std::vector<Complex> params)
    : ac_(&ac), cards_(std::move(varCardinality)), params_(std::move(params))
{
    const std::size_t n = ac.numNodes();
    value_.assign(n, Complex{});
    dirty_.assign(n, true);
    derivative_.assign(n, Complex{});
    evidence_.assign(cards_.size(), kFree);
    std::uint32_t maxArity = 0;
    for (AcNodeId id = 0; id < n; ++id) {
        const AcNode& node = ac.node(id);
        maxArity = std::max(maxArity, node.childEnd - node.childBegin);
    }
    siblingScratch_.assign(maxArity, Complex{});

    // Locate leaves.
    indicatorLeaf_.resize(cards_.size());
    for (std::size_t v = 0; v < cards_.size(); ++v)
        indicatorLeaf_[v].assign(cards_[v] == 0 ? 2 : cards_[v], kNoLeaf);
    std::size_t maxParam = 0;
    for (AcNodeId id = 0; id < n; ++id) {
        const AcNode& node = ac.node(id);
        if (node.kind == AcNodeKind::Param)
            maxParam = std::max<std::size_t>(maxParam, node.paramId + 1);
    }
    paramLeaf_.assign(maxParam, kNoLeaf);
    for (AcNodeId id = 0; id < n; ++id) {
        const AcNode& node = ac.node(id);
        if (node.kind == AcNodeKind::Indicator) {
            auto& slots = indicatorLeaf_[node.var];
            if (node.value >= slots.size())
                slots.resize(node.value + 1, kNoLeaf);
            slots[node.value] = id;
        } else if (node.kind == AcNodeKind::Param) {
            paramLeaf_[node.paramId] = id;
        }
    }

    // Parent adjacency for dirty propagation (CSR layout).
    std::vector<std::uint32_t> degree(n, 0);
    for (AcNodeId id = 0; id < n; ++id) {
        const AcNode& node = ac.node(id);
        for (std::uint32_t e = node.childBegin; e < node.childEnd; ++e)
            ++degree[ac.edges()[e]];
    }
    parentBegin_.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i)
        parentBegin_[i + 1] = parentBegin_[i] + degree[i];
    parentEdges_.assign(parentBegin_[n], 0);
    std::vector<std::uint32_t> cursor(parentBegin_.begin(),
                                      parentBegin_.end() - 1);
    for (AcNodeId id = 0; id < n; ++id) {
        const AcNode& node = ac.node(id);
        for (std::uint32_t e = node.childBegin; e < node.childEnd; ++e) {
            AcNodeId child = ac.edges()[e];
            parentEdges_[cursor[child]++] = id;
        }
    }
}

void
AcEvaluator::setParams(std::vector<Complex> params)
{
    if (params.size() != params_.size())
        throw std::invalid_argument("AcEvaluator::setParams: size mismatch");
    for (std::size_t p = 0; p < params.size(); ++p) {
        if (params[p] != params_[p] && p < paramLeaf_.size() &&
            paramLeaf_[p] != kNoLeaf) {
            markDirty(paramLeaf_[p]);
        }
    }
    params_ = std::move(params);
}

void
AcEvaluator::setEvidence(BnVarId var, int value)
{
    assert(var < evidence_.size());
    if (evidence_[var] == value)
        return;
    evidence_[var] = value;
    for (AcNodeId leaf : indicatorLeaf_[var]) {
        if (leaf != kNoLeaf)
            markDirty(leaf);
    }
}

void
AcEvaluator::clearEvidence()
{
    for (std::size_t v = 0; v < evidence_.size(); ++v) {
        if (evidence_[v] != kFree)
            setEvidence(static_cast<BnVarId>(v), kFree);
    }
}

void
AcEvaluator::markDirty(AcNodeId leaf)
{
    anyDirty_ = true;
    // BFS towards the root; stop at already-dirty nodes.
    std::vector<AcNodeId> stack{leaf};
    dirty_[leaf] = true;
    while (!stack.empty()) {
        AcNodeId id = stack.back();
        stack.pop_back();
        for (std::uint32_t e = parentBegin_[id]; e < parentBegin_[id + 1];
             ++e) {
            AcNodeId parent = parentEdges_[e];
            if (!dirty_[parent]) {
                dirty_[parent] = true;
                stack.push_back(parent);
            }
        }
    }
}

Complex
AcEvaluator::leafValue(const AcNode& n) const
{
    switch (n.kind) {
      case AcNodeKind::Constant:
        return n.constant;
      case AcNodeKind::Param:
        return params_[n.paramId];
      case AcNodeKind::Indicator: {
        int ev = evidence_[n.var];
        return (ev == kFree || static_cast<std::uint32_t>(ev) == n.value)
                   ? Complex{1.0}
                   : Complex{0.0};
      }
      default:
        throw std::logic_error("leafValue on interior node");
    }
}

Complex
AcEvaluator::evaluate()
{
    static obs::Counter acEvals("kc.acEvals");
    acEvals.add();
    lastRecompute_ = 0;
    if (!anyDirty_)
        return value_[ac_->root()];
    // Nodes are stored children-before-parents; one ascending sweep
    // recomputes exactly the dirty cone.
    for (AcNodeId id = 0; id < ac_->numNodes(); ++id) {
        if (!dirty_[id])
            continue;
        const AcNode& n = ac_->node(id);
        ++lastRecompute_;
        switch (n.kind) {
          case AcNodeKind::Add: {
            Complex acc{};
            for (std::uint32_t e = n.childBegin; e < n.childEnd; ++e)
                acc += value_[ac_->edges()[e]];
            value_[id] = acc;
            break;
          }
          case AcNodeKind::Mul: {
            Complex acc{1.0};
            for (std::uint32_t e = n.childBegin; e < n.childEnd; ++e)
                acc *= value_[ac_->edges()[e]];
            value_[id] = acc;
            break;
          }
          default:
            value_[id] = leafValue(n);
            break;
        }
        dirty_[id] = false;
    }
    anyDirty_ = false;
    return value_[ac_->root()];
}

void
AcEvaluator::computeDerivatives()
{
    if (anyDirty_)
        evaluate();
    std::fill(derivative_.begin(), derivative_.end(), Complex{});
    derivative_[ac_->root()] = Complex{1.0};

    // Descending sweep: parents come after children, so when we visit a
    // node its own derivative is final.
    for (AcNodeId id = ac_->numNodes(); id-- > 0;) {
        const AcNode& n = ac_->node(id);
        const Complex dr = derivative_[id];
        if (dr == Complex{})
            continue;
        if (n.kind == AcNodeKind::Add) {
            for (std::uint32_t e = n.childBegin; e < n.childEnd; ++e)
                derivative_[ac_->edges()[e]] += dr;
        } else if (n.kind == AcNodeKind::Mul) {
            // Sibling products from a prefix pass over a suffix table:
            // exact at zero factors, and never a quotient of the full
            // product, so a child's derivative stays finite and nonzero
            // when only the full product underflows or overflows.
            const std::uint32_t arity = n.childEnd - n.childBegin;
            Complex suffix{1.0};
            for (std::uint32_t i = arity; i-- > 0;) {
                siblingScratch_[i] = suffix;
                suffix *= value_[ac_->edges()[n.childBegin + i]];
            }
            Complex prefix{1.0};
            for (std::uint32_t i = 0; i < arity; ++i) {
                const AcNodeId c = ac_->edges()[n.childBegin + i];
                derivative_[c] += dr * (prefix * siblingScratch_[i]);
                prefix *= value_[c];
            }
        }
    }
}

Complex
AcEvaluator::derivative(BnVarId var, std::uint32_t value) const
{
    const auto& slots = indicatorLeaf_[var];
    if (value >= slots.size() || slots[value] == kNoLeaf)
        return Complex{};
    return derivative_[slots[value]];
}

Complex
AcEvaluator::paramDerivative(std::int32_t paramId) const
{
    if (paramId < 0 || static_cast<std::size_t>(paramId) >= paramLeaf_.size() ||
        paramLeaf_[paramId] == kNoLeaf)
        return Complex{};
    return derivative_[paramLeaf_[paramId]];
}

} // namespace qkc
