#include "circuit/fusion.h"

#include <stdexcept>

#include "obs/trace.h"

namespace qkc {

namespace {

/** Tight tolerance for dropping exact-identity products (HH, Rz(t)Rz(-t)). */
constexpr double kFusionEps = 1e-12;

bool
isIdentity(const Matrix& m)
{
    return m.approxEqual(Matrix::identity(m.rows()), kFusionEps);
}

/** The gate at `opIndex`, or null on any index/kind/wire mismatch. */
const Gate*
gateAt(const Circuit& circuit, std::size_t opIndex,
       const std::vector<std::size_t>& qubits)
{
    if (opIndex >= circuit.size())
        return nullptr;
    const Gate* g = std::get_if<Gate>(&circuit.operations()[opIndex]);
    return g && g->qubits() == qubits ? g : nullptr;
}

/** Product of 1q source gates on `wire`, first-applied first (U_k...U_1). */
std::optional<Matrix>
pendingProduct(const Circuit& circuit, const std::vector<std::size_t>& sources,
               std::size_t wire)
{
    Matrix m = Matrix::identity(2);
    for (std::size_t s : sources) {
        const Gate* g = gateAt(circuit, s, {wire});
        if (!g)
            return std::nullopt;
        m = g->unitary() * m;
    }
    return m;
}

/**
 * One group's share of materializeFusion: the group's matrix products
 * replayed against `circuit`. `ok == false` means the recipe
 * no longer applies at this group (structure or identity-drop mismatch);
 * `emitted == false` with `ok` means the group is a dropped identity.
 */
struct GroupResult {
    bool ok = false;
    bool emitted = false;
    std::optional<Operation> op; ///< set iff emitted
};

GroupResult
materializeGroup(const FusionRecipe::Group& g, const Circuit& circuit)
{
    GroupResult r;
    switch (g.kind) {
      case FusionRecipe::Group::Kind::Channel: {
        if (g.sources.empty() || g.sources[0] >= circuit.size())
            return r;
        const auto* ch =
            std::get_if<NoiseChannel>(&circuit.operations()[g.sources[0]]);
        if (!ch || ch->qubits() != g.qubits)
            return r;
        r.ok = true;
        r.emitted = true;
        r.op = Operation{*ch};
        return r;
      }
      case FusionRecipe::Group::Kind::Passthrough: {
        if (g.sources.empty())
            return r;
        const Gate* gate = gateAt(circuit, g.sources[0], g.qubits);
        if (!gate)
            return r;
        r.ok = true;
        r.emitted = true;
        r.op = Operation{*gate};
        return r;
      }
      case FusionRecipe::Group::Kind::Fused1q: {
        auto m = pendingProduct(circuit, g.sources, g.qubits[0]);
        if (!m)
            return r;
        if (isIdentity(*m) != g.dropped)
            return r; // drop set changed: re-plan
        r.ok = true;
        if (!g.dropped) {
            r.emitted = true;
            r.op = Operation{
                Gate::custom({g.qubits[0]}, std::move(*m), "fused")};
        }
        return r;
      }
      case FusionRecipe::Group::Kind::Fused2q: {
        if (g.gateIndices.empty() ||
            g.pendingHigh.size() != g.gateIndices.size() ||
            g.pendingLow.size() != g.gateIndices.size())
            return r;
        Matrix fusedU = Matrix::identity(4);
        for (std::size_t s = 0; s < g.gateIndices.size(); ++s) {
            const auto pa =
                pendingProduct(circuit, g.pendingHigh[s], g.qubits[0]);
            const auto pb =
                pendingProduct(circuit, g.pendingLow[s], g.qubits[1]);
            const Gate* gate = gateAt(circuit, g.gateIndices[s], g.qubits);
            if (!pa || !pb || !gate)
                return r;
            fusedU = gate->unitary() * pa->kron(*pb) * fusedU;
        }
        if (isIdentity(fusedU) != g.dropped)
            return r;
        r.ok = true;
        if (!g.dropped) {
            r.emitted = true;
            r.op = Operation{Gate::custom({g.qubits[0], g.qubits[1]},
                                          std::move(fusedU), "fused2q")};
        }
        return r;
      }
    }
    return r;
}

} // namespace

FusionRecipe
planFusion(const Circuit& circuit)
{
    QKC_SPAN("circuit.fuse");
    FusionRecipe recipe;
    recipe.numQubits = circuit.numQubits();
    recipe.numOps = circuit.size();
    const std::size_t n = circuit.numQubits();

    // pending[q]: source indices of not-yet-emitted 1q gates on wire q (in
    // application order) and their running product (for the identity check).
    std::vector<std::vector<std::size_t>> pending(n);
    std::vector<Matrix> pendingM(n);

    auto flush = [&](std::size_t q) {
        if (pending[q].empty())
            return;
        FusionRecipe::Group g;
        g.kind = FusionRecipe::Group::Kind::Fused1q;
        g.sources = std::move(pending[q]);
        g.qubits = {q};
        g.dropped = isIdentity(pendingM[q]);
        if (g.dropped)
            ++recipe.stats.droppedIdentity;
        recipe.groups.push_back(std::move(g));
        pending[q].clear();
    };

    // One open 2q chain per ordered wire pair: the last-emitted 2q group on
    // (a, b) stays extendable until any other operation touches a or b (1q
    // gates excepted — they go pending and fold into the next stage). The
    // group sits at its first gate's emission slot and is mutated in place
    // when a later same-pair gate extends it; everything emitted in between
    // acts on disjoint wires, so the reordering is exact.
    struct OpenChain {
        std::size_t a = 0;
        std::size_t b = 0;
        std::size_t groupIndex = 0;
        Matrix accU; ///< full chain product incl. folded pendings
    };
    std::vector<OpenChain> chains;
    std::vector<std::ptrdiff_t> chainOn(n, -1);

    // Finalizes the chain covering wire q (if any): the identity-drop
    // decision needs the whole chain product, so it is deferred to here.
    auto closeChain = [&](std::size_t q) {
        const std::ptrdiff_t c = chainOn[q];
        if (c < 0)
            return;
        OpenChain& ch = chains[static_cast<std::size_t>(c)];
        FusionRecipe::Group& g = recipe.groups[ch.groupIndex];
        if (g.kind == FusionRecipe::Group::Kind::Fused2q) {
            g.dropped = isIdentity(ch.accU);
            if (g.dropped)
                ++recipe.stats.droppedIdentity;
        }
        chainOn[ch.a] = -1;
        chainOn[ch.b] = -1;
    };

    const auto& ops = circuit.operations();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (const auto* ch = std::get_if<NoiseChannel>(&ops[i])) {
            for (std::size_t q : ch->qubits()) {
                closeChain(q);
                flush(q);
            }
            FusionRecipe::Group g;
            g.kind = FusionRecipe::Group::Kind::Channel;
            g.sources = {i};
            g.qubits = ch->qubits();
            recipe.groups.push_back(std::move(g));
            continue;
        }
        const Gate& gate = std::get<Gate>(ops[i]);
        ++recipe.stats.gatesIn;

        if (gate.arity() == 1) {
            const std::size_t q = gate.qubits()[0];
            if (!pending[q].empty()) {
                pendingM[q] = gate.unitary() * pendingM[q];
                ++recipe.stats.merged1q;
            } else {
                pendingM[q] = gate.unitary();
            }
            pending[q].push_back(i);
            continue;
        }

        if (gate.arity() == 2) {
            const std::size_t a = gate.qubits()[0];
            const std::size_t b = gate.qubits()[1];

            // The pendings act first: U' = U * (Pa (x) Pb), with a the
            // MSB of the gate's local basis (the Gate convention).
            const Matrix pa = pending[a].empty() ? Matrix::identity(2)
                                                 : pendingM[a];
            const Matrix pb = pending[b].empty() ? Matrix::identity(2)
                                                 : pendingM[b];
            const std::size_t folds = (pending[a].empty() ? 0u : 1u) +
                                      (pending[b].empty() ? 0u : 1u);

            // Extend an open chain on the exact ordered pair (a, b).
            const std::ptrdiff_t c = chainOn[a];
            if (c >= 0 && c == chainOn[b] &&
                chains[static_cast<std::size_t>(c)].a == a &&
                chains[static_cast<std::size_t>(c)].b == b) {
                OpenChain& chain = chains[static_cast<std::size_t>(c)];
                FusionRecipe::Group& g = recipe.groups[chain.groupIndex];
                if (g.kind == FusionRecipe::Group::Kind::Passthrough) {
                    // Promote the bare 2q group to a chain in place.
                    g.kind = FusionRecipe::Group::Kind::Fused2q;
                    g.gateIndices = {g.sources[0]};
                    g.sources.clear();
                    g.pendingHigh.emplace_back();
                    g.pendingLow.emplace_back();
                }
                recipe.stats.foldedInto2q += folds;
                ++recipe.stats.merged2q;
                g.gateIndices.push_back(i);
                g.pendingHigh.push_back(std::move(pending[a]));
                g.pendingLow.push_back(std::move(pending[b]));
                pending[a].clear();
                pending[b].clear();
                chain.accU = gate.unitary() * pa.kron(pb) * chain.accU;
                continue;
            }
            // A same-wire chain on any other pairing ends here.
            closeChain(a);
            closeChain(b);

            const std::size_t groupIndex = recipe.groups.size();
            if (!pending[a].empty() || !pending[b].empty()) {
                recipe.stats.foldedInto2q += folds;
                FusionRecipe::Group g;
                g.kind = FusionRecipe::Group::Kind::Fused2q;
                g.gateIndices = {i};
                g.pendingHigh.push_back(std::move(pending[a]));
                g.pendingLow.push_back(std::move(pending[b]));
                g.qubits = {a, b};
                // dropped is decided when the chain closes.
                recipe.groups.push_back(std::move(g));
                pending[a].clear();
                pending[b].clear();
            } else {
                FusionRecipe::Group g;
                g.kind = FusionRecipe::Group::Kind::Passthrough;
                g.sources = {i};
                g.qubits = gate.qubits();
                recipe.groups.push_back(std::move(g));
            }
            chainOn[a] = static_cast<std::ptrdiff_t>(chains.size());
            chainOn[b] = chainOn[a];
            chains.push_back({a, b, groupIndex, gate.unitary() * pa.kron(pb)});
            continue;
        }

        // 3q: barrier on the operand wires.
        for (std::size_t q : gate.qubits()) {
            closeChain(q);
            flush(q);
        }
        FusionRecipe::Group g;
        g.kind = FusionRecipe::Group::Kind::Passthrough;
        g.sources = {i};
        g.qubits = gate.qubits();
        recipe.groups.push_back(std::move(g));
    }

    for (std::size_t q = 0; q < n; ++q) {
        closeChain(q);
        flush(q);
    }

    return recipe;
}

std::optional<Circuit>
materializeFusion(const FusionRecipe& recipe, const Circuit& circuit,
                  FusionStats* stats)
{
    if (circuit.numQubits() != recipe.numQubits)
        throw std::invalid_argument(
            "materializeFusion: qubit count differs from the planned circuit");
    // The recipe must cover the whole circuit: extra (or missing) trailing
    // ops would otherwise be silently dropped from the fused output.
    if (circuit.size() != recipe.numOps)
        return std::nullopt;

    // Any index, kind or wire mismatch below means `circuit` does not
    // share the planned structure: refuse (nullopt) rather than emit a
    // silently wrong circuit, so callers can treat this as "re-plan
    // needed".
    Circuit out(recipe.numQubits);
    for (const FusionRecipe::Group& group : recipe.groups) {
        GroupResult r = materializeGroup(group, circuit);
        if (!r.ok)
            return std::nullopt;
        if (!r.emitted)
            continue;
        if (const Gate* gate = std::get_if<Gate>(&*r.op))
            out.append(*gate);
        else
            out.append(std::get<NoiseChannel>(*r.op));
    }

    if (stats) {
        *stats = recipe.stats;
        stats->gatesOut = out.gateCount();
    }
    return out;
}

Circuit
fuseGates(const Circuit& circuit, FusionStats* stats)
{
    const FusionRecipe recipe = planFusion(circuit);
    // Replaying the recipe on the circuit it was planned from cannot cross
    // an identity boundary.
    return *materializeFusion(recipe, circuit, stats);
}

} // namespace qkc
