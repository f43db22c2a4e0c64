#include "circuit/fusion.h"

#include <algorithm>
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
 * One group's share of materializeFusion: replays the group's matrix
 * products against `circuit` and appends what it emits to `out` (nothing
 * for a dropped identity). False when the recipe no longer applies at this
 * group (structure or identity-drop mismatch); `out` is then to be
 * discarded.
 */
bool
materializeGroup(const FusionRecipe::Group& g, const Circuit& circuit,
                 Circuit& out)
{
    switch (g.kind) {
      case FusionRecipe::Group::Kind::Channel: {
        if (g.sources.empty() || g.sources[0] >= circuit.size())
            return false;
        const auto* ch =
            std::get_if<NoiseChannel>(&circuit.operations()[g.sources[0]]);
        if (!ch || ch->qubits() != g.qubits)
            return false;
        out.append(*ch);
        return true;
      }
      case FusionRecipe::Group::Kind::Passthrough: {
        if (g.sources.empty())
            return false;
        const Gate* gate = gateAt(circuit, g.sources[0], g.qubits);
        if (!gate)
            return false;
        out.append(*gate);
        return true;
      }
      case FusionRecipe::Group::Kind::Fused1q: {
        auto m = pendingProduct(circuit, g.sources, g.qubits[0]);
        if (!m)
            return false;
        if (isIdentity(*m) != g.dropped)
            return false; // drop set changed: re-plan
        if (!g.dropped)
            out.append(Gate::custom({g.qubits[0]}, std::move(*m), "fused"));
        return true;
      }
      case FusionRecipe::Group::Kind::Fused2q: {
        if (g.gateIndices.empty() ||
            g.pendingHigh.size() != g.gateIndices.size() ||
            g.pendingLow.size() != g.gateIndices.size())
            return false;
        Matrix fusedU = Matrix::identity(4);
        for (std::size_t s = 0; s < g.gateIndices.size(); ++s) {
            const auto pa =
                pendingProduct(circuit, g.pendingHigh[s], g.qubits[0]);
            const auto pb =
                pendingProduct(circuit, g.pendingLow[s], g.qubits[1]);
            const Gate* gate = gateAt(circuit, g.gateIndices[s], g.qubits);
            if (!pa || !pb || !gate)
                return false;
            fusedU = gate->unitary() * pa->kron(*pb) * fusedU;
        }
        if (isIdentity(fusedU) != g.dropped)
            return false;
        if (!g.dropped)
            out.append(Gate::custom({g.qubits[0], g.qubits[1]},
                                    std::move(fusedU), "fused2q"));
        return true;
      }
      case FusionRecipe::Group::Kind::DiagonalRun: {
        std::size_t wire = 0; // next entry of g.qubits
        for (std::size_t s : g.sources) {
            if (s >= circuit.size())
                return false;
            const Gate* gate = std::get_if<Gate>(&circuit.operations()[s]);
            if (!gate || !gate->isDiagonal() ||
                wire + gate->arity() > g.qubits.size() ||
                !std::equal(gate->qubits().begin(), gate->qubits().end(),
                            g.qubits.begin() +
                                static_cast<std::ptrdiff_t>(wire)))
                return false;
            wire += gate->arity();
            out.append(*gate);
        }
        return wire == g.qubits.size();
      }
      case FusionRecipe::Group::Kind::Kron1q: {
        if (g.qubits.size() != 2 || g.pendingHigh.size() != 1 ||
            g.pendingLow.size() != 1)
            return false;
        const auto pa = pendingProduct(circuit, g.pendingHigh[0], g.qubits[0]);
        const auto pb = pendingProduct(circuit, g.pendingLow[0], g.qubits[1]);
        // Either factor turning into the identity changes the drop set.
        if (!pa || !pb || isIdentity(*pa) || isIdentity(*pb))
            return false;
        out.append(Gate::custom(g.qubits, pa->kron(*pb), "kron"));
        return true;
      }
    }
    return false;
}

/**
 * Marks the diagonal runs: runEnd[i] > i when a run spans ops [i,
 * runEnd[i]). A run is a maximal stretch of consecutive diagonal gates with
 * at least two two-qubit gates; shorter stretches (one-qubit phases, or one
 * two-qubit gate with phases around it) fuse per wire as before.
 */
std::vector<std::size_t>
diagonalRunEnds(const Circuit& circuit)
{
    const auto& ops = circuit.operations();
    std::vector<std::size_t> runEnd(ops.size(), 0);
    std::size_t i = 0;
    while (i < ops.size()) {
        std::size_t j = i;
        std::size_t twoQubit = 0;
        for (; j < ops.size(); ++j) {
            const Gate* g = std::get_if<Gate>(&ops[j]);
            if (!g || !g->isDiagonal())
                break;
            twoQubit += g->arity() == 2;
        }
        if (twoQubit >= 2)
            runEnd[i] = j;
        i = std::max(j, i + 1);
    }
    return runEnd;
}

/** Two-qubit kinds that an X or Y folded into would make a 2-target Perm. */
bool
isPermOrDiagonal2q(const Gate& g)
{
    switch (g.kind()) {
      case GateKind::CNOT:
      case GateKind::CZ:
      case GateKind::CRz:
      case GateKind::CPhase:
      case GateKind::ZZ:
        return true;
      default:
        return false;
    }
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
    const auto& ops = circuit.operations();
    const std::vector<std::size_t> runEnd = diagonalRunEnds(circuit);
    const bool anyRun = std::any_of(runEnd.begin(), runEnd.end(),
                                    [](std::size_t e) { return e != 0; });

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

    // Flushes the pendings on `wires` (ascending) together: identity
    // products drop as in flush, the rest go out two at a time as one
    // Kron1q group, an odd one out on its own.
    auto flushPaired = [&](const std::vector<std::size_t>& wires) {
        std::vector<std::size_t> kept;
        for (std::size_t q : wires) {
            if (pending[q].empty())
                continue;
            if (isIdentity(pendingM[q]))
                flush(q);
            else
                kept.push_back(q);
        }
        std::size_t k = 0;
        for (; k + 1 < kept.size(); k += 2) {
            const std::size_t a = kept[k];
            const std::size_t b = kept[k + 1];
            FusionRecipe::Group g;
            g.kind = FusionRecipe::Group::Kind::Kron1q;
            g.pendingHigh.push_back(std::move(pending[a]));
            g.pendingLow.push_back(std::move(pending[b]));
            g.qubits = {a, b};
            recipe.groups.push_back(std::move(g));
            pending[a].clear();
            pending[b].clear();
            ++recipe.stats.kronPairs;
        }
        if (k < kept.size())
            flush(kept[k]);
    };

    // A pending product of X and Y gates on q, which must not fold into
    // `gate` (see fuseGates).
    auto isHeldFlip = [&](std::size_t q, const Gate& gate) {
        if (pending[q].empty() || !isPermOrDiagonal2q(gate))
            return false;
        return std::all_of(pending[q].begin(), pending[q].end(),
                           [&](std::size_t s) {
            const GateKind k = std::get<Gate>(ops[s]).kind();
            return k == GateKind::X || k == GateKind::Y;
        });
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

    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (runEnd[i] > i) {
            // A diagonal run: one barrier on every wire it touches.
            FusionRecipe::Group g;
            g.kind = FusionRecipe::Group::Kind::DiagonalRun;
            std::vector<bool> touched(n, false);
            for (std::size_t j = i; j < runEnd[i]; ++j) {
                g.sources.push_back(j);
                for (std::size_t q : std::get<Gate>(ops[j]).qubits()) {
                    g.qubits.push_back(q);
                    touched[q] = true;
                }
            }
            std::vector<std::size_t> wires;
            for (std::size_t q = 0; q < n; ++q) {
                if (touched[q]) {
                    closeChain(q);
                    wires.push_back(q);
                }
            }
            flushPaired(wires);
            recipe.stats.gatesIn += g.sources.size();
            ++recipe.stats.diagonalRuns;
            recipe.groups.push_back(std::move(g));
            i = runEnd[i] - 1;
            continue;
        }
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

            // A held X/Y product goes out on its own, after any chain on
            // its wire (whose gates it follows).
            const bool holdA = isHeldFlip(a, gate);
            const bool holdB = isHeldFlip(b, gate);
            if (holdA || holdB) {
                closeChain(a);
                closeChain(b);
                if (holdA)
                    flush(a);
                if (holdB)
                    flush(b);
            }

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

    if (anyRun) {
        std::vector<std::size_t> wires(n);
        for (std::size_t q = 0; q < n; ++q) {
            closeChain(q);
            wires[q] = q;
        }
        flushPaired(wires);
    } else {
        for (std::size_t q = 0; q < n; ++q) {
            closeChain(q);
            flush(q);
        }
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
        if (!materializeGroup(group, circuit, out))
            return std::nullopt;
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
