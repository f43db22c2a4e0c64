#include "circuit/fusion.h"

#include <algorithm>
#include <optional>

#include "obs/trace.h"

namespace qkc {

namespace {

/** Tight tolerance for dropping exact-identity products (HH, Rz(t)Rz(-t)). */
constexpr double kFusionEps = 1e-12;

bool
isIdentity(const Matrix& m)
{
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            if (!approxEqual(m(r, c), Complex(r == c ? 1.0 : 0.0, 0.0),
                             kFusionEps))
                return false;
    return true;
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
    return g.arity() == 2 && (g.isDiagonal() || g.kind() == GateKind::CNOT);
}

} // namespace

Circuit
fuseGates(const Circuit& circuit, FusionStats* stats,
          std::vector<OpSpan>* runs)
{
    QKC_SPAN("circuit.fuse");
    FusionStats st;
    const std::size_t n = circuit.numQubits();
    const auto& ops = circuit.operations();
    const std::vector<std::size_t> runEnd = diagonalRunEnds(circuit);
    const bool anyRun = std::any_of(runEnd.begin(), runEnd.end(),
                                    [](std::size_t e) { return e != 0; });

    // The fused ops in emission order. A 2q chain reserves its slot at its
    // first gate and fills it when it closes; a slot left empty is a
    // dropped identity product.
    std::vector<std::optional<Operation>> slots;
    slots.reserve(ops.size());
    std::vector<OpSpan> runSlots; // diagonal runs, as slot spans

    // The not-yet-emitted 1q gates on each wire: their count, their
    // product (accumulated from the identity, first-applied first), and
    // whether all of them are X or Y.
    struct Pending {
        std::size_t count = 0;
        Matrix product;
        bool flipsOnly = true;
    };
    std::vector<Pending> pending(n);

    auto flush = [&](std::size_t q) {
        Pending& p = pending[q];
        if (p.count == 0)
            return;
        if (isIdentity(p.product))
            ++st.droppedIdentity;
        else
            slots.emplace_back(Gate::custom({q}, std::move(p.product), "fused"));
        p = Pending{};
    };

    // Flushes the pendings on `wires` (ascending) together: identity
    // products drop as in flush, the rest go out two at a time as one
    // 2q gate Pa (x) Pb, an odd one out on its own.
    auto flushPaired = [&](const std::vector<std::size_t>& wires) {
        std::vector<std::size_t> kept;
        for (std::size_t q : wires) {
            if (pending[q].count == 0)
                continue;
            if (isIdentity(pending[q].product))
                flush(q);
            else
                kept.push_back(q);
        }
        std::size_t k = 0;
        for (; k + 1 < kept.size(); k += 2) {
            const std::size_t a = kept[k];
            const std::size_t b = kept[k + 1];
            slots.emplace_back(Gate::custom(
                {a, b}, pending[a].product.kron(pending[b].product), "kron"));
            pending[a] = Pending{};
            pending[b] = Pending{};
            ++st.kronPairs;
        }
        if (k < kept.size())
            flush(kept[k]);
    };

    // One open 2q chain per ordered wire pair: the last 2q gate on (a, b)
    // stays extendable until any other operation touches a or b (1q gates
    // excepted — they go pending and fold into the next stage). The chain
    // sits at its first gate's slot; everything emitted in between acts on
    // disjoint wires, so the reordering is exact.
    struct OpenChain {
        std::size_t a = 0;
        std::size_t b = 0;
        std::size_t slot = 0;
        std::size_t firstOp = 0; ///< the chain's first gate
        bool fused = false;      ///< a pending folded in or a gate chained
        Matrix product;          ///< the stages' product, when fused
    };
    std::vector<OpenChain> chains;
    std::vector<std::ptrdiff_t> chainOn(n, -1);

    // Appends one stage to `chain`: the gate after the pendings, which act
    // first (a is the MSB of the gate's local basis, the Gate convention).
    auto addStage = [](OpenChain& chain, const Gate& gate, const Matrix& pa,
                       const Matrix& pb) {
        if (!chain.fused) {
            chain.product = Matrix::identity(4);
            chain.fused = true;
        }
        chain.product = gate.unitary() * pa.kron(pb) * chain.product;
    };

    // Fills the slot of the chain covering wire q (if any): a bare gate
    // goes out verbatim, a fused product unless it is the identity.
    auto closeChain = [&](std::size_t q) {
        const std::ptrdiff_t c = chainOn[q];
        if (c < 0)
            return;
        OpenChain& ch = chains[static_cast<std::size_t>(c)];
        if (!ch.fused)
            slots[ch.slot] = ops[ch.firstOp];
        else if (isIdentity(ch.product))
            ++st.droppedIdentity;
        else
            slots[ch.slot] = Gate::custom({ch.a, ch.b}, std::move(ch.product),
                                          "fused2q");
        chainOn[ch.a] = -1;
        chainOn[ch.b] = -1;
    };

    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (runEnd[i] > i) {
            // A diagonal run: one barrier on every wire it touches, then
            // its gates verbatim.
            std::vector<bool> touched(n, false);
            for (std::size_t j = i; j < runEnd[i]; ++j)
                for (std::size_t q : std::get<Gate>(ops[j]).qubits())
                    touched[q] = true;
            std::vector<std::size_t> wires;
            for (std::size_t q = 0; q < n; ++q) {
                if (touched[q]) {
                    closeChain(q);
                    wires.push_back(q);
                }
            }
            flushPaired(wires);
            runSlots.push_back({slots.size(), slots.size() + runEnd[i] - i});
            for (std::size_t j = i; j < runEnd[i]; ++j)
                slots.emplace_back(ops[j]);
            st.gatesIn += runEnd[i] - i;
            ++st.diagonalRuns;
            i = runEnd[i] - 1;
            continue;
        }
        if (const auto* ch = std::get_if<NoiseChannel>(&ops[i])) {
            for (std::size_t q : ch->qubits()) {
                closeChain(q);
                flush(q);
            }
            slots.emplace_back(*ch);
            continue;
        }
        const Gate& gate = std::get<Gate>(ops[i]);
        ++st.gatesIn;

        if (gate.arity() == 1) {
            Pending& p = pending[gate.qubits()[0]];
            if (p.count == 0)
                p.product = Matrix::identity(2);
            else
                ++st.merged1q;
            p.product = gate.unitary() * p.product;
            p.flipsOnly = p.flipsOnly && (gate.kind() == GateKind::X ||
                                          gate.kind() == GateKind::Y);
            ++p.count;
            continue;
        }

        if (gate.arity() == 2) {
            const std::size_t a = gate.qubits()[0];
            const std::size_t b = gate.qubits()[1];

            // A pending X/Y product is not folded into a CNOT, CZ, CRz,
            // CPhase or ZZ (see fuseGates): it goes out on its own, after
            // any chain on its wire (whose gates it follows).
            const auto held = [&](std::size_t q) {
                return pending[q].count > 0 && pending[q].flipsOnly &&
                       isPermOrDiagonal2q(gate);
            };
            const bool holdA = held(a);
            const bool holdB = held(b);
            if (holdA || holdB) {
                closeChain(a);
                closeChain(b);
                if (holdA)
                    flush(a);
                if (holdB)
                    flush(b);
            }

            const std::size_t folds = (pending[a].count > 0 ? 1u : 0u) +
                                      (pending[b].count > 0 ? 1u : 0u);
            const Matrix pa = pending[a].count > 0
                                  ? std::move(pending[a].product)
                                  : Matrix::identity(2);
            const Matrix pb = pending[b].count > 0
                                  ? std::move(pending[b].product)
                                  : Matrix::identity(2);
            pending[a] = Pending{};
            pending[b] = Pending{};

            // Extend an open chain on the exact ordered pair (a, b).
            const std::ptrdiff_t c = chainOn[a];
            if (c >= 0 && c == chainOn[b] &&
                chains[static_cast<std::size_t>(c)].a == a &&
                chains[static_cast<std::size_t>(c)].b == b) {
                OpenChain& chain = chains[static_cast<std::size_t>(c)];
                if (!chain.fused) {
                    const Matrix id = Matrix::identity(2);
                    addStage(chain, std::get<Gate>(ops[chain.firstOp]), id,
                             id);
                }
                addStage(chain, gate, pa, pb);
                st.foldedInto2q += folds;
                ++st.merged2q;
                continue;
            }
            // A same-wire chain on any other pairing ends here.
            closeChain(a);
            closeChain(b);

            OpenChain chain;
            chain.a = a;
            chain.b = b;
            chain.slot = slots.size();
            chain.firstOp = i;
            if (folds > 0) {
                addStage(chain, gate, pa, pb);
                st.foldedInto2q += folds;
            }
            slots.emplace_back(); // filled by closeChain
            chainOn[a] = static_cast<std::ptrdiff_t>(chains.size());
            chainOn[b] = chainOn[a];
            chains.push_back(std::move(chain));
            continue;
        }

        // 3q: barrier on the operand wires.
        for (std::size_t q : gate.qubits()) {
            closeChain(q);
            flush(q);
        }
        slots.emplace_back(gate);
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

    // Compact the slots, mapping the runs' slot spans onto op indices (a
    // run's own slots are never empty).
    std::vector<Operation> fused;
    fused.reserve(slots.size());
    std::size_t nextRun = 0;
    for (std::size_t s = 0; s < slots.size(); ++s) {
        if (nextRun < runSlots.size() && runSlots[nextRun].begin == s) {
            if (runs)
                runs->push_back({fused.size(),
                                 fused.size() + runSlots[nextRun].end - s});
            ++nextRun;
        }
        if (slots[s])
            fused.push_back(std::move(*slots[s]));
    }
    Circuit out(n, std::move(fused));
    if (stats) {
        *stats = st;
        stats->gatesOut = out.gateCount();
    }
    return out;
}

} // namespace qkc
