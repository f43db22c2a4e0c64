#include "testing/oracles.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <variant>

#include "exec/execution_plan.h"
#include "statevector/state_vector.h"

namespace qkc::testing {

std::vector<double>
noisyDistributionExhaustive(const Circuit& circuit, const ExecPolicy& policy)
{
    // Collect channel positions so we can enumerate Kraus-choice vectors.
    const ExecutionPlan plan = planCircuit(circuit, policy);
    std::vector<std::size_t> channelOps;
    for (std::size_t i = 0; i < plan.ops.size(); ++i) {
        if (plan.ops[i].isChannel)
            channelOps.push_back(i);
    }
    if (channelOps.size() > 20) {
        throw std::invalid_argument(
            "noisyDistributionExhaustive: too many channels to enumerate");
    }

    std::vector<double> dist(std::size_t{1} << circuit.numQubits(), 0.0);
    std::vector<std::size_t> choice(channelOps.size(), 0);

    // Odometer-style enumeration over all Kraus index combinations. Each
    // combination is one unnormalized branch; its squared amplitudes already
    // carry the branch probability, so plain accumulation is exact.
    for (;;) {
        StateVector sv(circuit.numQubits());
        sv.setExecPolicy(policy);
        std::size_t chIdx = 0;
        for (const auto& op : plan.ops) {
            if (!op.isChannel) {
                sv.apply(op.kernels[0]);
            } else {
                sv.apply(op.kernels[choice[chIdx]]);
                ++chIdx;
            }
        }
        const auto probs = sv.probabilities();
        for (std::size_t i = 0; i < dist.size(); ++i)
            dist[i] += probs[i];

        // Advance the odometer.
        std::size_t pos = 0;
        for (; pos < choice.size(); ++pos) {
            if (++choice[pos] < plan.ops[channelOps[pos]].kernels.size())
                break;
            choice[pos] = 0;
        }
        if (pos == choice.size())
            break;
    }
    return dist;
}

Circuit
inverse(const Circuit& circuit)
{
    Circuit inv(circuit.numQubits());
    const auto& ops = circuit.operations();
    for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
        const Gate* g = std::get_if<Gate>(&*it);
        if (!g)
            throw std::invalid_argument(
                "inverse: noise channels are not invertible");
        switch (g->kind()) {
          case GateKind::S:
            inv.append(Gate(GateKind::Sdg, g->qubits()));
            break;
          case GateKind::Sdg:
            inv.append(Gate(GateKind::S, g->qubits()));
            break;
          case GateKind::T:
            inv.append(Gate(GateKind::Tdg, g->qubits()));
            break;
          case GateKind::Tdg:
            inv.append(Gate(GateKind::T, g->qubits()));
            break;
          case GateKind::Rx:
          case GateKind::Ry:
          case GateKind::Rz:
          case GateKind::PhaseZ:
          case GateKind::CRz:
          case GateKind::CPhase:
          case GateKind::ZZ:
            inv.append(Gate(g->kind(), g->qubits(), -g->param()));
            break;
          case GateKind::Custom1Q:
          case GateKind::Custom2Q:
            inv.append(Gate::custom(g->qubits(), g->unitary().adjoint(),
                                    g->name() + "^-1"));
            break;
          default:
            // Self-inverse: I, X, Y, Z, H, CNOT, CZ, SWAP, CCX, CCZ, CSWAP.
            inv.append(*g);
            break;
        }
    }
    return inv;
}

std::size_t
inducedWidth(const Graph& g, const std::vector<std::size_t>& order)
{
    std::vector<std::set<std::size_t>> adj(g.numVertices());
    for (const auto& [u, v] : g.edges()) {
        adj[u].insert(v);
        adj[v].insert(u);
    }
    std::size_t width = 0;
    for (std::size_t v : order) {
        width = std::max(width, adj[v].size());
        // Eliminate v: connect its neighbors into a clique, then drop it.
        const auto nbrs = adj[v];
        for (std::size_t a : nbrs) {
            for (std::size_t b : nbrs) {
                if (a != b)
                    adj[a].insert(b);
            }
            adj[a].erase(v);
        }
        adj[v].clear();
    }
    return width;
}

void
applyOp(DensityMatrix& rho, const Operation& op)
{
    Circuit c(rho.numQubits());
    std::visit([&c](const auto& o) { c.append(o); }, op);
    for (const GateKernel& k : DensityMatrix::compileRun(c, {0}))
        rho.apply(k);
}

Matrix
toMatrix(const DensityMatrix& rho)
{
    const std::uint64_t dim = rho.dimension();
    Matrix m(dim, dim);
    for (std::uint64_t r = 0; r < dim; ++r)
        for (std::uint64_t c = 0; c < dim; ++c)
            m(r, c) = rho.at(r, c);
    return m;
}

} // namespace qkc::testing
