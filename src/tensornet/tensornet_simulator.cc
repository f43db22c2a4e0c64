#include "tensornet/tensornet_simulator.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>

#include "linalg/types.h"
#include "obs/metrics.h"

namespace qkc {

namespace {

/** Gate tensor with edges [outBits..., inBits...] and data U[out][in]. */
Tensor
gateTensor(const Gate& gate, const std::vector<int>& outEdges,
           const std::vector<int>& inEdges, bool conj)
{
    Matrix u = gate.unitary();
    const std::size_t k = gate.arity();
    const std::size_t dim = std::size_t{1} << k;
    Tensor t;
    t.edges = outEdges;
    t.edges.insert(t.edges.end(), inEdges.begin(), inEdges.end());
    t.data.resize(dim * dim);
    for (std::size_t o = 0; o < dim; ++o)
        for (std::size_t i = 0; i < dim; ++i)
            t.data[(o << k) | i] = conj ? std::conj(u(o, i)) : u(o, i);
    return t;
}

} // namespace

TensorNetworkSimulator::Network
TensorNetworkSimulator::buildNetwork(const Circuit& circuit, bool conj)
{
    Network net;
    const std::size_t n = circuit.numQubits();
    std::vector<int> current(n);
    for (std::size_t q = 0; q < n; ++q) {
        current[q] = net.nextEdge++;
        net.tensors.push_back(Tensor::vec(current[q], 1.0, 0.0));
    }
    for (const auto& op : circuit.operations()) {
        const Gate* g = std::get_if<Gate>(&op);
        if (!g) {
            throw std::invalid_argument(
                "TensorNetworkSimulator: noisy circuits unsupported (the "
                "qTorch baseline is ideal-only; see Figure 8)");
        }
        std::vector<int> inEdges, outEdges;
        for (std::size_t q : g->qubits()) {
            inEdges.push_back(current[q]);
            outEdges.push_back(net.nextEdge++);
        }
        net.tensors.push_back(gateTensor(*g, outEdges, inEdges, conj));
        for (std::size_t j = 0; j < g->qubits().size(); ++j)
            current[g->qubits()[j]] = outEdges[j];
    }
    net.outputEdges = current;
    return net;
}

Complex
TensorNetworkSimulator::contractToScalar(std::vector<Tensor> tensors)
{
    auto plan = TnSampler::planContraction(tensors);
    return TnSampler::executePlan(std::move(tensors), plan);
}

Complex
TensorNetworkSimulator::amplitude(const Circuit& circuit,
                                  std::uint64_t bitstring) const
{
    Network net = buildNetwork(circuit, false);
    const std::size_t n = circuit.numQubits();
    for (std::size_t q = 0; q < n; ++q) {
        int bit = static_cast<int>((bitstring >> (n - 1 - q)) & 1);
        net.tensors.push_back(Tensor::vec(net.outputEdges[q],
                                          bit == 0 ? 1.0 : 0.0,
                                          bit == 1 ? 1.0 : 0.0));
    }
    return contractToScalar(std::move(net.tensors));
}

// ---------------------------------------------------------------------------
// TnSampler
// ---------------------------------------------------------------------------

TnSampler::MarginalPlan
TnSampler::buildMarginalTensors(const Circuit& circuit,
                                const std::vector<std::size_t>& qubits)
{
    // A doubled (ket x bra) network: unselected qubits have their ket and
    // bra output edges identified, which traces them out; selected qubits
    // get a projector vector on each side.
    const std::size_t n = circuit.numQubits();
    std::vector<bool> selected(n, false);
    for (std::size_t q : qubits) {
        if (q >= n)
            throw std::invalid_argument(
                "TnSampler: marginal qubit out of range");
        if (selected[q])
            throw std::invalid_argument("TnSampler: repeated marginal qubit");
        selected[q] = true;
    }

    TensorNetworkSimulator::Network ket =
        TensorNetworkSimulator::buildNetwork(circuit, false);
    TensorNetworkSimulator::Network bra =
        TensorNetworkSimulator::buildNetwork(circuit, true);
    const int offset = ket.nextEdge;
    for (Tensor& t : bra.tensors)
        for (int& e : t.edges)
            e += offset;
    for (int& e : bra.outputEdges)
        e += offset;

    MarginalPlan mp;
    mp.tensors = std::move(ket.tensors);
    mp.tensors.insert(mp.tensors.end(),
                      std::make_move_iterator(bra.tensors.begin()),
                      std::make_move_iterator(bra.tensors.end()));
    // Identify traced output edges.
    for (std::size_t q = 0; q < n; ++q) {
        if (selected[q])
            continue;
        for (Tensor& t : mp.tensors)
            for (int& e : t.edges)
                if (e == bra.outputEdges[q])
                    e = ket.outputEdges[q];
    }
    // Projector placeholders for selected qubits, in the given order.
    for (std::size_t q : qubits) {
        mp.projectors.emplace_back(mp.tensors.size(), mp.tensors.size() + 1);
        mp.tensors.push_back(Tensor::vec(ket.outputEdges[q], 1.0, 0.0));
        mp.tensors.push_back(Tensor::vec(bra.outputEdges[q], 1.0, 0.0));
    }
    return mp;
}

double
TnSampler::marginalProbability(const MarginalPlan& mp,
                               std::uint64_t assignment)
{
    const std::size_t k = mp.projectors.size();
    std::vector<Tensor> tensors = mp.tensors;
    for (std::size_t j = 0; j < k; ++j) {
        const int bit = static_cast<int>((assignment >> (k - 1 - j)) & 1u);
        auto [ketIdx, braIdx] = mp.projectors[j];
        tensors[ketIdx].data = {bit == 0 ? 1.0 : 0.0, bit == 1 ? 1.0 : 0.0};
        tensors[braIdx].data = tensors[ketIdx].data;
    }
    Complex p = executePlan(std::move(tensors), mp.plan);
    return std::max(0.0, p.real());
}

namespace {

std::vector<std::size_t>
prefixQubits(std::size_t prefixLen)
{
    std::vector<std::size_t> qs(prefixLen);
    for (std::size_t q = 0; q < prefixLen; ++q)
        qs[q] = q;
    return qs;
}

} // namespace

TnSampler::TnSampler(const Circuit& circuit)
    : numQubits_(circuit.numQubits())
{
    for (std::size_t prefixLen = 1; prefixLen <= numQubits_; ++prefixLen) {
        MarginalPlan mp =
            buildMarginalTensors(circuit, prefixQubits(prefixLen));
        mp.plan = planContraction(mp.tensors);
        plans_.push_back(std::move(mp));
    }
}

void
TnSampler::rebind(const Circuit& circuit)
{
    if (circuit.numQubits() != numQubits_)
        throw std::invalid_argument("TnSampler::rebind: qubit count differs");
    for (std::size_t prefixLen = 1; prefixLen <= numQubits_; ++prefixLen) {
        MarginalPlan& mp = plans_[prefixLen - 1];
        MarginalPlan fresh =
            buildMarginalTensors(circuit, prefixQubits(prefixLen));
        if (fresh.tensors.size() != mp.tensors.size())
            throw std::invalid_argument(
                "TnSampler::rebind: circuit structure differs");
        // Edge wiring is derived purely from the op sequence, so identical
        // edges mean the cached contraction plans replay unchanged.
        for (std::size_t i = 0; i < fresh.tensors.size(); ++i) {
            if (fresh.tensors[i].edges != mp.tensors[i].edges)
                throw std::invalid_argument(
                    "TnSampler::rebind: circuit structure differs");
        }
        mp.tensors = std::move(fresh.tensors);
        mp.projectors = std::move(fresh.projectors);
    }
}

double
TnSampler::prefixProbability(std::uint64_t prefixBits, std::size_t prefixLen)
{
    assert(prefixLen >= 1 && prefixLen <= numQubits_);
    return marginalProbability(plans_[prefixLen - 1], prefixBits);
}

std::vector<std::uint64_t>
TnSampler::sample(std::size_t numSamples, Rng& rng)
{
    std::vector<std::uint64_t> samples;
    samples.reserve(numSamples);
    for (std::size_t s = 0; s < numSamples; ++s) {
        std::uint64_t prefix = 0;
        double pPrefix = 1.0;
        for (std::size_t q = 0; q < numQubits_; ++q) {
            double p0 = prefixProbability(prefix << 1, q + 1);
            double conditional = pPrefix > 0.0 ? p0 / pPrefix : 0.5;
            if (rng.uniform() < conditional) {
                prefix = prefix << 1;
                pPrefix = p0;
            } else {
                prefix = (prefix << 1) | 1;
                pPrefix = std::max(0.0, pPrefix - p0);
            }
        }
        samples.push_back(prefix);
    }
    return samples;
}

std::vector<std::pair<std::size_t, std::size_t>>
TnSampler::planContraction(const std::vector<Tensor>& tensors)
{
    // Structural greedy: repeatedly contract the pair whose result has the
    // smallest rank, preferring pairs that share edges.
    struct Shape {
        std::set<int> edges;
        bool alive = true;
    };
    std::vector<Shape> shapes;
    shapes.reserve(tensors.size() * 2);
    for (const Tensor& t : tensors)
        shapes.push_back({{t.edges.begin(), t.edges.end()}, true});

    std::vector<std::pair<std::size_t, std::size_t>> plan;
    std::size_t aliveCount = shapes.size();
    while (aliveCount > 1) {
        std::size_t bestI = SIZE_MAX, bestJ = SIZE_MAX;
        std::size_t bestRank = SIZE_MAX;
        bool bestShares = false;
        for (std::size_t i = 0; i < shapes.size(); ++i) {
            if (!shapes[i].alive)
                continue;
            for (std::size_t j = i + 1; j < shapes.size(); ++j) {
                if (!shapes[j].alive)
                    continue;
                std::size_t sharedCount = 0;
                for (int e : shapes[i].edges)
                    sharedCount += shapes[j].edges.count(e);
                bool shares = sharedCount > 0;
                std::size_t rank = shapes[i].edges.size() +
                                   shapes[j].edges.size() - 2 * sharedCount;
                if ((shares && !bestShares) ||
                    (shares == bestShares && rank < bestRank)) {
                    bestI = i;
                    bestJ = j;
                    bestRank = rank;
                    bestShares = shares;
                }
            }
        }
        if (bestRank > 28)
            throw std::runtime_error(
                "TnSampler: contraction exceeds rank limit");
        plan.emplace_back(bestI, bestJ);
        Shape merged;
        for (int e : shapes[bestI].edges)
            if (!shapes[bestJ].edges.count(e))
                merged.edges.insert(e);
        for (int e : shapes[bestJ].edges)
            if (!shapes[bestI].edges.count(e))
                merged.edges.insert(e);
        shapes[bestI].alive = false;
        shapes[bestJ].alive = false;
        shapes.push_back(std::move(merged));
        --aliveCount;
    }
    return plan;
}

Complex
TnSampler::executePlan(std::vector<Tensor> tensors,
                       const std::vector<std::pair<std::size_t, std::size_t>>& plan)
{
    static obs::Counter contractions("tn.contractions");
    contractions.add(plan.size());
    for (const auto& [i, j] : plan) {
        tensors.push_back(contractPair(tensors[i], tensors[j]));
        tensors[i] = Tensor{};
        tensors[j] = Tensor{};
    }
    const Tensor& last = tensors.back();
    if (!last.edges.empty())
        throw std::logic_error("TnSampler: contraction left open edges");
    return last.data[0];
}

} // namespace qkc
