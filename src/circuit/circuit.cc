#include "circuit/circuit.h"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace qkc {

Circuit::Circuit(std::size_t numQubits) : numQubits_(numQubits)
{
    if (numQubits == 0 || numQubits > 63)
        throw std::invalid_argument("Circuit: qubit count must be in [1, 63]");
}

Circuit::Circuit(std::size_t numQubits, std::vector<Operation> ops)
    : Circuit(numQubits)
{
    for (const Operation& op : ops)
        checkQubits(operandsOf(op));
    ops_ = std::move(ops);
}

std::size_t
Circuit::gateCount() const
{
    std::size_t n = 0;
    for (const auto& op : ops_)
        if (std::holds_alternative<Gate>(op))
            ++n;
    return n;
}

std::size_t
Circuit::noiseCount() const
{
    return ops_.size() - gateCount();
}

void
Circuit::append(Gate gate)
{
    checkQubits(gate.qubits());
    ops_.emplace_back(std::move(gate));
}

void
Circuit::append(NoiseChannel channel)
{
    checkQubits(channel.qubits());
    ops_.emplace_back(std::move(channel));
}

void
Circuit::extend(const Circuit& other)
{
    if (other.numQubits() != numQubits_)
        throw std::invalid_argument("Circuit::extend: qubit count mismatch");
    for (const auto& op : other.ops_)
        ops_.push_back(op);
}

Circuit
Circuit::withNoiseAfterEachGate(NoiseKind kind, double p) const
{
    Circuit noisy(numQubits_);
    for (const auto& op : ops_) {
        noisy.ops_.push_back(op);
        if (const Gate* g = std::get_if<Gate>(&op)) {
            for (std::size_t q : g->qubits())
                noisy.append(NoiseChannel::make(kind, {q}, {p}));
        }
    }
    return noisy;
}

std::vector<std::size_t>
Circuit::parameterizedGateIndices() const
{
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
        const Gate* g = std::get_if<Gate>(&ops_[i]);
        if (g && g->isParameterized())
            idx.push_back(i);
    }
    return idx;
}

void
Circuit::setGateParam(std::size_t opIndex, double theta)
{
    Gate* g = std::get_if<Gate>(&ops_.at(opIndex));
    if (!g || !g->isParameterized())
        throw std::invalid_argument("setGateParam: not a parameterized gate");
    g->setParam(theta);
}

std::string
Circuit::toString() const
{
    std::ostringstream os;
    os << "Circuit(" << numQubits_ << " qubits, " << gateCount() << " gates, "
       << noiseCount() << " noise ops)\n";
    for (const auto& op : ops_) {
        if (const Gate* g = std::get_if<Gate>(&op)) {
            os << "  " << g->name() << " q";
            for (std::size_t i = 0; i < g->qubits().size(); ++i)
                os << (i ? ",q" : "") << g->qubits()[i];
        } else {
            const auto& ch = std::get<NoiseChannel>(op);
            os << "  " << ch.name() << " q";
            for (std::size_t i = 0; i < ch.qubits().size(); ++i)
                os << (i ? ",q" : "") << ch.qubits()[i];
        }
        os << "\n";
    }
    return os.str();
}

Circuit&
Circuit::add(GateKind kind, std::vector<std::size_t> qubits, double param)
{
    append(Gate(kind, std::move(qubits), param));
    return *this;
}

void
Circuit::checkQubits(const std::vector<std::size_t>& qubits) const
{
    for (std::size_t q : qubits) {
        if (q >= numQubits_)
            throw std::out_of_range("Circuit: qubit index out of range");
    }
}

std::uint64_t
basisIndex(const std::vector<int>& bits)
{
    std::uint64_t idx = 0;
    for (int b : bits) {
        assert(b == 0 || b == 1);
        idx = (idx << 1) | static_cast<std::uint64_t>(b);
    }
    return idx;
}

std::vector<int>
basisBits(std::uint64_t index, std::size_t numQubits)
{
    std::vector<int> bits(numQubits);
    for (std::size_t i = 0; i < numQubits; ++i)
        bits[i] = static_cast<int>((index >> (numQubits - 1 - i)) & 1);
    return bits;
}

std::string
basisKet(std::uint64_t index, std::size_t numQubits)
{
    std::string s = "|";
    for (int b : basisBits(index, numQubits))
        s += static_cast<char>('0' + b);
    s += ">";
    return s;
}

} // namespace qkc
