#include "vqa/pauli.h"

#include <stdexcept>

namespace qkc {

PauliString::PauliString(const std::string& text) : text_(text)
{
    if (text.empty())
        throw std::invalid_argument("PauliString: empty");
    paulis_.reserve(text.size());
    for (char c : text) {
        if (c != 'I' && c != 'X' && c != 'Y' && c != 'Z')
            throw std::invalid_argument("PauliString: bad character");
        paulis_.push_back(c);
    }
}

bool
PauliString::isDiagonal() const
{
    for (char c : paulis_)
        if (c == 'X' || c == 'Y')
            return false;
    return true;
}

bool
PauliString::isIdentity() const
{
    for (char c : paulis_)
        if (c != 'I')
            return false;
    return true;
}

Circuit
PauliString::withMeasurementBasis(const Circuit& circuit) const
{
    if (circuit.numQubits() != paulis_.size())
        throw std::invalid_argument("PauliString: qubit count mismatch");
    Circuit rotated = circuit;
    for (std::size_t q = 0; q < paulis_.size(); ++q) {
        if (paulis_[q] == 'X') {
            rotated.h(q);
        } else if (paulis_[q] == 'Y') {
            rotated.sdg(q);
            rotated.h(q);
        }
    }
    return rotated;
}

int
PauliString::eigenvalue(std::uint64_t outcome) const
{
    const std::size_t n = paulis_.size();
    int parity = 0;
    for (std::size_t q = 0; q < n; ++q) {
        if (paulis_[q] == 'I')
            continue;
        parity ^= static_cast<int>((outcome >> (n - 1 - q)) & 1);
    }
    return parity ? -1 : 1;
}

double
PauliString::expectationFromSamples(
    const std::vector<std::uint64_t>& samples) const
{
    if (samples.empty())
        return 0.0;
    double acc = 0.0;
    for (std::uint64_t s : samples)
        acc += eigenvalue(s);
    return acc / static_cast<double>(samples.size());
}

bool
PauliSum::isDiagonal() const
{
    for (const auto& [coeff, pauli] : terms) {
        (void)coeff;
        if (!pauli.isDiagonal())
            return false;
    }
    return true;
}

} // namespace qkc
