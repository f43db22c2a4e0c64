#include "algorithms/algorithms.h"

namespace qkc {

Circuit
noisyBellCircuit(double gamma)
{
    Circuit c(2);
    c.h(0);
    c.append(NoiseChannel::phaseDamping(0, gamma));
    c.cnot(0, 1);
    return c;
}

Circuit
ghzCircuit(std::size_t numQubits)
{
    Circuit c(numQubits);
    c.h(0);
    for (std::size_t q = 1; q < numQubits; ++q)
        c.cnot(q - 1, q);
    return c;
}

} // namespace qkc
