#include "algorithms/algorithms.h"

#include <cmath>
#include <stdexcept>

namespace qkc {

namespace {

/**
 * Applies Z controlled on all n search qubits being 1, using clean ancillas
 * starting at index n: AND-chain of Toffolis into the ancillas, a final
 * CZ/CCZ, then uncomputation. Supports n in [2, 4].
 */
void
multiControlledZ(Circuit& c, std::size_t n)
{
    switch (n) {
      case 2:
        c.cz(0, 1);
        return;
      case 3:
        c.ccz(0, 1, 2);
        return;
      case 4:
        // anc = q0 & q1; phase iff anc & q2 & q3; uncompute.
        c.ccx(0, 1, 4);
        c.ccz(4, 2, 3);
        c.ccx(0, 1, 4);
        return;
      default:
        throw std::invalid_argument("multiControlledZ: n must be in [2, 4]");
    }
}

void
flipZeroBits(Circuit& c, std::size_t n, std::uint64_t value)
{
    for (std::size_t q = 0; q < n; ++q) {
        if (!((value >> (n - 1 - q)) & 1))
            c.x(q);
    }
}

} // namespace

Circuit
groverCircuit(std::size_t n, std::uint64_t marked, int iterations)
{
    if (n < 2 || n > 4)
        throw std::invalid_argument("groverCircuit: n must be in [2, 4]");
    if (marked >= (std::uint64_t{1} << n))
        throw std::invalid_argument("groverCircuit: marked out of range");

    const std::size_t ancillas = n == 4 ? 1 : 0;
    Circuit c(n + ancillas);

    if (iterations < 0) {
        iterations = static_cast<int>(
            std::floor(M_PI / 4.0 * std::sqrt(std::pow(2.0, n))));
        if (iterations < 1)
            iterations = 1;
    }

    for (std::size_t q = 0; q < n; ++q)
        c.h(q);

    for (int it = 0; it < iterations; ++it) {
        // Phase oracle: -1 on |marked>.
        flipZeroBits(c, n, marked);
        multiControlledZ(c, n);
        flipZeroBits(c, n, marked);
        // Diffusion: reflect about the uniform superposition.
        for (std::size_t q = 0; q < n; ++q)
            c.h(q);
        for (std::size_t q = 0; q < n; ++q)
            c.x(q);
        multiControlledZ(c, n);
        for (std::size_t q = 0; q < n; ++q)
            c.x(q);
        for (std::size_t q = 0; q < n; ++q)
            c.h(q);
    }
    return c;
}

} // namespace qkc
