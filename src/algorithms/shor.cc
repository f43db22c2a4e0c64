#include "algorithms/algorithms.h"

#include <cmath>
#include <stdexcept>

namespace qkc {

namespace {

/**
 * Appends multiplication by `m` modulo 15 on the 4-bit work register
 * starting at `w0`, controlled on qubit `ctrl`.
 *
 * Multiplication by 2^k mod 15 is a left rotation of the 4-bit string by k;
 * multiplication by 14 = -1 mod 15 is bitwise complement (Vandersypen-style
 * compiled arithmetic). Every unit of Z_15^* factors as 2^k * (+-1):
 *   2,4,8 = rotations;  14 = complement;  7,11,13 = rotation + complement.
 */
void
controlledMultMod15(Circuit& c, std::size_t ctrl, std::size_t w0, unsigned m)
{
    auto cswapPair = [&](std::size_t a, std::size_t b) {
        c.cswap(ctrl, w0 + a, w0 + b);
    };
    auto rotateLeft1 = [&] { cswapPair(0, 1); cswapPair(1, 2); cswapPair(2, 3); };
    auto rotateLeft2 = [&] { cswapPair(0, 2); cswapPair(1, 3); };
    auto rotateLeft3 = [&] { cswapPair(2, 3); cswapPair(1, 2); cswapPair(0, 1); };
    auto complement = [&] {
        for (std::size_t i = 0; i < 4; ++i)
            c.cnot(ctrl, w0 + i);
    };

    switch (m) {
      case 1: break;
      case 2: rotateLeft1(); break;
      case 4: rotateLeft2(); break;
      case 8: rotateLeft3(); break;
      case 14: complement(); break;
      case 7: rotateLeft3(); complement(); break;   // 14 * 8 = 7 (mod 15)
      case 11: rotateLeft2(); complement(); break;  // 14 * 4 = 11 (mod 15)
      case 13: rotateLeft1(); complement(); break;  // 14 * 2 = 13 (mod 15)
      default:
        throw std::invalid_argument("controlledMultMod15: m not in Z_15^*");
    }
}

} // namespace

Circuit
shorOrderFindingCircuit(std::size_t counting, unsigned a)
{
    const unsigned validBases[] = {2, 4, 7, 8, 11, 13, 14};
    bool valid = false;
    for (unsigned b : validBases)
        valid = valid || (a == b);
    if (!valid)
        throw std::invalid_argument("shorOrderFindingCircuit: base must be "
                                    "coprime to 15 and != 1");
    if (counting < 1 || counting > 8)
        throw std::invalid_argument("shorOrderFindingCircuit: counting in [1,8]");

    const std::size_t t = counting;
    const std::size_t w0 = t;  // 4-bit work register at [t, t+4)
    Circuit c(t + 4);

    for (std::size_t j = 0; j < t; ++j)
        c.h(j);
    c.x(w0 + 3);  // work register = |0001>

    // Counting qubit j (MSB first) controls multiplication by a^(2^(t-1-j)).
    for (std::size_t j = 0; j < t; ++j) {
        unsigned exponentBits = static_cast<unsigned>(t - 1 - j);
        unsigned m = a % 15;
        for (unsigned k = 0; k < exponentBits; ++k)
            m = m * m % 15;
        controlledMultMod15(c, j, w0, m);
    }
    // Inverse QFT on the counting register: the swaps of the forward QFT
    // first, then the H / controlled-phase ladder in reverse with negated
    // angles.
    for (std::size_t i = 0; i < t / 2; ++i)
        c.swap(i, t - 1 - i);
    for (std::size_t i = t; i-- > 0;) {
        for (std::size_t j = t; j-- > i + 1;) {
            double theta = -M_PI / static_cast<double>(1ULL << (j - i));
            c.cphase(j, i, theta);
        }
        c.h(i);
    }
    return c;
}

} // namespace qkc
