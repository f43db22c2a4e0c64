#include "testing/algorithm_circuits.h"

#include <cmath>
#include <stdexcept>

namespace qkc::testing {

namespace {

bool
maskBit(std::uint64_t mask, std::size_t qubit, std::size_t n)
{
    // Qubit 0 is the most significant bit of an n-bit string.
    return (mask >> (n - 1 - qubit)) & 1;
}

} // namespace

Circuit
bellCircuit()
{
    Circuit c(2);
    c.h(0).cnot(0, 1);
    return c;
}

Circuit
chshCircuit(double thetaA, double thetaB)
{
    Circuit c = bellCircuit();
    c.ry(0, -thetaA).ry(1, -thetaB);
    return c;
}

Circuit
teleportationCircuit(double theta)
{
    Circuit c(3);
    // Message on qubit 0.
    c.ry(0, theta);
    // Bell pair between qubits 1 (Alice) and 2 (Bob).
    c.h(1).cnot(1, 2);
    // Alice's Bell measurement, deferred: the measurement-dependent X and Z
    // corrections on Bob's qubit become quantum-controlled gates.
    c.cnot(0, 1).h(0);
    c.cnot(1, 2);  // X correction controlled on Alice's second qubit
    c.cz(0, 2);    // Z correction controlled on Alice's first qubit
    return c;
}

Circuit
deutschJozsaCircuit(std::size_t n, std::uint64_t balancedMask)
{
    Circuit c(n + 1);
    const std::size_t anc = n;
    // Phase-kickback ancilla in |->.
    c.x(anc).h(anc);
    for (std::size_t q = 0; q < n; ++q)
        c.h(q);
    // Oracle: f(x) = parity(x & mask); constant-zero when mask == 0.
    for (std::size_t q = 0; q < n; ++q) {
        if (maskBit(balancedMask, q, n))
            c.cnot(q, anc);
    }
    for (std::size_t q = 0; q < n; ++q)
        c.h(q);
    return c;
}

Circuit
bernsteinVaziraniCircuit(std::size_t n, std::uint64_t a)
{
    // BV is DJ with the hidden-string parity oracle; the final H layer maps
    // the phase pattern back to the basis state |a>.
    return deutschJozsaCircuit(n, a);
}

Circuit
simonCircuit(std::size_t n, std::uint64_t s)
{
    if (s == 0 || s >= (std::uint64_t{1} << n))
        throw std::invalid_argument("simonCircuit: need 0 < s < 2^n");

    Circuit c(2 * n);
    for (std::size_t q = 0; q < n; ++q)
        c.h(q);
    // Oracle f(x) = x XOR (x_j ? s : 0) where j is the first set bit of s;
    // f is two-to-one with period s. First copy x into the output register.
    for (std::size_t q = 0; q < n; ++q)
        c.cnot(q, n + q);
    std::size_t pivot = 0;
    while (!maskBit(s, pivot, n))
        ++pivot;
    for (std::size_t q = 0; q < n; ++q) {
        if (maskBit(s, q, n))
            c.cnot(pivot, n + q);
    }
    // Fourier sample the input register.
    for (std::size_t q = 0; q < n; ++q)
        c.h(q);
    return c;
}

Circuit
hiddenShiftCircuit(std::size_t n, std::uint64_t s)
{
    if (n % 2 != 0)
        throw std::invalid_argument("hiddenShiftCircuit: n must be even");

    // Maiorana-McFarland bent function f(x) = XOR_i x_{2i} x_{2i+1}; its
    // dual is itself, so the van Dam-Hallgren-Ip circuit is
    // H^n . O_f . H^n . O_g . H^n with O_g the shifted oracle.
    Circuit c(n);
    auto oracle = [&] {
        for (std::size_t i = 0; i + 1 < n; i += 2)
            c.cz(i, i + 1);
    };
    auto shift = [&] {
        for (std::size_t q = 0; q < n; ++q) {
            if (maskBit(s, q, n))
                c.x(q);
        }
    };

    for (std::size_t q = 0; q < n; ++q)
        c.h(q);
    shift();
    oracle();
    shift();
    for (std::size_t q = 0; q < n; ++q)
        c.h(q);
    oracle();
    for (std::size_t q = 0; q < n; ++q)
        c.h(q);
    return c;
}

Circuit
qftCircuit(std::size_t n)
{
    // Standard textbook QFT: on each qubit an H followed by controlled
    // phases from every later qubit, then a qubit-order reversal.
    Circuit c(n);
    for (std::size_t i = 0; i < n; ++i) {
        c.h(i);
        for (std::size_t j = i + 1; j < n; ++j) {
            double theta = M_PI / static_cast<double>(1ULL << (j - i));
            c.cphase(j, i, theta);
        }
    }
    for (std::size_t i = 0; i < n / 2; ++i)
        c.swap(i, n - 1 - i);
    return c;
}

Circuit
inverseQftCircuit(std::size_t n)
{
    // Reverse gate order with negated phases.
    Circuit c(n);
    for (std::size_t i = n; i-- > 0;) {
        for (std::size_t j = n; j-- > i + 1;) {
            double theta = -M_PI / static_cast<double>(1ULL << (j - i));
            c.cphase(j, i, theta);
        }
        c.h(i);
    }
    Circuit swapped(n);
    for (std::size_t i = 0; i < n / 2; ++i)
        swapped.swap(i, n - 1 - i);
    swapped.extend(c);
    return swapped;
}

Circuit
phaseEstimationCircuit(std::size_t counting, double phi)
{
    if (counting < 1 || counting > 10)
        throw std::invalid_argument("phaseEstimationCircuit: counting in [1,10]");
    const std::size_t t = counting;
    Circuit c(t + 1);
    const std::size_t eigen = t;  // eigenstate qubit

    c.x(eigen);  // |1> is the eigenstate of P(theta) with eigenvalue e^{i theta}
    for (std::size_t j = 0; j < t; ++j)
        c.h(j);
    // Counting qubit j (MSB first) controls U^(2^(t-1-j)).
    for (std::size_t j = 0; j < t; ++j) {
        double theta = 2.0 * M_PI * phi * std::pow(2.0, static_cast<double>(t - 1 - j));
        c.cphase(j, eigen, theta);
    }
    // Inverse QFT on the counting register.
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

Circuit
wStateCircuit(std::size_t n)
{
    if (n < 2)
        throw std::invalid_argument("wStateCircuit: need n >= 2");
    Circuit c(n);
    c.x(0);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        // Controlled-Ry(theta) spreading 1/(n-i) of the remaining amplitude,
        // followed by a CNOT that moves the excitation.
        double theta = 2.0 * std::acos(std::sqrt(
            1.0 / static_cast<double>(n - i)));
        Matrix ry = Gate(GateKind::Ry, {0}, theta).unitary();
        Matrix cry = Matrix::identity(4);
        for (std::size_t r = 0; r < 2; ++r)
            for (std::size_t col = 0; col < 2; ++col)
                cry(2 + r, 2 + col) = ry(r, col);
        c.append(Gate::custom({i, i + 1}, cry, "CRy"));
        c.cnot(i + 1, i);
    }
    return c;
}

unsigned
multiplicativeOrder(unsigned a, unsigned n)
{
    unsigned x = a % n;
    for (unsigned r = 1; r <= n; ++r) {
        if (x == 1)
            return r;
        x = x * (a % n) % n;
    }
    throw std::invalid_argument("multiplicativeOrder: a not coprime to n");
}

} // namespace qkc::testing
