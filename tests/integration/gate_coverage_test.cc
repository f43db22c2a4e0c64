/**
 * Systematic coverage: every gate kind, embedded in a small entangling
 * context, must simulate identically on the knowledge-compilation pipeline
 * and the state-vector simulator. This sweeps every Bayesian-network
 * encoding path (transpose CAT, diagonal factor, controlled-permutation
 * node, wire relabeling, chain rule) for every member of the vocabulary.
 */
#include <gtest/gtest.h>

#include "ac/kc_simulator.h"
#include "statevector/statevector_simulator.h"
#include "testing/oracles.h"
#include "testing/param_printers.h"
#include "testing/session_runs.h"

namespace qkc {
namespace {

Gate
makeGate(GateKind kind)
{
    switch (kind) {
      case GateKind::CNOT:
      case GateKind::CZ:
      case GateKind::SWAP:
      case GateKind::CRz:
      case GateKind::CPhase:
      case GateKind::ZZ:
        return Gate(kind, {0, 1}, 0.83);
      case GateKind::CCX:
      case GateKind::CCZ:
      case GateKind::CSWAP:
        return Gate(kind, {0, 1, 2}, 0.0);
      default:
        return Gate(kind, {1}, 0.83);
    }
}

class GateCoverageTest : public ::testing::TestWithParam<GateKind> {};

TEST_P(GateCoverageTest, KcMatchesStateVectorInContext)
{
    // Surround the gate with enough structure that every operand qubit is
    // in superposition and entangled when the gate fires.
    Circuit c(3);
    c.h(0).h(1).t(1).cnot(0, 2).ry(2, 0.41);
    c.append(makeGate(GetParam()));
    c.h(1).cnot(1, 2).rx(0, 1.2);

    KcSimulator kc(c);
    auto amps = testing::finalState(c).amplitudes();
    for (std::uint64_t x = 0; x < amps.size(); ++x) {
        EXPECT_TRUE(approxEqual(kc.amplitude(x), amps[x], 1e-9))
            << "gate " << makeGate(GetParam()).name() << " x=" << x;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, GateCoverageTest,
    ::testing::Values(GateKind::I, GateKind::X, GateKind::Y, GateKind::Z,
                      GateKind::H, GateKind::S, GateKind::Sdg, GateKind::T,
                      GateKind::Tdg, GateKind::Rx, GateKind::Ry, GateKind::Rz,
                      GateKind::PhaseZ, GateKind::CNOT, GateKind::CZ,
                      GateKind::SWAP, GateKind::CRz, GateKind::CPhase,
                      GateKind::ZZ, GateKind::CCX, GateKind::CCZ,
                      GateKind::CSWAP));

class ChannelCoverageTest : public ::testing::TestWithParam<int> {};

TEST_P(ChannelCoverageTest, EveryChannelOnEveryEncodingPath)
{
    // One channel of each kind at an entangled point in the circuit; the
    // KC distribution must match exact density-matrix evolution.
    std::vector<NoiseChannel> channels{
        NoiseChannel::bitFlip(1, 0.11),
        NoiseChannel::phaseFlip(1, 0.17),
        NoiseChannel::depolarizing(1, 0.09),
        NoiseChannel::asymmetricDepolarizing(1, 0.04, 0.05, 0.06),
        NoiseChannel::amplitudeDamping(1, 0.23),
        NoiseChannel::phaseDamping(1, 0.31),
        NoiseChannel::generalizedAmplitudeDamping(1, 0.21, 0.4),
        NoiseChannel::twoQubitDepolarizing(0, 1, 0.13),
    };
    const auto& ch = channels[static_cast<std::size_t>(GetParam())];

    Circuit c(2);
    c.h(0).cnot(0, 1).t(1);
    c.append(ch);
    c.ry(0, 0.77).cnot(1, 0);

    KcSimulator kc(c);
    // Exact by noise-assignment enumeration through the AC itself.
    auto kcDist = kc.outcomeDistribution();

    // Independent exact reference.
    auto exact = testing::noisyDistributionExhaustive(c);
    for (std::size_t x = 0; x < exact.size(); ++x)
        EXPECT_NEAR(kcDist[x], exact[x], 1e-9)
            << ch.name() << " x=" << x;
}

INSTANTIATE_TEST_SUITE_P(AllChannels, ChannelCoverageTest,
                         ::testing::Range(0, 8));

} // namespace
} // namespace qkc
