#ifndef QKC_TESTS_TESTING_PARAM_PRINTERS_H
#define QKC_TESTS_TESTING_PARAM_PRINTERS_H

#include <ostream>

#include "circuit/gate.h"
#include "circuit/noise.h"
#include "knowledge/compiler.h"

namespace qkc {

/**
 * gtest printers for the enums that parameterize test suites. CTest's test
 * discovery names a parameterized case by its printed value
 * (`AllKinds/GateUnitaryTest.UnitaryIsUnitary/Rx`); without a printer gtest
 * prints an enum's raw bytes. They sit in namespace qkc so that gtest finds
 * them by argument-dependent lookup.
 */

inline void
PrintTo(GateKind kind, std::ostream* os)
{
    switch (kind) {
      case GateKind::I: *os << "I"; return;
      case GateKind::X: *os << "X"; return;
      case GateKind::Y: *os << "Y"; return;
      case GateKind::Z: *os << "Z"; return;
      case GateKind::H: *os << "H"; return;
      case GateKind::S: *os << "S"; return;
      case GateKind::Sdg: *os << "Sdg"; return;
      case GateKind::T: *os << "T"; return;
      case GateKind::Tdg: *os << "Tdg"; return;
      case GateKind::Rx: *os << "Rx"; return;
      case GateKind::Ry: *os << "Ry"; return;
      case GateKind::Rz: *os << "Rz"; return;
      case GateKind::PhaseZ: *os << "PhaseZ"; return;
      case GateKind::CNOT: *os << "CNOT"; return;
      case GateKind::CZ: *os << "CZ"; return;
      case GateKind::SWAP: *os << "SWAP"; return;
      case GateKind::CRz: *os << "CRz"; return;
      case GateKind::CPhase: *os << "CPhase"; return;
      case GateKind::ZZ: *os << "ZZ"; return;
      case GateKind::CCX: *os << "CCX"; return;
      case GateKind::CCZ: *os << "CCZ"; return;
      case GateKind::CSWAP: *os << "CSWAP"; return;
      case GateKind::Custom1Q: *os << "Custom1Q"; return;
      case GateKind::Custom2Q: *os << "Custom2Q"; return;
    }
}

inline void
PrintTo(NoiseKind kind, std::ostream* os)
{
    switch (kind) {
      case NoiseKind::BitFlip: *os << "BitFlip"; return;
      case NoiseKind::PhaseFlip: *os << "PhaseFlip"; return;
      case NoiseKind::Depolarizing: *os << "Depolarizing"; return;
      case NoiseKind::AsymmetricDepolarizing:
        *os << "AsymmetricDepolarizing";
        return;
      case NoiseKind::AmplitudeDamping: *os << "AmplitudeDamping"; return;
      case NoiseKind::PhaseDamping: *os << "PhaseDamping"; return;
      case NoiseKind::GeneralizedAmplitudeDamping:
        *os << "GeneralizedAmplitudeDamping";
        return;
      case NoiseKind::TwoQubitDepolarizing:
        *os << "TwoQubitDepolarizing";
        return;
    }
}

inline void
PrintTo(DecisionHeuristic heuristic, std::ostream* os)
{
    switch (heuristic) {
      case DecisionHeuristic::Lexicographic: *os << "Lexicographic"; return;
      case DecisionHeuristic::MinFill: *os << "MinFill"; return;
      case DecisionHeuristic::Dynamic: *os << "Dynamic"; return;
    }
}

} // namespace qkc

#endif // QKC_TESTS_TESTING_PARAM_PRINTERS_H
