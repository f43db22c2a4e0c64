#ifndef QKC_TESTS_TESTING_SESSION_RUNS_H
#define QKC_TESTS_TESTING_SESSION_RUNS_H

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "densitymatrix/densitymatrix_simulator.h"
#include "exec/execution_plan.h"
#include "statevector/statevector_simulator.h"
#include "util/rng.h"
#include "vqa/backends.h"

namespace qkc::testing {

/**
 * One-line runs for tests that check a payload rather than a session: each
 * opens a fresh session of `spec` (e.g. "sv", "dm:threads=1") on `circuit`
 * and runs one task.
 */

/** The full outcome distribution: the Probabilities{} payload. */
inline std::vector<double>
probabilitiesOf(const std::string& spec, const Circuit& circuit)
{
    Rng unused(0);
    return makeBackend(spec)->open(circuit)->run(Probabilities{}, unused)
        .probabilities;
}

/** `shots` measurement outcomes drawn from `rng`: the Sample payload. */
inline std::vector<std::uint64_t>
samplesOf(const std::string& spec, const Circuit& circuit, std::size_t shots,
          Rng& rng)
{
    return makeBackend(spec)->open(circuit)->run(Sample{shots}, rng).samples;
}

/** The final state of an ideal circuit, from the planned sv engine. */
inline StateVector
finalState(const Circuit& circuit, const ExecPolicy& policy = {})
{
    return StateVectorSimulator(policy).simulatePlanned(
        planCircuit(circuit, policy));
}

/** The final density matrix, from the planned dm engine. */
inline DensityMatrix
finalRho(const Circuit& circuit, const ExecPolicy& policy = {})
{
    return DensityMatrixSimulator(policy).simulatePlanned(
        planCircuitDm(circuit, policy));
}

} // namespace qkc::testing

#endif // QKC_TESTS_TESTING_SESSION_RUNS_H
