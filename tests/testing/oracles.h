#ifndef QKC_TESTS_TESTING_ORACLES_H
#define QKC_TESTS_TESTING_ORACLES_H

#include <cstddef>
#include <vector>

#include "circuit/circuit.h"
#include "densitymatrix/density_matrix.h"
#include "exec/thread_pool.h"
#include "linalg/matrix.h"
#include "util/graph.h"

namespace qkc::testing {

/**
 * Exact outcome distribution of a noisy circuit by enumerating every
 * combination of Kraus choices over the sv execution plan of `circuit`
 * under `policy`. Exponential in the channel count; throws past 20
 * channels.
 */
std::vector<double> noisyDistributionExhaustive(const Circuit& circuit,
                                                const ExecPolicy& policy = {});

/**
 * The inverse circuit: operations reversed with each gate inverted
 * (rotations negate their angle, S/T swap with their daggers, custom gates
 * use the adjoint). Throws if the circuit contains noise — channels are
 * not invertible.
 */
Circuit inverse(const Circuit& circuit);

/**
 * Induced treewidth of an elimination order (max clique size - 1 during
 * elimination): the quality metric of the min-fill tests.
 */
std::size_t inducedWidth(const Graph& g, const std::vector<std::size_t>& order);

/** rho <- op(rho): the kernels DensityMatrix::compileOp lowers `op` to. */
void applyOp(DensityMatrix& rho, const Operation& op);

/** The full 2^n x 2^n matrix of rho (small instances only). */
Matrix toMatrix(const DensityMatrix& rho);

} // namespace qkc::testing

#endif // QKC_TESTS_TESTING_ORACLES_H
