#ifndef QKC_VQA_BACKENDS_H
#define QKC_VQA_BACKENDS_H

#include <memory>
#include <string>

#include "vqa/simulator_api.h"

namespace qkc {

/**
 * The five simulator families behind the task-based Session API (see
 * simulator_api.h). Each family is one entry of backendRegistry() — its
 * name, aliases, option keys, the tasks it serves, its runBatch strategy,
 * and the `open` that constructs its session class — plus that session
 * class, both in backends.cc. The classes below only bind a Backend to
 * their entry, for callers that name a family in code rather than by spec
 * string; the other families are reached through makeBackend.
 */

/** qsim-style state-vector backend (trajectories when noise is present). */
class StateVectorBackend : public Backend {
  public:
    explicit StateVectorBackend(const BackendOptions& defaults = {})
        : Backend(backendInfo("statevector"), defaults)
    {
    }
};

/** Cirq-style density-matrix backend (handles all channels exactly). */
class DensityMatrixBackend : public Backend {
  public:
    explicit DensityMatrixBackend(const BackendOptions& defaults = {})
        : Backend(backendInfo("densitymatrix"), defaults)
    {
    }
};

} // namespace qkc

#endif // QKC_VQA_BACKENDS_H
