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
 * string.
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

/** qTorch-style tensor-network backend (ideal circuits only). */
class TensorNetworkBackend : public Backend {
  public:
    explicit TensorNetworkBackend(const BackendOptions& defaults = {})
        : Backend(backendInfo("tensornetwork"), defaults)
    {
    }
};

/**
 * DDSIM-style decision-diagram (QMDD) backend. Ideal sessions build the
 * final state as a diagram and serve samples in O(n) per shot, amplitudes
 * by path walks and expectation values by one apply of a cached
 * Pauli-string matrix DD plus a memoized two-diagram walk; noisy circuits
 * run Born-rule Kraus trajectories with collections between them.
 *
 * One DdPackage persists across parameter binds: the session protects its
 * live roots — the bound state, parameter-free gate DDs, Pauli-term DDs —
 * and each rebind unroots the old state and runs a full mark-and-sweep, so
 * the next binding starts from warm arenas, free lists and table buckets
 * but a deterministic interning table (runBatch's bit-parity contract).
 * Option gcthreshold sets the live-node count that triggers a collection
 * between trajectories and before a build.
 */
class DecisionDiagramBackend : public Backend {
  public:
    explicit DecisionDiagramBackend(const BackendOptions& defaults = {})
        : Backend(backendInfo("decisiondiagram"), defaults)
    {
    }
};

/**
 * The knowledge-compilation backend (this paper's system). open() compiles
 * circuit -> Bayesian network -> CNF -> arithmetic circuit once; bind()
 * only refreshes parameter leaves — the variational reuse that headlines
 * Section 3.2 — and tasks query the compiled AC (Gibbs sampling, exact
 * expectation values, amplitude and probability queries).
 */
class KnowledgeCompilationBackend : public Backend {
  public:
    explicit KnowledgeCompilationBackend(const BackendOptions& defaults = {})
        : Backend(backendInfo("knowledgecompilation"), defaults)
    {
    }
};

} // namespace qkc

#endif // QKC_VQA_BACKENDS_H
