#ifndef QKC_VQA_BACKENDS_H
#define QKC_VQA_BACKENDS_H

#include <memory>
#include <string>

#include "vqa/simulator_api.h"

namespace qkc {

/**
 * The five simulator families behind the task-based Session API (see
 * simulator_api.h). Each Backend::open compiles the circuit structure once
 * into a Session; the session then serves Sample / Expectation /
 * Amplitudes / Probabilities tasks and rebinds parameters in place.
 *
 * Capability matrix (what each session serves, and how — "exact" means no
 * Monte-Carlo error; the registry in backendRegistry() carries the same
 * information as data):
 *
 *   backend        Sample          Expectation          Amplitudes  Probabilities
 *   statevector    exact (ideal)   exact (ideal);       ideal       ideal
 *                  trajectories    sampled under noise
 *   densitymatrix  exact           exact (incl. noise)  —           exact (incl. noise)
 *   tensornetwork  exact (ideal)   sampled              exact       exact marginals
 *   decisiondiagram exact (ideal)  exact (ideal);       ideal       ideal
 *                  trajectories    sampled under noise
 *   knowledgecomp. Gibbs (MCMC)    exact (ideal; diag.  ideal       exact (incl. noise)
 *                                  terms under noise)
 *
 * Batched execution (Session::runBatch) fans parameter bindings across
 * thread-pool lanes: sv clones its ExecutionPlan per lane, dd gives each
 * lane a private DdPackage, kc compiles one AC per lane and refreshes its
 * leaves per binding; dm and tn serialize with documented reasons. The
 * per-backend strategy is data in backendRegistry() (the `batch` field).
 */

/** qsim-style state-vector backend (trajectories when noise is present). */
class StateVectorBackend : public Backend {
  public:
    StateVectorBackend() = default;
    explicit StateVectorBackend(const BackendOptions& defaults)
        : defaults_(defaults)
    {
    }

    std::string name() const override { return "statevector"; }
    std::unique_ptr<Session> open(const Circuit& circuit,
                                  const BackendOptions& options) const override;
    using Backend::open;
    const BackendOptions& defaults() const override { return defaults_; }

  private:
    BackendOptions defaults_;
};

/** Cirq-style density-matrix backend (handles all channels exactly). */
class DensityMatrixBackend : public Backend {
  public:
    DensityMatrixBackend() = default;
    explicit DensityMatrixBackend(const BackendOptions& defaults)
        : defaults_(defaults)
    {
    }

    std::string name() const override { return "densitymatrix"; }
    std::unique_ptr<Session> open(const Circuit& circuit,
                                  const BackendOptions& options) const override;
    using Backend::open;
    const BackendOptions& defaults() const override { return defaults_; }

  private:
    BackendOptions defaults_;
};

/** qTorch-style tensor-network backend (ideal circuits only). */
class TensorNetworkBackend : public Backend {
  public:
    TensorNetworkBackend() = default;
    explicit TensorNetworkBackend(const BackendOptions& defaults)
        : defaults_(defaults)
    {
    }

    std::string name() const override { return "tensornetwork"; }
    std::unique_ptr<Session> open(const Circuit& circuit,
                                  const BackendOptions& options) const override;
    using Backend::open;
    const BackendOptions& defaults() const override { return defaults_; }

  private:
    BackendOptions defaults_;
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
    DecisionDiagramBackend() = default;
    explicit DecisionDiagramBackend(const BackendOptions& defaults)
        : defaults_(defaults)
    {
    }

    std::string name() const override { return "decisiondiagram"; }
    std::unique_ptr<Session> open(const Circuit& circuit,
                                  const BackendOptions& options) const override;
    using Backend::open;
    const BackendOptions& defaults() const override { return defaults_; }

  private:
    BackendOptions defaults_;
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
    KnowledgeCompilationBackend() = default;
    explicit KnowledgeCompilationBackend(const BackendOptions& defaults)
        : defaults_(defaults)
    {
    }

    std::string name() const override { return "knowledgecompilation"; }
    std::unique_ptr<Session> open(const Circuit& circuit,
                                  const BackendOptions& options) const override;
    using Backend::open;
    const BackendOptions& defaults() const override { return defaults_; }

  private:
    BackendOptions defaults_;
};

} // namespace qkc

#endif // QKC_VQA_BACKENDS_H
