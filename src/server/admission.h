#ifndef QKC_SERVER_ADMISSION_H
#define QKC_SERVER_ADMISSION_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "circuit/circuit.h"
#include "vqa/simulator_api.h"

namespace qkc {
namespace server {

/**
 * Resource ceilings the server checks BEFORE opening a session — a
 * 40-qubit state-vector request must be refused with a structured error at
 * the front door, not discovered as a std::bad_alloc after 16 TiB of
 * amplitude allocation has begun. The per-backend cost model mirrors what
 * the engines actually allocate: sv holds 16·2^n bytes of amplitudes, dm
 * 16·4^n bytes of density matrix (its whole dense peak: channels sweep rho
 * in place), kc enumerates 2^n exact query terms, and dd/tn are
 * structure-dependent (no closed-form bound, so only the generic caps
 * apply).
 */
struct AdmissionLimits {
    /** Dense-state budget (sv amplitudes, dm density matrix), bytes. */
    std::uint64_t stateMemoryBytes = 4ull << 30;

    /** kc exact-query enumeration budget: refuses exact distribution /
     *  amplitude queries past this qubit count (2^n term evaluations). */
    std::size_t kcMaxExactQubits = 16;

    /** Sample/Expectation shots; on kc also the Gibbs burn-in sweeps and
     *  the shots·thin sweeps a chain runs to record them. */
    std::size_t maxShots = 1u << 20;
    std::size_t maxAmplitudes = 4096;       ///< Amplitudes bitstring count
    std::size_t maxMarginalQubits = 16;     ///< Probabilities output 2^k cap
    std::size_t maxObservableTerms = 256;   ///< Expectation Pauli terms
    std::size_t maxBindings = 64;           ///< parameter bindings per request
};

/**
 * The structured outcome of an admission check. `field` names the
 * constraint that tripped (e.g. "memory", "shots") so clients can react
 * programmatically; `reason` is the human-readable sentence the error
 * response carries.
 */
struct AdmissionVerdict {
    bool admitted = true;
    std::string field;
    std::string reason;

    static AdmissionVerdict ok() { return {}; }
    static AdmissionVerdict reject(std::string field, std::string reason)
    {
        return {false, std::move(field), std::move(reason)};
    }
};

/**
 * Feasibility check for one request against one backend, consulted before
 * any session is opened or cached. Admission is deliberately conservative
 * in what it models — structure-dependent blowups (dd diagram width, kc
 * compilation size) pass here and are bounded by the engines' own limits —
 * but everything it does model is checked exactly.
 */
AdmissionVerdict admitRequest(const BackendSpec& spec, const Circuit& circuit,
                              const Task& task,
                              const AdmissionLimits& limits);

} // namespace server
} // namespace qkc

#endif // QKC_SERVER_ADMISSION_H
