#include "server/admission.h"

#include <variant>

namespace qkc {
namespace server {

namespace {

/** 16·2^n bytes of amplitudes (sv), overflow-safe. */
bool
denseStateFits(std::size_t numQubits, std::uint64_t budget)
{
    if (numQubits >= 60)
        return false; // 16·2^n overflows uint64 past n = 59
    return (16ull << numQubits) <= budget;
}

/** 16·4^n bytes of density matrix (dm), overflow-safe. */
bool
denseMatrixFits(std::size_t numQubits, std::uint64_t budget)
{
    if (numQubits >= 30)
        return false; // 16·4^n overflows uint64 past n = 29
    return (16ull << (2 * numQubits)) <= budget;
}

std::string
bytesLabel(std::uint64_t bytes)
{
    if (bytes >= (1ull << 30))
        return std::to_string(bytes >> 30) + " GiB";
    if (bytes >= (1ull << 20))
        return std::to_string(bytes >> 20) + " MiB";
    return std::to_string(bytes) + " bytes";
}

AdmissionVerdict
checkTask(const Task& task, std::size_t numQubits,
          const AdmissionLimits& limits)
{
    if (const auto* s = std::get_if<Sample>(&task)) {
        if (s->shots > limits.maxShots)
            return AdmissionVerdict::reject(
                "shots", "Sample shots " + std::to_string(s->shots) +
                             " exceeds the limit of " +
                             std::to_string(limits.maxShots));
    } else if (const auto* e = std::get_if<Expectation>(&task)) {
        if (e->shots > limits.maxShots)
            return AdmissionVerdict::reject(
                "shots", "Expectation shots " + std::to_string(e->shots) +
                             " exceeds the limit of " +
                             std::to_string(limits.maxShots));
        if (e->observable.terms.size() > limits.maxObservableTerms)
            return AdmissionVerdict::reject(
                "observable",
                "observable has " +
                    std::to_string(e->observable.terms.size()) +
                    " terms, more than the limit of " +
                    std::to_string(limits.maxObservableTerms));
    } else if (const auto* a = std::get_if<Amplitudes>(&task)) {
        if (a->bitstrings.size() > limits.maxAmplitudes)
            return AdmissionVerdict::reject(
                "bitstrings",
                "request asks for " + std::to_string(a->bitstrings.size()) +
                    " amplitudes, more than the limit of " +
                    std::to_string(limits.maxAmplitudes));
    } else if (const auto* p = std::get_if<Probabilities>(&task)) {
        const std::size_t outQubits =
            p->qubits.empty() ? numQubits : p->qubits.size();
        if (outQubits > limits.maxMarginalQubits)
            return AdmissionVerdict::reject(
                "qubits",
                "a " + std::to_string(outQubits) +
                    "-qubit distribution has 2^" + std::to_string(outQubits) +
                    " entries, past the " +
                    std::to_string(limits.maxMarginalQubits) + "-qubit limit");
    }
    return AdmissionVerdict::ok();
}

} // namespace

AdmissionVerdict
admitRequest(const BackendSpec& spec, const Circuit& circuit, const Task& task,
             const AdmissionLimits& limits)
{
    const std::size_t n = circuit.numQubits();

    if (spec.name == "statevector") {
        if (!denseStateFits(n, limits.stateMemoryBytes))
            return AdmissionVerdict::reject(
                "memory", "a " + std::to_string(n) +
                              "-qubit state vector needs 16*2^" +
                              std::to_string(n) +
                              " bytes, past the state-memory budget of " +
                              bytesLabel(limits.stateMemoryBytes));
    } else if (spec.name == "densitymatrix") {
        if (!denseMatrixFits(n, limits.stateMemoryBytes))
            return AdmissionVerdict::reject(
                "memory", "a " + std::to_string(n) +
                              "-qubit density matrix needs 16*4^" +
                              std::to_string(n) +
                              " bytes, past the state-memory budget of " +
                              bytesLabel(limits.stateMemoryBytes));
    } else if (spec.name == "tensornetwork") {
        if (circuit.noiseCount() > 0)
            return AdmissionVerdict::reject(
                "backend",
                "the tensornet backend does not serve noisy circuits");
    } else if (spec.name == "knowledgecompilation") {
        // Exact distribution/amplitude queries enumerate 2^n AC evaluations.
        const bool exactQuery = std::holds_alternative<Amplitudes>(task) ||
                                std::holds_alternative<Probabilities>(task);
        if (exactQuery && n > limits.kcMaxExactQubits)
            return AdmissionVerdict::reject(
                "backend", "kc exact queries enumerate 2^" +
                               std::to_string(n) +
                               " terms, past the " +
                               std::to_string(limits.kcMaxExactQubits) +
                               "-qubit enumeration budget");
        // A Gibbs chain runs burnIn + shots·thin sweeps, and both knobs come
        // from the client's spec: bound the sweeps like the shots they buy.
        const auto* sample = std::get_if<Sample>(&task);
        const auto* expectation = std::get_if<Expectation>(&task);
        if (sample || expectation) {
            const std::size_t shots =
                sample ? sample->shots : expectation->shots;
            const BackendOptions& o = spec.options;
            if (o.burnIn > limits.maxShots)
                return AdmissionVerdict::reject(
                    "shots", "kc burnin " + std::to_string(o.burnIn) +
                                 " exceeds the limit of " +
                                 std::to_string(limits.maxShots) +
                                 " Gibbs sweeps");
            // shots·thin > maxShots, without the overflowing product.
            if (o.thin > 0 && shots > limits.maxShots / o.thin)
                return AdmissionVerdict::reject(
                    "shots", std::to_string(shots) + " shots at kc thin " +
                                 std::to_string(o.thin) +
                                 " exceed the limit of " +
                                 std::to_string(limits.maxShots) +
                                 " Gibbs sweeps");
        }
    }
    // dd diagrams are structure-dependent with no closed-form bound; the
    // package's own gc threshold is the backstop there.

    return checkTask(task, n, limits);
}

} // namespace server
} // namespace qkc
