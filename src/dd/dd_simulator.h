#ifndef QKC_DD_DD_SIMULATOR_H
#define QKC_DD_DD_SIMULATOR_H

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "dd/dd_package.h"
#include "util/rng.h"

namespace qkc {

/**
 * The decision-diagram engine — our stand-in for the JKQ DDSIM family of
 * QMDD simulators. Circuit-level callers open a session
 * (makeBackend("dd")->open(circuit), vqa/simulator_api.h); the session
 * holds one DdSimulator and builds, samples and collects through it, and
 * its trajectory-parallel noisy Sample builds one more per worker lane.
 *
 * simulate builds an ideal circuit's final state as a vector DD by
 * applying one matrix DD per gate; the package then draws each outcome in
 * O(n) by walking the diagram (the per-node normalization invariant makes
 * branch probabilities local). Memory and time track the state's
 * *structure* — GHZ-like and peaked states stay linear in qubits — rather
 * than 2^n, which is why this backend shines on the same workloads as
 * knowledge compilation.
 *
 * sampleNoisySeeded runs Monte-Carlo trajectories like the state-vector
 * engine: each trajectory picks one Kraus operator per channel with the
 * Born probability ||E_k psi||^2 (free to read off the DD root weight),
 * exact in distribution for mixtures and general channels alike. Unlike
 * that engine it renormalizes after every pick, through the root weight.
 */
class DdSimulator {
  public:
    DdSimulator() = default;

    /** Packages this simulator creates collect at `gcThreshold` live nodes. */
    explicit DdSimulator(std::size_t gcThreshold) : gcThreshold_(gcThreshold)
    {
    }

    /** Runs the ideal part of `circuit`; throws if it contains noise. */
    VEdge simulate(const Circuit& circuit);

    /**
     * One outcome per trajectory, each trajectory drawing every Kraus
     * selection and its final measurement from its own generator seeded
     * with seeds[i]. Because trajectory i's randomness does not depend on
     * how many draws trajectories 0..i-1 consumed, a caller can split the
     * seed list across simulators (one per worker lane) and concatenate
     * the outcomes — the dd session's trajectory-parallel noisy Sample —
     * and still read the same payload at every lane count.
     */
    std::vector<std::uint64_t> sampleNoisySeeded(
        const Circuit& circuit, const std::vector<std::uint64_t>& seeds);

    /**
     * The package owning every node of the last simulate or
     * sampleNoisySeeded call. The package persists across calls with the
     * same qubit count (a different count re-creates it); edges a caller
     * holds across package operations must be protected to survive the
     * sweeps sampleNoisySeeded triggers between trajectories.
     */
    DdPackage& package();

    /** True once a package exists (after the first simulate or trajectory). */
    bool hasPackage() const { return pkg_ != nullptr; }

  private:
    DdPackage& packageFor(const Circuit& circuit);

    /**
     * The matrix DD for one gate. Parameter-free gates (H, CNOT, ...) are
     * built once per package and kept as protected roots — a rebind into a
     * persistent package re-lowers only the gates whose angles changed.
     */
    MEdge gateDd(const Gate& gate);

    /** One matrix DD per gate, one DD per Kraus operator per channel. */
    std::vector<std::vector<MEdge>> lowerOperations(const Circuit& circuit);

    VEdge applyKrausSampled(const std::vector<MEdge>& krausDds, VEdge state,
                            Rng& rng);

    std::size_t gcThreshold_ = DdPackage::kDefaultGcThreshold;
    std::unique_ptr<DdPackage> pkg_;
    /** Protected DDs of parameter-free gates, keyed by (kind, qubits). */
    std::map<std::pair<int, std::vector<std::size_t>>, MEdge> fixedGateDds_;
};

} // namespace qkc

#endif // QKC_DD_DD_SIMULATOR_H
