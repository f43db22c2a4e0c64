#include "vqa/backends.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "ac/kc_simulator.h"
#include "dd/dd_simulator.h"
#include "densitymatrix/densitymatrix_simulator.h"
#include "exec/execution_plan.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"
#include "statevector/statevector_simulator.h"
#include "tensornet/tensornet_simulator.h"

namespace qkc {

namespace {

ExecPolicy
execPolicyFrom(const BackendOptions& options)
{
    ExecPolicy policy;
    policy.threads = options.threads;
    policy.fuseGates = options.fuse;
    return policy;
}

/**
 * A Pauli string as bit masks over basis indices (qubit 0 = MSB):
 * P|y> = phase(y) |y ^ flip>, with phase(y) = i^nY (-1)^parity(y & sign).
 */
struct PauliMasks {
    std::uint64_t flip = 0; ///< the X and Y factors
    std::uint64_t sign = 0; ///< the Y and Z factors
    unsigned nY = 0;        ///< the number of Y factors
};

PauliMasks
pauliMasks(const PauliString& pauli, std::size_t n)
{
    PauliMasks m;
    for (std::size_t q = 0; q < n; ++q) {
        const std::uint64_t bit = std::uint64_t{1} << (n - 1 - q);
        const char p = pauli.pauli(q);
        if (p == 'X' || p == 'Y')
            m.flip |= bit;
        if (p == 'Y' || p == 'Z')
            m.sign |= bit;
        if (p == 'Y')
            ++m.nY;
    }
    return m;
}

/**
 * Exact <H> = sum_j c_j tr(rho P_j) of an n-qubit state read through
 * diag(y) = rho(y, y) and entry(y, z) = rho(y, z). One serial pass over y
 * in increasing order keeps one accumulator per term: a diagonal term adds
 * +-diag(y); any other adds Re(rho(y, y ^ flip) P(y ^ flip, y)) =
 * Re(entry(y, y ^ flip) phase(y)). The terms are then summed in term
 * order, identity terms adding their coefficient. diag is only called when
 * a diagonal term exists, entry only for the other terms.
 */
template <class Diag, class Entry>
double
exactExpectation(const PauliSum& observable, std::size_t n, const Diag& diag,
                 const Entry& entry)
{
    std::vector<PauliMasks> masks;
    bool anyDiagonal = false;
    for (const auto& term : observable.terms) {
        if (term.second.isIdentity())
            continue;
        masks.push_back(pauliMasks(term.second, n));
        anyDiagonal = anyDiagonal || masks.back().flip == 0;
    }
    std::vector<double> acc(masks.size(), 0.0);
    const std::uint64_t dim = masks.empty() ? 0 : std::uint64_t{1} << n;
    for (std::uint64_t y = 0; y < dim; ++y) {
        const double p = anyDiagonal ? diag(y) : 0.0;
        for (std::size_t t = 0; t < masks.size(); ++t) {
            const PauliMasks& m = masks[t];
            const bool odd = __builtin_parityll(y & m.sign);
            if (m.flip == 0) {
                acc[t] += odd ? -p : p;
                continue;
            }
            // Re(e i^nY): the real part cycles through re, -im, -re, im.
            const Complex e = entry(y, y ^ m.flip);
            const double re = m.nY % 2 == 0 ? e.real() : e.imag();
            const bool negate = odd != (m.nY % 4 == 1 || m.nY % 4 == 2);
            acc[t] += negate ? -re : re;
        }
    }
    double total = 0.0;
    std::size_t t = 0;
    for (const auto& [coeff, pauli] : observable.terms)
        total += pauli.isIdentity() ? coeff : coeff * acc[t++];
    return total;
}

// ---------------------------------------------------------------------------
// State vector
// ---------------------------------------------------------------------------

/**
 * One planned circuit and one 2^n state per session. The first task
 * allocates the state; a bind only marks it stale, and the next task
 * re-runs the plan into the same buffer. Ideal tasks read the amplitudes
 * directly: Sample reads them once for its chunk sums, Probabilities fills
 * its payload from them, and every term of an Expectation shares one
 * pass (exactExpectation). No other 2^n vector is built.
 */
class SvSession final : public Session {
  public:
    SvSession(const BackendInfo& entry, const Circuit& circuit,
              const BackendOptions& options)
        : Session(entry, circuit, options), policy_(execPolicyFrom(options)),
          sim_(policy_), plan_(planCircuit(circuit, policy_))
    {
    }

  protected:
    std::unique_ptr<Session> cloneForBatch() const override
    {
        // The sv batch strategy: copy the compiled ExecutionPlan into the
        // lane (kernel classification is *not* re-run) and let each lane
        // rebind it per binding.
        return std::unique_ptr<SvSession>(new SvSession(*this));
    }

    void trimBatchLane() override
    {
        // Keep the plan (cheap, and the point of the lane); drop the 2^n
        // state the last binding left behind.
        state_.reset();
        stateCurrent_ = false;
    }
    bool doBind(const Circuit& circuit, bool sameStructure) override
    {
        stateCurrent_ = false; // the buffer stays for the next run
        if (sameStructure && tryRebindPlan(plan_, circuit))
            return true;
        plan_ = planCircuit(circuit, policy_);
        return false;
    }

    std::vector<std::uint64_t> doSample(std::size_t shots, Rng& rng,
                                        ResultMeta& meta) override
    {
        if (circuit_.noiseCount() > 0) {
            QKC_SPAN("sv.trajectories");
            meta.trajectories += shots;
            return sim_.sampleNoisyPlanned(plan_, shots, rng);
        }
        ensureState();
        meta.exact = true;
        QKC_SPAN("sv.sample");
        return StateVectorSimulator::sampleFromState(*state_, shots, rng);
    }

    double doExpectation(const PauliSum& observable, std::size_t shots,
                         Rng& rng, ResultMeta& meta) override
    {
        if (circuit_.noiseCount() > 0)
            return sampledExpectation(observable, shots, rng, meta);

        // Native tr(|psi><psi| P), no sampling error: every term shares one
        // pass over the amplitudes, and no second state is built.
        ensureState();
        meta.exact = true;
        QKC_SPAN("sv.expectation");
        const Complex* amps = state_->data();
        return exactExpectation(
            observable, circuit_.numQubits(),
            [amps](std::uint64_t y) { return norm2(amps[y]); },
            [amps](std::uint64_t y, std::uint64_t z) {
                return amps[y] * std::conj(amps[z]);
            });
    }

    std::vector<Complex> doAmplitudes(
        const std::vector<std::uint64_t>& bitstrings,
        ResultMeta& meta) override
    {
        if (circuit_.noiseCount() > 0)
            unsupported("Amplitudes",
                        "noisy runs are trajectory mixtures; use dm "
                        "probabilities instead");
        ensureState();
        meta.exact = true;
        std::vector<Complex> out;
        out.reserve(bitstrings.size());
        for (std::uint64_t b : bitstrings)
            out.push_back(state_->amplitude(b));
        return out;
    }

    std::vector<double> doProbabilities(const std::vector<std::size_t>& qubits,
                                        ResultMeta& meta) override
    {
        if (circuit_.noiseCount() > 0)
            unsupported("Probabilities",
                        "the noisy state-vector path is trajectory-sampled; "
                        "use the density-matrix backend for exact noisy "
                        "distributions");
        ensureState();
        meta.exact = true;
        QKC_SPAN("sv.probs");
        if (qubits.empty())
            return state_->probabilities();
        const Complex* amps = state_->data();
        return marginalize(circuit_.numQubits(), qubits,
                           [amps](std::uint64_t x) { return norm2(amps[x]); });
    }

  private:
    /** Batch-lane clone: copies the compiled plan instead of re-planning. */
    SvSession(const SvSession& parent)
        : Session(parent.entry_, parent.circuit_, parent.options_),
          policy_(parent.policy_), sim_(parent.policy_), plan_(parent.plan_)
    {
    }

    void ensureState()
    {
        if (stateCurrent_)
            return;
        QKC_SPAN("sv.simulate");
        if (!state_)
            state_.emplace(plan_.numQubits);
        sim_.simulatePlanned(plan_, *state_);
        stateCurrent_ = true;
    }

    ExecPolicy policy_;
    StateVectorSimulator sim_;
    ExecutionPlan plan_;
    /**
     * The session's one 2^n buffer: allocated by the first task, reused in
     * place by every later run (binds only mark it stale), released only
     * by trimBatchLane.
     */
    std::optional<StateVector> state_;
    bool stateCurrent_ = false; ///< state_ holds the current binding's state
};

// ---------------------------------------------------------------------------
// Density matrix
// ---------------------------------------------------------------------------

class DmSession final : public Session {
  public:
    DmSession(const BackendInfo& entry, const Circuit& circuit,
              const BackendOptions& options)
        : Session(entry, circuit, options), policy_(execPolicyFrom(options)),
          sim_(policy_), plan_(planCircuitDm(circuit, policy_))
    {
    }

  protected:
    // cloneForBatch stays at the serializing default: a second 4^n rho in
    // flight per lane would multiply peak memory (one rho plus the plan's
    // small kernels) for sweeps that the dense kernels already
    // parallelize internally via the shared pool, so a batched dm task
    // gains little from lane fan-out. runBatch therefore binds and runs on
    // this session in batch order — still one plan, rebound per binding.

    bool doBind(const Circuit& circuit, bool sameStructure) override
    {
        probs_.reset();
        // Same structure: replay the recorded fusion recipe on the new
        // values and refresh every wire run's and gate pair's kernels in
        // place — no greedy pass, no re-classification (this is what
        // planReuses now certifies; the old session re-ran both inside
        // every ensureRho).
        if (sameStructure && tryRebindDmPlan(plan_, circuit))
            return true;
        plan_ = planCircuitDm(circuit, policy_);
        return false;
    }

    std::vector<std::uint64_t> doSample(std::size_t shots, Rng& rng,
                                        ResultMeta& meta) override
    {
        ensureRho();
        meta.exact = true;
        QKC_SPAN("dm.sample");
        return StateVectorSimulator::sampleFromDistribution(*probs_, shots,
                                                            rng);
    }

    double doExpectation(const PauliSum& observable, std::size_t shots,
                         Rng& rng, ResultMeta& meta) override
    {
        (void)shots;
        (void)rng;
        // tr(rho P) is exact for every observable, channels included: the
        // only entry of row y that P meets is y ^ flip, so one pass over
        // the rows reads every term off rho.
        ensureRho();
        meta.exact = true;
        QKC_SPAN("dm.trace");
        const DensityMatrix& rho = *rho_;
        return exactExpectation(
            observable, circuit_.numQubits(),
            [&rho](std::uint64_t y) { return rho.at(y, y).real(); },
            [&rho](std::uint64_t y, std::uint64_t z) { return rho.at(y, z); });
    }

    std::vector<double> doProbabilities(const std::vector<std::size_t>& qubits,
                                        ResultMeta& meta) override
    {
        ensureRho();
        meta.exact = true;
        QKC_SPAN("dm.marginal");
        return marginalizeDistribution(*probs_, circuit_.numQubits(), qubits);
    }

  private:
    void ensureRho()
    {
        if (probs_)
            return;
        QKC_SPAN("dm.simulate");
        if (!rho_)
            rho_.emplace(plan_.numQubits); // first run; kept across binds
        sim_.simulatePlanned(plan_, *rho_);
        probs_ = rho_->diagonalProbabilities();
    }

    ExecPolicy policy_;
    DensityMatrixSimulator sim_;
    DmExecutionPlan plan_;
    /** Final state of the current binding when probs_ is set. Allocated
     *  on the first run and reused across binds: one 16·4^n buffer per
     *  session, not one per evaluation. */
    std::optional<DensityMatrix> rho_;
    std::optional<std::vector<double>> probs_; ///< set once rho_ is current
};

// ---------------------------------------------------------------------------
// Tensor network
// ---------------------------------------------------------------------------

/** qTorch-style tensor-network session (ideal circuits only). */
class TnSession final : public Session {
  public:
    TnSession(const BackendInfo& entry, const Circuit& circuit,
              const BackendOptions& options)
        : Session(entry, circuit, options), sampler_(circuit)
    {
    }

  protected:
    // cloneForBatch stays at the serializing default: the sampler's
    // per-prefix conditional-marginal plans are grown lazily *during*
    // sampling, so a lane clone would either deep-copy that mutable cache
    // or silently re-pay contraction planning per lane; contraction
    // arithmetic dominates tn runtime anyway, so runBatch binds and runs on
    // this session in batch order.

    bool doBind(const Circuit& circuit, bool sameStructure) override
    {
        if (sameStructure) {
            sampler_.rebind(circuit); // values only; contraction plans kept
            marginalStale_ = true;    // same for the subset plan: keep it,
                                      // refresh its tensor values on use
            return true;
        }
        sampler_ = TnSampler(circuit);
        marginal_.reset();
        return false;
    }

    std::vector<std::uint64_t> doSample(std::size_t shots, Rng& rng,
                                        ResultMeta& meta) override
    {
        meta.exact = true; // conditional marginals are contracted exactly
        QKC_SPAN("tn.sample");
        return sampler_.sample(shots, rng);
    }

    std::vector<Complex> doAmplitudes(
        const std::vector<std::uint64_t>& bitstrings,
        ResultMeta& meta) override
    {
        meta.exact = true;
        QKC_SPAN("tn.amplitudes");
        TensorNetworkSimulator tn;
        std::vector<Complex> out;
        out.reserve(bitstrings.size());
        for (std::uint64_t b : bitstrings)
            out.push_back(tn.amplitude(circuit_, b));
        return out;
    }

    std::vector<double> doProbabilities(const std::vector<std::size_t>& qubits,
                                        ResultMeta& meta) override
    {
        // Exact marginal over an arbitrary subset by doubled-network
        // contraction — never materializes the 2^n distribution. The plan
        // is cached per subset, so repeated queries (and assignments) only
        // re-pay contraction arithmetic.
        meta.exact = true;
        QKC_SPAN("tn.marginal");
        const std::size_t n = circuit_.numQubits();
        const std::vector<std::size_t> subset =
            qubits.empty() ? allQubits() : qubits;
        if (subset == allQubits()) {
            // The sampler already holds (and rebinds) exactly this plan:
            // the full-length prefix marginal.
            std::vector<double> out(std::size_t{1} << n);
            for (std::size_t a = 0; a < out.size(); ++a)
                out[a] = sampler_.prefixProbability(a, n);
            return out;
        }
        if (!marginal_ || marginalQubits_ != subset) {
            TnSampler::MarginalPlan mp =
                TnSampler::buildMarginalTensors(circuit_, subset);
            mp.plan = TnSampler::planContraction(mp.tensors);
            marginal_ = std::move(mp);
            marginalQubits_ = subset;
        } else if (marginalStale_) {
            // Same structure, new parameters: refresh the tensor values
            // but replay the cached contraction plan (edge wiring is
            // derived purely from the op sequence, so it is unchanged).
            TnSampler::MarginalPlan fresh =
                TnSampler::buildMarginalTensors(circuit_, subset);
            marginal_->tensors = std::move(fresh.tensors);
            marginal_->projectors = std::move(fresh.projectors);
        }
        marginalStale_ = false;
        std::vector<double> out(std::size_t{1} << subset.size());
        for (std::size_t a = 0; a < out.size(); ++a)
            out[a] = TnSampler::marginalProbability(*marginal_, a);
        return out;
    }

  private:
    std::vector<std::size_t> allQubits() const
    {
        std::vector<std::size_t> qs(circuit_.numQubits());
        for (std::size_t q = 0; q < qs.size(); ++q)
            qs[q] = q;
        return qs;
    }

    TnSampler sampler_;
    std::optional<TnSampler::MarginalPlan> marginal_; ///< last proper subset
    std::vector<std::size_t> marginalQubits_;
    bool marginalStale_ = false; ///< values need a refresh after a rebind
};

// ---------------------------------------------------------------------------
// Decision diagram
// ---------------------------------------------------------------------------

/**
 * DDSIM-style decision-diagram (QMDD) session. Ideal sessions build the
 * final state as a diagram and serve samples in O(n) per shot, amplitudes
 * by path walks and expectation values by one apply of each term's
 * Pauli-string matrix DD plus a memoized two-diagram walk; noisy circuits
 * run Born-rule Kraus trajectories with collections between them.
 *
 * One DdPackage persists across parameter binds: the session protects its
 * live roots — the bound state and parameter-free gate DDs — and each
 * rebind unroots the old state and runs a full mark-and-sweep, so the next
 * binding starts from warm arenas, free lists and table buckets but a
 * deterministic interning table (runBatch's bit-parity contract). Option
 * gcthreshold sets the live-node count that triggers a collection between
 * trajectories and before a build.
 */
class DdSession final : public Session {
  public:
    DdSession(const BackendInfo& entry, const Circuit& circuit,
              const BackendOptions& options)
        : Session(entry, circuit, options), sim_(options.gcThreshold)
    {
    }

  protected:
    std::unique_ptr<Session> cloneForBatch() const override
    {
        // The dd batch strategy: a DdPackage per lane — its own arena,
        // unique tables and compute caches; nothing shared across threads.
        // The lane's package persists across bindings and batches (GC
        // bounds it), so gate DDs and unique tables amortize within each
        // lane exactly as they do in the parent session.
        return std::make_unique<DdSession>(entry_, circuit_, options_);
    }

    void trimBatchLane() override
    {
        // Keep the lane package — the warm unique tables and gate DDs are
        // the point of a persistent lane — but drop the last binding's
        // state and collect it now: an idle lane pins only its live
        // diagram structure between batches, not a dead state per thread.
        collectState();
    }

    bool doBind(const Circuit&, bool sameStructure) override
    {
        // The package survives the bind — arena capacity, table buckets and
        // free lists all stay warm. The old state is unrooted and collected
        // NOW, with any Pauli-term DDs the last tasks built, not lazily:
        // weight interning snaps to existing entries within tolerance, so
        // results must not depend on which bindings this package saw before
        // (runBatch promises lane payloads bit-identical to a sequential
        // loop). A full sweep leaves only protected roots, giving every
        // binding the same deterministic starting table.
        collectState();
        return sameStructure;
    }

    std::vector<std::uint64_t> doSample(std::size_t shots, Rng& rng,
                                        ResultMeta& meta) override
    {
        if (circuit_.noiseCount() > 0) {
            QKC_SPAN("dd.trajectories");
            meta.trajectories += shots;
            // Per-trajectory seed schedule, drawn in shot order before any
            // parallel work — the runBatch discipline applied one level
            // down. The payload is a pure function of (circuit, seeds), so
            // it is identical at every lane count and matches the serial
            // path bit for bit.
            std::vector<std::uint64_t> seeds(shots);
            for (auto& s : seeds)
                s = rng.next();
            const std::size_t lanes = laneCount(options_.threads, shots);
            if (lanes <= 1) {
                auto samples = sim_.sampleNoisySeeded(circuit_, seeds);
                stampDdMemory(meta);
                return samples;
            }
            return sampleNoisyParallel(seeds, lanes, meta);
        }
        ensureState();
        meta.exact = true;
        QKC_SPAN("dd.sample");
        std::vector<std::uint64_t> samples;
        samples.reserve(shots);
        for (std::size_t s = 0; s < shots; ++s)
            samples.push_back(sim_.package().sampleOutcome(state_, rng));
        stampDdMemory(meta);
        return samples;
    }

    double doExpectation(const PauliSum& observable, std::size_t shots,
                         Rng& rng, ResultMeta& meta) override
    {
        if (circuit_.noiseCount() > 0) {
            const double est = sampledExpectation(observable, shots, rng,
                                                  meta);
            stampDdMemory(meta);
            return est;
        }

        // Native diagram walk: phi = P psi via ONE apply of the term's
        // n-qubit Pauli-string matrix DD (linear-size), then the memoized
        // two-diagram inner product <psi|phi>. The term DD stays unrooted:
        // no collection runs before the walk, and the next bind sweeps it.
        ensureState();
        meta.exact = true;
        QKC_SPAN("dd.expectation");
        DdPackage& pkg = sim_.package();
        double total = 0.0;
        for (const auto& [coeff, pauli] : observable.terms) {
            if (pauli.isIdentity()) {
                total += coeff;
                continue;
            }
            std::string key(circuit_.numQubits(), 'I');
            for (std::size_t q = 0; q < pauli.numQubits(); ++q)
                key[q] = pauli.pauli(q);
            const VEdge phi = pkg.apply(pkg.makePauliDd(key), state_);
            total += coeff * pkg.innerProduct(state_, phi).real();
        }
        stampDdMemory(meta);
        return total;
    }

    std::vector<Complex> doAmplitudes(
        const std::vector<std::uint64_t>& bitstrings,
        ResultMeta& meta) override
    {
        if (circuit_.noiseCount() > 0)
            unsupported("Amplitudes",
                        "noisy runs are trajectory mixtures");
        ensureState();
        meta.exact = true;
        QKC_SPAN("dd.amplitudes");
        const DdPackage& pkg = sim_.package();
        std::vector<Complex> out;
        out.reserve(bitstrings.size());
        for (std::uint64_t b : bitstrings)
            out.push_back(pkg.amplitude(state_, b));
        stampDdMemory(meta);
        return out;
    }

    std::vector<double> doProbabilities(const std::vector<std::size_t>& qubits,
                                        ResultMeta& meta) override
    {
        if (circuit_.noiseCount() > 0)
            unsupported("Probabilities",
                        "the noisy decision-diagram path is "
                        "trajectory-sampled; use the density-matrix backend");
        ensureState();
        meta.exact = true;
        QKC_SPAN("dd.probabilities");
        auto probs = marginalizeDistribution(
            sim_.package().probabilities(state_), circuit_.numQubits(),
            qubits);
        stampDdMemory(meta);
        return probs;
    }

  private:
    /**
     * Fans the seeded trajectories over per-lane simulators, each with a
     * private DdPackage (arena, unique and compute tables) — the runBatch
     * lane strategy applied inside one noisy Sample. Each lane runs one
     * contiguous seed block and outcomes land at their shot index, so the
     * payload is independent of which thread ran which block, nested in a
     * batch lane or not. Lane simulators are
     * per-call: a trajectory's state is worthless between tasks — unlike a
     * batch lane's plan — so nothing is worth pinning per thread.
     */
    std::vector<std::uint64_t> sampleNoisyParallel(
        const std::vector<std::uint64_t>& seeds, std::size_t lanes,
        ResultMeta& meta)
    {
        const std::size_t shots = seeds.size();
        std::vector<std::uint64_t> samples(shots);
        std::vector<DdSimulator> laneSims;
        laneSims.reserve(lanes);
        for (std::size_t l = 0; l < lanes; ++l)
            laneSims.emplace_back(options_.gcThreshold);

        parallelForLanes(
            lanes, shots,
            [&](std::size_t lane, std::uint64_t b, std::uint64_t e) {
                const std::vector<std::uint64_t> laneSeeds(
                    seeds.begin() + static_cast<std::ptrdiff_t>(b),
                    seeds.begin() + static_cast<std::ptrdiff_t>(e));
                const auto out =
                    laneSims[lane].sampleNoisySeeded(circuit_, laneSeeds);
                std::copy(out.begin(), out.end(),
                          samples.begin() + static_cast<std::ptrdiff_t>(b));
            });

        // The memory stats readers assert on (gc ran, live nodes bounded)
        // happened in the lane packages: sum the counters, take the peak
        // across arenas.
        DdMemoryStats sum;
        for (DdSimulator& laneSim : laneSims) {
            if (!laneSim.hasPackage())
                continue;
            const DdStats& s = laneSim.package().stats();
            sum.liveVNodes += s.liveVNodes;
            sum.liveMNodes += s.liveMNodes;
            sum.gcRuns += s.gcRuns;
            sum.nodesCollected += s.nodesCollected;
            sum.peakLiveNodes = std::max(sum.peakLiveNodes, s.peakLiveNodes);
        }
        meta.ddMemory = sum;
        return samples;
    }

    void ensureState()
    {
        if (built_)
            return;
        if (sim_.hasPackage())
            sim_.package().maybeGarbageCollect();
        QKC_SPAN("dd.build");
        state_ = sim_.simulate(circuit_);
        sim_.package().protect(state_);
        built_ = true;
    }

    /** Unroots the bound state and sweeps it; the next task rebuilds. */
    void collectState()
    {
        if (sim_.hasPackage()) {
            if (built_)
                sim_.package().unprotect(state_);
            sim_.package().garbageCollect();
        }
        built_ = false;
    }

    void stampDdMemory(ResultMeta& meta)
    {
        if (!sim_.hasPackage())
            return;
        const DdStats& s = sim_.package().stats();
        meta.ddMemory = {s.liveVNodes, s.liveMNodes, s.gcRuns,
                         s.nodesCollected, s.peakLiveNodes};
    }

    DdSimulator sim_;
    VEdge state_;
    bool built_ = false;
};

// ---------------------------------------------------------------------------
// Knowledge compilation
// ---------------------------------------------------------------------------

/**
 * The knowledge-compilation session (this paper's system). Opening it
 * compiles circuit -> Bayesian network -> CNF -> arithmetic circuit once;
 * bind() only refreshes parameter leaves — the variational reuse that
 * headlines Section 3.2 — and tasks query the compiled AC (Gibbs sampling,
 * exact expectation values, amplitude and probability queries).
 */
class KcSession final : public Session {
  public:
    KcSession(const BackendInfo& entry, const Circuit& circuit,
              const BackendOptions& options)
        : Session(entry, circuit, options)
    {
        gibbs_.burnIn = options.burnIn;
        gibbs_.thin = options.thin;
        QKC_SPAN("kc.compile");
        sim_ = std::make_unique<KcSimulator>(circuit);
    }

  protected:
    std::unique_ptr<Session> cloneForBatch() const override
    {
        // The kc batch strategy: each worker lane holds its own compiled AC
        // and refreshes its parameter leaves per binding. The compiled
        // structure is pointer-rich (AC nodes, evaluator tapes), so a lane
        // pays one compile — not counted in planBuilds, which counts binds
        // — and amortizes it across every batch this session runs (lanes
        // persist for the session lifetime).
        return std::make_unique<KcSession>(entry_, circuit_, options_);
    }

    void trimBatchLane() override
    {
        // Keep the compiled AC (the expensive part); drop the 2^n query
        // caches the last binding materialized.
        dist_.reset();
        amps_.reset();
    }
    bool doBind(const Circuit& circuit, bool sameStructure) override
    {
        dist_.reset();
        amps_.reset();
        if (sameStructure) {
            try {
                QKC_SPAN("kc.refresh");
                sim_->refreshParams(circuit);
                return true;
            } catch (const std::invalid_argument&) {
                // Fall through: compile from scratch.
            }
        }
        QKC_SPAN("kc.compile");
        sim_ = std::make_unique<KcSimulator>(circuit);
        return false;
    }

    std::vector<std::uint64_t> doSample(std::size_t shots, Rng& rng,
                                        ResultMeta& meta) override
    {
        (void)meta; // Gibbs sampling is MCMC: exact stays false
        QKC_SPAN("kc.gibbs");
        return sim_->sample(shots, rng, gibbs_);
    }

    double doExpectation(const PauliSum& observable, std::size_t shots,
                         Rng& rng, ResultMeta& meta) override
    {
        // AC queries serve diagonal terms from the exact outcome
        // distribution (noise included — probability() sums noise events)
        // and, on ideal circuits, arbitrary Paulis from the amplitude
        // vector. When the query cost is infeasible (the noise-assignment
        // enumeration is exponential in the channel count) or a term needs
        // rotated bases under noise, the whole sum falls back to Gibbs
        // shots so the metadata stays a truthful all-or-nothing flag.
        const bool distOk = distributionFeasible();
        const bool ampsOk =
            circuit_.noiseCount() == 0 &&
            circuit_.numQubits() <= kMaxExactQubits;
        bool needDist = false;
        bool needAmps = false;
        for (const auto& [coeff, pauli] : observable.terms) {
            (void)coeff;
            if (pauli.isIdentity())
                continue;
            (pauli.isDiagonal() ? needDist : needAmps) = true;
        }
        if ((needDist && !distOk) || (needAmps && !ampsOk))
            return sampledExpectation(observable, shots, rng, meta);

        meta.exact = true;
        if (needDist)
            ensureDistribution();
        if (needAmps)
            ensureAmplitudes();
        return exactExpectation(
            observable, circuit_.numQubits(),
            [this](std::uint64_t y) { return (*dist_)[y]; },
            [this](std::uint64_t y, std::uint64_t z) {
                return (*amps_)[y] * std::conj((*amps_)[z]);
            });
    }

    std::vector<Complex> doAmplitudes(
        const std::vector<std::uint64_t>& bitstrings,
        ResultMeta& meta) override
    {
        if (circuit_.noiseCount() > 0)
            unsupported("Amplitudes",
                        "amplitudes of noisy circuits require an explicit "
                        "noise-event assignment; query KcSimulator directly");
        meta.exact = true;
        std::vector<Complex> out;
        out.reserve(bitstrings.size());
        for (std::uint64_t b : bitstrings)
            out.push_back(sim_->amplitude(b));
        return out;
    }

    std::vector<double> doProbabilities(const std::vector<std::size_t>& qubits,
                                        ResultMeta& meta) override
    {
        if (!distributionFeasible())
            unsupported("Probabilities",
                        circuit_.noiseCount() == 0
                            ? "the exact distribution costs 2^n AC "
                              "evaluations and the circuit exceeds the "
                              "qubit cap"
                            : "the exact noise-assignment enumeration is "
                              "exponential in the channel count and "
                              "exceeds the feasibility limit here");
        ensureDistribution();
        meta.exact = true;
        return marginalizeDistribution(*dist_, circuit_.numQubits(), qubits);
    }

  private:
    /** Qubit cap for 2^n-query sweeps (distribution / amplitude vector). */
    static constexpr std::size_t kMaxExactQubits = 16;
    /** Evaluator-pass budget for exact queries (2^n x noise assignments). */
    static constexpr double kMaxExactEvaluations = 1 << 16;

    /** True when the exact outcome distribution is affordable to compute. */
    bool distributionFeasible() const
    {
        const std::size_t n = circuit_.numQubits();
        if (n > kMaxExactQubits)
            return false;
        double evaluations = static_cast<double>(std::uint64_t{1} << n);
        const auto& bn = sim_->bayesNet();
        for (std::size_t v : bn.noiseVars()) {
            evaluations *= static_cast<double>(bn.variable(v).cardinality);
            if (evaluations > kMaxExactEvaluations)
                return false;
        }
        return evaluations <= kMaxExactEvaluations;
    }

    void ensureDistribution()
    {
        if (dist_)
            return;
        QKC_SPAN("kc.distribution");
        dist_ = sim_->outcomeDistribution();
    }

    void ensureAmplitudes()
    {
        if (amps_)
            return;
        QKC_SPAN("kc.amplitudes");
        const std::uint64_t dim = std::uint64_t{1} << circuit_.numQubits();
        std::vector<Complex> amps;
        amps.reserve(dim);
        for (std::uint64_t x = 0; x < dim; ++x)
            amps.push_back(sim_->amplitude(x));
        amps_ = std::move(amps);
    }

    GibbsOptions gibbs_;
    std::unique_ptr<KcSimulator> sim_;
    std::optional<std::vector<double>> dist_;
    std::optional<std::vector<Complex>> amps_;
};

template <class S>
std::unique_ptr<Session>
openSession(const BackendInfo& entry, const Circuit& circuit,
            const BackendOptions& options)
{
    return std::make_unique<S>(entry, circuit, options);
}

} // namespace

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

const std::vector<BackendInfo>&
backendRegistry()
{
    static const std::vector<BackendInfo> registry = {
        {"statevector",
         {"sv"},
         {"threads", "fuse"},
         "dense 2^n state vector (qsim-style); Kraus trajectories when "
         "noise is present",
         "sample; expectation (exact when ideal, sampled under noise); "
         "amplitudes (ideal); probabilities (ideal)",
         "parallel lanes (threads option): each lane clones the compiled "
         "ExecutionPlan and rebinds it per binding",
         openSession<SvSession>},
        {"densitymatrix",
         {"dm"},
         {"threads", "fuse"},
         "dense 4^n density matrix (Cirq-style); every channel exact",
         "sample; expectation (exact, ideal and noisy); probabilities "
         "(exact, ideal and noisy)",
         "serialized: a 4^n plan + rho per lane would multiply peak memory "
         "and the superoperator sweeps already parallelize internally",
         openSession<DmSession>},
        {"tensornetwork",
         {"tn"},
         {},
         "qTorch-style tensor-network contraction (ideal circuits only)",
         "sample; expectation (sampled); amplitudes (exact); probabilities "
         "(exact marginals by doubled-network contraction)",
         "serialized: the sampler's per-prefix contraction caches mutate "
         "during sampling and do not clone cheaply",
         openSession<TnSession>},
        {"decisiondiagram",
         {"dd"},
         {"threads", "gcthreshold"},
         "QMDD decision diagram (DDSIM-style); Kraus trajectories when "
         "noise is present; mark-and-sweep node GC from protected roots",
         "sample; expectation (exact when ideal, via diagram walk); "
         "amplitudes (ideal); probabilities (ideal)",
         "parallel lanes (threads option): a private DdPackage (arena, "
         "unique and compute tables) per lane, garbage-collected between "
         "batches; a noisy Sample fans its trajectories over per-lane "
         "packages the same way",
         openSession<DdSession>},
        {"knowledgecompilation",
         {"kc"},
         {"burnin", "thin"},
         "knowledge compilation (this paper): compile once, refresh "
         "parameter leaves across a variational sweep",
         "sample (Gibbs); expectation (exact within the query-feasibility "
         "limit: ideal circuits and diagonal observables under noise; "
         "Gibbs-sampled beyond it); amplitudes (ideal); probabilities "
         "(exact, ideal and noisy, within the same limit)",
         "parallel lanes (QKC_THREADS): one compiled AC per lane (one "
         "honest compile each, kept for the session), leaf refresh per "
         "binding",
         openSession<KcSession>},
    };
    return registry;
}

std::unique_ptr<Backend>
makeBackend(const std::string& spec)
{
    const BackendSpec parsed = parseBackendSpec(spec);
    return std::make_unique<Backend>(backendInfo(parsed.name), parsed.options);
}

} // namespace qkc
