#ifndef QKC_VQA_SIMULATOR_API_H
#define QKC_VQA_SIMULATOR_API_H

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "circuit/circuit.h"
#include "linalg/types.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "vqa/pauli.h"

namespace qkc {

// ---------------------------------------------------------------------------
// Typed backend options
// ---------------------------------------------------------------------------

/**
 * Every knob a backend accepts, in one typed struct. String specs like
 * "sv:threads=8,fuse=1" are parsed into this by parseBackendSpec with
 * per-backend key validation; programmatic callers fill it directly and
 * pass it to Backend::open. Keys a backend does not consult are ignored at
 * open time (validation is the parser's job, so typed callers can share one
 * options value across backends).
 */
struct BackendOptions {
    /**
     * Threads, total, including the caller: dense sweeps for sv/dm, the
     * runBatch worker lanes of every family that fans out (sv, dd, kc),
     * and dd's trajectory-parallel noisy Sample lanes. Lanes never
     * outnumber the shared pool's threads. 0 = machine default: the
     * QKC_THREADS environment variable when set (clamped to >= 1),
     * otherwise std::thread::hardware_concurrency(). An explicit value
     * here always wins over both.
     */
    std::size_t threads = 0;

    /** Run the greedy gate-fusion pass at plan time (sv/dm). */
    bool fuse = true;

    /** Gibbs sweeps discarded before the first recorded sample (kc). */
    std::size_t burnIn = 64;

    /** Gibbs sweeps between recorded samples, >= 1 (kc). */
    std::size_t thin = 1;

    /**
     * Live-node count that triggers a diagram collection, >= 1 (dd). The
     * session keeps one DdPackage across parameter binds and trajectories
     * and collects dead nodes at safe points once this many are live.
     */
    std::size_t gcThreshold = 1u << 16;
};

/** A parsed backend spec: canonical name plus its typed options. */
struct BackendSpec {
    std::string name;
    BackendOptions options;
};

/**
 * Parses "name[:k1=v1,k2=v2]" — name canonical or aliased — into a typed
 * spec. Unknown backends *and* unknown or malformed options throw
 * std::invalid_argument listing what is valid for that backend.
 */
BackendSpec parseBackendSpec(const std::string& spec);

// ---------------------------------------------------------------------------
// Registry metadata
// ---------------------------------------------------------------------------

class Session;

/**
 * One registry entry per simulator family, and the only description of it:
 * parseBackendSpec validates against it, makeBackend opens through it, and
 * qkc_cli --list-backends and the README capability matrix render straight
 * from it, so help text cannot drift from what the code accepts.
 */
struct BackendInfo {
    std::string name;                      ///< canonical registry name
    std::vector<std::string> aliases;      ///< e.g. {"sv"}
    std::vector<std::string> optionKeys;   ///< keys parseBackendSpec accepts
    std::string summary;                   ///< one-line cost-profile note
    std::string tasks;                     ///< which tasks it serves, and how
    std::string batch;                     ///< runBatch strategy, one line

    /** Compiles `circuit` into a session of this family (the entry is
     *  passed back so the session can reopen its family). */
    std::unique_ptr<Session> (*open)(const BackendInfo& entry,
                                     const Circuit& circuit,
                                     const BackendOptions& options);
};

/** The full registry, in presentation order. */
const std::vector<BackendInfo>& backendRegistry();

/** The entry for a canonical name or alias; throws std::invalid_argument
 *  listing the known names when there is none. */
const BackendInfo& backendInfo(const std::string& name);

/** The canonical registry names, in presentation order. */
const std::vector<std::string>& backendNames();

// ---------------------------------------------------------------------------
// Tasks
// ---------------------------------------------------------------------------

/** Draw `shots` measurement outcomes from the bound circuit. */
struct Sample {
    std::size_t shots = 1024;
};

/**
 * Evaluate <H> for a Pauli-sum observable. Served natively (exactly) where
 * the representation allows it — sv, dm and kc: tr(rho P) for every term
 * in one shared pass over the amplitudes, rho, or the AC's amplitude and
 * outcome vectors, with no state copy; dd: a diagram walk — and estimated
 * from `shots` rotated-basis samples per non-diagonal term otherwise (tn,
 * and noisy trajectory paths). Result::meta.exact records which happened.
 */
struct Expectation {
    PauliSum observable;
    std::size_t shots = 4096; ///< only used by the sampling fallback
};

/** Read amplitudes <x|psi> for the given basis states (pure states only). */
struct Amplitudes {
    std::vector<std::uint64_t> bitstrings;
};

/**
 * Exact outcome probabilities, marginalized onto `qubits` (empty = all
 * qubits, i.e. the full 2^n distribution). Entry k of the payload is the
 * probability that the selected qubits read out the bits of k, with
 * qubits[0] the most significant bit — matching the circuit convention.
 */
struct Probabilities {
    std::vector<std::size_t> qubits;
};

/** One typed query against an open session. */
using Task = std::variant<Sample, Expectation, Amplitudes, Probabilities>;

/**
 * One entry of a batched run: a full set of gate parameters, expressed as a
 * same-structure circuit — the same currency Session::bind takes. (A
 * different structure on the same qubit count is legal but re-plans; a
 * different qubit count throws.)
 */
using ParamBinding = Circuit;

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/**
 * Decision-diagram memory-lifecycle counters (dd sessions only; all-zero on
 * the other backends). Mirrors the owning DdPackage's DdStats at the end of
 * the task, so a long noisy run can assert its live-node count stayed
 * bounded while collections actually happened.
 */
struct DdMemoryStats {
    std::size_t liveVNodes = 0;     ///< vector nodes live in the unique table
    std::size_t liveMNodes = 0;     ///< matrix nodes live in the unique table
    std::size_t gcRuns = 0;         ///< completed mark-and-sweep collections
    std::size_t nodesCollected = 0; ///< total unique-table evictions
    std::size_t peakLiveNodes = 0;  ///< high-water mark of live nodes
};

/**
 * Aggregate timing of the runBatch call a Result came from (zeros outside
 * batches). Stamped identically on every result of the batch: per-result
 * meta.seconds is that binding's own bind+run lane time, and this is the
 * whole-batch view — wall time of the call, the slowest single binding, and
 * how unevenly the bindings' busy time spread over the worker lanes
 * (imbalance = lanes * max-lane-busy / total-busy; 1.0 is a perfectly even
 * fan-out, -> lanes means one lane did everything).
 */
struct BatchStats {
    std::size_t bindings = 0;       ///< batch size
    std::size_t lanes = 0;          ///< worker lanes used (1 = serialized)
    double wallSeconds = 0.0;       ///< wall time of the runBatch call
    double maxBindingSeconds = 0.0; ///< slowest single binding
    double maxLaneSeconds = 0.0;    ///< busiest lane's total binding time
    double imbalance = 0.0;         ///< lane imbalance ratio (>= 1.0)
};

/** Execution metadata carried by every Result. */
struct ResultMeta {
    std::string backend;        ///< canonical backend name
    double seconds = 0.0;       ///< wall time inside Session::run

    /**
     * Structure compilations this session has performed so far: execution
     * plans (fusion + kernel classification) for sv/dm, diagram builds for
     * dd, contraction plannings for tn, AC compilations for kc. On kc, tn
     * and dd a variational sweep over one circuit structure shows this
     * stuck at 1 while planReuses grows — the paper's Section 3.2 reuse
     * property, asserted by the session tests. sv and dm plan every
     * binding afresh, so there it is 1 + the number of binds.
     */
    std::size_t planBuilds = 0;

    /**
     * Parameter binds served by the cached structure (kc, tn, dd); always
     * 0 on sv and dm, which re-plan on every bind.
     */
    std::size_t planReuses = 0;

    /** Noisy Monte-Carlo trajectories run for this task. */
    std::size_t trajectories = 0;

    /** Shots drawn by the Expectation sampling fallback (0 when exact). */
    std::size_t fallbackShots = 0;

    /** Payload computed without Monte-Carlo error. */
    bool exact = false;

    /** Diagram memory-lifecycle stats (dd sessions; else zeros). */
    DdMemoryStats ddMemory{};

    /** Batch aggregates when the result came from runBatch (else zeros). */
    BatchStats batch{};

    /**
     * Phase-time breakdown for this task, collected when
     * obs::enabled() (QKC_OBS) is on: the run's top-level spans (bind,
     * backend phases, gc pauses) aggregated by name, summing to within a
     * few percent of `seconds`. Empty when it is off.
     */
    obs::TaskProfile profile{};
};

/**
 * The payload of one task plus its metadata. Exactly one payload field is
 * populated, matching the Task alternative that produced it.
 */
struct Result {
    std::vector<std::uint64_t> samples;   ///< Sample
    double expectation = 0.0;             ///< Expectation
    std::vector<Complex> amplitudes;      ///< Amplitudes
    std::vector<double> probabilities;    ///< Probabilities
    ResultMeta meta;
};

// ---------------------------------------------------------------------------
// Session and Backend
// ---------------------------------------------------------------------------

/**
 * A live simulation of one circuit *structure* on one backend. Opening a
 * session pays the structure cost once — execution plan (fusion + kernel
 * classification) for the dense backends, compiled gate DDs for dd,
 * contraction plans for tn, the compiled arithmetic circuit for kc — and
 * every task then runs against that state. bind() swaps in new gate
 * parameters without re-paying it, which generalizes the paper's
 * compile-once/refresh-leaves reuse story (Section 3.2) from the kc backend
 * to all five families.
 *
 * Sessions are not thread-safe; drive one session from one thread (the
 * dense sweeps inside parallelize per BackendOptions::threads).
 */
class Session {
  public:
    virtual ~Session() = default;

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /** Canonical name of the owning backend. */
    const std::string& backendName() const { return entry_.name; }

    /** The currently bound circuit. */
    const Circuit& circuit() const { return circuit_; }

    /**
     * Rebinds the session to `circuit`. Same structure (gate kinds and
     * wires; only parameters/values differ): a backend with a cached
     * structure reuses it and planReuses increments — kc refreshes its AC
     * leaves, tn keeps its contraction plans, dd its package. sv and dm
     * plan every binding afresh (planBuilds increments), as every backend
     * does on a different structure with the same qubit count. A
     * different qubit count throws std::invalid_argument.
     */
    void bind(const Circuit& circuit);

    /** Runs one typed task and returns its payload plus metadata. */
    Result run(const Task& task, Rng& rng);

    /**
     * Runs one task against every binding and returns the results in batch
     * order — the unit of execution for a parameter-shift gradient or a
     * simplex sweep. The bindings fan out across the exec thread pool in
     * laneCount(options.threads, bindings) contiguous blocks: each worker
     * lane drives its own session (cloneForBatch) and every binding draws
     * from its own RNG stream,
     * seeded from `rng` in batch order before any parallel work. Payloads
     * are therefore bit-identical for every thread count, and match a
     * sequential bind/run loop driven from the same per-binding seeds.
     *
     * Backends whose per-structure cache cannot be cloned cheaply (dm, tn)
     * serialize the batch on the session itself — see BackendInfo::batch in
     * the registry table. A batch issued from inside pool work (a nested
     * parallel region) also serializes, so a batched task can never
     * deadlock a pool already running trajectories.
     *
     * Afterwards the session is bound to bindings.back() — exactly as after
     * the equivalent sequential loop — and planBuilds/planReuses have
     * counted one bind per binding.
     */
    std::vector<Result> runBatch(const std::vector<ParamBinding>& bindings,
                                 const Task& task, Rng& rng);

    /**
     * The same batched run with the per-binding seeds supplied explicitly
     * (one per binding) instead of drawn from a shared generator. This is
     * the form callers with *independent* randomness contracts need — the
     * server seeds every client's binding from that client's own seed, so a
     * request's payload is bit-identical whether it ran solo, coalesced
     * into a larger batch, or was replayed after a cache eviction; the
     * Rng overload above is equivalent to drawing seeds[i] = rng.next() in
     * batch order and calling this.
     */
    std::vector<Result> runBatch(const std::vector<ParamBinding>& bindings,
                                 const Task& task,
                                 const std::vector<std::uint64_t>& seeds);

    std::size_t planBuilds() const { return planBuilds_; }
    std::size_t planReuses() const { return planReuses_; }

    /** Cached rotated-basis fallback sub-sessions (one per term signature
     *  of the last sampled Expectation). */
    std::size_t rotatedSessionCount() const { return rotatedSessions_.size(); }

  protected:
    Session(const BackendInfo& entry, Circuit circuit, BackendOptions options);

    /**
     * Backend hook for bind: refresh values for a same-structure circuit
     * (sameStructure == true) or rebuild for a new structure. Returns true
     * when the cached structure was reused; false when a full rebuild
     * happened (a structure change, a refresh the backend refused, or a
     * backend that always rebuilds: sv and dm plan every binding afresh).
     * The public wrapper maintains the planBuilds/planReuses counters from
     * the return value.
     */
    virtual bool doBind(const Circuit& circuit, bool sameStructure) = 0;

    virtual std::vector<std::uint64_t> doSample(std::size_t shots, Rng& rng,
                                                ResultMeta& meta) = 0;

    /** Default: the rotated-basis sampling fallback (sampledExpectation). */
    virtual double doExpectation(const PauliSum& observable,
                                 std::size_t shots, Rng& rng,
                                 ResultMeta& meta);

    /** Default: throws — the backend cannot serve amplitudes. */
    virtual std::vector<Complex> doAmplitudes(
        const std::vector<std::uint64_t>& bitstrings, ResultMeta& meta);

    /** Default: throws — the backend cannot serve exact probabilities. */
    virtual std::vector<double> doProbabilities(
        const std::vector<std::size_t>& qubits, ResultMeta& meta);

    /**
     * Batch fan-out hook: a fresh session on this one's circuit and
     * options, one per worker lane. Returning nullptr (the default)
     * serializes runBatch on the session itself — the strategy for backends
     * whose cache is too large or too entangled to clone (dm: a second 4^n
     * plan per lane buys little when the superoperator sweeps already
     * parallelize internally; tn: the sampler's per-prefix contraction
     * caches mutate during sampling).
     */
    virtual std::unique_ptr<Session> cloneForBatch() const { return nullptr; }

    /**
     * Called on every lane after a batch completes: drop transient payload
     * caches (dense final states, probability tables, diagram arenas) so a
     * persistent lane pins only its per-structure plan between batches,
     * not a full simulation result per thread. Default: no-op.
     */
    virtual void trimBatchLane() {}

    /**
     * Shared CLT fallback: diagonal terms score one batch of computational-
     * basis samples from the session itself; each non-diagonal term pays
     * `shots` samples from its cached rotated-basis sub-session — a session
     * of this family opened on the circuit plus measurement-basis rotations,
     * whose own metadata accounts the Monte-Carlo cost it incurs.
     */
    double sampledExpectation(const PauliSum& observable, std::size_t shots,
                              Rng& rng, ResultMeta& meta);

    /** Throws std::invalid_argument naming the backend, task and reason. */
    [[noreturn]] void unsupported(const char* task, const char* why) const;

    /** Validates an Expectation observable against the bound circuit. */
    void checkObservable(const PauliSum& observable) const;

    /** Throws std::invalid_argument on a bitstring past 2^n. */
    void checkBitstrings(const std::vector<std::uint64_t>& bitstrings) const;

    const BackendInfo& entry_;     ///< the family this session belongs to
    const BackendOptions options_; ///< the options the session was opened with
    Circuit circuit_;
    std::size_t planBuilds_ = 0;
    std::size_t planReuses_ = 0;

  private:
    /** The cached fallback sub-session for `pauli`'s rotation signature,
     *  which it adds to `usedSignatures`. */
    Session& rotatedSession(const PauliString& pauli,
                            std::set<std::string>& usedSignatures);

    /**
     * Rotated-basis fallback sub-sessions, keyed by rotation signature (the
     * X/Y pattern of the term — Z and I need no basis change, so terms
     * sharing the pattern share one sub-session and only rebind it). Only
     * the signatures of the last sampledExpectation call are kept.
     */
    std::map<std::string, std::unique_ptr<Session>> rotatedSessions_;

    /**
     * Worker-lane clones kept across runBatch calls, so backends whose
     * clone pays a real compilation (kc) pay it once per lane for the
     * session lifetime, not once per batch.
     */
    std::vector<std::unique_ptr<Session>> batchLanes_;

    /** cloneForBatch declined once; every later batch serializes. */
    bool batchSerialized_ = false;
};

/**
 * A simulator family: one registry entry plus the options its sessions
 * open with by default. `open` compiles a circuit structure into a
 * Session; anything that evaluates repeatedly should hold the Session and
 * bind.
 */
class Backend {
  public:
    explicit Backend(const BackendInfo& entry, BackendOptions defaults = {})
        : entry_(&entry), defaults_(std::move(defaults))
    {
    }

    /** Canonical registry name. */
    const std::string& name() const { return entry_->name; }

    /** Opens a session on `circuit` with explicit options. */
    std::unique_ptr<Session> open(const Circuit& circuit,
                                  const BackendOptions& options) const
    {
        return entry_->open(*entry_, circuit, options);
    }

    /** Opens a session with the backend's configured default options. */
    std::unique_ptr<Session> open(const Circuit& circuit) const
    {
        return open(circuit, defaults_);
    }

    /** The options this backend was constructed with (spec string, ctor). */
    const BackendOptions& defaults() const { return defaults_; }

  private:
    const BackendInfo* entry_;
    BackendOptions defaults_;
};

/**
 * The unified backend registry front-end: resolves a string spec
 * ("sv:threads=8,fuse=1", "kc:burnin=64,thin=2", ...) through
 * parseBackendSpec and binds the entry's family to those options as its
 * defaults. See backendRegistry() for names, aliases and keys.
 */
std::unique_ptr<Backend> makeBackend(const std::string& spec);

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/**
 * Marginalizes a full 2^n distribution onto `qubits` (Probabilities task
 * semantics: qubits[0] = MSB of the output index; empty = identity copy).
 * Throws on out-of-range or repeated qubits.
 */
std::vector<double> marginalizeDistribution(const std::vector<double>& dist,
                                            std::size_t numQubits,
                                            const std::vector<std::size_t>& qubits);

/** Throws unless `qubits` are distinct and below numQubits. */
void checkMarginalQubits(std::size_t numQubits,
                         const std::vector<std::size_t>& qubits);

/**
 * The marginal onto non-empty `qubits` of the weights weight(x), x in
 * [0, 2^numQubits), accumulated serially in x order: the same sums for
 * every caller, whether the weights come from a vector or amplitudes.
 */
template <class Weight>
std::vector<double>
marginalize(std::size_t numQubits, const std::vector<std::size_t>& qubits,
            const Weight& weight)
{
    checkMarginalQubits(numQubits, qubits);
    std::vector<double> out(std::size_t{1} << qubits.size(), 0.0);
    const std::uint64_t dim = std::uint64_t{1} << numQubits;
    for (std::uint64_t x = 0; x < dim; ++x) {
        std::size_t idx = 0;
        for (std::size_t q : qubits)
            idx = (idx << 1) |
                  ((x >> (numQubits - 1 - q)) & std::uint64_t{1});
        out[idx] += weight(x);
    }
    return out;
}

} // namespace qkc

#endif // QKC_VQA_SIMULATOR_API_H
