#include "vqa/simulator_api.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "exec/execution_plan.h"
#include "exec/thread_pool.h"

namespace qkc {

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(const BackendInfo& entry, Circuit circuit,
                 BackendOptions options)
    : entry_(entry), options_(std::move(options)),
      circuit_(std::move(circuit)), planBuilds_(1)
{
}

void
Session::bind(const Circuit& circuit)
{
    if (circuit.numQubits() != circuit_.numQubits()) {
        throw std::invalid_argument(
            "Session::bind: qubit count differs from the opened circuit; "
            "open a new session instead");
    }
    QKC_SPAN("session.bind");
    const bool structureMatches = sameStructure(circuit_, circuit);
    const bool reused = doBind(circuit, structureMatches);
    circuit_ = circuit;
    if (reused)
        ++planReuses_;
    else
        ++planBuilds_;
}

Result
Session::run(const Task& task, Rng& rng)
{
    Result result;
    result.meta.backend = entry_.name;
    const auto runTask = [&] {
        std::visit(
            [&](const auto& t) {
                using T = std::decay_t<decltype(t)>;
                if constexpr (std::is_same_v<T, Sample>) {
                    result.samples = doSample(t.shots, rng, result.meta);
                } else if constexpr (std::is_same_v<T, Expectation>) {
                    checkObservable(t.observable);
                    result.expectation =
                        doExpectation(t.observable, t.shots, rng, result.meta);
                } else if constexpr (std::is_same_v<T, Amplitudes>) {
                    checkBitstrings(t.bitstrings);
                    result.amplitudes =
                        doAmplitudes(t.bitstrings, result.meta);
                } else {
                    result.probabilities =
                        doProbabilities(t.qubits, result.meta);
                }
            },
            task);
    };
    if (obs::enabled()) {
        // The profile scope doubles as the task timer: its envelope is the
        // run, its phases are the backend's top-level spans, so the phase
        // times sum to (within clock reads) meta.seconds.
        obs::ProfileScope scope("session.run");
        runTask();
        result.meta.profile = scope.take();
        result.meta.seconds = result.meta.profile.totalSeconds;
    } else {
        const std::uint64_t t0 = obs::nowNs();
        runTask();
        result.meta.seconds = static_cast<double>(obs::nowNs() - t0) * 1e-9;
    }
    result.meta.planBuilds = planBuilds_;
    result.meta.planReuses = planReuses_;
    return result;
}

std::vector<Result>
Session::runBatch(const std::vector<ParamBinding>& bindings, const Task& task,
                  Rng& rng)
{
    // Per-binding RNG streams, seeded from the caller's generator in batch
    // order *before* any parallel work: the seed sequence — and with it
    // every payload — is identical for every thread count, and matches a
    // sequential bind/run loop driven from the same per-binding seeds.
    std::vector<std::uint64_t> seeds(bindings.size());
    for (auto& s : seeds)
        s = rng.next();
    return runBatch(bindings, task, seeds);
}

std::vector<Result>
Session::runBatch(const std::vector<ParamBinding>& bindings, const Task& task,
                  const std::vector<std::uint64_t>& seeds)
{
    std::vector<Result> results(bindings.size());
    if (bindings.empty())
        return results;
    if (seeds.size() != bindings.size())
        throw std::invalid_argument(
            "Session::runBatch: need exactly one seed per binding");
    obs::TimedSpan batchSpan("session.runBatch");
    for (const Circuit& b : bindings) {
        if (b.numQubits() != circuit_.numQubits())
            throw std::invalid_argument(
                "Session::runBatch: binding qubit count differs from the "
                "opened circuit; open a new session instead");
    }

    // A batch issued from inside pool work would only run inline anyway
    // (the pool's nested-submission guard), so skip the lane setup and
    // serialize outright — this is what makes a batched task safe to issue
    // from arbitrary calling contexts.
    const std::size_t lanes = laneCount(options_.threads, bindings.size());
    bool parallel =
        lanes > 1 && !batchSerialized_ && !ThreadPool::inParallelRegion();
    if (parallel) {
        while (batchLanes_.size() < lanes) {
            auto lane = cloneForBatch();
            if (!lane) {
                // The backend documents why its per-structure cache does
                // not clone (see cloneForBatch); remember the refusal.
                batchSerialized_ = true;
                parallel = false;
                break;
            }
            // Lane counters hold only binds not yet folded into this
            // session; the lane's construction is not one of them.
            lane->planBuilds_ = 0;
            batchLanes_.push_back(std::move(lane));
        }
    }

    // Per-binding timing: meta.seconds on a batch result is that binding's
    // own bind+run time on its lane (run() alone would omit the bind), and
    // laneSeconds accumulates each lane's busy time for the batch
    // aggregates stamped below.
    std::vector<double> laneSeconds(parallel ? lanes : 1, 0.0);
    if (!parallel) {
        for (std::size_t i = 0; i < bindings.size(); ++i) {
            const std::uint64_t t0 = obs::nowNs();
            bind(bindings[i]);
            Rng bindingRng(seeds[i]);
            results[i] = run(task, bindingRng);
            results[i].meta.seconds =
                static_cast<double>(obs::nowNs() - t0) * 1e-9;
            laneSeconds[0] += results[i].meta.seconds;
        }
    } else {
        // One clone per lane, one contiguous block of bindings per lane.
        // Results land at their binding index — the batch-ordered merge —
        // so payloads are independent of which lane ran which block, and
        // the lowest lane's exception is the one the sequential loop would
        // have surfaced first.
        std::exception_ptr laneError;
        try {
            parallelForLanes(
                lanes, bindings.size(),
                [&](std::size_t l, std::uint64_t b, std::uint64_t e) {
                    Session& lane = *batchLanes_[l];
                    for (std::uint64_t i = b; i < e; ++i) {
                        const std::uint64_t t0 = obs::nowNs();
                        lane.bind(bindings[i]);
                        Rng bindingRng(seeds[i]);
                        results[i] = lane.run(task, bindingRng);
                        results[i].meta.seconds =
                            static_cast<double>(obs::nowNs() - t0) * 1e-9;
                        laneSeconds[l] += results[i].meta.seconds;
                    }
                });
        } catch (...) {
            laneError = std::current_exception(); // rethrown after the fold
        }
        // Fold the lanes' bind bookkeeping into this session so the
        // Section 3.2 reuse metadata counts the batch's real work, and
        // drop the lanes' transient payload caches — a lane must not pin a
        // dense state (or diagram arena) per thread between batches; only
        // the per-structure plan is worth keeping.
        for (std::size_t l = 0; l < lanes; ++l) {
            planBuilds_ += std::exchange(batchLanes_[l]->planBuilds_, 0);
            planReuses_ += std::exchange(batchLanes_[l]->planReuses_, 0);
            batchLanes_[l]->trimBatchLane();
        }
        if (laneError)
            std::rethrow_exception(laneError);
        // Sync the session itself onto the final binding — the same
        // observable state the sequential loop leaves behind. The sync
        // repeats work a lane already performed (and counted), so it is
        // deliberately not counted again.
        doBind(bindings.back(), sameStructure(circuit_, bindings.back()));
        circuit_ = bindings.back();
    }

    // Stamp every result with the session's final counters (run() stamps
    // "counters so far", which mid-batch is a moving target — and lane
    // counters are meaningless to callers) and the batch aggregates.
    BatchStats stats;
    stats.bindings = bindings.size();
    stats.lanes = laneSeconds.size();
    stats.wallSeconds = batchSpan.seconds();
    double busy = 0.0;
    for (double s : laneSeconds) {
        busy += s;
        stats.maxLaneSeconds = std::max(stats.maxLaneSeconds, s);
    }
    for (const Result& r : results)
        stats.maxBindingSeconds =
            std::max(stats.maxBindingSeconds, r.meta.seconds);
    stats.imbalance = busy > 0.0 ? stats.maxLaneSeconds *
                                       static_cast<double>(stats.lanes) / busy
                                 : 0.0;
    for (Result& r : results) {
        r.meta.planBuilds = planBuilds_;
        r.meta.planReuses = planReuses_;
        r.meta.batch = stats;
    }
    return results;
}

double
Session::doExpectation(const PauliSum& observable, std::size_t shots,
                       Rng& rng, ResultMeta& meta)
{
    return sampledExpectation(observable, shots, rng, meta);
}

std::vector<Complex>
Session::doAmplitudes(const std::vector<std::uint64_t>&, ResultMeta&)
{
    unsupported("Amplitudes", "the backend has no per-basis amplitude query");
}

std::vector<double>
Session::doProbabilities(const std::vector<std::size_t>&, ResultMeta&)
{
    unsupported("Probabilities",
                "the backend has no exact outcome distribution");
}

double
Session::sampledExpectation(const PauliSum& observable, std::size_t shots,
                            Rng& rng, ResultMeta& meta)
{
    double total = 0.0;
    // Diagonal terms share one batch of computational-basis samples from
    // the session itself; each non-diagonal term draws from its cached
    // rotated-basis sub-session (one per rotation signature, rebound across
    // calls — the fallback no longer re-pays structure planning per call).
    std::vector<std::uint64_t> baseSamples;
    std::set<std::string> usedSignatures;
    bool haveBase = false;
    bool sampled = false;
    for (const auto& [coeff, pauli] : observable.terms) {
        if (pauli.isIdentity()) {
            total += coeff;
            continue;
        }
        if (shots == 0) {
            // Zero-shot requests are fine on native-exact paths, but here
            // they would silently return garbage (a 0 "estimate" per term).
            throw std::invalid_argument(
                "Expectation: backend " + backendName() +
                " must estimate this observable from samples for the bound "
                "circuit, but shots == 0");
        }
        if (pauli.isDiagonal()) {
            if (!haveBase) {
                baseSamples = doSample(shots, rng, meta);
                meta.fallbackShots += shots;
                haveBase = true;
            }
            total += coeff * pauli.expectationFromSamples(baseSamples);
        } else {
            const Result r =
                rotatedSession(pauli, usedSignatures).run(Sample{shots}, rng);
            meta.trajectories += r.meta.trajectories;
            meta.fallbackShots += shots;
            total += coeff * pauli.expectationFromSamples(r.samples);
        }
        sampled = true;
    }
    // Keep only the sub-sessions this call drew from: a repeated observable
    // still reuses its own, and a client that keeps sending new ones cannot
    // grow the session without bound.
    for (auto it = rotatedSessions_.begin(); it != rotatedSessions_.end();) {
        if (usedSignatures.count(it->first) != 0)
            ++it;
        else
            it = rotatedSessions_.erase(it);
    }
    // Set last (a doSample hook above may flag its own draw as exact): the
    // estimate is exact only if no term actually needed samples.
    meta.exact = !sampled;
    return total;
}

Session&
Session::rotatedSession(const PauliString& pauli,
                        std::set<std::string>& usedSignatures)
{
    // Key on the rotation pattern: the X/Y factors determine the appended
    // basis-change gates (H for X, Sdg-then-H for Y); Z and I add nothing.
    // Terms sharing the pattern share one sub-session, and parameter
    // rebinds of the base circuit flow through Session::bind.
    std::string key(circuit_.numQubits(), 'I');
    for (std::size_t q = 0; q < pauli.numQubits(); ++q) {
        const char p = pauli.pauli(q);
        if (p == 'X' || p == 'Y')
            key[q] = p;
    }
    usedSignatures.insert(key);
    const Circuit rotated = pauli.withMeasurementBasis(circuit_);
    auto it = rotatedSessions_.find(key);
    if (it == rotatedSessions_.end())
        it = rotatedSessions_
                 .emplace(key, entry_.open(entry_, rotated, options_))
                 .first;
    else
        it->second->bind(rotated);
    return *it->second;
}

void
Session::unsupported(const char* task, const char* why) const
{
    throw std::invalid_argument(std::string("Session::run: backend ") +
                                entry_.name + " cannot serve " + task +
                                " for the bound circuit (" + why + ")");
}

void
Session::checkObservable(const PauliSum& observable) const
{
    if (observable.terms.empty())
        throw std::invalid_argument("Expectation: empty observable");
    for (const auto& [coeff, pauli] : observable.terms) {
        (void)coeff;
        if (pauli.numQubits() != circuit_.numQubits())
            throw std::invalid_argument(
                "Expectation: observable qubit count does not match the "
                "bound circuit");
    }
}

void
Session::checkBitstrings(const std::vector<std::uint64_t>& bitstrings) const
{
    const std::size_t n = circuit_.numQubits();
    for (std::uint64_t b : bitstrings)
        if (n < 64 && (b >> n) != 0)
            throw std::invalid_argument("Amplitudes: bitstring out of range");
}

// ---------------------------------------------------------------------------
// Registry metadata
// ---------------------------------------------------------------------------

const std::vector<std::string>&
backendNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const BackendInfo& info : backendRegistry())
            v.push_back(info.name);
        return v;
    }();
    return names;
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

namespace {

using OptionMap = std::map<std::string, std::string>;

/** Splits "name:k1=v1,k2=v2" into the base name and its option map. */
OptionMap
parseOptionString(const std::string& spec, std::string& name)
{
    OptionMap options;
    const auto colon = spec.find(':');
    name = spec.substr(0, colon);
    if (colon == std::string::npos)
        return options;

    std::string rest = spec.substr(colon + 1);
    std::size_t pos = 0;
    while (pos <= rest.size()) {
        const auto comma = rest.find(',', pos);
        const std::string item =
            rest.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        const auto eq = item.find('=');
        if (item.empty() || eq == std::string::npos || eq == 0) {
            throw std::invalid_argument(
                "makeBackend: malformed option \"" + item + "\" in \"" +
                spec + "\" (expected key=value, comma-separated)");
        }
        const std::string key = item.substr(0, eq);
        if (!options.emplace(key, item.substr(eq + 1)).second)
            throw std::invalid_argument("makeBackend: option \"" + key +
                                        "\" repeated in \"" + spec + "\"");
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return options;
}

long
parseIntOption(const std::string& key, const std::string& value)
{
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
        throw std::invalid_argument("makeBackend: option " + key +
                                    " needs an in-range integer, got \"" +
                                    value + "\"");
    }
    return v;
}

} // namespace

const BackendInfo&
backendInfo(const std::string& name)
{
    for (const BackendInfo& info : backendRegistry()) {
        if (info.name == name)
            return info;
        for (const std::string& alias : info.aliases)
            if (alias == name)
                return info;
    }
    std::string known;
    for (const std::string& n : backendNames())
        known += (known.empty() ? "" : ", ") + n;
    throw std::invalid_argument("makeBackend: unknown backend \"" + name +
                                "\" (known: " + known + ")");
}

BackendSpec
parseBackendSpec(const std::string& spec)
{
    std::string name;
    OptionMap options = parseOptionString(spec, name);

    const BackendInfo& info = backendInfo(name);

    BackendSpec result;
    result.name = info.name;

    for (const auto& [key, value] : options) {
        const bool accepted =
            std::find(info.optionKeys.begin(), info.optionKeys.end(),
                      key) != info.optionKeys.end();
        if (!accepted) {
            std::string known;
            for (const std::string& k : info.optionKeys)
                known += (known.empty() ? "" : ", ") + k;
            throw std::invalid_argument(
                "makeBackend: unknown option \"" + key + "\" for backend " +
                info.name +
                (known.empty() ? " (it accepts no options)"
                               : " (valid: " + known + ")"));
        }
        const long v = parseIntOption(key, value);
        if (key == "threads") {
            if (v < 0)
                throw std::invalid_argument(
                    "makeBackend: option threads must be >= 0 "
                    "(0 = machine default)");
            result.options.threads = static_cast<std::size_t>(v);
        } else if (key == "fuse") {
            if (v != 0 && v != 1)
                throw std::invalid_argument(
                    "makeBackend: option fuse must be 0 or 1");
            result.options.fuse = v == 1;
        } else if (key == "burnin") {
            if (v < 0)
                throw std::invalid_argument(
                    "makeBackend: option burnin must be >= 0");
            result.options.burnIn = static_cast<std::size_t>(v);
        } else if (key == "thin") {
            if (v < 1)
                throw std::invalid_argument(
                    "makeBackend: option thin must be >= 1");
            result.options.thin = static_cast<std::size_t>(v);
        } else if (key == "gcthreshold") {
            if (v < 1)
                throw std::invalid_argument(
                    "makeBackend: option gcthreshold must be >= 1 (nodes "
                    "live before a sweep triggers)");
            result.options.gcThreshold = static_cast<std::size_t>(v);
        } else {
            // A registry optionKey without a dispatch branch would
            // otherwise be validated, parsed and then silently dropped.
            throw std::logic_error(
                "parseBackendSpec: registry advertises option \"" + key +
                "\" but no dispatch branch stores it — add one here and a "
                "field in BackendOptions");
        }
    }
    return result;
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

void
checkMarginalQubits(std::size_t numQubits,
                    const std::vector<std::size_t>& qubits)
{
    std::uint64_t seen = 0;
    for (std::size_t q : qubits) {
        if (q >= numQubits)
            throw std::invalid_argument(
                "Probabilities: marginal qubit out of range");
        if (seen & (std::uint64_t{1} << q))
            throw std::invalid_argument(
                "Probabilities: repeated marginal qubit");
        seen |= std::uint64_t{1} << q;
    }
}

std::vector<double>
marginalizeDistribution(const std::vector<double>& dist,
                        std::size_t numQubits,
                        const std::vector<std::size_t>& qubits)
{
    if (qubits.empty())
        return dist;
    return marginalize(numQubits, qubits,
                       [&dist](std::uint64_t x) { return dist[x]; });
}

} // namespace qkc
