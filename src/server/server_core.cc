#include "server/server_core.h"

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <variant>

#include "exec/execution_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qkc {
namespace server {

namespace {

// Counter names must be string literals (the registry keeps the pointer).
obs::Counter&
counterRequests()
{
    static obs::Counter c("server.requests");
    return c;
}
obs::Counter&
counterBadRequest()
{
    static obs::Counter c("server.rejected.badrequest");
    return c;
}
obs::Counter&
counterAdmission()
{
    static obs::Counter c("server.rejected.admission");
    return c;
}
obs::Counter&
counterQueueFull()
{
    static obs::Counter c("server.rejected.queue");
    return c;
}
obs::Counter&
counterDraining()
{
    static obs::Counter c("server.rejected.draining");
    return c;
}
obs::Counter&
counterCacheHit()
{
    static obs::Counter c("server.cache.hit");
    return c;
}
obs::Counter&
counterCacheMiss()
{
    static obs::Counter c("server.cache.miss");
    return c;
}
obs::Histogram&
histQueueWait()
{
    static obs::Histogram h("server.queue.wait.ns");
    return h;
}
obs::Histogram&
histCoalesceWidth()
{
    static obs::Histogram h("server.coalesce.width");
    return h;
}

/** RAII slot in the bounded in-flight set; admitted() false means 429. */
class InflightGuard {
  public:
    InflightGuard(std::atomic<std::size_t>& inflight, std::size_t bound)
        : inflight_(inflight)
    {
        if (inflight_.fetch_add(1) >= bound) {
            inflight_.fetch_sub(1);
            admitted_ = false;
        }
    }
    ~InflightGuard()
    {
        if (admitted_)
            inflight_.fetch_sub(1);
    }
    InflightGuard(const InflightGuard&) = delete;
    InflightGuard& operator=(const InflightGuard&) = delete;

    bool admitted() const { return admitted_; }

  private:
    std::atomic<std::size_t>& inflight_;
    bool admitted_ = true;
};

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

struct ParsedRequest {
    std::string specString; ///< canonicalSpec(spec): the cache key
    BackendSpec spec;
    std::string taskName;
    Task task;
    std::vector<ParamBinding> bindings;
    std::vector<std::uint64_t> seeds;
    std::string taskSig;
};

/**
 * The cache key of a parsed spec: the registry name, then every option key
 * the registry lists for it, in registry order, with its value
 * ("statevector:threads=0,fuse=1"). Spellings that parse alike ("sv",
 * "statevector", "sv:fuse=1") share one key, so one session.
 */
std::string
canonicalSpec(const BackendSpec& spec)
{
    const BackendOptions& o = spec.options;
    const std::map<std::string, std::size_t> values = {
        {"threads", o.threads}, {"fuse", o.fuse},  {"burnin", o.burnIn},
        {"thin", o.thin},       {"gcthreshold", o.gcThreshold}};
    std::string out = spec.name;
    char sep = ':';
    for (const std::string& key : backendInfo(spec.name).optionKeys) {
        out += sep + key + "=" + std::to_string(values.at(key));
        sep = ',';
    }
    return out;
}

std::size_t
asCount(const Json& v, const char* what)
{
    const std::uint64_t n = v.asUInt64();
    if (n > static_cast<std::uint64_t>(~static_cast<std::size_t>(0)))
        throw JsonError(std::string("json: ") + what + " out of range");
    return static_cast<std::size_t>(n);
}

/**
 * A canonical text form of the task, used as the coalescing key: two
 * requests merge into one runBatch only when their tasks are identical,
 * because a batch runs one task against every binding.
 */
std::string
taskSignature(const Task& task)
{
    std::string sig;
    if (const auto* s = std::get_if<Sample>(&task)) {
        sig = "sample:" + std::to_string(s->shots);
    } else if (const auto* e = std::get_if<Expectation>(&task)) {
        sig = "expectation:" + std::to_string(e->shots);
        for (const auto& [coeff, pauli] : e->observable.terms) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", coeff);
            sig += ";";
            sig += buf;
            sig += "*" + pauli.text();
        }
    } else if (const auto* a = std::get_if<Amplitudes>(&task)) {
        sig = "amplitudes:";
        for (std::uint64_t b : a->bitstrings)
            sig += std::to_string(b) + ",";
    } else {
        const auto& p = std::get<Probabilities>(task);
        sig = "probabilities:";
        for (std::size_t q : p.qubits)
            sig += std::to_string(q) + ",";
    }
    return sig;
}

ParsedRequest
parseRequest(const Json& doc, const ServerConfig& config)
{
    if (!doc.isObject())
        throw JsonError("json: request body must be an object");
    static const char* kKnown[] = {"backend",    "qasm",   "task",
                                   "shots",      "seed",   "observable",
                                   "bitstrings", "qubits", "params"};
    for (const auto& [key, value] : doc.members()) {
        (void)value;
        bool known = false;
        for (const char* k : kKnown)
            known = known || key == k;
        if (!known)
            throw JsonError("json: unknown request field \"" + key + "\"");
    }

    ParsedRequest req;

    const Json* backend = doc.find("backend");
    if (!backend)
        throw JsonError("json: missing required field \"backend\"");
    req.spec = parseBackendSpec(backend->asString());
    req.specString = canonicalSpec(req.spec);

    const Json* qasm = doc.find("qasm");
    if (!qasm)
        throw JsonError("json: missing required field \"qasm\"");
    Circuit circuit = parseQasm(qasm->asString(), config.qasm);

    req.taskName = "sample";
    if (const Json* t = doc.find("task"))
        req.taskName = t->asString();

    if (req.taskName == "sample") {
        Sample s;
        if (const Json* shots = doc.find("shots"))
            s.shots = asCount(*shots, "shots");
        req.task = s;
    } else if (req.taskName == "expectation") {
        Expectation e;
        if (const Json* shots = doc.find("shots"))
            e.shots = asCount(*shots, "shots");
        const Json* obs = doc.find("observable");
        if (!obs)
            throw JsonError(
                "json: expectation requires \"observable\": [[coeff, "
                "\"PAULIS\"], ...]");
        for (const Json& term : obs->items()) {
            if (!term.isArray() || term.size() != 2)
                throw JsonError(
                    "json: each observable term must be [coeff, \"PAULIS\"]");
            e.observable.add(term.at(0).asDouble(),
                             PauliString(term.at(1).asString()));
        }
        req.task = std::move(e);
    } else if (req.taskName == "amplitudes") {
        Amplitudes a;
        const Json* bits = doc.find("bitstrings");
        if (!bits)
            throw JsonError(
                "json: amplitudes requires \"bitstrings\": [index, ...]");
        for (const Json& b : bits->items())
            a.bitstrings.push_back(b.asUInt64());
        req.task = std::move(a);
    } else if (req.taskName == "probabilities") {
        Probabilities p;
        if (const Json* qs = doc.find("qubits"))
            for (const Json& q : qs->items())
                p.qubits.push_back(asCount(q, "qubit"));
        req.task = std::move(p);
    } else {
        throw JsonError("json: unknown task \"" + req.taskName +
                        "\" (expected sample, expectation, amplitudes or "
                        "probabilities)");
    }

    std::uint64_t seed = 0;
    if (const Json* s = doc.find("seed"))
        seed = s->asUInt64();

    // Bindings: without "params", the request is its own single binding;
    // with it, binding i is the circuit with its parameterized-gate angles
    // replaced in program order by params[i]. Binding i draws seed + i, so
    // a client replaying binding i alone reproduces its payload exactly.
    if (const Json* params = doc.find("params")) {
        const std::vector<std::size_t> sites =
            circuit.parameterizedGateIndices();
        for (const Json& row : params->items()) {
            if (!row.isArray() || row.size() != sites.size())
                throw JsonError(
                    "json: each params row must list one angle per "
                    "parameterized gate (" +
                    std::to_string(sites.size()) + " expected)");
            Circuit binding = circuit;
            for (std::size_t i = 0; i < sites.size(); ++i)
                binding.setGateParam(sites[i], row.at(i).asDouble());
            req.bindings.push_back(std::move(binding));
        }
        if (req.bindings.empty())
            throw JsonError("json: \"params\" must not be empty");
        if (req.bindings.size() > config.admission.maxBindings)
            throw JsonError("json: request carries " +
                            std::to_string(req.bindings.size()) +
                            " bindings, more than the limit of " +
                            std::to_string(config.admission.maxBindings));
    } else {
        req.bindings.push_back(std::move(circuit));
    }
    for (std::size_t i = 0; i < req.bindings.size(); ++i)
        req.seeds.push_back(seed + i);

    req.taskSig = taskSignature(req.task);
    return req;
}

// ---------------------------------------------------------------------------
// Response rendering
// ---------------------------------------------------------------------------

Json
renderResult(const Result& r, const std::string& taskName)
{
    Json out = Json::object();
    if (taskName == "sample") {
        Json samples = Json::array();
        for (std::uint64_t s : r.samples)
            samples.push(Json(s));
        out.set("samples", std::move(samples));
    } else if (taskName == "expectation") {
        out.set("expectation", Json(r.expectation));
    } else if (taskName == "amplitudes") {
        Json amps = Json::array();
        for (const Complex& a : r.amplitudes) {
            Json pair = Json::array();
            pair.push(Json(a.real()));
            pair.push(Json(a.imag()));
            amps.push(std::move(pair));
        }
        out.set("amplitudes", std::move(amps));
    } else {
        Json probs = Json::array();
        for (double p : r.probabilities)
            probs.push(Json(p));
        out.set("probabilities", std::move(probs));
    }

    Json meta = Json::object();
    meta.set("seconds", Json(r.meta.seconds));
    meta.set("planBuilds", Json(static_cast<std::uint64_t>(r.meta.planBuilds)));
    meta.set("planReuses", Json(static_cast<std::uint64_t>(r.meta.planReuses)));
    meta.set("exact", Json(r.meta.exact));
    meta.set("trajectories",
             Json(static_cast<std::uint64_t>(r.meta.trajectories)));
    out.set("meta", std::move(meta));
    return out;
}

} // namespace

HttpResult
errorResult(int status, const char* code, const std::string& message,
            const std::string& field)
{
    Json err = Json::object();
    err.set("code", code);
    err.set("message", message);
    if (!field.empty())
        err.set("field", field);
    Json body = Json::object();
    body.set("error", std::move(err));
    return {status, body.dump()};
}

// ---------------------------------------------------------------------------
// ServerCore
// ---------------------------------------------------------------------------

ServerCore::ServerCore(ServerConfig config)
    : config_(config), cache_(config.cacheCapacity)
{
    if (config_.maxCoalesce == 0)
        throw std::invalid_argument("ServerCore: maxCoalesce must be >= 1");
}

HttpResult
ServerCore::handle(const std::string& method, const std::string& path,
                   const std::string& body)
{
    counterRequests().add();
    try {
        if (path == "/v1/run") {
            if (method != "POST")
                return errorResult(405, "method_not_allowed",
                                   "/v1/run takes POST");
            return runRequest(body);
        }
        if (path == "/v1/backends") {
            if (method != "GET")
                return errorResult(405, "method_not_allowed",
                                   "/v1/backends takes GET");
            return backendsResponse();
        }
        if (path == "/v1/stats") {
            if (method != "GET")
                return errorResult(405, "method_not_allowed",
                                   "/v1/stats takes GET");
            return statsResponse();
        }
        if (path == "/v1/healthz") {
            if (method != "GET")
                return errorResult(405, "method_not_allowed",
                                   "/v1/healthz takes GET");
            return healthzResponse();
        }
        if (path == "/v1/shutdown") {
            if (method != "POST")
                return errorResult(405, "method_not_allowed",
                                   "/v1/shutdown takes POST");
            beginDrain();
            Json out = Json::object();
            out.set("draining", Json(true));
            return {200, out.dump()};
        }
        return errorResult(404, "not_found", "no route for " + path);
    } catch (const std::exception& e) {
        return errorResult(500, "internal", e.what());
    }
}

HttpResult
ServerCore::runRequest(const std::string& body)
{
    QKC_SPAN("server.request");

    if (draining_.load()) {
        counterDraining().add();
        return errorResult(503, "draining",
                           "server is draining; no new work accepted");
    }
    InflightGuard guard(inflight_, config_.maxInflight);
    if (!guard.admitted()) {
        counterQueueFull().add();
        return errorResult(
            429, "overloaded",
            "in-flight request bound of " +
                std::to_string(config_.maxInflight) + " reached; retry");
    }

    ParsedRequest req;
    try {
        req = parseRequest(parseJson(body, config_.json), config_);
    } catch (const std::invalid_argument& e) {
        // JsonError, QasmParseError, bad specs, bad Pauli text.
        counterBadRequest().add();
        return errorResult(400, "bad_request", e.what());
    }

    const AdmissionVerdict verdict = admitRequest(
        req.spec, req.bindings.front(), req.task, config_.admission);
    if (!verdict.admitted) {
        counterAdmission().add();
        return errorResult(422, "infeasible", verdict.reason, verdict.field);
    }

    const std::uint64_t structure = structureHash(req.bindings.front());
    bool hit = false;
    std::shared_ptr<CacheEntry> entry =
        cache_.acquire(req.specString, structure, hit);
    (hit ? counterCacheHit() : counterCacheMiss()).add();

    auto waiter = std::make_shared<Waiter>();
    waiter->bindings = std::move(req.bindings);
    waiter->seeds = std::move(req.seeds);
    waiter->task = req.task;
    waiter->taskSig = std::move(req.taskSig);

    execute(*entry, waiter);

    if (waiter->error) {
        try {
            std::rethrow_exception(waiter->error);
        } catch (const std::invalid_argument& e) {
            // Task/backend mismatches surface at run time (e.g. amplitudes
            // on a noisy dm session) but are still the client's request.
            counterBadRequest().add();
            return errorResult(400, "bad_request", e.what());
        } catch (const std::exception& e) {
            return errorResult(500, "internal", e.what());
        }
    }

    Json out = Json::object();
    out.set("backend", req.spec.name);
    out.set("task", req.taskName);
    out.set("cacheHit", Json(hit));
    out.set("coalesced", Json(static_cast<std::uint64_t>(waiter->batchWidth)));
    out.set("queueWaitNanos", Json(waiter->waitNanos));
    Json results = Json::array();
    for (const Result& r : waiter->results)
        results.push(renderResult(r, req.taskName));
    out.set("results", std::move(results));
    return {200, out.dump()};
}

void
ServerCore::execute(CacheEntry& entry, const std::shared_ptr<Waiter>& w)
{
    std::unique_lock<std::mutex> lock(entry.mu);
    w->enqueuedNanos = obs::nowNs();
    entry.queue.push_back(w);

    if (entry.running) {
        // A leader is draining the queue; it will run our group and flip
        // done under the entry mutex.
        entry.cv.wait(lock, [&] { return w->done; });
        return;
    }

    entry.running = true;
    while (!entry.queue.empty()) {
        // Gather the front waiter's task-signature group, up to
        // maxCoalesce requests. The leader serves the whole queue before
        // releasing `running` — arrivals during a batch coalesce into the
        // next one instead of electing a second leader.
        std::vector<std::shared_ptr<Waiter>> group;
        const std::string sig = entry.queue.front()->taskSig;
        for (auto it = entry.queue.begin();
             it != entry.queue.end() && group.size() < config_.maxCoalesce;) {
            if ((*it)->taskSig == sig) {
                group.push_back(*it);
                it = entry.queue.erase(it);
            } else {
                ++it;
            }
        }
        const std::uint64_t serviceStart = obs::nowNs();
        for (const auto& g : group) {
            g->waitNanos = serviceStart - g->enqueuedNanos;
            histQueueWait().record(g->waitNanos);
        }
        histCoalesceWidth().record(group.size());

        lock.unlock();
        // Session work happens outside the lock: only the thread holding
        // `running` ever touches entry.session.
        try {
            QKC_SPAN("server.batch");
            if (!entry.session) {
                QKC_SPAN("server.open");
                entry.session = makeBackend(entry.specString)
                                    ->open(group.front()->bindings.front());
            }
            std::vector<ParamBinding> bindings;
            std::vector<std::uint64_t> seeds;
            for (const auto& g : group) {
                bindings.insert(bindings.end(), g->bindings.begin(),
                                g->bindings.end());
                seeds.insert(seeds.end(), g->seeds.begin(), g->seeds.end());
            }
            std::vector<Result> results =
                entry.session->runBatch(bindings, group.front()->task, seeds);

            std::size_t off = 0;
            for (const auto& g : group) {
                const auto first =
                    results.begin() + static_cast<std::ptrdiff_t>(off);
                g->results.assign(
                    first, first + static_cast<std::ptrdiff_t>(
                                       g->bindings.size()));
                off += g->bindings.size();
                g->batchWidth = group.size();
            }
        } catch (...) {
            for (const auto& g : group) {
                g->error = std::current_exception();
                g->batchWidth = group.size();
            }
        }
        lock.lock();
        for (const auto& g : group)
            g->done = true;
        entry.cv.notify_all();
    }
    entry.running = false;
}

Json
backendRegistryJson()
{
    Json list = Json::array();
    for (const BackendInfo& info : backendRegistry()) {
        Json b = Json::object();
        b.set("name", info.name);
        Json aliases = Json::array();
        for (const std::string& a : info.aliases)
            aliases.push(Json(a));
        b.set("aliases", std::move(aliases));
        Json options = Json::array();
        for (const std::string& k : info.optionKeys)
            options.push(Json(k));
        b.set("options", std::move(options));
        b.set("summary", info.summary);
        b.set("tasks", info.tasks);
        b.set("batch", info.batch);
        list.push(std::move(b));
    }
    Json out = Json::object();
    out.set("backends", std::move(list));
    return out;
}

HttpResult
ServerCore::backendsResponse() const
{
    return {200, backendRegistryJson().dump()};
}

HttpResult
ServerCore::statsResponse() const
{
    Json out = Json::object();
    out.set("draining", Json(draining_.load()));
    out.set("inflight", Json(static_cast<std::uint64_t>(inflight_.load())));

    Json cache = Json::object();
    cache.set("size", Json(static_cast<std::uint64_t>(cache_.size())));
    cache.set("capacity",
              Json(static_cast<std::uint64_t>(cache_.capacity())));
    cache.set("evictions",
              Json(static_cast<std::uint64_t>(cache_.evictions())));
    out.set("cache", std::move(cache));

    // Every server.* metric, straight from the registry snapshot.
    Json metrics = Json::object();
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
    for (const obs::CounterValue& c : snap.counters) {
        const std::string name = c.name;
        if (name.rfind("server.", 0) == 0)
            metrics.set(name, Json(c.value));
    }
    for (const obs::HistogramValue& h : snap.histograms) {
        const std::string name = h.name;
        if (name.rfind("server.", 0) != 0)
            continue;
        Json hist = Json::object();
        hist.set("count", Json(h.count));
        hist.set("sum", Json(h.sum));
        hist.set("mean", Json(h.mean()));
        metrics.set(name, std::move(hist));
    }
    out.set("metrics", std::move(metrics));
    return {200, out.dump()};
}

HttpResult
ServerCore::healthzResponse() const
{
    Json out = Json::object();
    out.set("ok", Json(true));
    out.set("draining", Json(draining_.load()));
    return {200, out.dump()};
}

} // namespace server
} // namespace qkc
