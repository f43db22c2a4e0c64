#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

#include "bench.h"
#include "exec/simd.h"

namespace vqabench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {

thread_local std::vector<int> tlsStack;

int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local const int index = next++;
    return index;
}

} // namespace

int
Tracer::begin(const std::string& name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = tlsStack.empty() ? -1 : tlsStack.back();
    s.tid = threadIndex();
    int id;
    {
        std::lock_guard<std::mutex> lock(mu_);
        id = static_cast<int>(spans_.size());
        s.start = now();
        spans_.push_back(std::move(s));
    }
    tlsStack.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    const double t = now();
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(id)].end = t;
    }
    if (!tlsStack.empty() && tlsStack.back() == id)
        tlsStack.pop_back();
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

bool
Tracer::writeChrome(const std::string& path, const std::string& metaJson) const
{
    const std::vector<Span> all = spans();
    std::ofstream os(path);
    if (!os)
        return false;
    const double t0 = all.empty() ? 0.0 : all.front().start;
    os << "{\"otherData\": " << metaJson << ",\n\"traceEvents\": [\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        os << (i ? ",\n" : "") << "{\"name\": " << jsonString(s.name)
           << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
           << ", \"ts\": " << jsonNumber((s.start - t0) * 1e6)
           << ", \"dur\": " << jsonNumber((s.end - s.start) * 1e6)
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

namespace {

/** Per span: its duration minus the duration of its direct children. */
std::vector<double>
selfSeconds(const std::vector<Span>& spans)
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end - spans[i].start;
    for (const Span& s : spans)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    return self;
}

std::string
layerOf(const std::string& name)
{
    return name.substr(0, name.find('.'));
}

} // namespace

std::map<std::string, double>
selfSecondsByLayer(const std::vector<Span>& spans)
{
    const std::vector<double> self = selfSeconds(spans);
    std::map<std::string, double> byLayer;
    for (std::size_t i = 0; i < spans.size(); ++i)
        byLayer[layerOf(spans[i].name)] += self[i];
    return byLayer;
}

std::vector<double>
durations(const std::vector<Span>& spans, const std::string& name)
{
    std::vector<double> out;
    for (const Span& s : spans)
        if (s.name == name)
            out.push_back(s.end - s.start);
    return out;
}

void
addTraceMetrics(Outcome& out, const std::vector<Span>& spans,
                const std::vector<double>& untraced,
                const std::vector<double>& traced)
{
    const double plain = median(untraced);
    out.metrics["trace.overhead_frac"] = ratio(median(traced) - plain, plain);

    // Coverage: the layer calls mirrored under `layers` roots, by self time,
    // against the end-to-end time of the `eval` roots they mirror.
    const std::vector<double> self = selfSeconds(spans);
    double covered = 0.0;
    double evalTime = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        if (s.parent < 0) {
            if (s.name == "eval")
                evalTime += s.end - s.start;
            continue;
        }
        int root = s.parent;
        while (spans[static_cast<std::size_t>(root)].parent >= 0)
            root = spans[static_cast<std::size_t>(root)].parent;
        if (spans[static_cast<std::size_t>(root)].name == "layers")
            covered += self[i];
    }
    out.metrics["trace.coverage"] = ratio(covered, evalTime);
}

// ---------------------------------------------------------------------------
// Host facts
// ---------------------------------------------------------------------------

Host
probeHost()
{
    Host h;
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                h.cpuModel = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    h.nproc = std::max(1u, std::thread::hardware_concurrency());
    const long llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
    h.llcBytes = llc > 0 ? static_cast<std::size_t>(llc) : 0;
    h.simd = qkc::simdLevelName(qkc::activeSimdLevel());
    h.buildType = VQABENCH_BUILD_TYPE;
    // The library's own switches (obs counters, SIMD ceiling, threads).
    for (const char* name : {"QKC_OBS", "QKC_SIMD", "QKC_THREADS"})
        if (const char* value = std::getenv(name))
            h.qkcEnv[name] = value;
    return h;
}

std::string
Host::json(std::size_t threadsUsed) const
{
    std::string env = "{";
    for (const auto& [k, v] : qkcEnv)
        env += (env.size() > 1 ? ", " : "") + jsonString(k) + ": " +
               jsonString(v);
    env += "}";
    return "{\"cpu\": " + jsonString(cpuModel) +
           ", \"nproc\": " + std::to_string(nproc) +
           ", \"llc_bytes\": " + std::to_string(llcBytes) +
           ", \"simd\": " + jsonString(simd) +
           ", \"threads\": " + std::to_string(threadsUsed) +
           ", \"build_type\": " + jsonString(buildType) +
           ", \"qkc_env\": " + env + "}";
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double
osThreads()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("Threads:", 0) == 0)
            return std::strtod(line.c_str() + 8, nullptr);
    return std::numeric_limits<double>::quiet_NaN();
}

double
stealSeconds()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    double field = 0.0;
    double steal = std::numeric_limits<double>::quiet_NaN();
    // "cpu user nice system idle iowait irq softirq steal ..."
    if (stat >> cpu && cpu == "cpu") {
        for (int i = 0; i < 8 && stat >> field; ++i)
            steal = field;
    }
    return steal / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double
copyBandwidthGbps(std::size_t bytes, unsigned threads)
{
    const std::size_t n = bytes / sizeof(double);
    std::unique_ptr<double[]> src(new double[n]);
    std::unique_ptr<double[]> dst(new double[n]);
    auto parallel = [&](auto&& body) {
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back([&, t] {
                body(n * t / threads, n * (t + 1) / threads);
            });
        for (std::thread& th : pool)
            th.join();
    };
    // First touch on the copying threads, so pages are mapped up front.
    parallel([&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            src[i] = static_cast<double>(i);
        std::memset(dst.get() + lo, 0, (hi - lo) * sizeof(double));
    });
    double best = 0.0;
    for (int pass = 0; pass < 3; ++pass) {
        const double t0 = now();
        parallel([&](std::size_t lo, std::size_t hi) {
            std::memcpy(dst.get() + lo, src.get() + lo,
                        (hi - lo) * sizeof(double));
        });
        const double dt = now() - t0;
        best = std::max(best, 2.0 * static_cast<double>(n * sizeof(double)) /
                                  dt / 1e9);
    }
    if (dst[n / 2] != src[n / 2])
        return std::numeric_limits<double>::quiet_NaN();
    return best;
}

} // namespace vqabench
