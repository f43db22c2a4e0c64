#ifndef VQABENCH_BENCH_H
#define VQABENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

/**
 * The repository benchmark: three closed-loop variational workloads driven
 * through the public library API, with benchmark-owned tracing around the
 * calls into each layer. See run.py for the command line and BENCHMARK.json
 * for the metric list.
 */
namespace vqabench {

/** Command-line arguments shared by every workload. */
struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Deliberately corrupt each output before it is checked (self-test). */
    bool corrupt = false;
    /** Directory the Chrome trace is written to (trace mode). */
    std::string outDir = ".bench_out";
};

/** Seconds on the steady clock. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median of `v` (NaN when empty). */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile, p in (0, 1]: the smallest sample with at least
 * p of the samples at or below it (NaN when empty).
 */
double percentile(std::vector<double> v, double p);

/** num / den, NaN when den is zero (the writer prints that as null). */
inline double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : std::numeric_limits<double>::quiet_NaN();
}

/** A number in JSON form; non-finite values become `null`. */
std::string jsonNumber(double v);

/** A JSON string literal with the required escapes. */
std::string jsonString(const std::string& s);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/** One recorded interval: name, start, end (seconds), parent index or -1. */
struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int tid = 0;
};

/**
 * In-memory span recorder. Spans nest per thread (a thread-local stack gives
 * each new span its parent); the whole log is written as Chrome trace JSON
 * when the run ends. A disabled tracer records nothing.
 */
class Tracer {
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Opens a span; returns its index (-1 when disabled). */
    int begin(const std::string& name);
    /** Closes the span `id` opened by this thread. */
    void end(int id);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Writes the spans as a Chrome trace (traceEvents array). */
    bool writeChrome(const std::string& path, const std::string& metaJson) const;

  private:
    bool enabled_;
    mutable std::mutex mu_; ///< guards spans_
    std::vector<Span> spans_;
};

/** RAII span on a tracer. */
class Scope {
  public:
    Scope(Tracer& tracer, const std::string& name)
        : tracer_(tracer), id_(tracer.begin(name))
    {
    }
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer& tracer_;
    int id_;
};

/**
 * Self time (duration minus the part covered by child spans) summed per
 * layer — the span name up to its first '.'; roots are grouped under their
 * full name.
 */
std::map<std::string, double> selfSecondsByLayer(const std::vector<Span>& spans);

/** Durations (seconds) of every span called `name`. */
std::vector<double> durations(const std::vector<Span>& spans,
                              const std::string& name);

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/**
 * What a workload hands back: metric values by name, plus the evaluation
 * tally. Names not set by a workload are layers it does not exercise and
 * are reported as 0.
 */
struct Outcome {
    std::map<std::string, double> metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** Human-readable reasons for the first few failures (stderr). */
    std::vector<std::string> failures;

    void fail(const std::string& why)
    {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(why);
    }
};

/** Host facts recorded with every result. */
struct Host {
    std::string cpuModel;
    unsigned nproc = 1;
    std::size_t llcBytes = 0;
    std::string simd;
    std::string buildType;
    std::map<std::string, std::string> qkcEnv;

    std::string json(std::size_t threadsUsed) const;
};

Host probeHost();

/** Peak resident set of this process in MiB (getrusage ru_maxrss). */
double peakRssMb();

/** The `Threads:` line of /proc/self/status. */
double osThreads();

/**
 * Host-wide steal time so far in seconds (all CPUs, /proc/stat): time this
 * machine's virtual CPUs were ready but not run. A run whose steal grew
 * much ran slower for reasons outside the program.
 */
double stealSeconds();

/**
 * Copy bandwidth in GB/s (bytes read plus bytes written per second), best
 * of three passes of `threads` threads over `bytes`-sized source and
 * destination arrays.
 */
double copyBandwidthGbps(std::size_t bytes, unsigned threads);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

Outcome runIdealSv(const Args& args, Tracer& tracer);
Outcome runNoisyDm(const Args& args, Tracer& tracer);
Outcome runServeMix(const Args& args, Tracer& tracer);

/**
 * Adds trace.overhead_frac, trace.coverage and the per-layer self times
 * from a traced run. `untraced`/`traced` are evaluation latencies (seconds)
 * of the plain and the traced evaluations interleaved in the same run;
 * coverage is the self time under `layers` roots over the time of `eval`
 * roots.
 */
void addTraceMetrics(Outcome& out, const std::vector<Span>& spans,
                     const std::vector<double>& untraced,
                     const std::vector<double>& traced);

} // namespace vqabench

#endif // VQABENCH_BENCH_H
