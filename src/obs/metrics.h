#ifndef QKC_OBS_METRICS_H
#define QKC_OBS_METRICS_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace qkc::obs {

/**
 * Process-wide observability switch — the only one. Defaults to on; off,
 * a span site costs one branch, counters stop and ResultMeta.profile stays
 * empty. Initialized from the QKC_OBS environment variable when set ("0"
 * disables); setEnabled is for single-threaded configuration code (CLI
 * parsing, test setup) only.
 */
bool enabled();
void setEnabled(bool on);

// ---------------------------------------------------------------------------
// Snapshot types
// ---------------------------------------------------------------------------

/** One counter's merged value at snapshot time. */
struct CounterValue {
    const char* name = nullptr;
    std::uint64_t value = 0;
};

/**
 * One histogram's merged state: power-of-two buckets (bucket b counts
 * samples v with 2^b <= v+1 < 2^(b+1), i.e. bucket 0 holds v == 0),
 * plus the exact count and sum for mean computation.
 */
struct HistogramValue {
    const char* name = nullptr;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::vector<std::uint64_t> buckets;

    double mean() const
    {
        return count ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
    }
};

/** A merged, name-sorted view of every registered metric. */
struct MetricsSnapshot {
    std::vector<CounterValue> counters;
    std::vector<HistogramValue> histograms;

    /** Value of `name` (0 when absent — metrics register lazily). */
    std::uint64_t counter(const std::string& name) const;
    const HistogramValue* histogram(const std::string& name) const;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/**
 * The process-wide metric registry. Metric *identity* is a small dense id
 * handed out once per name; metric *state* lives in lock-free thread-local
 * shards (plain arrays of relaxed atomics — writers touch only their own
 * cache lines, so instrumenting a hot loop never contends). snapshot()
 * merges retired shards and every live shard by commutative integer
 * addition, so the merged totals are deterministic for any thread count
 * and interleaving, and reading them is TSan-clean.
 *
 * Names must be string literals (or otherwise outlive the process): the
 * registry stores the pointer, which is what keeps Counter::add at a
 * single branch plus one relaxed fetch_add.
 */
class MetricsRegistry {
  public:
    /** Shard capacity; registrations past this throw std::length_error. */
    static constexpr std::size_t kMaxCounters = 256;
    static constexpr std::size_t kMaxHistograms = 64;
    static constexpr std::size_t kHistogramBuckets = 40;

    static MetricsRegistry& instance();

    /** Registers (or looks up) a counter id for `name`. Thread-safe. */
    std::size_t counterId(const char* name);
    /** Registers (or looks up) a histogram id for `name`. Thread-safe. */
    std::size_t histogramId(const char* name);

    /** Adds to a counter on the calling thread's shard (relaxed). */
    void add(std::size_t counterId, std::uint64_t n);
    /** Records one histogram sample on the calling thread's shard. */
    void record(std::size_t histogramId, std::uint64_t value);

    /** Merges every shard into a name-sorted snapshot. */
    MetricsSnapshot snapshot() const;

    /**
     * Zeroes every shard and the retired totals (registrations are kept —
     * ids are process-lifetime). Test setup only: concurrent writers would
     * race the zeroing benignly but make totals unpredictable.
     */
    void reset();

  private:
    MetricsRegistry() = default;
    struct Impl;
    Impl& impl() const;
};

// ---------------------------------------------------------------------------
// Instrument handles
// ---------------------------------------------------------------------------

/**
 * A named monotone counter. Construct once (function-local static or
 * namespace scope) with a string literal; add() costs one branch when
 * observability is disabled and one relaxed thread-local fetch_add when
 * enabled.
 */
class Counter {
  public:
    explicit Counter(const char* name)
        : id_(MetricsRegistry::instance().counterId(name))
    {
    }

    void add(std::uint64_t n = 1)
    {
        if (!enabled())
            return;
        MetricsRegistry::instance().add(id_, n);
    }

  private:
    std::size_t id_;
};

/** A named log2-bucketed histogram of unsigned samples (e.g. nanoseconds). */
class Histogram {
  public:
    explicit Histogram(const char* name)
        : id_(MetricsRegistry::instance().histogramId(name))
    {
    }

    void record(std::uint64_t value)
    {
        if (!enabled())
            return;
        MetricsRegistry::instance().record(id_, value);
    }

  private:
    std::size_t id_;
};

/**
 * Renders a snapshot as the human-readable metrics block of the --profile
 * report: counters first, then histograms with count/mean columns. Only
 * metrics with non-zero activity are printed.
 */
void writeMetricsReport(std::ostream& out, const MetricsSnapshot& snapshot);

} // namespace qkc::obs

#endif // QKC_OBS_METRICS_H
