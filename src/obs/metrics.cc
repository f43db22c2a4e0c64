#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>

namespace qkc::obs {

namespace {

std::atomic<bool>&
enabledFlag()
{
    static std::atomic<bool> flag = [] {
        if (const char* env = std::getenv("QKC_OBS"))
            return std::strtol(env, nullptr, 10) != 0;
        return true;
    }();
    return flag;
}

/** Index of the highest set bit of v+1: bucket 0 holds v == 0. */
std::size_t
bucketOf(std::uint64_t value)
{
    std::size_t b = 0;
    for (std::uint64_t v = value + 1; v > 1; v >>= 1)
        ++b;
    return std::min<std::size_t>(b, MetricsRegistry::kHistogramBuckets - 1);
}

} // namespace

bool
enabled()
{
    return enabledFlag().load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    enabledFlag().store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry internals
// ---------------------------------------------------------------------------

namespace {

struct HistogramCells {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> buckets[MetricsRegistry::kHistogramBuckets]{};
};

/**
 * One thread's metric storage: fixed-capacity arrays of relaxed atomics.
 * The owning thread is the only writer; snapshot() reads concurrently with
 * relaxed loads (counters are monotone, so a snapshot is some valid
 * interleaving point — exact at quiescence, which is when profiles and
 * reports read it). Fixed capacity keeps cell addresses stable for the
 * shard's whole lifetime, which is what makes the reads safe without
 * locking the writer.
 */
struct Shard {
    std::atomic<std::uint64_t> counters[MetricsRegistry::kMaxCounters]{};
    HistogramCells histograms[MetricsRegistry::kMaxHistograms];

    void zero()
    {
        for (auto& c : counters)
            c.store(0, std::memory_order_relaxed);
        for (auto& h : histograms) {
            h.count.store(0, std::memory_order_relaxed);
            h.sum.store(0, std::memory_order_relaxed);
            for (auto& b : h.buckets)
                b.store(0, std::memory_order_relaxed);
        }
    }
};

} // namespace

struct MetricsRegistry::Impl {
    mutable std::mutex mutex; ///< guards names + the shard list, never cells

    std::vector<const char*> counterNames;   ///< index == id
    std::vector<const char*> histogramNames;

    std::vector<Shard*> liveShards;
    /** Totals folded in from exited threads (same layout as a shard). */
    std::unique_ptr<Shard> retired = std::make_unique<Shard>();

    Shard* shardForThisThread()
    {
        struct Registration {
            Impl* impl = nullptr;
            std::unique_ptr<Shard> shard;
            ~Registration()
            {
                if (!impl)
                    return;
                std::lock_guard<std::mutex> lock(impl->mutex);
                // Fold the dying thread's cells into the retired totals so
                // process totals survive thread exit (pool teardown).
                for (std::size_t i = 0; i < kMaxCounters; ++i)
                    impl->retired->counters[i].fetch_add(
                        shard->counters[i].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
                for (std::size_t i = 0; i < kMaxHistograms; ++i) {
                    auto& from = shard->histograms[i];
                    auto& to = impl->retired->histograms[i];
                    to.count.fetch_add(
                        from.count.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
                    to.sum.fetch_add(
                        from.sum.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
                    for (std::size_t b = 0; b < kHistogramBuckets; ++b)
                        to.buckets[b].fetch_add(
                            from.buckets[b].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
                }
                auto& live = impl->liveShards;
                live.erase(std::find(live.begin(), live.end(), shard.get()));
            }
        };
        thread_local Registration reg;
        if (!reg.impl) {
            reg.impl = this;
            reg.shard = std::make_unique<Shard>();
            std::lock_guard<std::mutex> lock(mutex);
            liveShards.push_back(reg.shard.get());
        }
        return reg.shard.get();
    }
};

MetricsRegistry::Impl&
MetricsRegistry::impl() const
{
    // Intentionally leaked: shards fold into `retired` from thread_local
    // destructors, and pool workers (sharedPool() is itself a static) can
    // exit after any destruction order would have torn this down.
    static Impl* state = new Impl;
    return *state;
}

MetricsRegistry&
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

std::size_t
MetricsRegistry::counterId(const char* name)
{
    Impl& s = impl();
    std::lock_guard<std::mutex> lock(s.mutex);
    for (std::size_t i = 0; i < s.counterNames.size(); ++i)
        if (std::string(s.counterNames[i]) == name)
            return i;
    if (s.counterNames.size() >= kMaxCounters)
        throw std::length_error("MetricsRegistry: counter capacity exceeded");
    s.counterNames.push_back(name);
    return s.counterNames.size() - 1;
}

std::size_t
MetricsRegistry::histogramId(const char* name)
{
    Impl& s = impl();
    std::lock_guard<std::mutex> lock(s.mutex);
    for (std::size_t i = 0; i < s.histogramNames.size(); ++i)
        if (std::string(s.histogramNames[i]) == name)
            return i;
    if (s.histogramNames.size() >= kMaxHistograms)
        throw std::length_error(
            "MetricsRegistry: histogram capacity exceeded");
    s.histogramNames.push_back(name);
    return s.histogramNames.size() - 1;
}

void
MetricsRegistry::add(std::size_t counterId, std::uint64_t n)
{
    impl().shardForThisThread()->counters[counterId].fetch_add(
        n, std::memory_order_relaxed);
}

void
MetricsRegistry::record(std::size_t histogramId, std::uint64_t value)
{
    HistogramCells& h =
        impl().shardForThisThread()->histograms[histogramId];
    h.count.fetch_add(1, std::memory_order_relaxed);
    h.sum.fetch_add(value, std::memory_order_relaxed);
    h.buckets[bucketOf(value)].fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    Impl& s = impl();
    std::lock_guard<std::mutex> lock(s.mutex);

    MetricsSnapshot out;
    out.counters.resize(s.counterNames.size());
    for (std::size_t i = 0; i < s.counterNames.size(); ++i) {
        out.counters[i].name = s.counterNames[i];
        out.counters[i].value =
            s.retired->counters[i].load(std::memory_order_relaxed);
    }
    out.histograms.resize(s.histogramNames.size());
    for (std::size_t i = 0; i < s.histogramNames.size(); ++i) {
        HistogramValue& hv = out.histograms[i];
        hv.name = s.histogramNames[i];
        hv.buckets.assign(kHistogramBuckets, 0);
        const HistogramCells& from = s.retired->histograms[i];
        hv.count = from.count.load(std::memory_order_relaxed);
        hv.sum = from.sum.load(std::memory_order_relaxed);
        for (std::size_t b = 0; b < kHistogramBuckets; ++b)
            hv.buckets[b] = from.buckets[b].load(std::memory_order_relaxed);
    }
    for (const Shard* shard : s.liveShards) {
        for (std::size_t i = 0; i < out.counters.size(); ++i)
            out.counters[i].value +=
                shard->counters[i].load(std::memory_order_relaxed);
        for (std::size_t i = 0; i < out.histograms.size(); ++i) {
            HistogramValue& hv = out.histograms[i];
            const HistogramCells& from = shard->histograms[i];
            hv.count += from.count.load(std::memory_order_relaxed);
            hv.sum += from.sum.load(std::memory_order_relaxed);
            for (std::size_t b = 0; b < kHistogramBuckets; ++b)
                hv.buckets[b] +=
                    from.buckets[b].load(std::memory_order_relaxed);
        }
    }

    auto byName = [](const auto& a, const auto& b) {
        return std::string(a.name) < b.name;
    };
    std::sort(out.counters.begin(), out.counters.end(), byName);
    std::sort(out.histograms.begin(), out.histograms.end(), byName);
    return out;
}

void
MetricsRegistry::reset()
{
    Impl& s = impl();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.retired->zero();
    for (Shard* shard : s.liveShards)
        shard->zero();
}

// ---------------------------------------------------------------------------
// Snapshot helpers
// ---------------------------------------------------------------------------

std::uint64_t
MetricsSnapshot::counter(const std::string& name) const
{
    for (const CounterValue& c : counters)
        if (name == c.name)
            return c.value;
    return 0;
}

const HistogramValue*
MetricsSnapshot::histogram(const std::string& name) const
{
    for (const HistogramValue& h : histograms)
        if (name == h.name)
            return &h;
    return nullptr;
}

void
writeMetricsReport(std::ostream& out, const MetricsSnapshot& snapshot)
{
    out << "counters:\n";
    bool any = false;
    for (const CounterValue& c : snapshot.counters) {
        if (c.value == 0)
            continue;
        any = true;
        out << "  " << c.name;
        for (std::size_t pad = std::string(c.name).size(); pad < 36; ++pad)
            out << ' ';
        out << c.value << "\n";
    }
    if (!any)
        out << "  (none)\n";
    any = false;
    for (const HistogramValue& h : snapshot.histograms) {
        if (h.count == 0)
            continue;
        if (!any)
            out << "histograms (count / mean):\n";
        any = true;
        out << "  " << h.name;
        for (std::size_t pad = std::string(h.name).size(); pad < 36; ++pad)
            out << ' ';
        out << h.count << " / " << h.mean() << "\n";
    }
}

} // namespace qkc::obs
