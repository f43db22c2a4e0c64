#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

namespace qkc::obs {

std::uint64_t
nowNs()
{
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

// ---------------------------------------------------------------------------
// Thread-local span state
// ---------------------------------------------------------------------------

struct ProfileScope::Collector {
    std::uint32_t baseDepth = 0;
    std::vector<ProfilePhase> phases;
};

namespace {

std::atomic<bool> g_collecting{false};

/** The per-thread event buffer the recorder drains. */
struct TraceBuffer {
    std::mutex mutex; ///< taken by the owner per append and by drain()
    std::vector<SpanEvent> events;
};

struct TraceBufferList {
    std::mutex mutex;
    std::vector<std::shared_ptr<TraceBuffer>> buffers;

    static TraceBufferList& instance()
    {
        // Intentionally leaked: exiting threads (pool workers at static
        // destruction included) release their buffer shared_ptrs through
        // this list, so it must outlive every thread.
        static TraceBufferList* list = new TraceBufferList;
        return *list;
    }
};

struct ThreadTraceState {
    std::uint32_t tid;
    std::uint32_t depth = 0;
    std::vector<ProfileScope::Collector*> collectors;
    std::shared_ptr<TraceBuffer> buffer;

    ThreadTraceState()
    {
        static std::atomic<std::uint32_t> nextTid{0};
        tid = nextTid.fetch_add(1, std::memory_order_relaxed);
        buffer = std::make_shared<TraceBuffer>();
        TraceBufferList& list = TraceBufferList::instance();
        std::lock_guard<std::mutex> lock(list.mutex);
        list.buffers.push_back(buffer);
    }
    // The shared_ptr keeps the buffer alive in the global list after the
    // thread exits, so a drain still sees spans from retired pool workers.
};

ThreadTraceState&
tls()
{
    thread_local ThreadTraceState state;
    return state;
}

/** True when a finishing span has anywhere to deliver its event. */
bool
trackingActive(const ThreadTraceState& t)
{
    return enabled() && (g_collecting.load(std::memory_order_relaxed) ||
                         !t.collectors.empty());
}

void
creditPhase(std::vector<ProfilePhase>& phases, const char* name,
            std::uint64_t durNs)
{
    for (ProfilePhase& p : phases) {
        if (p.name == name || std::string(p.name) == name) {
            p.seconds += static_cast<double>(durNs) * 1e-9;
            ++p.count;
            return;
        }
    }
    phases.push_back(
        {name, static_cast<double>(durNs) * 1e-9, std::uint64_t{1}});
}

void
deliverSpan(ThreadTraceState& t, const char* name, std::uint32_t depth,
            std::uint64_t startNs, std::uint64_t durNs)
{
    // Credit the innermost profile scope this span is top-level in.
    for (auto it = t.collectors.rbegin(); it != t.collectors.rend(); ++it) {
        if ((*it)->baseDepth + 1 == depth) {
            creditPhase((*it)->phases, name, durNs);
            break;
        }
        if ((*it)->baseDepth < depth)
            break; // deeper than top level for every remaining scope
    }
    if (g_collecting.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> lock(t.buffer->mutex);
        t.buffer->events.push_back({name, t.tid, depth, startNs, durNs});
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

Span::Span(const char* name) : name_(name)
{
    ThreadTraceState& t = tls();
    if (!trackingActive(t))
        return;
    live_ = true;
    ++t.depth;
    startNs_ = nowNs();
}

void
Span::finish()
{
    if (!live_)
        return;
    live_ = false;
    const std::uint64_t end = nowNs();
    ThreadTraceState& t = tls();
    const std::uint32_t depth = t.depth;
    --t.depth;
    deliverSpan(t, name_, depth, startNs_, end - startNs_);
}

TimedSpan::TimedSpan(const char* name) : startNs_(nowNs()), span_(name) {}

double
TimedSpan::seconds() const
{
    return static_cast<double>(nowNs() - startNs_) * 1e-9;
}

// ---------------------------------------------------------------------------
// ProfileScope
// ---------------------------------------------------------------------------

ProfileScope::ProfileScope(const char* name)
{
    if (!enabled())
        return;
    ThreadTraceState& t = tls();
    // The scope's envelope span: opened by hand (not RAII) so the collector
    // can be pushed *after* the depth bump — phases are spans at
    // baseDepth + 1, i.e. direct children of the envelope.
    collector_ = new Collector;
    ++t.depth;
    collector_->baseDepth = t.depth;
    envelopeName_ = name;
    startNs_ = nowNs();
    t.collectors.push_back(collector_);
}

TaskProfile
ProfileScope::take()
{
    TaskProfile profile;
    if (!collector_)
        return profile;
    const std::uint64_t end = nowNs();
    ThreadTraceState& t = tls();
    t.collectors.pop_back();
    profile.phases = std::move(collector_->phases);
    profile.totalSeconds = static_cast<double>(end - startNs_) * 1e-9;
    const std::uint32_t depth = t.depth;
    --t.depth;
    delete collector_;
    collector_ = nullptr;
    // Close the envelope span now that the collector is gone (the envelope
    // must not be credited to itself; an outer scope still sees it).
    deliverSpan(t, envelopeName_, depth, startNs_, end - startNs_);
    return profile;
}

ProfileScope::~ProfileScope()
{
    if (collector_)
        take();
}

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TraceRecorder&
TraceRecorder::instance()
{
    static TraceRecorder recorder;
    return recorder;
}

void
TraceRecorder::start()
{
    TraceBufferList& list = TraceBufferList::instance();
    {
        std::lock_guard<std::mutex> lock(list.mutex);
        for (auto& buffer : list.buffers) {
            std::lock_guard<std::mutex> bufferLock(buffer->mutex);
            buffer->events.clear();
        }
    }
    g_collecting.store(true, std::memory_order_relaxed);
}

void
TraceRecorder::stop()
{
    g_collecting.store(false, std::memory_order_relaxed);
}

bool
TraceRecorder::collecting() const
{
    return g_collecting.load(std::memory_order_relaxed);
}

std::vector<SpanEvent>
TraceRecorder::drain() const
{
    TraceBufferList& list = TraceBufferList::instance();
    std::vector<SpanEvent> events;
    {
        std::lock_guard<std::mutex> lock(list.mutex);
        for (auto& buffer : list.buffers) {
            std::lock_guard<std::mutex> bufferLock(buffer->mutex);
            events.insert(events.end(), buffer->events.begin(),
                          buffer->events.end());
        }
    }
    std::sort(events.begin(), events.end(),
              [](const SpanEvent& a, const SpanEvent& b) {
                  if (a.startNs != b.startNs)
                      return a.startNs < b.startNs;
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  return a.durNs > b.durNs; // outer spans before inner
              });
    return events;
}

namespace {

void
writeJsonString(std::ostream& out, const char* s)
{
    out << '"';
    for (; *s; ++s) {
        if (*s == '"' || *s == '\\')
            out << '\\';
        out << *s;
    }
    out << '"';
}

} // namespace

void
TraceRecorder::writeChromeJson(std::ostream& out) const
{
    const std::vector<SpanEvent> events = drain();
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    std::vector<std::uint32_t> tids;
    for (const SpanEvent& e : events) {
        if (std::find(tids.begin(), tids.end(), e.tid) == tids.end()) {
            tids.push_back(e.tid);
            if (!first)
                out << ",";
            first = false;
            out << "\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                   "\"tid\": "
                << e.tid << ", \"args\": {\"name\": \"qkc thread "
                << e.tid << "\"}}";
        }
        if (!first)
            out << ",";
        first = false;
        out << "\n{\"name\": ";
        writeJsonString(out, e.name);
        out << ", \"cat\": \"qkc\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
            << e.tid << ", \"ts\": " << static_cast<double>(e.startNs) / 1e3
            << ", \"dur\": " << static_cast<double>(e.durNs) / 1e3 << "}";
    }
    out << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Profile report
// ---------------------------------------------------------------------------

void
writeProfileReport(std::ostream& out, const TaskProfile& profile)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "task wall time: %.6fs (phases cover %.1f%%)\n",
                  profile.totalSeconds,
                  profile.totalSeconds > 0.0
                      ? 100.0 * profile.accountedSeconds() / profile.totalSeconds
                      : 0.0);
    out << buf;
    out << "phase                                seconds      share      count\n";
    for (const ProfilePhase& p : profile.phases) {
        out << "  " << p.name;
        for (std::size_t pad = std::string(p.name).size(); pad < 34; ++pad)
            out << ' ';
        std::snprintf(buf, sizeof buf, "%9.6f %9.1f%% %10llu\n", p.seconds,
                      profile.totalSeconds > 0.0
                          ? 100.0 * p.seconds / profile.totalSeconds
                          : 0.0,
                      static_cast<unsigned long long>(p.count));
        out << buf;
    }
}

} // namespace qkc::obs
