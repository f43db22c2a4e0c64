#ifndef QKC_OBS_TRACE_H
#define QKC_OBS_TRACE_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/metrics.h"

namespace qkc::obs {

// ---------------------------------------------------------------------------
// Span events
// ---------------------------------------------------------------------------

/**
 * One completed scoped span. Names are string literals interned by pointer;
 * depth is the span's nesting level on its own thread (1 = top level);
 * times are nanoseconds since the process trace epoch.
 */
struct SpanEvent {
    const char* name = nullptr;
    std::uint32_t tid = 0;   ///< small dense id, assigned per thread
    std::uint32_t depth = 0;
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
};

// ---------------------------------------------------------------------------
// Task profiles
// ---------------------------------------------------------------------------

/** Aggregated time of one top-level phase inside a profiled scope. */
struct ProfilePhase {
    const char* name = nullptr;
    double seconds = 0.0;
    std::uint64_t count = 0; ///< spans aggregated into this phase
};

/**
 * The per-task profile a ProfileScope collects: the task's top-level span
 * phases (non-overlapping, so their sum approximates the task wall time).
 * Cheap to carry in every ResultMeta — names are interned literals, and an
 * unprofiled run leaves the vector empty.
 */
struct TaskProfile {
    std::vector<ProfilePhase> phases; ///< first-seen order (deterministic)
    double totalSeconds = 0.0;        ///< the profiled scope's wall time

    bool empty() const { return phases.empty() && totalSeconds == 0.0; }

    /** Sum of the phase times — compare against totalSeconds for coverage. */
    double accountedSeconds() const
    {
        double s = 0.0;
        for (const ProfilePhase& p : phases)
            s += p.seconds;
        return s;
    }
};

/** Renders one task profile as the human-readable --profile block. */
void writeProfileReport(std::ostream& out, const TaskProfile& profile);

// ---------------------------------------------------------------------------
// Scoped spans
// ---------------------------------------------------------------------------

/**
 * RAII scoped span. When no trace collection and no profile scope is active
 * on the calling thread the constructor is a single thread-local flag test;
 * otherwise it stamps the monotonic clock and, at destruction, delivers the
 * completed event to the innermost enclosing ProfileScope (phase
 * accounting) and/or the TraceRecorder buffer (Chrome export).
 *
 * `name` must be a string literal: "subsystem.phase", e.g. "sv.applyPlan".
 */
class Span {
  public:
    explicit Span(const char* name);
    ~Span() { finish(); }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /** Ends the span early (idempotent). */
    void finish();

  private:
    const char* name_;
    std::uint64_t startNs_ = 0;
    bool live_ = false;
};

#define QKC_SPAN_CONCAT2(a, b) a##b
#define QKC_SPAN_CONCAT(a, b) QKC_SPAN_CONCAT2(a, b)
/** Opens a scoped span for the rest of the enclosing block. */
#define QKC_SPAN(name) \
    ::qkc::obs::Span QKC_SPAN_CONCAT(qkcObsSpan_, __LINE__)(name)

/**
 * A span that is also a stopwatch: the bench harnesses' timer, so every
 * measured interval shows up in --trace output too. seconds() reads the
 * elapsed time without ending the span; finish() ends it (and is implied by
 * destruction).
 */
class TimedSpan {
  public:
    explicit TimedSpan(const char* name);
    double seconds() const;

    void finish() { span_.finish(); }

  private:
    std::uint64_t startNs_;
    Span span_;
};

// ---------------------------------------------------------------------------
// Profile scopes
// ---------------------------------------------------------------------------

/**
 * Collects a TaskProfile for the dynamic extent of the scope on the
 * constructing thread: every span that closes at the scope's own nesting
 * level becomes (part of) a phase, aggregated by name in first-seen order.
 * The scope emits a span of its own (`name`), so traces show the task
 * envelope around its phases. Scopes nest (each thread keeps a stack); a
 * span is always credited to the innermost scope it is top-level in.
 *
 * take() must be called on the constructing thread, at most once, and ends
 * the scope's collection; the destructor cleans up if it never was.
 */
class ProfileScope {
  public:
    explicit ProfileScope(const char* name);
    ~ProfileScope();

    ProfileScope(const ProfileScope&) = delete;
    ProfileScope& operator=(const ProfileScope&) = delete;

    /** Ends collection and returns the profile. */
    TaskProfile take();

    struct Collector; ///< opaque; public only for the implementation's tls

  private:
    Collector* collector_ = nullptr;
    const char* envelopeName_ = nullptr;
    std::uint64_t startNs_ = 0;
};

// ---------------------------------------------------------------------------
// Trace recorder
// ---------------------------------------------------------------------------

/**
 * The process-wide trace-event store. While collecting, every finished span
 * on every thread is appended to a per-thread buffer; stop()/drain() merge
 * the buffers into start-time order. Export format: Chrome trace-event
 * JSON (load in chrome://tracing or https://ui.perfetto.dev).
 *
 * Collection is an explicit profiling mode (the --trace=FILE flag, a test
 * fixture): buffers grow unboundedly while on, so callers bracket the
 * region of interest.
 */
class TraceRecorder {
  public:
    static TraceRecorder& instance();

    void start(); ///< clears previous events and begins collecting
    void stop();
    bool collecting() const;

    /** Merged events in (startNs, tid) order; does not stop collection. */
    std::vector<SpanEvent> drain() const;

    /** Chrome trace-event JSON ("X" complete events, µs timestamps). */
    void writeChromeJson(std::ostream& out) const;

  private:
    TraceRecorder() = default;
};

/** Nanoseconds on the monotonic clock since the process trace epoch. */
std::uint64_t nowNs();

} // namespace qkc::obs

#endif // QKC_OBS_TRACE_H
