#include "exec/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace qkc {

namespace {

/** Depth of pool chunk bodies on this thread (see inParallelRegion). */
thread_local std::size_t tlsRegionDepth = 0;

struct RegionScope {
    RegionScope() { ++tlsRegionDepth; }
    ~RegionScope() { --tlsRegionDepth; }
};

} // namespace

bool
ThreadPool::inParallelRegion()
{
    return tlsRegionDepth > 0;
}

ThreadPool::ThreadPool(std::size_t numWorkers)
{
    workers_.reserve(numWorkers);
    for (std::size_t i = 0; i < numWorkers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wakeCv_.notify_all();
    for (auto& w : workers_)
        w.join();
}

void
ThreadPool::runChunks(Job& job)
{
    RegionScope region;
    static obs::Counter chunksRun("exec.pool.chunks");
    static obs::Counter busyNs("exec.pool.busyNs");
    const bool track = obs::enabled();
    const std::uint64_t t0 = track ? obs::nowNs() : 0;
    std::uint64_t executed = 0;
    for (;;) {
        const std::uint64_t chunk =
            job.next.fetch_add(1, std::memory_order_relaxed);
        if (chunk >= job.numChunks)
            break;
        const std::uint64_t begin = chunk * job.grain;
        const std::uint64_t end = std::min(job.n, begin + job.grain);
        (*job.fn)(static_cast<std::size_t>(chunk), begin, end);
        job.chunksDone.fetch_add(1, std::memory_order_release);
        ++executed;
    }
    if (track && executed > 0) {
        chunksRun.add(executed);
        busyNs.add(obs::nowNs() - t0);
    }
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wakeCv_.wait(lock, [this] { return stop_ || pendingWorkers_ > 0; });
        if (stop_)
            return;
        --pendingWorkers_;
        ++activeWorkers_;
        lock.unlock();
        runChunks(job_);
        lock.lock();
        --activeWorkers_;
        if (activeWorkers_ == 0)
            doneCv_.notify_all();
    }
}

void
ThreadPool::run(std::uint64_t n, std::uint64_t grain, std::size_t maxThreads,
                const ChunkFn& fn)
{
    if (n == 0)
        return;
    if (grain == 0)
        grain = 1;
    const std::uint64_t numChunks = (n + grain - 1) / grain;
    const std::size_t helpers =
        std::min(maxThreads > 0 ? maxThreads - 1 : 0, workers_.size());

    // Claim the (single) in-flight job slot. A nested call — a chunk body
    // invoking run() again, from a worker or from the caller — and a
    // concurrent call from another top-level thread both find the slot
    // taken and execute inline; the outer region's parallelism is already
    // using the machine, so nothing is lost, and the pool state is never
    // clobbered mid-flight.
    bool expected = false;
    const bool claimed =
        helpers > 0 && numChunks > 1 &&
        busy_.compare_exchange_strong(expected, true,
                                      std::memory_order_acquire);
    if (!claimed) {
        static obs::Counter inlineRegions("exec.pool.inlineRegions");
        inlineRegions.add();
        RegionScope region;
        for (std::uint64_t c = 0; c < numChunks; ++c)
            fn(static_cast<std::size_t>(c), c * grain,
               std::min(n, (c + 1) * grain));
        return;
    }

    static obs::Counter regions("exec.pool.regions");
    regions.add();

    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_.fn = &fn;
        job_.grain = grain;
        job_.n = n;
        job_.numChunks = numChunks;
        job_.next.store(0, std::memory_order_relaxed);
        job_.chunksDone.store(0, std::memory_order_relaxed);
        pendingWorkers_ = helpers;
    }
    wakeCv_.notify_all();

    runChunks(job_);

    std::unique_lock<std::mutex> lock(mutex_);
    // Withdraw the invitation from workers that never woke up, then wait
    // for the ones inside the job to drain. chunksDone is monotonic and
    // every chunk was claimed (the caller's claim loop ran the counter past
    // numChunks), so once activeWorkers_ hits zero all chunks completed.
    pendingWorkers_ = 0;
    doneCv_.wait(lock, [this] {
        return activeWorkers_ == 0 &&
               job_.chunksDone.load(std::memory_order_acquire) ==
                   job_.numChunks;
    });
    job_.fn = nullptr;
    lock.unlock();
    busy_.store(false, std::memory_order_release);
}

namespace {

std::size_t
initialDefaultThreads()
{
    if (const char* env = std::getenv("QKC_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<std::size_t>(v);
        return 1;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::atomic<std::size_t>&
defaultThreadsState()
{
    static std::atomic<std::size_t> value{initialDefaultThreads()};
    return value;
}

} // namespace

std::size_t
defaultThreads()
{
    return defaultThreadsState().load(std::memory_order_relaxed);
}

void
setDefaultThreads(std::size_t threads)
{
    defaultThreadsState().store(threads > 0 ? threads : 1,
                                std::memory_order_relaxed);
}

std::size_t
ExecPolicy::resolvedThreads() const
{
    return threads > 0 ? threads : defaultThreads();
}

SimdLevel
ExecPolicy::resolvedSimd() const
{
    return resolveSimdMode(simd);
}

ThreadPool&
sharedPool()
{
    // Sized for the machine, not the policy: per-call limits come from
    // ExecPolicy, so one pool serves every backend and thread setting.
    static ThreadPool pool([] {
        const unsigned hw = std::thread::hardware_concurrency();
        const std::size_t lanes = std::max<std::size_t>(
            hw > 0 ? hw : 1, defaultThreads());
        return lanes - 1;
    }());
    return pool;
}

void
parallelForChunks(const ExecPolicy& policy, std::uint64_t n,
                  const ThreadPool::ChunkFn& fn)
{
    const std::size_t threads = policy.resolvedThreads();
    if (threads <= 1 || n < policy.serialThreshold) {
        static obs::Counter serialRegions("exec.pool.serialRegions");
        serialRegions.add();
        // Same chunk boundaries as the parallel path so that chunk-indexed
        // reductions are bit-identical across thread counts.
        const std::uint64_t grain = policy.grain > 0 ? policy.grain : 1;
        const std::uint64_t numChunks = n == 0 ? 0 : (n + grain - 1) / grain;
        for (std::uint64_t c = 0; c < numChunks; ++c)
            fn(static_cast<std::size_t>(c), c * grain,
               std::min(n, (c + 1) * grain));
        return;
    }
    sharedPool().run(n, policy.grain, threads, fn);
}

std::size_t
laneCount(std::size_t threads, std::size_t items)
{
    ExecPolicy policy;
    policy.threads = threads;
    return std::min<std::size_t>(
        {policy.resolvedThreads(), items, sharedPool().numWorkers() + 1});
}

void
parallelForLanes(std::size_t lanes, std::uint64_t items,
                 const ThreadPool::ChunkFn& fn)
{
    if (lanes == 0)
        throw std::invalid_argument("parallelForLanes: lanes must be >= 1");
    // A throwing worker chunk would std::terminate, and a throwing caller
    // chunk would leave the pool's job slot claimed forever.
    std::vector<std::exception_ptr> errors(lanes);
    ExecPolicy fanout;
    fanout.threads = lanes;
    fanout.serialThreshold = 1;
    fanout.grain = (items + lanes - 1) / lanes;
    parallelForChunks(fanout, items,
                      [&](std::size_t lane, std::uint64_t b, std::uint64_t e) {
        try {
            fn(lane, b, e);
        } catch (...) {
            errors[lane] = std::current_exception();
        }
    });
    for (const std::exception_ptr& err : errors)
        if (err)
            std::rethrow_exception(err);
}

void
parallelFor(const ExecPolicy& policy, std::uint64_t n,
            const std::function<void(std::uint64_t, std::uint64_t)>& fn)
{
    parallelForChunks(policy, n,
                      [&fn](std::size_t, std::uint64_t begin,
                            std::uint64_t end) { fn(begin, end); });
}

double
parallelSum(const ExecPolicy& policy, std::uint64_t n,
            const std::function<double(std::uint64_t, std::uint64_t)>& fn)
{
    if (n == 0)
        return 0.0;
    const std::uint64_t grain = policy.grain > 0 ? policy.grain : 1;
    const std::uint64_t numChunks = (n + grain - 1) / grain;
    std::vector<double> partials(static_cast<std::size_t>(numChunks), 0.0);
    parallelForChunks(policy, n,
                      [&](std::size_t chunk, std::uint64_t begin,
                          std::uint64_t end) { partials[chunk] = fn(begin, end); });
    double total = 0.0;
    for (double p : partials)
        total += p;
    return total;
}

} // namespace qkc
