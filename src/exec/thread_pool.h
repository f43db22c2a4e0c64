#ifndef QKC_EXEC_THREAD_POOL_H
#define QKC_EXEC_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/simd.h"

namespace qkc {

/**
 * Chunk-partitioned fork-join thread pool shared by every dense simulator
 * backend (state vector and density matrix today; any future amplitude-array
 * engine can reuse it).
 *
 * Design constraints, in order:
 *
 *  1. **Determinism.** The iteration space [0, n) is split into fixed
 *     `grain`-sized chunks whose boundaries depend only on n and grain —
 *     never on the thread count — and reductions combine per-chunk partials
 *     in chunk order. A 1-thread and an N-thread run therefore produce
 *     bit-identical results for every kernel and reduction built on top.
 *  2. **No work stealing, no queues.** A parallel region is one job; idle
 *     workers claim the next chunk index from a single atomic counter. For
 *     the large regular loops gate kernels run, this is within noise of a
 *     work-stealing scheduler and far simpler to reason about.
 *  3. **Caller participates.** The invoking thread executes chunks alongside
 *     the workers, so a pool with zero workers (or a nested call from a
 *     worker) degrades gracefully to serial execution instead of
 *     deadlocking.
 */
class ThreadPool {
  public:
    /** Body of a parallel region: fn(chunkIndex, begin, end). */
    using ChunkFn = std::function<void(std::size_t, std::uint64_t,
                                       std::uint64_t)>;

    /** Spawns `numWorkers` persistent workers (callers add one more lane). */
    explicit ThreadPool(std::size_t numWorkers);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Worker threads owned by the pool (excludes the calling thread). */
    std::size_t numWorkers() const { return workers_.size(); }

    /**
     * Runs fn over [0, n) split into ceil(n/grain) chunks, using at most
     * `maxThreads` threads in total (capped by numWorkers() + 1). Blocks
     * until every chunk has completed. Safe to call from inside a worker,
     * or from another thread while a region is in flight: that region
     * simply runs on the calling thread.
     */
    void run(std::uint64_t n, std::uint64_t grain, std::size_t maxThreads,
             const ChunkFn& fn);

    /**
     * True while the calling thread is executing pool work — inside a chunk
     * body, whether as a pool worker or as a caller participating in its own
     * region. The nested-submission guard for layered parallelism: the pool
     * itself already degrades a nested run() to inline execution (the single
     * job slot is taken, so chunks run on the calling thread — no deadlock),
     * but coarse-grained fan-outs such as Session::runBatch check this to
     * skip their setup cost (worker clones) when the parallelism would be
     * nested anyway, e.g. a batched task issued from inside a trajectory
     * sweep.
     */
    static bool inParallelRegion();

  private:
    struct Job {
        const ChunkFn* fn = nullptr;
        std::uint64_t grain = 0;
        std::uint64_t n = 0;
        std::uint64_t numChunks = 0;
        std::atomic<std::uint64_t> next{0}; ///< next unclaimed chunk index
        std::atomic<std::uint64_t> chunksDone{0};
    };

    void workerLoop();
    void runChunks(Job& job);

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wakeCv_;
    std::condition_variable doneCv_;
    Job job_;
    std::atomic<bool> busy_{false}; ///< a parallel region is in flight
    std::size_t pendingWorkers_ = 0; ///< workers still invited to join job_
    std::size_t activeWorkers_ = 0;  ///< workers currently inside job_
    bool stop_ = false;
};

/**
 * Execution policy consulted by every parallel kernel: how many threads to
 * use, below which problem size to stay serial, and how finely to chunk.
 * The defaults keep small states (and therefore most unit tests) on the
 * exact serial path while 20+ qubit workloads fan out.
 */
struct ExecPolicy {
    /**
     * Total threads (including the caller). 0 = "machine default", i.e.
     * defaultThreads(). Precedence, highest first:
     *
     *   1. an explicit non-zero value here (e.g. `sv:threads=8` specs);
     *   2. setDefaultThreads(n), if configuration code called it;
     *   3. the QKC_THREADS environment variable, read once at the first
     *      defaultThreads() call (values < 1 clamp to 1);
     *   4. std::thread::hardware_concurrency().
     */
    std::size_t threads = 0;

    /** Problem sizes (loop items) strictly below this run serially. */
    std::uint64_t serialThreshold = std::uint64_t{1} << 12;

    /** Chunk size in loop items; boundaries never depend on thread count. */
    std::uint64_t grain = std::uint64_t{1} << 14;

    /** Run the greedy gate-fusion pass before simulation (simulators only). */
    bool fuseGates = true;

    /**
     * Vector dispatch level for the kernel sweeps. Auto defers to the
     * process default (QKC_SIMD clamped by CPUID); an explicit level (set
     * directly by the SIMD parity suites and kernel micro-benchmarks)
     * lowers — never raises — that default. Payloads are bit-identical at
     * every level, so this is purely a speed knob.
     */
    SimdMode simd = SimdMode::Auto;

    /** The thread count after resolving 0 against the global default. */
    std::size_t resolvedThreads() const;

    /** The dispatch level after resolving `simd` against the process
     *  default and hardware/build support. */
    SimdLevel resolvedSimd() const;
};

/**
 * Process-wide default thread count: initialized from the QKC_THREADS
 * environment variable if set (values < 1 clamp to 1), otherwise from
 * std::thread::hardware_concurrency(). Thread-safe to read; setDefaultThreads
 * is for single-threaded configuration code (CLI parsing) only.
 */
std::size_t defaultThreads();
void setDefaultThreads(std::size_t threads);

/**
 * The process-wide shared pool, created lazily with enough workers for
 * hardware concurrency (or the QKC_THREADS cap if larger). All backends
 * share it; per-call thread limits come from ExecPolicy.
 */
ThreadPool& sharedPool();

/**
 * Runs fn(chunkIndex, begin, end) over [0, n) under `policy`: serial below
 * the threshold or when only one thread is requested, on the shared pool
 * otherwise. Chunk boundaries are identical in both modes.
 */
void parallelForChunks(const ExecPolicy& policy, std::uint64_t n,
                       const ThreadPool::ChunkFn& fn);

/**
 * Lanes for a coarse fan-out over `items` independent work items, each lane
 * owning private state (a session clone, a DdPackage): `threads` resolved
 * as ExecPolicy::threads (0 = machine default), capped at `items` and at
 * the shared pool's numWorkers() + 1 — lanes past what the pool runs at
 * once would only hold memory.
 */
std::size_t laneCount(std::size_t threads, std::size_t items);

/**
 * Runs fn(lane, begin, end) over [0, items) in contiguous blocks of
 * ceil(items / lanes), one block per lane (lane index == block index, so
 * lane-private state is driven by one thread at a time; nested in pool
 * work, the blocks run inline with the same boundaries). No exception
 * unwinds through the pool: every lane runs to completion, then the lowest
 * lane's exception is rethrown. `lanes` must be >= 1.
 */
void parallelForLanes(std::size_t lanes, std::uint64_t items,
                      const ThreadPool::ChunkFn& fn);

/** Convenience wrapper when the body does not need the chunk index. */
void parallelFor(const ExecPolicy& policy, std::uint64_t n,
                 const std::function<void(std::uint64_t, std::uint64_t)>& fn);

/**
 * Deterministic parallel sum: per-chunk partial sums combined in chunk
 * order. fn(begin, end) returns the partial for one chunk. The combination
 * order (and therefore the floating-point result) is independent of the
 * thread count.
 */
double parallelSum(const ExecPolicy& policy, std::uint64_t n,
                   const std::function<double(std::uint64_t, std::uint64_t)>& fn);

} // namespace qkc

#endif // QKC_EXEC_THREAD_POOL_H
