#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace qkc {
namespace {

ExecPolicy
forcedParallel(std::size_t threads, std::uint64_t grain = 64)
{
    ExecPolicy p;
    p.threads = threads;
    p.serialThreshold = 1; // exercise the pool even for tiny ranges
    p.grain = grain;
    return p;
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce)
{
    const std::uint64_t n = 10'000;
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        std::vector<std::atomic<int>> hits(n);
        for (auto& h : hits)
            h.store(0);
        parallelFor(forcedParallel(threads), n,
                    [&](std::uint64_t b, std::uint64_t e) {
            for (std::uint64_t i = b; i < e; ++i)
                hits[i].fetch_add(1);
        });
        for (std::uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i << " with "
                                         << threads << " threads";
    }
}

TEST(ThreadPoolTest, ChunkBoundariesIndependentOfThreadCount)
{
    const std::uint64_t n = 1234;
    auto boundaries = [&](std::size_t threads) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> out(
            (n + 63) / 64);
        parallelForChunks(forcedParallel(threads, 64), n,
                          [&](std::size_t chunk, std::uint64_t b,
                              std::uint64_t e) { out[chunk] = {b, e}; });
        return out;
    };
    const auto serial = boundaries(1);
    const auto parallel = boundaries(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t c = 0; c < serial.size(); ++c) {
        EXPECT_EQ(serial[c], parallel[c]) << "chunk " << c;
        EXPECT_EQ(serial[c].first, c * 64);
    }
}

TEST(ThreadPoolTest, ParallelSumBitIdenticalAcrossThreadCounts)
{
    const std::uint64_t n = 100'000;
    std::vector<double> values(n);
    for (std::uint64_t i = 0; i < n; ++i)
        values[i] = 1.0 / static_cast<double>(i + 1);

    auto sum = [&](std::size_t threads) {
        return parallelSum(forcedParallel(threads, 1024), n,
                           [&](std::uint64_t b, std::uint64_t e) {
            double s = 0.0;
            for (std::uint64_t i = b; i < e; ++i)
                s += values[i];
            return s;
        });
    };
    const double s1 = sum(1);
    for (std::size_t threads : {2u, 3u, 8u})
        EXPECT_EQ(s1, sum(threads)); // bitwise, not approximate
}

TEST(ThreadPoolTest, SerialThresholdKeepsSmallRangesInline)
{
    ExecPolicy p;
    p.threads = 8;
    p.serialThreshold = 1000;
    std::atomic<int> count{0};
    parallelFor(p, 100, [&](std::uint64_t b, std::uint64_t e) {
        count.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, NestedRunDoesNotDeadlock)
{
    const ExecPolicy outer = forcedParallel(4, 1);
    std::atomic<int> total{0};
    parallelFor(outer, 8, [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) {
            parallelFor(forcedParallel(4, 16), 256,
                        [&](std::uint64_t ib, std::uint64_t ie) {
                total.fetch_add(static_cast<int>(ie - ib));
            });
        }
    });
    EXPECT_EQ(total.load(), 8 * 256);
}

TEST(ThreadPoolTest, InParallelRegionTracksChunkBodies)
{
    // The nested-submission guard for coarse fan-outs (Session::runBatch):
    // false at top level, true inside any chunk body — pool-claimed or
    // inline — and restored afterwards.
    EXPECT_FALSE(ThreadPool::inParallelRegion());
    std::atomic<int> insideCount{0};
    parallelFor(forcedParallel(4, 8), 64,
                [&](std::uint64_t, std::uint64_t) {
        if (ThreadPool::inParallelRegion())
            insideCount.fetch_add(1);
    });
    EXPECT_EQ(insideCount.load(), 64 / 8);
    EXPECT_FALSE(ThreadPool::inParallelRegion());

    // The serial path (threads=1) is not pool work and must not claim it.
    bool inside = false;
    parallelFor(forcedParallel(1), 16,
                [&](std::uint64_t, std::uint64_t) {
        inside = ThreadPool::inParallelRegion();
    });
    EXPECT_FALSE(inside);
}

TEST(ThreadPoolTest, NestedSubmissionRunsInlineWithoutDeadlock)
{
    // A chunk body that submits its own parallel region must complete (the
    // pool's single job slot degrades the nested region to inline
    // execution) and cover every index of both regions exactly once.
    std::atomic<int> outer{0}, inner{0};
    parallelFor(forcedParallel(4, 16), 64,
                [&](std::uint64_t b, std::uint64_t e) {
        outer.fetch_add(static_cast<int>(e - b));
        EXPECT_TRUE(ThreadPool::inParallelRegion());
        parallelFor(forcedParallel(4, 8), 32,
                    [&](std::uint64_t ib, std::uint64_t ie) {
            inner.fetch_add(static_cast<int>(ie - ib));
        });
    });
    EXPECT_EQ(outer.load(), 64);
    EXPECT_EQ(inner.load(), 4 * 32);
    EXPECT_FALSE(ThreadPool::inParallelRegion());
}

TEST(ThreadPoolTest, ManySmallJobsReusePool)
{
    for (int round = 0; round < 200; ++round) {
        std::atomic<int> count{0};
        parallelFor(forcedParallel(4, 8), 64,
                    [&](std::uint64_t b, std::uint64_t e) {
            count.fetch_add(static_cast<int>(e - b));
        });
        ASSERT_EQ(count.load(), 64);
    }
}

TEST(ThreadPoolTest, LaneFanOutRethrowsTheLowestLaneError)
{
    const std::size_t poolLanes = sharedPool().numWorkers() + 1;
    EXPECT_EQ(laneCount(8192, 3), std::min<std::size_t>(3, poolLanes));
    EXPECT_EQ(laneCount(8192, 1u << 20), poolLanes);
    EXPECT_EQ(laneCount(1, 100), 1u);
    EXPECT_EQ(laneCount(0, 1u << 20),
              std::min(defaultThreads(), poolLanes));

    // 10 items over 4 lanes: blocks of 3, lane index == block index.
    constexpr std::size_t kLanes = 4;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> blocks(kLanes);
    std::vector<std::atomic<int>> finished(kLanes);
    for (auto& f : finished)
        f.store(0);
    try {
        parallelForLanes(kLanes, 10,
                         [&](std::size_t lane, std::uint64_t b,
                             std::uint64_t e) {
            blocks[lane] = {b, e};
            if (lane == 1 || lane == 3)
                throw std::runtime_error("lane " + std::to_string(lane));
            finished[lane].fetch_add(1);
        });
        FAIL() << "expected the lane error";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "lane 1");
    }
    EXPECT_EQ(finished[0].load(), 1);
    EXPECT_EQ(finished[2].load(), 1);
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected = {
        {0, 3}, {3, 6}, {6, 9}, {9, 10}};
    EXPECT_EQ(blocks, expected);

    // The pool is free again: a clean fan-out covers every item once.
    std::vector<std::atomic<int>> hits(64);
    for (auto& h : hits)
        h.store(0);
    parallelForLanes(kLanes, hits.size(),
                     [&](std::size_t, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i)
            hits[i].fetch_add(1);
    });
    for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1);
    EXPECT_THROW(parallelForLanes(0, 1, [](std::size_t, std::uint64_t,
                                           std::uint64_t) {}),
                 std::invalid_argument);
}

TEST(ThreadPoolTest, ConcurrentTopLevelRegionsCoverEveryIndexOnce)
{
    // A server runs one thread per connection, so regions arrive from
    // several top-level threads at once: one claims the pool, the others
    // run inline. Either way every index runs once and sums stay exact.
    const std::uint64_t n = std::uint64_t{1} << 14;
    std::vector<double> values(n);
    for (std::uint64_t i = 0; i < n; ++i)
        values[i] = 1.0 / static_cast<double>(i + 1);
    auto partial = [&](std::uint64_t b, std::uint64_t e) {
        double s = 0.0;
        for (std::uint64_t i = b; i < e; ++i)
            s += values[i];
        return s;
    };
    const double serialSum = parallelSum(forcedParallel(1), n, partial);

    constexpr int kCallers = 4;
    constexpr int kRegions = 100;
    std::vector<int> badRegions(kCallers, 0);
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
        callers.emplace_back([&, t] {
            std::vector<std::atomic<int>> hits(n);
            for (int r = 0; r < kRegions; ++r) {
                for (auto& h : hits)
                    h.store(0, std::memory_order_relaxed);
                parallelFor(forcedParallel(4), n,
                            [&](std::uint64_t b, std::uint64_t e) {
                    for (std::uint64_t i = b; i < e; ++i)
                        hits[i].fetch_add(1, std::memory_order_relaxed);
                });
                const bool once = std::all_of(
                    hits.begin(), hits.end(),
                    [](const std::atomic<int>& h) { return h.load() == 1; });
                const double sum = parallelSum(forcedParallel(4), n, partial);
                if (!once || sum != serialSum)
                    ++badRegions[static_cast<std::size_t>(t)];
            }
        });
    }
    for (auto& c : callers)
        c.join();
    for (int t = 0; t < kCallers; ++t)
        EXPECT_EQ(badRegions[static_cast<std::size_t>(t)], 0)
            << "caller " << t;
}

TEST(ThreadPoolTest, ZeroAndEmptyRangesAreNoOps)
{
    bool called = false;
    parallelFor(forcedParallel(4), 0,
                [&](std::uint64_t, std::uint64_t) { called = true; });
    EXPECT_FALSE(called);
    EXPECT_EQ(parallelSum(forcedParallel(4), 0,
                          [](std::uint64_t, std::uint64_t) { return 1.0; }),
              0.0);
}

TEST(ThreadPoolTest, DefaultThreadsRespectsOverride)
{
    const std::size_t saved = defaultThreads();
    setDefaultThreads(3);
    EXPECT_EQ(defaultThreads(), 3u);
    ExecPolicy p;
    EXPECT_EQ(p.resolvedThreads(), 3u);
    p.threads = 5;
    EXPECT_EQ(p.resolvedThreads(), 5u);
    setDefaultThreads(saved);
}

TEST(ThreadPoolTest, ThreadsZeroMeansMachineDefault)
{
    // threads=0 is the documented "machine default": resolvedThreads()
    // always tracks defaultThreads() (QKC_THREADS / hardware concurrency /
    // setDefaultThreads, in the ExecPolicy-documented precedence), and is
    // never resolved to zero.
    const std::size_t saved = defaultThreads();

    ExecPolicy p; // threads defaults to 0
    EXPECT_EQ(p.threads, 0u);
    EXPECT_EQ(p.resolvedThreads(), defaultThreads());
    EXPECT_GE(p.resolvedThreads(), 1u);

    setDefaultThreads(7);
    EXPECT_EQ(p.resolvedThreads(), 7u);

    // setDefaultThreads clamps nonsense to 1, so 0 can never leak through.
    setDefaultThreads(0);
    EXPECT_EQ(defaultThreads(), 1u);
    EXPECT_EQ(p.resolvedThreads(), 1u);

    setDefaultThreads(saved);
}

} // namespace
} // namespace qkc
