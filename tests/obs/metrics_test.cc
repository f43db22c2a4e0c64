#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/thread_pool.h"

using namespace qkc;

namespace {

/** Every test starts from zeroed shards and the process default (enabled). */
class MetricsTest : public ::testing::Test {
  protected:
    void SetUp() override
    {
        obs::setEnabled(true);
        obs::MetricsRegistry::instance().reset();
    }
};

TEST_F(MetricsTest, CounterAccumulatesAndSurvivesSnapshot)
{
    static obs::Counter c("test.metrics.alpha");
    c.add();
    c.add(41);
    const auto snap = obs::MetricsRegistry::instance().snapshot();
    EXPECT_EQ(snap.counter("test.metrics.alpha"), 42u);
    // A never-touched name reads as zero, not an error.
    EXPECT_EQ(snap.counter("test.metrics.never"), 0u);
}

TEST_F(MetricsTest, SameNameSharesOneMetric)
{
    static obs::Counter a("test.metrics.shared");
    static obs::Counter b("test.metrics.shared");
    a.add(2);
    b.add(3);
    const auto snap = obs::MetricsRegistry::instance().snapshot();
    EXPECT_EQ(snap.counter("test.metrics.shared"), 5u);
    EXPECT_EQ(std::count_if(snap.counters.begin(), snap.counters.end(),
                            [](const obs::CounterValue& v) {
                                return std::string(v.name) ==
                                       "test.metrics.shared";
                            }),
              1);
}

TEST_F(MetricsTest, DisabledSwitchDropsWrites)
{
    static obs::Counter c("test.metrics.gated");
    static obs::Histogram h("test.metrics.gatedHist");
    obs::setEnabled(false);
    c.add(7);
    h.record(7);
    obs::setEnabled(true);
    const auto snap = obs::MetricsRegistry::instance().snapshot();
    EXPECT_EQ(snap.counter("test.metrics.gated"), 0u);
    const auto* hv = snap.histogram("test.metrics.gatedHist");
    ASSERT_NE(hv, nullptr); // registered (id handed out) but never recorded
    EXPECT_EQ(hv->count, 0u);
}

TEST_F(MetricsTest, HistogramLog2BucketsCountAndMean)
{
    static obs::Histogram h("test.metrics.hist");
    // Bucket b holds v with 2^b <= v+1 < 2^(b+1): 0 -> b0, 1 and 2 -> b1,
    // 7 -> b3.
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(7);
    const auto snap = obs::MetricsRegistry::instance().snapshot();
    const auto* hv = snap.histogram("test.metrics.hist");
    ASSERT_NE(hv, nullptr);
    EXPECT_EQ(hv->count, 4u);
    EXPECT_EQ(hv->sum, 10u);
    EXPECT_DOUBLE_EQ(hv->mean(), 2.5);
    ASSERT_GE(hv->buckets.size(), 4u);
    EXPECT_EQ(hv->buckets[0], 1u);
    EXPECT_EQ(hv->buckets[1], 2u);
    EXPECT_EQ(hv->buckets[2], 0u);
    EXPECT_EQ(hv->buckets[3], 1u);
}

TEST_F(MetricsTest, SnapshotIsNameSorted)
{
    static obs::Counter z("test.metrics.zz");
    static obs::Counter a("test.metrics.aa");
    z.add();
    a.add();
    const auto snap = obs::MetricsRegistry::instance().snapshot();
    EXPECT_TRUE(std::is_sorted(snap.counters.begin(), snap.counters.end(),
                               [](const obs::CounterValue& l,
                                  const obs::CounterValue& r) {
                                   return std::string(l.name) < r.name;
                               }));
}

/**
 * The tentpole's concurrency claim: writers on N pool threads, each adding
 * to its own thread-local shard, merge to the exact arithmetic total for
 * any thread count. Run under TSan in CI (label obs).
 */
TEST_F(MetricsTest, DeterministicMergeAcrossThreadCounts)
{
    static obs::Counter c("test.metrics.sharded");
    static obs::Histogram h("test.metrics.shardedHist");
    constexpr std::uint64_t kItems = 10000;
    for (std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
        obs::MetricsRegistry::instance().reset();
        ThreadPool pool(workers); // callers add one lane: 1 and 4 threads
        pool.run(kItems, 64, workers + 1,
                 [&](std::size_t, std::uint64_t begin, std::uint64_t end) {
                     for (std::uint64_t i = begin; i < end; ++i) {
                         c.add(i);
                         h.record(i % 7);
                     }
                 });
        const auto snap = obs::MetricsRegistry::instance().snapshot();
        EXPECT_EQ(snap.counter("test.metrics.sharded"),
                  kItems * (kItems - 1) / 2);
        const auto* hv = snap.histogram("test.metrics.shardedHist");
        ASSERT_NE(hv, nullptr);
        EXPECT_EQ(hv->count, kItems);
    }
}

} // namespace
