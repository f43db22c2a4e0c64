#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "vqa/backends.h"

using namespace qkc;

namespace {

/** A parameterized workload big enough for nonzero phase times. */
Circuit
layered(std::size_t qubits, std::size_t layers)
{
    Circuit c(qubits);
    for (std::size_t l = 0; l < layers; ++l) {
        for (std::size_t q = 0; q < qubits; ++q) {
            c.h(q);
            c.rz(q, 0.1 * static_cast<double>(l * qubits + q + 1));
        }
        for (std::size_t q = 1; q < qubits; ++q)
            c.cnot(q - 1, q);
    }
    return c;
}

/** Tests drive the process-wide recorder; leave it off for the next test. */
class TraceTest : public ::testing::Test {
  protected:
    void SetUp() override { obs::setEnabled(true); }
    void TearDown() override { obs::TraceRecorder::instance().stop(); }

    static const obs::SpanEvent* find(const std::vector<obs::SpanEvent>& events,
                                      const std::string& name)
    {
        for (const obs::SpanEvent& e : events)
            if (name == e.name)
                return &e;
        return nullptr;
    }
};

TEST_F(TraceTest, SpansNestWithDepthAndContainment)
{
    obs::TraceRecorder::instance().start();
    {
        QKC_SPAN("test.outer");
        QKC_SPAN("test.inner");
    }
    obs::TraceRecorder::instance().stop();
    const auto events = obs::TraceRecorder::instance().drain();
    const obs::SpanEvent* outer = find(events, "test.outer");
    const obs::SpanEvent* inner = find(events, "test.inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->depth, outer->depth + 1);
    EXPECT_EQ(inner->tid, outer->tid);
    EXPECT_GE(inner->startNs, outer->startNs);
    EXPECT_LE(inner->startNs + inner->durNs, outer->startNs + outer->durNs);
}

TEST_F(TraceTest, SpanOutsideCollectionIsFree)
{
    obs::TraceRecorder::instance().start();
    obs::TraceRecorder::instance().stop();
    { QKC_SPAN("test.untracked"); }
    EXPECT_EQ(find(obs::TraceRecorder::instance().drain(), "test.untracked"),
              nullptr);
}

TEST_F(TraceTest, ProfileScopeAggregatesTopLevelPhases)
{
    obs::ProfileScope scope("test.task");
    {
        QKC_SPAN("test.phaseA");
        QKC_SPAN("test.nested"); // a child of phaseA, not a phase
    }
    { QKC_SPAN("test.phaseB"); }
    { QKC_SPAN("test.phaseA"); } // same name aggregates
    const obs::TaskProfile profile = scope.take();

    ASSERT_EQ(profile.phases.size(), 2u); // first-seen order, nested excluded
    EXPECT_EQ(std::string(profile.phases[0].name), "test.phaseA");
    EXPECT_EQ(profile.phases[0].count, 2u);
    EXPECT_EQ(std::string(profile.phases[1].name), "test.phaseB");
    EXPECT_EQ(profile.phases[1].count, 1u);
    EXPECT_GT(profile.totalSeconds, 0.0);
    EXPECT_LE(profile.accountedSeconds(), profile.totalSeconds * 1.5);
}

TEST_F(TraceTest, NestedProfileScopesCreditInnermost)
{
    obs::ProfileScope outer("test.outerTask");
    obs::TaskProfile innerProfile;
    {
        obs::ProfileScope inner("test.innerTask");
        { QKC_SPAN("test.work"); }
        innerProfile = inner.take();
    }
    const obs::TaskProfile outerProfile = outer.take();

    ASSERT_EQ(innerProfile.phases.size(), 1u);
    EXPECT_EQ(std::string(innerProfile.phases[0].name), "test.work");
    // The outer scope sees the inner task's envelope, not its phases.
    ASSERT_EQ(outerProfile.phases.size(), 1u);
    EXPECT_EQ(std::string(outerProfile.phases[0].name), "test.innerTask");
}

/**
 * Structural JSON check: quotes/escapes respected, braces and brackets
 * balance, and the payload carries Chrome "X" complete events. (CI
 * additionally round-trips a real trace file through python3 -m json.tool.)
 */
void
expectWellFormedJson(const std::string& json)
{
    std::vector<char> stack;
    bool inString = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char ch = json[i];
        if (inString) {
            if (ch == '\\')
                ++i;
            else if (ch == '"')
                inString = false;
            continue;
        }
        switch (ch) {
        case '"':
            inString = true;
            break;
        case '{':
        case '[':
            stack.push_back(ch);
            break;
        case '}':
            ASSERT_FALSE(stack.empty());
            ASSERT_EQ(stack.back(), '{');
            stack.pop_back();
            break;
        case ']':
            ASSERT_FALSE(stack.empty());
            ASSERT_EQ(stack.back(), '[');
            stack.pop_back();
            break;
        default:
            break;
        }
    }
    EXPECT_FALSE(inString);
    EXPECT_TRUE(stack.empty());
}

TEST_F(TraceTest, ChromeJsonIsWellFormedAndSpansSubsystems)
{
    obs::TraceRecorder::instance().start();
    auto backend = makeBackend("statevector:threads=1,fuse=1");
    Rng rng(7);
    auto session = backend->open(layered(6, 5));
    session->run(Sample{32}, rng);
    obs::TraceRecorder::instance().stop();

    std::ostringstream out;
    obs::TraceRecorder::instance().writeChromeJson(out);
    const std::string json = out.str();

    expectWellFormedJson(json);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos); // thread names
    // Spans from at least three subsystems: session, backend, planner.
    EXPECT_NE(json.find("session.run"), std::string::npos);
    EXPECT_NE(json.find("sv.sample"), std::string::npos);
    EXPECT_NE(json.find("exec.plan"), std::string::npos);
}

TEST_F(TraceTest, RunPopulatesProfileConsistentWithMetaSeconds)
{
    auto backend = makeBackend("statevector:threads=1");
    Rng rng(11);
    auto session = backend->open(layered(8, 8));
    const Result r = session->run(Sample{256}, rng);

    ASSERT_FALSE(r.meta.profile.empty());
    EXPECT_GT(r.meta.profile.totalSeconds, 0.0);
    // meta.seconds IS the profiled envelope, and the task's phases account
    // for (almost) all of it; the bound is loose only for clock granularity
    // and the counter-snapshot cost bracketing the phases.
    EXPECT_DOUBLE_EQ(r.meta.seconds, r.meta.profile.totalSeconds);
    EXPECT_GE(r.meta.profile.accountedSeconds(),
              0.8 * r.meta.profile.totalSeconds);
    EXPECT_LE(r.meta.profile.accountedSeconds(),
              1.01 * r.meta.profile.totalSeconds);
}

TEST_F(TraceTest, ObsKnobParityAndEmptyProfileWhenOff)
{
    // The process switch (QKC_OBS) is the only one: flip it around the
    // second run and restore it before any expectation can bail out.
    const Circuit c = layered(6, 6);
    const bool wasEnabled = obs::enabled();
    for (const char* family : {"statevector", "decisiondiagram"}) {
        auto backend = makeBackend(family);
        Rng sOn(5);
        Rng sOff(5);
        obs::setEnabled(true);
        const Result a = backend->open(c)->run(Sample{128}, sOn);
        obs::setEnabled(false);
        const Result b = backend->open(c)->run(Sample{128}, sOff);
        obs::setEnabled(wasEnabled);

        EXPECT_EQ(a.samples, b.samples) << family; // bit-identical payload
        EXPECT_FALSE(a.meta.profile.empty()) << family;
        EXPECT_TRUE(b.meta.profile.empty()) << family;
    }
}

TEST_F(TraceTest, BatchStatsStampedOnEveryResult)
{
    auto backend = makeBackend("statevector:threads=2,fuse=1");
    Circuit base = layered(6, 5);
    const auto paramIdx = base.parameterizedGateIndices();
    std::vector<ParamBinding> bindings;
    for (std::size_t b = 0; b < 4; ++b) {
        Circuit c = base;
        for (std::size_t idx : paramIdx)
            c.setGateParam(idx, 0.1 * static_cast<double>(b + 1));
        bindings.push_back(std::move(c));
    }
    auto session = backend->open(base);
    Rng taskRng(9);
    const auto results = session->runBatch(bindings, Sample{64}, taskRng);

    ASSERT_EQ(results.size(), 4u);
    double busy = 0.0;
    double maxBinding = 0.0;
    for (const Result& r : results) {
        EXPECT_EQ(r.meta.batch.bindings, 4u);
        EXPECT_GE(r.meta.batch.lanes, 1u);
        EXPECT_GT(r.meta.batch.wallSeconds, 0.0);
        EXPECT_GT(r.meta.seconds, 0.0); // per-binding lane time
        busy += r.meta.seconds;
        maxBinding = std::max(maxBinding, r.meta.seconds);
    }
    const BatchStats& stats = results.front().meta.batch;
    EXPECT_GE(stats.maxBindingSeconds, maxBinding * 0.99);
    EXPECT_GE(stats.imbalance, 0.99); // perfectly balanced == 1
    EXPECT_GE(busy, stats.maxLaneSeconds * 0.99);
}

} // namespace
