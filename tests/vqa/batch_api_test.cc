/**
 * Batched parameter-binding tasks (ISSUE 5): Session::runBatch over
 * QKC_THREADS={1,N} must be bit-identical to a sequential bind/run loop on
 * every backend, a parameter-shift gradient computed through one batch must
 * match finite differences, and the rebind metadata must keep telling the
 * truth when the binds happen on worker lanes.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <vector>

#include "circuit/noise.h"
#include "exec/execution_plan.h"
#include "exec/thread_pool.h"
#include "vqa/driver.h"
#include "vqa/workloads.h"

namespace qkc {
namespace {

/** Restores the process-wide default thread count on scope exit. */
class ThreadGuard {
  public:
    ThreadGuard() : saved_(defaultThreads()) {}
    ~ThreadGuard() { setDefaultThreads(saved_); }

  private:
    std::size_t saved_;
};

/** A small parameterized ansatz every backend can run. */
Circuit
ansatz(std::size_t n, const std::vector<double>& params)
{
    Circuit c(n);
    for (std::size_t q = 0; q < n; ++q)
        c.h(q);
    std::size_t k = 0;
    for (std::size_t q = 0; q + 1 < n; ++q) {
        c.cnot(q, q + 1);
        c.rz(q + 1, params[k++ % params.size()]);
    }
    for (std::size_t q = 0; q < n; ++q)
        c.rx(q, params[k++ % params.size()]);
    return c;
}

std::vector<ParamBinding>
bindingsFor(std::size_t n, std::size_t count, bool noisy = false)
{
    std::vector<ParamBinding> out;
    out.reserve(count);
    for (std::size_t b = 0; b < count; ++b) {
        Circuit c = ansatz(n, {0.3 + 0.1 * static_cast<double>(b),
                               0.7 - 0.05 * static_cast<double>(b)});
        if (noisy)
            c = c.withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.02);
        out.push_back(std::move(c));
    }
    return out;
}

/**
 * The reference semantics runBatch promises to reproduce: one seed per
 * binding drawn from `rng` in batch order, then a plain bind/run loop with
 * a fresh per-binding generator.
 */
std::vector<Result>
sequentialLoop(Session& session, const std::vector<ParamBinding>& bindings,
               const Task& task, Rng& rng)
{
    std::vector<std::uint64_t> seeds(bindings.size());
    for (auto& s : seeds)
        s = rng.next();
    std::vector<Result> out;
    out.reserve(bindings.size());
    for (std::size_t i = 0; i < bindings.size(); ++i) {
        session.bind(bindings[i]);
        Rng bindingRng(seeds[i]);
        out.push_back(session.run(task, bindingRng));
    }
    return out;
}

void
expectSamePayload(const Result& a, const Result& b, const char* what)
{
    EXPECT_EQ(a.samples, b.samples) << what;
    EXPECT_EQ(a.expectation, b.expectation) << what; // bit-identical, no tol
    EXPECT_EQ(a.amplitudes, b.amplitudes) << what;
    EXPECT_EQ(a.probabilities, b.probabilities) << what;
}

/**
 * Runs `task` over the bindings three ways — sequential loop, runBatch at 1
 * thread, runBatch at `threads` threads — and requires bit-identical
 * payloads throughout.
 */
void
checkBatchParity(const std::string& spec, const std::vector<ParamBinding>& b,
                 const Task& task, std::size_t threads = 4)
{
    ThreadGuard guard;
    auto backend = makeBackend(spec);

    setDefaultThreads(1);
    Rng seqRng(11);
    auto seqSession = backend->open(b.front());
    const auto expected = sequentialLoop(*seqSession, b, task, seqRng);

    for (std::size_t t : {std::size_t{1}, threads}) {
        setDefaultThreads(t);
        Rng rng(11);
        auto session = backend->open(b.front());
        const auto got = session->runBatch(b, task, rng);
        ASSERT_EQ(got.size(), expected.size()) << spec << " t=" << t;
        for (std::size_t i = 0; i < got.size(); ++i)
            expectSamePayload(got[i], expected[i],
                              (spec + " t=" + std::to_string(t) + " i=" +
                               std::to_string(i))
                                  .c_str());
    }
}

// ---------------------------------------------------------------------------
// runBatch == sequential bind/run loop, bit-identically, on every backend
// ---------------------------------------------------------------------------

TEST(RunBatchTest, SvSampleMatchesSequentialLoop)
{
    checkBatchParity("sv", bindingsFor(5, 6), Sample{64});
}

TEST(RunBatchTest, SvThreadedOptionsMatchSequentialLoop)
{
    // sv reads its lane count from the session options, not QKC_THREADS.
    auto backend = makeBackend("sv:threads=4");
    const auto b = bindingsFor(5, 6);
    Rng seqRng(3);
    auto seqSession = makeBackend("sv:threads=1")->open(b.front());
    const auto expected = sequentialLoop(*seqSession, b, Sample{64}, seqRng);
    Rng rng(3);
    auto session = backend->open(b.front());
    const auto got = session->runBatch(b, Sample{64}, rng);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSamePayload(got[i], expected[i], "sv:threads=4");
}

TEST(RunBatchTest, SvNoisyTrajectoriesMatchSequentialLoop)
{
    checkBatchParity("sv", bindingsFor(4, 4, /*noisy=*/true), Sample{16});
}

TEST(RunBatchTest, SvExpectationMatchesSequentialLoop)
{
    PauliSum h;
    h.add(0.7, PauliString("ZZIII")).add(-0.4, PauliString("IXXII"));
    checkBatchParity("sv", bindingsFor(5, 5), Expectation{h, 128});
}

TEST(RunBatchTest, DmExpectationMatchesSequentialLoop)
{
    PauliSum h;
    h.add(1.0, PauliString("ZZII")).add(0.25, PauliString("IYYI"));
    checkBatchParity("dm", bindingsFor(4, 4, /*noisy=*/true),
                     Expectation{h, 64});
}

TEST(RunBatchTest, DmSampleMatchesSequentialLoop)
{
    checkBatchParity("dm", bindingsFor(4, 4), Sample{32});
}

TEST(RunBatchTest, DdSampleMatchesSequentialLoop)
{
    checkBatchParity("dd", bindingsFor(5, 6), Sample{32});
}

TEST(RunBatchTest, DdAmplitudesMatchSequentialLoop)
{
    checkBatchParity("dd", bindingsFor(4, 4), Amplitudes{{0, 3, 7}});
}

TEST(RunBatchTest, TnSampleMatchesSequentialLoop)
{
    checkBatchParity("tn", bindingsFor(4, 3), Sample{16});
}

TEST(RunBatchTest, KcSampleMatchesSequentialLoop)
{
    checkBatchParity("kc:burnin=8,thin=1", bindingsFor(4, 3), Sample{16});
}

TEST(RunBatchTest, KcExpectationMatchesSequentialLoop)
{
    PauliSum h;
    h.add(0.5, PauliString("ZIII")).add(0.5, PauliString("IZZI"));
    checkBatchParity("kc:burnin=8", bindingsFor(4, 3), Expectation{h, 0});
}

TEST(RunBatchTest, ProbabilitiesMatchSequentialLoop)
{
    checkBatchParity("sv", bindingsFor(4, 4), Probabilities{{0, 2}});
}

// ---------------------------------------------------------------------------
// Metadata: batched binds keep the Section 3.2 counters honest
// ---------------------------------------------------------------------------

TEST(RunBatchTest, SvBatchCountsOnePlanPerBinding)
{
    ThreadGuard guard;
    setDefaultThreads(4);
    const auto b = bindingsFor(5, 6);
    auto session = makeBackend("sv:threads=4")->open(b.front());
    Rng rng(1);
    const auto results = session->runBatch(b, Sample{16}, rng);
    // One plan at open, then one per binding in the batch, whichever lane
    // it ran on.
    EXPECT_EQ(session->planBuilds(), 1u + b.size());
    EXPECT_EQ(session->planReuses(), 0u);
    for (const Result& r : results) {
        EXPECT_EQ(r.meta.planBuilds, 1u + b.size());
        EXPECT_EQ(r.meta.planReuses, 0u);
    }
    // The session is left bound to the last binding, like a plain loop.
    EXPECT_TRUE(sameStructure(session->circuit(), b.back()));
}

TEST(RunBatchTest, SerializedDmBatchCountsOnePlanPerBinding)
{
    ThreadGuard guard;
    setDefaultThreads(4);
    const auto b = bindingsFor(4, 4);
    auto session = makeBackend("dm")->open(b.front());
    Rng rng(1);
    session->runBatch(b, Sample{8}, rng);
    // dm serializes the batch (documented in cloneForBatch) and plans
    // each binding afresh, counted once per binding.
    EXPECT_EQ(session->planBuilds(), 1u + b.size());
    EXPECT_EQ(session->planReuses(), 0u);
}

TEST(RunBatchTest, TaskExceptionSurfacesCleanlyFromParallelBatch)
{
    // Regression (code review): an unsupported task thrown inside a worker
    // lane used to escape the pool chunk body — std::terminate from a
    // worker, or a permanently-claimed pool from the caller. It must
    // surface as the same std::invalid_argument the sequential loop throws,
    // and leave both the session and the shared pool usable.
    ThreadGuard guard;
    setDefaultThreads(4);
    const auto noisy = bindingsFor(4, 4, /*noisy=*/true);
    auto session = makeBackend("sv")->open(noisy.front());
    Rng rng(3);
    // Noisy sv serves no exact Probabilities -> every binding throws.
    EXPECT_THROW(session->runBatch(noisy, Probabilities{{}}, rng),
                 std::invalid_argument);
    // The pool and the session both still work, in parallel, afterwards.
    const auto ok = session->runBatch(noisy, Sample{8}, rng);
    ASSERT_EQ(ok.size(), noisy.size());
    std::atomic<int> covered{0};
    ExecPolicy policy;
    policy.threads = 4;
    policy.serialThreshold = 1;
    policy.grain = 8;
    parallelForChunks(policy, 64,
                      [&](std::size_t, std::uint64_t b, std::uint64_t e) {
        covered.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(covered.load(), 64);
}

TEST(GradientTest, SingularShiftIsRejected)
{
    // shift = pi makes sin(shift) ~ 1e-16: the two shifted points coincide
    // to machine precision and the old exact-zero guard waved it through,
    // returning ~1e16-scale garbage gradients.
    auto makeCircuit = [](const std::vector<double>& p) {
        Circuit c(2);
        c.h(0).rx(1, p[0]);
        return c;
    };
    PauliSum h;
    h.add(1.0, PauliString("ZZ"));
    auto session = makeBackend("sv")->open(makeCircuit({0.3}));
    Rng rng(1);
    EXPECT_THROW(parameterShiftGradient(*session, makeCircuit, h, {0.3}, rng,
                                        3.14159265358979323846),
                 std::invalid_argument);
    EXPECT_THROW(parameterShiftGradient(*session, makeCircuit, h, {0.3}, rng,
                                        0.0),
                 std::invalid_argument);
}

TEST(RunBatchTest, EmptyBatchAndQubitMismatch)
{
    auto session = makeBackend("sv")->open(ansatz(4, {0.1, 0.2}));
    Rng rng(1);
    EXPECT_TRUE(session->runBatch({}, Sample{8}, rng).empty());
    EXPECT_THROW(
        session->runBatch({Circuit(3)}, Sample{8}, rng),
        std::invalid_argument);
}

TEST(RunBatchTest, OneShotSessionMatchesHeldSessionBatch)
{
    // A one-shot batch opens its session on the first binding; a held
    // session opened on another binding rebinds onto the batch instead.
    // Both paths must give the same payloads.
    ThreadGuard guard;
    setDefaultThreads(2);
    const auto b = bindingsFor(4, 3);
    auto backend = makeBackend("sv");
    Rng rngA(9), rngB(9);
    const auto oneShot =
        backend->open(b.front())->runBatch(b, Sample{32}, rngA);
    auto held = backend->open(b.back());
    const auto viaHeld = held->runBatch(b, Sample{32}, rngB);
    ASSERT_EQ(oneShot.size(), viaHeld.size());
    for (std::size_t i = 0; i < oneShot.size(); ++i)
        expectSamePayload(oneShot[i], viaHeld[i], "one-shot");
}

TEST(RunBatchTest, LanesAreCappedAtThePoolSize)
{
    // Every lane keeps its own dense state (or diagram package) until the
    // batch ends, and `threads` comes straight from client specs: lanes past
    // the pool's threads would only cost memory.
    const std::size_t pool = sharedPool().numWorkers();
    const std::size_t wide = pool + 9;
    const auto b = bindingsFor(4, wide);
    for (const std::string kind : {"sv", "dd"}) {
        Rng rngA(21), rngB(21);
        auto narrow = makeBackend(kind + ":threads=1")->open(b.front());
        const auto expected = narrow->runBatch(b, Sample{16}, rngA);
        auto session = makeBackend(kind + ":threads=" + std::to_string(wide))
                           ->open(b.front());
        const auto got = session->runBatch(b, Sample{16}, rngB);
        ASSERT_EQ(got.size(), expected.size()) << kind;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].meta.batch.lanes, pool + 1) << kind;
            expectSamePayload(got[i], expected[i], kind.c_str());
        }
    }
}

// ---------------------------------------------------------------------------
// Parameter-shift gradient through one batch
// ---------------------------------------------------------------------------

TEST(GradientTest, ParameterShiftMatchesFiniteDifferences)
{
    // Every parameter feeds exactly one exp(-i theta G / 2) gate, so the
    // pi/2 shift rule is exact; central differences converge to the same
    // derivative as h -> 0. sv serves the Expectation natively (no shots).
    const std::size_t n = 4;
    PauliSum h;
    h.add(1.0, PauliString("ZZII")).add(-0.5, PauliString("IIXZ"));
    auto makeCircuit = [&](const std::vector<double>& p) {
        Circuit c(n);
        c.h(0).cnot(0, 1).cnot(1, 2).cnot(2, 3);
        c.rx(0, p[0]).ry(1, p[1]).rz(2, p[2]).rx(3, p[3]);
        c.cnot(0, 2);
        return c;
    };
    const std::vector<double> params = {0.37, -0.82, 1.21, 0.55};
    auto session = makeBackend("sv")->open(makeCircuit(params));

    Rng rng(5);
    const GradientResult g = parameterShiftGradient(
        *session, makeCircuit, h, params, rng);
    ASSERT_EQ(g.gradient.size(), params.size());
    EXPECT_EQ(g.batchSize, 2 * params.size() + 1);

    const double fd = 1e-5;
    auto value = [&](const std::vector<double>& p) {
        auto s = makeBackend("sv")->open(makeCircuit(p));
        Rng r(1);
        return s->run(Expectation{h, 0}, r).expectation;
    };
    EXPECT_NEAR(g.value, value(params), 1e-12);
    for (std::size_t i = 0; i < params.size(); ++i) {
        std::vector<double> p = params;
        p[i] += fd;
        const double plus = value(p);
        p[i] -= 2 * fd;
        const double minus = value(p);
        EXPECT_NEAR(g.gradient[i], (plus - minus) / (2 * fd), 1e-6)
            << "param " << i;
    }
}

TEST(GradientTest, GradientBitIdenticalAcrossThreadCounts)
{
    ThreadGuard guard;
    Rng gr(7);
    auto problem = QaoaMaxCut::randomRegular(6, 3, 2, gr);
    const PauliSum h = problem.cutObservable();
    auto makeCircuit = [&](const std::vector<double>& p) {
        return problem.circuit(p);
    };
    const std::vector<double> params = {0.4, 0.9, 0.2, 0.6};

    std::vector<std::vector<double>> grads;
    for (std::size_t t : {std::size_t{1}, std::size_t{4}}) {
        setDefaultThreads(t);
        auto session = makeBackend("sv")->open(makeCircuit(params));
        Rng rng(13);
        // Gammas feed every edge, so use the small-shift (central
        // difference) mode of the same batched rule.
        grads.push_back(parameterShiftGradient(*session, makeCircuit, h,
                                               params, rng, 1e-4)
                            .gradient);
    }
    EXPECT_EQ(grads[0], grads[1]); // bit-identical, no tolerance
}

TEST(GradientTest, BatchedStartsDriveTheOptimizer)
{
    Rng gr(7);
    auto problem = QaoaMaxCut::randomRegular(8, 3, 1, gr);
    VqaOptions options;
    options.samplesPerEvaluation = 64;
    options.optimizer.maxIterations = 10;
    options.seed = 3;
    options.exactExpectation = true;
    options.batchedStarts = 6;
    StateVectorBackend backend;
    const VqaResult result = runQaoaMaxCut(problem, backend, options);
    // The six batched start evaluations count as circuit evaluations and
    // land in the same session's metadata. (The session opens on the
    // first start binding and the batch still binds it, so sv's plan count
    // is the evaluation count + 1.)
    EXPECT_GT(result.circuitEvaluations, 6u);
    EXPECT_EQ(result.planBuilds, result.circuitEvaluations + 1);
    EXPECT_EQ(result.planReuses, 0u);
    EXPECT_LT(result.bestObjective, 0.0); // found some cut
}

// ---------------------------------------------------------------------------
// Nested issue: a batch from inside pool work serializes instead of
// deadlocking
// ---------------------------------------------------------------------------

TEST(RunBatchTest, BatchInsideParallelRegionSerializes)
{
    ThreadGuard guard;
    setDefaultThreads(4);
    const auto b = bindingsFor(4, 3);
    auto backend = makeBackend("sv");

    Rng refRng(21);
    auto refSession = backend->open(b.front());
    const auto expected = refSession->runBatch(b, Sample{16}, refRng);

    std::vector<Result> got;
    ExecPolicy policy;
    policy.threads = 2;
    policy.serialThreshold = 1;
    policy.grain = 1;
    parallelForChunks(policy, 1,
                      [&](std::size_t, std::uint64_t, std::uint64_t) {
        EXPECT_TRUE(ThreadPool::inParallelRegion());
        Rng rng(21);
        auto session = backend->open(b.front());
        got = session->runBatch(b, Sample{16}, rng);
    });
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSamePayload(got[i], expected[i], "nested");
}

} // namespace
} // namespace qkc
