/**
 * The task-based Session API (ISSUE 4): open/bind reuse metadata, typed
 * task payloads, typed option parsing, and unsupported-task errors.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include <sys/resource.h>

#include "algorithms/algorithms.h"
#include "statevector/statevector_simulator.h"
#include "testing/session_runs.h"
#include "vqa/backends.h"
#include "vqa/driver.h"

namespace qkc {
namespace {

Circuit
bell()
{
    Circuit c(2);
    c.h(0).cnot(0, 1);
    return c;
}

// ---------------------------------------------------------------------------
// Typed options and parsing
// ---------------------------------------------------------------------------

TEST(BackendSpecTest, ParsesTypedOptions)
{
    BackendSpec spec = parseBackendSpec("sv:threads=8,fuse=0");
    EXPECT_EQ(spec.name, "statevector");
    EXPECT_EQ(spec.options.threads, 8u);
    EXPECT_FALSE(spec.options.fuse);

    spec = parseBackendSpec("kc:burnin=128,thin=3");
    EXPECT_EQ(spec.name, "knowledgecompilation");
    EXPECT_EQ(spec.options.burnIn, 128u);
    EXPECT_EQ(spec.options.thin, 3u);

    spec = parseBackendSpec("dd");
    EXPECT_EQ(spec.name, "decisiondiagram");
}

TEST(BackendSpecTest, RegistryCoversEveryBackend)
{
    EXPECT_EQ(backendRegistry().size(), 5u);
    EXPECT_EQ(backendNames().size(), 5u);
    // Process-wide settings (QKC_THREADS, QKC_OBS, QKC_SIMD) have no
    // per-backend spec key beyond threads.
    const std::map<std::string, std::vector<std::string>> keys = {
        {"statevector", {"threads", "fuse"}},
        {"densitymatrix", {"threads", "fuse"}},
        {"tensornetwork", {}},
        {"decisiondiagram", {"threads", "gcthreshold"}},
        {"knowledgecompilation", {"burnin", "thin"}},
    };
    for (const BackendInfo& info : backendRegistry()) {
        EXPECT_EQ(info.optionKeys, keys.at(info.name)) << info.name;
        EXPECT_FALSE(info.aliases.empty()) << info.name;
        EXPECT_FALSE(info.summary.empty()) << info.name;
        EXPECT_FALSE(info.tasks.empty()) << info.name;
        EXPECT_FALSE(info.batch.empty()) << info.name;
        // Aliases resolve to the canonical name.
        for (const std::string& alias : info.aliases)
            EXPECT_EQ(parseBackendSpec(alias).name, info.name);
        // Every advertised option key accepts an integer form.
        for (const std::string& key : info.optionKeys)
            EXPECT_NO_THROW(parseBackendSpec(info.name + ":" + key + "=1"));
        // Every alias opens a session of the entry's own family.
        for (const std::string& alias : info.aliases)
            EXPECT_EQ(makeBackend(alias)->open(bell())->backendName(),
                      info.name);
        EXPECT_EQ(makeBackend(info.name)->name(), info.name);
    }

    // The Expectation fallback reopens the session's own family on the
    // rotated circuit.
    auto tn = makeBackend("tn")->open(bell());
    Expectation xx;
    xx.observable.add(1.0, PauliString("XX"));
    xx.shots = 64;
    Rng rng(3);
    const Result r = tn->run(xx, rng);
    EXPECT_EQ(tn->rotatedSessionCount(), 1u);
    EXPECT_EQ(r.meta.backend, "tensornetwork");
    EXPECT_EQ(r.meta.fallbackShots, 64u);
}

TEST(BackendSpecTest, BackendDefaultsComeFromSpec)
{
    auto backend = makeBackend("sv:threads=2,fuse=0");
    EXPECT_EQ(backend->defaults().threads, 2u);
    EXPECT_FALSE(backend->defaults().fuse);
}

TEST(BackendSpecTest, ThreadsZeroIsTheMachineDefault)
{
    // "threads=0" is valid and means machine default (QKC_THREADS env, then
    // hardware concurrency) — documented in ExecPolicy::threads and used by
    // fig8/fig9 to mean "all cores".
    BackendSpec spec = parseBackendSpec("sv:threads=0");
    EXPECT_EQ(spec.options.threads, 0u);
    auto backend = makeBackend("dm:threads=0");
    Rng rng(5);
    EXPECT_EQ(backend->open(bell())->run(Sample{20}, rng).samples.size(),
              20u);
}

// ---------------------------------------------------------------------------
// Session reuse metadata
// ---------------------------------------------------------------------------

TEST(SessionTest, SvPlansEveryBindAfresh)
{
    Rng graphRng(3);
    auto problem = QaoaMaxCut::randomRegular(6, 3, 2, graphRng);
    StateVectorBackend backend;
    auto session = backend.open(problem.circuit({0.3, 0.7, 0.9, 0.2}));
    Rng rng(5);

    for (double shift : {0.1, 0.2, 0.3}) {
        session->bind(
            problem.circuit({0.3 + shift, 0.7, 0.9 - shift, 0.2}));
        Result r = session->run(Sample{64}, rng);
        EXPECT_EQ(r.meta.planReuses, 0u);
    }
    // sv plans every binding afresh: one build per bind, no reuse.
    EXPECT_EQ(session->planBuilds(), 1u + 3u);
    EXPECT_EQ(session->planReuses(), 0u);
}

TEST(SessionTest, QaoaP2NelderMeadPlansOncePerEvaluation)
{
    // A QAOA p=2 Nelder-Mead run on sv plans every evaluation afresh,
    // and the Result metadata counts each plan.
    Rng graphRng(11);
    auto problem = QaoaMaxCut::randomRegular(6, 3, 2, graphRng);
    StateVectorBackend backend;
    VqaOptions options;
    options.samplesPerEvaluation = 64;
    options.optimizer.maxIterations = 20;
    options.seed = 7;
    auto result = runQaoaMaxCut(problem, backend, options);
    EXPECT_GT(result.circuitEvaluations, 15u);
    EXPECT_EQ(result.planBuilds, result.circuitEvaluations);
    EXPECT_EQ(result.planReuses, 0u);
}

TEST(SessionTest, BindToNewStructureReplansTransparently)
{
    StateVectorBackend backend;
    auto session = backend.open(bell());
    Rng rng(9);
    EXPECT_EQ(session->run(Sample{16}, rng).samples.size(), 16u);

    Circuit other(2);
    other.h(0).h(1).cz(0, 1).h(1); // different structure, same qubit count
    session->bind(other);
    EXPECT_EQ(session->planBuilds(), 2u);
    EXPECT_EQ(session->planReuses(), 0u);
    EXPECT_EQ(session->run(Sample{16}, rng).samples.size(), 16u);

    Circuit bigger(3);
    bigger.h(0);
    EXPECT_THROW(session->bind(bigger), std::invalid_argument);
}

TEST(SessionTest, TnBindKeepsContractionPlans)
{
    Rng graphRng(3);
    auto problem = QaoaMaxCut::randomRegular(4, 3, 1, graphRng);
    auto session = makeBackend("tn")->open(problem.circuit({0.4, 0.6}));
    session->bind(problem.circuit({0.5, 0.5}));
    EXPECT_EQ(session->planBuilds(), 1u);
    EXPECT_EQ(session->planReuses(), 1u);

    // And the rebound values are actually in effect: samples only contain
    // outcomes, and the sampled mean cut tracks the exact one.
    Rng rng(13);
    Result r = session->run(Sample{400}, rng);
    auto exact =
        testing::probabilitiesOf("sv", problem.circuit({0.5, 0.5}));
    EXPECT_NEAR(problem.expectedCut(r.samples),
                problem.expectedCutExact(exact), 0.25);

    // Subset marginal plans survive rebinds too: the cached contraction
    // plan is replayed on refreshed tensor values, so the post-rebind
    // marginal must match the state-vector reference for the new params.
    session->run(Probabilities{{0, 2}}, rng); // builds + caches the plan
    session->bind(problem.circuit({0.9, 0.3}));
    auto tnMarginal = session->run(Probabilities{{0, 2}}, rng).probabilities;
    auto svMarginal = makeBackend("sv")
                          ->open(problem.circuit({0.9, 0.3}))
                          ->run(Probabilities{{0, 2}}, rng)
                          .probabilities;
    ASSERT_EQ(tnMarginal.size(), svMarginal.size());
    for (std::size_t i = 0; i < tnMarginal.size(); ++i)
        EXPECT_NEAR(tnMarginal[i], svMarginal[i], 1e-9) << i;
}

TEST(SessionTest, KcBindRefreshesParameters)
{
    Rng graphRng(3);
    auto problem = QaoaMaxCut::randomRegular(5, 2, 1, graphRng);
    auto session = makeBackend("kc")->open(problem.circuit({0.4, 0.6}));
    session->bind(problem.circuit({0.7, 0.1}));
    session->bind(problem.circuit({0.2, 0.9}));
    EXPECT_EQ(session->planBuilds(), 1u);
    EXPECT_EQ(session->planReuses(), 2u);
}

// ---------------------------------------------------------------------------
// Task payloads
// ---------------------------------------------------------------------------

TEST(SessionTest, AmplitudesMatchTheStateVector)
{
    const Circuit c = ghzCircuit(3);
    StateVector exact = testing::finalState(c);
    const std::vector<std::uint64_t> basis = {0, 3, 7};

    for (const char* name : {"sv", "dd", "kc", "tn"}) {
        auto session = makeBackend(name)->open(c);
        Rng rng(1);
        Result r = session->run(Amplitudes{basis}, rng);
        ASSERT_EQ(r.amplitudes.size(), basis.size()) << name;
        EXPECT_TRUE(r.meta.exact) << name;
        for (std::size_t i = 0; i < basis.size(); ++i) {
            EXPECT_NEAR(r.amplitudes[i].real(),
                        exact.amplitude(basis[i]).real(), 1e-9)
                << name << " x=" << basis[i];
            EXPECT_NEAR(r.amplitudes[i].imag(),
                        exact.amplitude(basis[i]).imag(), 1e-9)
                << name << " x=" << basis[i];
        }
    }
}

TEST(SessionTest, AmplitudesRejectBitstringsPastTheRegister)
{
    const Circuit c = ghzCircuit(3);
    for (const char* name : {"sv", "tn", "dd", "kc"}) {
        auto session = makeBackend(name)->open(c);
        Rng rng(1);
        EXPECT_THROW(session->run(Amplitudes{{1u << 3}}, rng),
                     std::invalid_argument)
            << name;
        EXPECT_EQ(session->run(Amplitudes{{(1u << 3) - 1}}, rng)
                      .amplitudes.size(),
                  1u)
            << name;
    }
}

TEST(SessionTest, ProbabilitiesMarginalizeCorrectly)
{
    // 3-qubit GHZ: full distribution is 1/2 on |000> and |111>; every
    // single-qubit marginal is uniform; the (q0, q2) marginal puts 1/2 on
    // 00 and 11.
    const Circuit c = ghzCircuit(3);
    for (const char* name : {"sv", "dm", "dd", "kc", "tn"}) {
        auto session = makeBackend(name)->open(c);
        Rng rng(1);

        auto full = session->run(Probabilities{{}}, rng).probabilities;
        ASSERT_EQ(full.size(), 8u) << name;
        EXPECT_NEAR(full[0], 0.5, 1e-9) << name;
        EXPECT_NEAR(full[7], 0.5, 1e-9) << name;

        auto one = session->run(Probabilities{{1}}, rng).probabilities;
        ASSERT_EQ(one.size(), 2u) << name;
        EXPECT_NEAR(one[0], 0.5, 1e-9) << name;

        auto pair = session->run(Probabilities{{0, 2}}, rng).probabilities;
        ASSERT_EQ(pair.size(), 4u) << name;
        EXPECT_NEAR(pair[0], 0.5, 1e-9) << name;
        EXPECT_NEAR(pair[3], 0.5, 1e-9) << name;
        EXPECT_NEAR(pair[1] + pair[2], 0.0, 1e-9) << name;
    }
}

TEST(SessionTest, MarginalQubitOrderIsRespected)
{
    // |psi> = |01>: marginal over (q0, q1) reads 01, over (q1, q0) reads 10.
    Circuit c(2);
    c.x(1);
    auto session = makeBackend("sv")->open(c);
    Rng rng(1);
    auto fwd = session->run(Probabilities{{0, 1}}, rng).probabilities;
    auto rev = session->run(Probabilities{{1, 0}}, rng).probabilities;
    EXPECT_NEAR(fwd[0b01], 1.0, 1e-12);
    EXPECT_NEAR(rev[0b10], 1.0, 1e-12);
}

TEST(SessionTest, NoisySampleReportsTrajectories)
{
    const Circuit noisy =
        bell().withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.02);
    auto session = makeBackend("sv")->open(noisy);
    Rng rng(3);
    Result r = session->run(Sample{50}, rng);
    EXPECT_EQ(r.samples.size(), 50u);
    EXPECT_EQ(r.meta.trajectories, 50u);
    EXPECT_FALSE(r.meta.exact);
}

/** Peak resident set of this process so far, in kilobytes. */
long
peakRssKb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

TEST(SessionTest, DdTrajectoryLanesAreBoundedByThePool)
{
    // `threads` is client input (a spec string, possibly from a request
    // body). Each trajectory lane owns a DdPackage, so lanes beyond what
    // the pool can run at once must not be built: the payload stays that
    // of threads=1 and the peak RSS stays flat.
    Circuit c(8);
    for (std::size_t q = 0; q < 8; ++q)
        c.h(q);
    for (std::size_t q = 0; q < 8; ++q)
        c.append(NoiseChannel::depolarizing(q, 0.01));
    for (std::size_t q = 0; q + 1 < 8; ++q)
        c.cnot(q, q + 1);

    auto run = [&](const std::string& spec) {
        auto session = makeBackend(spec)->open(c);
        Rng rng(11);
        return session->run(Sample{8192}, rng).samples;
    };
    const auto serial = run("dd:threads=1");
    const long before = peakRssKb();
    const auto wide = run("dd:threads=8192");
    const long grownKb = peakRssKb() - before;
    EXPECT_EQ(wide, serial);
    EXPECT_LT(grownKb, 128L * 1024) << "peak RSS grew by " << grownKb
                                    << " KB";
}

// ---------------------------------------------------------------------------
// Unsupported tasks and bad arguments
// ---------------------------------------------------------------------------

TEST(SessionTest, UnsupportedTasksThrow)
{
    Rng rng(1);

    // Mixed states have no amplitudes.
    auto dm = makeBackend("dm")->open(bell());
    EXPECT_THROW(dm->run(Amplitudes{{0}}, rng), std::invalid_argument);

    // Noisy sv/dd runs are trajectory mixtures.
    const Circuit noisy =
        bell().withNoiseAfterEachGate(NoiseKind::BitFlip, 0.05);
    for (const char* name : {"sv", "dd"}) {
        auto session = makeBackend(name)->open(noisy);
        EXPECT_THROW(session->run(Amplitudes{{0}}, rng),
                     std::invalid_argument)
            << name;
        EXPECT_THROW(session->run(Probabilities{{}}, rng),
                     std::invalid_argument)
            << name;
    }

    // The tensor network cannot open noisy circuits at all.
    EXPECT_THROW(makeBackend("tn")->open(noisy), std::invalid_argument);
}

TEST(SessionTest, BadTaskArgumentsThrow)
{
    auto session = makeBackend("sv")->open(bell());
    Rng rng(1);
    EXPECT_THROW(session->run(Amplitudes{{4}}, rng), std::invalid_argument);
    EXPECT_THROW(session->run(Probabilities{{2}}, rng),
                 std::invalid_argument);
    EXPECT_THROW(session->run(Probabilities{{0, 0}}, rng),
                 std::invalid_argument);
    EXPECT_THROW(session->run(Expectation{PauliSum{}, 10}, rng),
                 std::invalid_argument);
    PauliSum wrongWidth;
    wrongWidth.add(1.0, PauliString("Z"));
    EXPECT_THROW(session->run(Expectation{wrongWidth, 10}, rng),
                 std::invalid_argument);
}

TEST(SessionTest, ZeroShotExpectationOnlyValidWhereExact)
{
    PauliSum h;
    h.add(1.0, PauliString("ZZ"));
    Rng rng(1);

    // Exact path: shots are irrelevant.
    auto sv = makeBackend("sv")->open(bell());
    EXPECT_TRUE(sv->run(Expectation{h, 0}, rng).meta.exact);

    // Sampling fallback with zero shots would silently return garbage —
    // it must throw instead.
    auto tn = makeBackend("tn")->open(bell());
    EXPECT_THROW(tn->run(Expectation{h, 0}, rng), std::invalid_argument);
}

TEST(SessionTest, KcOverFeasibilityLimitFallsBackToGibbs)
{
    // Regression (ISSUE 5): a noisy circuit just over kMaxExactEvaluations
    // (2^16 evaluator passes) must fall back to Gibbs sampling with
    // meta.exact == false — not throw, and not return a silently truncated
    // enumeration. Eight depolarizing channels on 2 qubits cost
    // 2^2 * 4^8 = 2^18 passes; seven cost exactly 2^16 and stay exact.
    auto withChannels = [](std::size_t channels) {
        Circuit c(2);
        c.h(0).cnot(0, 1);
        for (std::size_t k = 0; k < channels; ++k)
            c.append(NoiseChannel::depolarizing(k % 2, 0.01));
        return c;
    };
    PauliSum h;
    h.add(1.0, PauliString("ZZ"));

    auto over = makeBackend("kc:burnin=8")->open(withChannels(8));
    Rng rng(5);
    Result fallback;
    ASSERT_NO_THROW(fallback = over->run(Expectation{h, 256}, rng));
    EXPECT_FALSE(fallback.meta.exact);
    EXPECT_EQ(fallback.meta.fallbackShots, 256u);
    // The infeasible exact distribution must refuse, not truncate.
    EXPECT_THROW(over->run(Probabilities{{}}, rng), std::invalid_argument);

    auto under = makeBackend("kc")->open(withChannels(7));
    Result exact = under->run(Expectation{h, 256}, rng);
    EXPECT_TRUE(exact.meta.exact);
    EXPECT_EQ(exact.meta.fallbackShots, 0u);
    // The Gibbs estimate and the exact value agree statistically (the
    // channels only perturb the Bell correlations slightly).
    EXPECT_NEAR(fallback.expectation, exact.expectation, 0.25);
}

TEST(SessionTest, RotatedFallbackSubSessionIsCachedPerSignature)
{
    // Non-diagonal terms share one cached rotated sub-session per X/Y
    // pattern; parameter rebinds of the base circuit rebind the sub-session
    // instead of re-paying structure planning (ISSUE 5 satellite).
    PauliSum h;
    h.add(0.5, PauliString("XZ")); // rotation signature XI
    h.add(0.5, PauliString("XI")); // same signature -> same sub-session
    h.add(0.5, PauliString("IY")); // new signature IY

    Circuit base(2);
    base.h(0).rz(1, 0.3).cnot(0, 1);

    auto session = makeBackend("tn")->open(base);
    Rng rng(7);
    EXPECT_EQ(session->rotatedSessionCount(), 0u);
    session->run(Expectation{h, 64}, rng);
    EXPECT_EQ(session->rotatedSessionCount(), 2u);

    // Repeat calls and same-structure rebinds reuse the cache.
    session->run(Expectation{h, 64}, rng);
    Circuit rebound(2);
    rebound.h(0).rz(1, 0.9).cnot(0, 1);
    session->bind(rebound);
    session->run(Expectation{h, 64}, rng);
    EXPECT_EQ(session->rotatedSessionCount(), 2u);
}

TEST(SessionTest, RotatedSubSessionsDoNotAccumulateAcrossObservables)
{
    // A client that keeps sending new observables must not grow a cached
    // session: only the signatures of the last Expectation stay cached.
    const std::size_t n = 5;
    Circuit base(n);
    for (std::size_t q = 0; q < n; ++q)
        base.h(q).rz(q, 0.1 * static_cast<double>(q + 1));
    for (std::size_t q = 0; q + 1 < n; ++q)
        base.cnot(q, q + 1);

    auto session = makeBackend("tn")->open(base);
    Rng rng(11);
    for (std::size_t i = 1; i <= 20; ++i) {
        // The base-3 digits of i pick I, X or Y per qubit: 20 distinct
        // signatures, each with at least one X or Y.
        std::string term(n, 'I');
        for (std::size_t q = 0, v = i; q < n; ++q, v /= 3)
            term[q] = "IXY"[v % 3];
        PauliSum h;
        h.add(1.0, PauliString(term));
        session->run(Expectation{h, 16}, rng);
        EXPECT_EQ(session->rotatedSessionCount(), 1u) << term;
    }
}

TEST(SessionTest, RotatedFallbackAccountsShotsAndTrajectories)
{
    // The noisy sv fallback runs trajectories inside the cached sub-session;
    // they must surface in the outer task's metadata, and every non-diagonal
    // term must account its fallback shots (the dm path used to drop this
    // meta on the floor).
    PauliSum h;
    h.add(1.0, PauliString("XZ"));
    h.add(1.0, PauliString("ZI")); // diagonal: one base-sample batch
    const Circuit noisy =
        bell().withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.02);
    auto session = makeBackend("sv")->open(noisy);
    Rng rng(9);
    const Result r = session->run(Expectation{h, 32}, rng);
    EXPECT_FALSE(r.meta.exact);
    EXPECT_EQ(r.meta.fallbackShots, 64u); // 32 rotated + 32 base
    EXPECT_GE(r.meta.trajectories, 64u);  // both draws are trajectories
    EXPECT_EQ(session->rotatedSessionCount(), 1u);
}

TEST(SessionTest, IdentityOnlyObservableIsExactEverywhere)
{
    // A constant observable needs no samples, so even fallback paths must
    // report it exact with zero shots drawn.
    PauliSum h;
    h.add(2.5, PauliString("II"));
    const Circuit noisy =
        bell().withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.02);
    for (const char* spec : {"tn", "sv"}) {
        auto session = makeBackend(spec)->open(
            std::string(spec) == "tn" ? bell() : noisy);
        Rng rng(3);
        Result r = session->run(Expectation{h, 0}, rng);
        EXPECT_TRUE(r.meta.exact) << spec;
        EXPECT_EQ(r.meta.fallbackShots, 0u) << spec;
        EXPECT_NEAR(r.expectation, 2.5, 1e-12) << spec;
    }
}

} // namespace
} // namespace qkc
