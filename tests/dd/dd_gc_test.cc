/**
 * Memory-lifecycle tests for the QMDD package: protected roots (the only
 * liveness rule — a sweep keeps exactly what they reach, overlapping roots
 * included), mark-and-sweep collection with free-list reuse,
 * compute-table coherence across sweeps, and the session-level guarantees —
 * aggressive GC never changes payloads, and long noisy runs keep the live
 * node count bounded.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <unordered_set>

#include "circuit/gate.h"
#include "dd/dd_package.h"
#include "obs/metrics.h"
#include "vqa/simulator_api.h"

namespace qkc {
namespace {

/** Builds the n-qubit GHZ state with H + a CNOT ladder. */
VEdge
makeGhz(DdPackage& pkg, std::size_t n)
{
    VEdge state = pkg.makeZeroState();
    state = pkg.apply(
        pkg.makeGateDd(Gate(GateKind::H, {0}).unitary(), {0}), state);
    for (std::size_t q = 1; q < n; ++q) {
        state = pkg.apply(pkg.makeGateDd(
                              Gate(GateKind::CNOT, {q - 1, q}).unitary(),
                              {q - 1, q}),
                          state);
    }
    return state;
}

/** Collects every vector node reachable from `state`. */
std::unordered_set<const VNode*>
reachable(const VEdge& state)
{
    std::unordered_set<const VNode*> seen;
    std::vector<const VNode*> stack;
    if (state.node != nullptr)
        stack.push_back(state.node);
    while (!stack.empty()) {
        const VNode* n = stack.back();
        stack.pop_back();
        if (!seen.insert(n).second)
            continue;
        for (const VEdge& c : n->children)
            if (c.node != nullptr)
                stack.push_back(c.node);
    }
    return seen;
}

TEST(DdGcTest, UnreachableNodesAreCollectedAndReused)
{
    DdPackage pkg(6);
    VEdge ghz = makeGhz(pkg, 6);
    const auto deadNodes = reachable(ghz);
    const std::size_t liveBefore = pkg.stats().liveVNodes;
    const std::size_t allocatedBefore = pkg.stats().allocatedVNodes;
    ASSERT_GT(liveBefore, 0u);

    // Nothing is protected: a sweep evicts every node (vector and matrix).
    const std::size_t collected = pkg.garbageCollect();
    EXPECT_GE(collected, liveBefore);
    EXPECT_EQ(pkg.stats().liveVNodes, 0u);
    EXPECT_EQ(pkg.stats().liveMNodes, 0u);
    EXPECT_EQ(pkg.stats().gcRuns, 1u);
    EXPECT_EQ(pkg.stats().nodesCollected, collected);
    // Lifetime allocation counters never decrease.
    EXPECT_EQ(pkg.stats().allocatedVNodes, allocatedBefore);

    // Rebuilding recycles collected arena slots through the free list: at
    // least one new node must land on an address the dead diagram used,
    // and the arena must not have grown.
    VEdge again = makeGhz(pkg, 6);
    bool reused = false;
    for (const VNode* n : reachable(again))
        reused |= deadNodes.count(n) > 0;
    EXPECT_TRUE(reused);
    EXPECT_EQ(pkg.stats().liveVNodes, liveBefore);

    // Rebuilt contents are intact.
    const double r = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(pkg.amplitude(again, 0).real(), r, 1e-12);
    EXPECT_NEAR(pkg.amplitude(again, 63).real(), r, 1e-12);
}

TEST(DdGcTest, ProtectedRootsAndDescendantsSurviveSweeps)
{
    DdPackage pkg(5);
    VEdge ghz = makeGhz(pkg, 5);
    pkg.protect(ghz);
    EXPECT_EQ(pkg.protectedRootCount(), 1u);

    // Everything NOT reachable from the root dies; the root's own chain —
    // all 2n-1 nodes — survives with its amplitudes intact.
    pkg.garbageCollect();
    EXPECT_EQ(pkg.stats().liveVNodes, pkg.nodeCount(ghz));
    EXPECT_EQ(pkg.stats().liveVNodes, 2u * 5u - 1u);
    const double r = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(pkg.amplitude(ghz, 0).real(), r, 1e-12);
    EXPECT_NEAR(pkg.amplitude(ghz, 31).real(), r, 1e-12);
    EXPECT_NEAR(pkg.normSquared(ghz), 1.0, 1e-12);

    // Double protection is multiset-like: two unprotects to release.
    pkg.protect(ghz);
    pkg.unprotect(ghz);
    pkg.garbageCollect();
    EXPECT_EQ(pkg.stats().liveVNodes, 2u * 5u - 1u);
    pkg.unprotect(ghz);
    pkg.garbageCollect();
    EXPECT_EQ(pkg.stats().liveVNodes, 0u);

    // Unprotecting an unregistered edge is a logic error, not a crash.
    EXPECT_THROW(pkg.unprotect(ghz), std::logic_error);

    // Overlapping roots: X on qubit 0 swaps the GHZ root's children, so the
    // flipped state shares both child subdiagrams with the GHZ. Releasing
    // the GHZ must keep exactly what the remaining roots reach.
    VEdge first = makeGhz(pkg, 5);
    MEdge x0 = pkg.makeGateDd(Gate(GateKind::X, {0}).unitary(), {0});
    VEdge second = pkg.apply(x0, first);
    pkg.protect(first);
    pkg.protect(second);
    pkg.protect(x0);
    pkg.garbageCollect();
    EXPECT_EQ(pkg.nodeCount(second), 2u * 5u - 1u);
    EXPECT_EQ(pkg.stats().liveVNodes, 2u * 5u); // one root apart
    EXPECT_EQ(pkg.stats().liveMNodes, pkg.nodeCount(x0));

    pkg.unprotect(first);
    pkg.garbageCollect();
    EXPECT_EQ(pkg.stats().liveVNodes, pkg.nodeCount(second));
    EXPECT_EQ(pkg.stats().liveMNodes, pkg.nodeCount(x0));
    EXPECT_NEAR(pkg.amplitude(second, 0b01111).real(), r, 1e-12);
    EXPECT_NEAR(pkg.amplitude(second, 0b10000).real(), r, 1e-12);
    EXPECT_NEAR(std::abs(pkg.amplitude(second, 0)), 0.0, 1e-12);
    EXPECT_NEAR(pkg.normSquared(second), 1.0, 1e-12);
    // The surviving gate still acts: X undoes itself back to the GHZ.
    const VEdge back = pkg.apply(x0, second);
    EXPECT_NEAR(pkg.amplitude(back, 0).real(), r, 1e-12);
    EXPECT_NEAR(pkg.amplitude(back, 31).real(), r, 1e-12);

    pkg.unprotect(second);
    pkg.unprotect(x0);
    pkg.garbageCollect();
    EXPECT_EQ(pkg.protectedRootCount(), 0u);
    EXPECT_EQ(pkg.stats().liveVNodes, 0u);
    EXPECT_EQ(pkg.stats().liveMNodes, 0u);
}

TEST(DdGcTest, ComputeTablesStayCoherentAcrossCollection)
{
    DdPackage pkg(5);
    VEdge state = makeGhz(pkg, 5);
    pkg.protect(state);
    MEdge h2 = pkg.makeGateDd(Gate(GateKind::H, {2}).unitary(), {2});
    pkg.protect(h2);

    VEdge before = pkg.apply(h2, state);
    std::vector<Complex> amps;
    for (std::uint64_t x = 0; x < 32; ++x)
        amps.push_back(pkg.amplitude(before, x));

    // The sweep drops the memo tables (they key on raw node pointers and
    // collected addresses get recycled). The same apply must recompute —
    // misses strictly up — and yield identical amplitudes.
    pkg.garbageCollect();
    const std::size_t missesAfterGc = pkg.stats().applyMisses;
    VEdge after = pkg.apply(h2, state);
    EXPECT_GT(pkg.stats().applyMisses, missesAfterGc);
    for (std::uint64_t x = 0; x < 32; ++x) {
        EXPECT_EQ(pkg.amplitude(after, x).real(), amps[x].real()) << x;
        EXPECT_EQ(pkg.amplitude(after, x).imag(), amps[x].imag()) << x;
    }
}

TEST(DdGcTest, SweepReclaimsInternedWeights)
{
    DdPackage pkg(4);
    VEdge state = pkg.makeZeroState();
    for (int k = 0; k < 8; ++k) {
        state = pkg.apply(pkg.makeGateDd(
                              Gate(GateKind::Ry, {static_cast<std::size_t>(
                                                     k % 4)},
                                   0.1 + 0.2 * k)
                                  .unitary(),
                              {static_cast<std::size_t>(k % 4)}),
                          state);
    }
    const std::size_t weightsBefore = pkg.internedWeightCount();
    pkg.garbageCollect();
    // Nothing was protected: only the table-independent residue (if any)
    // may remain, so the interned count must shrink.
    EXPECT_LT(pkg.internedWeightCount(), weightsBefore);
}

TEST(DdGcTest, ThresholdTriggerAndKnobValidation)
{
    DdPackage pkg(4);
    EXPECT_EQ(pkg.gcThreshold(), DdPackage::kDefaultGcThreshold);
    pkg.setGcThreshold(4);
    EXPECT_EQ(pkg.gcThreshold(), 4u);

    VEdge ghz = makeGhz(pkg, 4); // well past 4 live nodes
    EXPECT_TRUE(pkg.maybeGarbageCollect());
    EXPECT_EQ(pkg.stats().gcRuns, 1u);
    (void)ghz; // dead after the sweep by design

    // Below the trigger, a safe point is a no-op.
    pkg.setGcThreshold(std::size_t{1} << 20);
    ghz = makeGhz(pkg, 4);
    EXPECT_FALSE(pkg.maybeGarbageCollect());
    EXPECT_EQ(pkg.stats().gcRuns, 1u);

    EXPECT_THROW(pkg.setGcThreshold(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Session-level guarantees
// ---------------------------------------------------------------------------

Circuit
layeredAnsatz(std::size_t n, double theta)
{
    Circuit c(n);
    for (std::size_t q = 0; q < n; ++q)
        c.h(q);
    for (std::size_t q = 0; q + 1 < n; ++q) {
        c.cnot(q, q + 1);
        c.rz(q + 1, theta + 0.1 * static_cast<double>(q));
    }
    for (std::size_t q = 0; q < n; ++q)
        c.rx(q, 0.4 + 0.05 * static_cast<double>(q));
    return c;
}

/** Runs one task on a fresh session of `spec` with a fixed-seed RNG. */
Result
runOnce(const std::string& spec, const Circuit& c, const Task& task,
        std::uint64_t seed)
{
    auto backend = makeBackend(spec);
    auto session = backend->open(c);
    Rng rng(seed);
    return session->run(task, rng);
}

/**
 * The no-collection reference: a fresh default session, whose threshold
 * these small circuits never reach — asserted, so the reference provably
 * never sweeps.
 */
Result
runReference(const Circuit& c, const Task& task, std::uint64_t seed)
{
    Result r = runOnce("dd", c, task, seed);
    EXPECT_EQ(r.meta.ddMemory.gcRuns, 0u);
    return r;
}

/**
 * Rebinds one persistent gcthreshold=1 session across six bindings of
 * `at(theta)`; each binding's payload (samples or expectation, whichever
 * the task fills) must match the no-collection reference bit for bit.
 */
void
expectRebindsMatchReference(const std::function<Circuit(double)>& at,
                            const Task& task, std::uint64_t seed)
{
    auto backend = makeBackend("dd:gcthreshold=1");
    auto session = backend->open(at(0.0));
    Result persistent;
    for (int i = 1; i <= 6; ++i) {
        const Circuit c = at(0.2 * i);
        session->bind(c);
        Rng rng(seed);
        persistent = session->run(task, rng);
        const Result fresh = runReference(c, task, seed);
        EXPECT_EQ(persistent.samples, fresh.samples) << "binding " << i;
        EXPECT_EQ(persistent.expectation, fresh.expectation)
            << "binding " << i;
    }
    EXPECT_GT(persistent.meta.ddMemory.gcRuns, 0u);
}

Circuit
noisyAnsatz(double theta)
{
    return layeredAnsatz(4, theta).withNoiseAfterEachGate(
        NoiseKind::Depolarizing, 0.02);
}

TEST(DdGcTest, AggressiveGcSamplingIsBitIdenticalToGcOff)
{
    // gcthreshold=1 collects at every safe point; payloads must not move a
    // bit relative to a session that never collects, ideal and noisy alike.
    const auto ideal = [](double theta) { return layeredAnsatz(5, theta); };
    for (std::uint64_t seed : {7u, 42u, 1234u}) {
        const Result aggressive =
            runOnce("dd:gcthreshold=1", ideal(0.3), Sample{256}, seed);
        const Result off = runReference(ideal(0.3), Sample{256}, seed);
        EXPECT_EQ(aggressive.samples, off.samples) << "ideal seed=" << seed;

        const Result aggressiveNoisy =
            runOnce("dd:gcthreshold=1", noisyAnsatz(0.7), Sample{128}, seed);
        const Result offNoisy =
            runReference(noisyAnsatz(0.7), Sample{128}, seed);
        EXPECT_EQ(aggressiveNoisy.samples, offNoisy.samples)
            << "noisy seed=" << seed;
        EXPECT_GT(aggressiveNoisy.meta.ddMemory.gcRuns, 0u);

        expectRebindsMatchReference(ideal, Sample{256}, seed);
        expectRebindsMatchReference(noisyAnsatz, Sample{128}, seed);
    }
}

TEST(DdGcTest, ExpectationMatchesAcrossLifecycles)
{
    const Circuit c = layeredAnsatz(5, 0.9);
    PauliSum h;
    h.add(0.5, PauliString("ZZIII"))
        .add(-0.25, PauliString("IXXII"))
        .add(1.5, PauliString("IIIYZ"));
    const Result a = runOnce("dd:gcthreshold=1", c, Expectation{h}, 3);
    const Result b = runReference(c, Expectation{h}, 3);
    EXPECT_TRUE(a.meta.exact);
    EXPECT_NEAR(a.expectation, b.expectation, 1e-12);

    expectRebindsMatchReference(
        [](double theta) { return layeredAnsatz(5, theta); }, Expectation{h},
        3);
}

TEST(DdGcTest, RebindKeepsOnePackageAndCollectsTheOldState)
{
    // The session's one lifecycle: a variational sweep reuses one
    // package — planReuses grows, live nodes stay bounded by one binding's
    // working set, and collections actually happen.
    auto backend = makeBackend("dd");
    auto session = backend->open(layeredAnsatz(5, 0.0));
    Rng rng(9);

    Result last;
    for (int i = 0; i < 12; ++i) {
        session->bind(layeredAnsatz(5, 0.1 * i));
        last = session->run(Probabilities{}, rng);
    }
    EXPECT_GT(last.meta.planReuses, 0u);
    EXPECT_GT(last.meta.ddMemory.gcRuns, 0u);
    EXPECT_GT(last.meta.ddMemory.nodesCollected, 0u);
    // Live nodes at rest reflect one binding, not twelve: the peak must be
    // far below 12x the final live count's order.
    EXPECT_LT(last.meta.ddMemory.liveVNodes + last.meta.ddMemory.liveMNodes,
              200u);

    // And the sweep is correct: last binding's distribution matches a
    // fresh session of the same circuit.
    const Result fresh =
        runOnce("dd", layeredAnsatz(5, 1.1), Probabilities{}, 9);
    ASSERT_EQ(last.probabilities.size(), fresh.probabilities.size());
    for (std::size_t k = 0; k < fresh.probabilities.size(); ++k)
        EXPECT_NEAR(last.probabilities[k], fresh.probabilities[k], 1e-12);
}

TEST(DdGcTest, DistinctObservablesDoNotGrowTheSession)
{
    // Expectation builds each term's Pauli-string DD without rooting it, so
    // the next bind's collection frees it: after a bind, a session that
    // served 200 distinct observables holds no more live matrix nodes than
    // one that served a single observable.
    constexpr std::size_t n = 10;
    const char kPaulis[] = {'I', 'X', 'Y', 'Z'};
    PauliSum z;
    z.add(1.0, PauliString("Z" + std::string(n - 1, 'I')));
    auto liveMNodesAfter = [&](std::size_t observables) {
        auto session = makeBackend("dd")->open(layeredAnsatz(n, 0.3));
        Rng rng(5);
        for (std::size_t i = 1; i <= observables; ++i) {
            // Term i spells i in base 4 over the qubits: all distinct.
            std::string term(n, 'I');
            for (std::size_t q = 0, k = i; k > 0; ++q, k /= 4)
                term[q] = kPaulis[k % 4];
            PauliSum h;
            h.add(1.0, PauliString(term));
            EXPECT_TRUE(session->run(Expectation{h}, rng).meta.exact);
        }
        session->bind(layeredAnsatz(n, 0.4));
        return session->run(Expectation{z}, rng).meta.ddMemory.liveMNodes;
    };
    const std::size_t one = liveMNodesAfter(1);
    EXPECT_GT(one, 0u);
    EXPECT_LE(liveMNodesAfter(200), one + 8);
}

TEST(DdGcTest, RepeatedExpectationReusesTermDdsUntilTheNextBind)
{
    // Term DDs live until the next bind: a second identical Expectation
    // builds none and returns the same value; after a bind each term is
    // built once more.
    constexpr std::size_t n = 8;
    PauliSum h;
    h.add(0.5, PauliString("ZZ" + std::string(n - 2, 'I')));
    h.add(-1.0, PauliString("X" + std::string(n - 2, 'I') + "Y"));
    h.add(0.25, PauliString(std::string(n, 'I')));
    h.add(2.0, PauliString(std::string(n - 1, 'I') + "Z"));
    obs::setEnabled(true);
    obs::MetricsRegistry::instance().reset();
    const auto builds = [] {
        return obs::MetricsRegistry::instance().snapshot().counter(
            "dd.termDdBuilds");
    };
    auto session = makeBackend("dd")->open(layeredAnsatz(n, 0.3));
    Rng rng(5);
    const double first = session->run(Expectation{h}, rng).expectation;
    EXPECT_EQ(builds(), 3u);
    EXPECT_EQ(session->run(Expectation{h}, rng).expectation, first);
    EXPECT_EQ(builds(), 3u);
    session->bind(layeredAnsatz(n, 0.4));
    session->run(Expectation{h}, rng);
    EXPECT_EQ(builds(), 6u);
}

TEST(DdGcTest, LongNoisyRunKeepsLiveNodesBounded)
{
    // The regression the ISSUE names: >= 5k trajectories on a noisy circuit
    // must not grow the arena without bound. With a small threshold the
    // collector runs many times and the high-water mark stays near one
    // trajectory's working set — far below the no-GC node total.
    const Circuit noisy =
        layeredAnsatz(4, 0.5).withNoiseAfterEachGate(NoiseKind::Depolarizing,
                                                     0.01);
    auto backend = makeBackend("dd:gcthreshold=256");
    auto session = backend->open(noisy);
    Rng rng(21);
    const Result r = session->run(Sample{5000}, rng);

    EXPECT_EQ(r.samples.size(), 5000u);
    EXPECT_EQ(r.meta.trajectories, 5000u);
    EXPECT_GT(r.meta.ddMemory.gcRuns, 10u);
    EXPECT_GT(r.meta.ddMemory.nodesCollected, r.meta.ddMemory.peakLiveNodes);
    // Anti-thrash growth can raise the threshold past its floor, but the
    // peak must stay within a small multiple of it — bounded, not linear
    // in trajectories.
    EXPECT_LT(r.meta.ddMemory.peakLiveNodes, 2048u);
}

} // namespace
} // namespace qkc
