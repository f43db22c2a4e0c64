/**
 * Diagonal runs and paired flushes in the fusion pass: a stretch of
 * diagonal gates with at least two two-qubit gates is kept as one group,
 * the pendings on its wires are flushed ahead of it two at a time as one
 * kron gate, a circuit without a run fuses as before, and a pending X or Y
 * is never folded into a CNOT or CZ.
 */
#include "circuit/fusion.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "statevector/statevector_simulator.h"
#include "testing/session_runs.h"
#include "util/rng.h"
#include "vqa/workloads.h"

namespace qkc {
namespace {

void
expectSameState(const Circuit& a, const Circuit& b, double tol = 1e-12)
{
    ExecPolicy raw;
    raw.fuseGates = false;
    const StateVector sa = testing::finalState(a, raw);
    const StateVector sb = testing::finalState(b, raw);
    ASSERT_EQ(sa.dimension(), sb.dimension());
    for (std::uint64_t i = 0; i < sa.dimension(); ++i)
        ASSERT_TRUE(approxEqual(sa.amplitude(i), sb.amplitude(i), tol))
            << "index " << i;
}

/** One fusion pass: the fused circuit, its stats and its diagonal runs. */
struct Fused {
    Circuit circuit{1};
    FusionStats stats;
    std::vector<OpSpan> runs;
};

Fused
fuse(const Circuit& c)
{
    Fused f;
    f.circuit = fuseGates(c, &f.stats, &f.runs);
    return f;
}

/**
 * One label per emitted group of `f`, in order: "run" for a diagonal run,
 * the gate's name otherwise — "fused" (a 1q product), "kron" (two wires'
 * 1q products), "fused2q" (a 2q chain or fold) or a verbatim gate's own.
 */
std::vector<std::string>
groupsOf(const Fused& f)
{
    std::vector<std::string> groups;
    std::size_t run = 0;
    for (std::size_t i = 0; i < f.circuit.size(); ++i) {
        if (run < f.runs.size() && f.runs[run].begin == i) {
            groups.push_back("run");
            i = f.runs[run++].end - 1;
            continue;
        }
        const Gate* g = std::get_if<Gate>(&f.circuit.operations()[i]);
        groups.push_back(g ? g->name() : "channel");
    }
    return groups;
}

std::size_t
countGroups(const Fused& f, const std::string& label)
{
    const auto groups = groupsOf(f);
    return static_cast<std::size_t>(
        std::count(groups.begin(), groups.end(), label));
}

/** The wires of the fused op at `i`. */
std::vector<std::size_t>
wiresOf(const Fused& f, std::size_t i)
{
    return operandsOf(f.circuit.operations()[i]);
}

/** The run's gates are source ops [first, first + run length), verbatim. */
void
expectRunOf(const Fused& f, const OpSpan& run, const Circuit& c,
            std::size_t first)
{
    for (std::size_t i = run.begin; i < run.end; ++i) {
        const Gate& fused = std::get<Gate>(f.circuit.operations()[i]);
        const Gate& source =
            std::get<Gate>(c.operations()[first + i - run.begin]);
        EXPECT_EQ(fused.name(), source.name()) << "op " << i;
        EXPECT_EQ(fused.qubits(), source.qubits()) << "op " << i;
    }
}

Circuit
qaoa(std::size_t n, std::size_t layers, std::uint64_t seed,
     const std::vector<double>& angles)
{
    Rng rng(seed);
    return QaoaMaxCut::randomRegular(n, 3, layers, rng).circuit(angles);
}

TEST(FusionRunTest, VqeIsingLayerIsOneRun)
{
    // 3x3 grid: 9 H, then 12 ZZ and 9 Rz (one run), then 9 Rx.
    Rng rng(4);
    const VqeIsing vqe(3, 3, 1, rng);
    const Circuit c = vqe.circuit({0.7, -0.4});
    const Fused f = fuse(c);
    ASSERT_EQ(f.stats.diagonalRuns, 1u);
    ASSERT_EQ(f.runs.size(), 1u);
    EXPECT_EQ(f.runs[0].end - f.runs[0].begin, 12u + 9u);
    expectRunOf(f, f.runs[0], c, 9);
    expectSameState(c, f.circuit);
}

TEST(FusionRunTest, FlushesAheadOfARunAndAtTheEndGoOutInPairs)
{
    // 6 qubits, p = 1: three H pairs, the run of 9 ZZ, three Rx pairs.
    const Circuit c = qaoa(6, 1, 11, {0.6, -0.3});
    const Fused f = fuse(c);
    EXPECT_EQ(groupsOf(f),
              (std::vector<std::string>{"kron", "kron", "kron", "run",
                                        "kron", "kron", "kron"}));
    EXPECT_EQ(f.stats.kronPairs, 6u);
    EXPECT_EQ(wiresOf(f, 0), (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(wiresOf(f, 2), (std::vector<std::size_t>{4, 5}));
    EXPECT_EQ(f.stats.gatesOut, 3u + 9u + 3u);
    expectSameState(c, f.circuit);
}

TEST(FusionRunTest, RunIsABarrierOnItsOwnWiresOnly)
{
    // H on wire 3 commutes past the run and is flushed alone at the end;
    // an odd count ahead of the run leaves one product on its own.
    Circuit c(4);
    c.h(3).h(0).h(1).rx(2, 0.3).zz(0, 1, 0.4).cz(1, 2).t(2);
    const Fused f = fuse(c);
    ASSERT_EQ(groupsOf(f),
              (std::vector<std::string>{"kron", "fused", "run", "fused"}));
    EXPECT_EQ(wiresOf(f, 0), (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(wiresOf(f, 1), (std::vector<std::size_t>{2}));
    ASSERT_EQ(f.runs.size(), 1u);
    EXPECT_EQ(f.runs[0].begin, 2u);
    EXPECT_EQ(f.runs[0].end, 5u);
    expectRunOf(f, f.runs[0], c, 4);
    EXPECT_EQ(wiresOf(f, 5), (std::vector<std::size_t>{3}));
    expectSameState(c, f.circuit);
}

TEST(FusionRunTest, WithoutARunNothingIsPaired)
{
    // One two-qubit diagonal gate among phases is no run: it fuses per
    // wire, and the trailing products flush one wire at a time.
    Circuit c(4);
    c.h(0).h(1).h(2).h(3).t(0).zz(0, 1, 0.3).s(1).cnot(2, 3);
    c.rx(0, 0.2).rx(1, 0.4).rx(2, 0.6).rx(3, 0.8);
    const Fused f = fuse(c);
    EXPECT_EQ(f.stats.diagonalRuns, 0u);
    EXPECT_TRUE(f.runs.empty());
    EXPECT_EQ(countGroups(f, "kron"), 0u);
    EXPECT_EQ(countGroups(f, "fused"), 4u);
    expectSameState(c, f.circuit);
}

TEST(FusionRunTest, XOrYIsNotFoldedIntoCnotOrCz)
{
    Circuit c(5);
    c.x(0).cnot(0, 1);
    const Fused f = fuse(c);
    EXPECT_EQ(groupsOf(f), (std::vector<std::string>{"fused", "CNOT"}));
    EXPECT_EQ(f.stats.foldedInto2q, 0u);
    expectSameState(c, f.circuit);

    // Y on the target of a CZ, next to an H that still folds.
    Circuit d(3);
    d.h(0).y(1).y(1).x(1).cz(0, 1);
    const Fused fd = fuse(d);
    EXPECT_EQ(groupsOf(fd), (std::vector<std::string>{"fused", "fused2q"}));
    EXPECT_EQ(wiresOf(fd, 0), (std::vector<std::size_t>{1}));
    EXPECT_EQ(fd.stats.foldedInto2q, 1u);
    expectSameState(d, fd.circuit);

    // An X between two CNOTs on one pair ends the chain.
    Circuit e(3);
    e.cnot(0, 1).x(0).cnot(0, 1);
    FusionStats stats;
    const Circuit fused = fuseGates(e, &stats);
    EXPECT_EQ(stats.merged2q, 0u);
    EXPECT_EQ(fused.gateCount(), 3u);
    expectSameState(e, fused);
}

} // namespace
} // namespace qkc
