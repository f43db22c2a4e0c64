/**
 * The sv session keeps one state buffer for its whole life: binds mark it
 * stale and the next task re-runs the plan into it. Every sv and dm
 * payload after any sequence of binds must equal a fresh session's on the
 * same binding, bit for bit.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "testing/test_circuits.h"
#include "vqa/backends.h"

namespace qkc {
namespace {

constexpr std::size_t kQubits = 10;

/**
 * Every task kind `spec`'s backend serves (dm serves no amplitudes),
 * diagonal and non-diagonal expectation terms included.
 */
std::vector<Task>
allTasks(const std::string& spec)
{
    PauliSum observable;
    observable.add(0.5, PauliString("ZZIIIIIIII"))
        .add(-1.25, PauliString("IIZIIIIIZI"))
        .add(0.75, PauliString("XXIIIIIIII"))
        .add(0.3, PauliString("IIIIIIIIIZ"))
        .add(2.0, PauliString("IIIIIIIIII"));
    std::vector<std::uint64_t> all(std::size_t{1} << kQubits);
    for (std::uint64_t b = 0; b < all.size(); ++b)
        all[b] = b;
    if (spec.rfind("dm", 0) == 0)
        return {Sample{3000}, Probabilities{}, Probabilities{{7, 2, 4}},
                Expectation{observable}};
    return {Sample{3000}, Probabilities{}, Probabilities{{7, 2, 4}},
            Amplitudes{all}, Expectation{observable}};
}

void
expectSamePayload(const Result& got, const Result& want,
                  const std::string& where)
{
    EXPECT_EQ(got.samples, want.samples) << where;
    EXPECT_EQ(got.probabilities, want.probabilities) << where;
    EXPECT_EQ(got.amplitudes, want.amplitudes) << where;
    EXPECT_EQ(got.expectation, want.expectation) << where;
}

/** Runs every task on `session` and on a fresh session of `circuit`. */
void
expectMatchesFreshSession(const std::string& spec, Session& session,
                          const Circuit& circuit, const std::string& step)
{
    const std::vector<Task> tasks = allTasks(spec);
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        Rng reusedRng(100 + t);
        Rng freshRng(100 + t);
        const Result reused = session.run(tasks[t], reusedRng);
        const Result fresh =
            makeBackend(spec)->open(circuit)->run(tasks[t], freshRng);
        expectSamePayload(reused, fresh,
                          spec + " " + step + " task " + std::to_string(t));
    }
}

Circuit
otherStructure(double angle)
{
    Circuit c(kQubits);
    for (std::size_t q = 0; q < kQubits; ++q)
        c.ry(q, angle * static_cast<double>(q + 1));
    for (std::size_t q = 0; q + 1 < kQubits; ++q)
        c.cnot(q, q + 1);
    return c;
}

TEST(SvSessionReuseTest, EveryBindMatchesAFreshSession)
{
    for (const std::string spec : {"sv", "sv:threads=1", "sv:threads=4",
                                   "dm:threads=1", "dm:threads=4"}) {
        const Circuit first = testing::ringQaoaCircuit(kQubits, 0.4, 0.3);
        auto session = makeBackend(spec)->open(first);
        expectMatchesFreshSession(spec, *session, first, "open");

        const Circuit second = testing::ringQaoaCircuit(kQubits, -0.7, 1.1);
        session->bind(second);
        expectMatchesFreshSession(spec, *session, second, "rebind");

        const Circuit third = testing::ringQaoaCircuit(kQubits, 0.2, -0.5);
        session->bind(third);
        expectMatchesFreshSession(spec, *session, third, "second rebind");

        // Rx(0.3) -> Rx(pi) -> Rx(0.3): the Rx pairs cross from dense
        // kernels to permutations and back. Every bind plans afresh.
        for (const double beta : {0.15, 1.57079632679489661923, 0.15}) {
            const Circuit crossing =
                testing::ringQaoaCircuit(kQubits, 0.2, beta);
            session->bind(crossing);
            expectMatchesFreshSession(spec, *session, crossing,
                                      "class-crossing rebind");
        }
        EXPECT_EQ(session->planBuilds(), 1u + 5u) << spec;
        EXPECT_EQ(session->planReuses(), 0u) << spec;

        const std::size_t builds = session->planBuilds();
        const Circuit other = otherStructure(0.37);
        session->bind(other);
        EXPECT_EQ(session->planBuilds(), builds + 1) << spec;
        expectMatchesFreshSession(spec, *session, other, "new structure");

        // A different qubit count needs a new session: bind refuses it and
        // the session keeps serving its current binding.
        EXPECT_THROW(session->bind(testing::ringQaoaCircuit(kQubits + 2,
                                                            0.4, 0.3)),
                     std::invalid_argument);
        expectMatchesFreshSession(spec, *session, other, "refused bind");
    }
}

TEST(SvSessionReuseTest, RunBatchMatchesFreshSessions)
{
    std::vector<ParamBinding> bindings;
    for (int i = 0; i < 5; ++i)
        bindings.push_back(
            testing::ringQaoaCircuit(kQubits, 0.1 + 0.2 * i, 0.5 - 0.1 * i));
    const std::vector<std::uint64_t> seeds{3, 1, 4, 1, 5};
    for (const std::string spec : {"sv", "sv:threads=4", "dm:threads=4"}) {
        auto session = makeBackend(spec)->open(bindings[0]);
        Rng warm(1);
        session->run(Sample{10}, warm); // the buffer exists before the batch
        for (const Task& task : allTasks(spec)) {
            const std::vector<Result> batch =
                session->runBatch(bindings, task, seeds);
            ASSERT_EQ(batch.size(), bindings.size());
            for (std::size_t i = 0; i < bindings.size(); ++i) {
                Rng rng(seeds[i]);
                const Result fresh =
                    makeBackend(spec)->open(bindings[i])->run(task, rng);
                expectSamePayload(batch[i], fresh,
                                  spec + " binding " + std::to_string(i));
            }
        }
        expectMatchesFreshSession(spec, *session, bindings.back(),
                                  "after batch");
    }
}

} // namespace
} // namespace qkc
