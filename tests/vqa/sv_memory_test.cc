/**
 * Peak-memory regression for the sv session, in its own binary so that the
 * process's peak RSS is this test's alone: an evaluation (bind, Sample,
 * Expectation) reuses the session's one 2^n state, draws the shots from the
 * amplitudes and reads every Pauli term off them in place, so no
 * probability or CDF vector of 2^n doubles and no second state is built.
 */
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <string>

#include "vqa/backends.h"

namespace qkc {
namespace {

/** Peak resident set of this process so far, in kilobytes. */
long
peakRssKb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

Circuit
layer(std::size_t n, double angle)
{
    Circuit c(n);
    for (std::size_t q = 0; q < n; ++q)
        c.h(q);
    c.rz(0, angle);
    c.cnot(0, 1);
    c.rz(n - 1, 2.0 * angle);
    return c;
}

TEST(SvSessionMemoryTest, EvaluationsAllocateNoSecondState)
{
#if defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "ThreadSanitizer's shadow memory grows with every byte "
                    "the sweeps touch, so peak RSS does not measure the "
                    "program's allocations";
#endif
    constexpr std::size_t kQubits = 22;
    constexpr long kStateKb = (16L << kQubits) / 1024; // 64 MiB

    // Start the shared pool and the allocator on a small state first.
    {
        auto warm = makeBackend("sv")->open(layer(4, 0.1));
        Rng rng(1);
        warm->run(Sample{100}, rng);
    }

    // <Z0 Z1 + X0 X1 + Y1 Z2>: one diagonal and two non-diagonal terms.
    PauliSum h;
    for (const char* head : {"ZZ", "XX", "IYZ"}) {
        std::string text(kQubits, 'I');
        text.replace(0, std::string(head).size(), head);
        h.add(1.0, PauliString(text));
    }

    const long before = peakRssKb();
    auto session = makeBackend("sv")->open(layer(kQubits, 0.3));
    Rng rng(7);
    for (int i = 0; i < 3; ++i) {
        session->bind(layer(kQubits, 0.3 + 0.1 * i));
        ASSERT_EQ(session->run(Sample{1000}, rng).samples.size(), 1000u);
        ASSERT_TRUE(session->run(Expectation{h}, rng).meta.exact);
    }
    const long grownKb = peakRssKb() - before;
    EXPECT_LT(grownKb, kStateKb * 3 / 2)
        << "peak RSS grew by " << grownKb << " KB for a " << kStateKb
        << " KB state";
}

} // namespace
} // namespace qkc
