#include "vqa/pauli.h"

#include <gtest/gtest.h>

#include <cmath>

#include "testing/algorithm_circuits.h"
#include "testing/session_runs.h"
#include "vqa/backends.h"

namespace qkc {
namespace {

TEST(PauliStringTest, ParseAndClassify)
{
    PauliString zz("ZZ");
    EXPECT_TRUE(zz.isDiagonal());
    PauliString xy("XIY");
    EXPECT_FALSE(xy.isDiagonal());
    EXPECT_EQ(xy.numQubits(), 3u);
    EXPECT_THROW(PauliString(""), std::invalid_argument);
    EXPECT_THROW(PauliString("XQ"), std::invalid_argument);
}

TEST(PauliStringTest, EigenvalueParity)
{
    PauliString zz("ZZ");
    EXPECT_EQ(zz.eigenvalue(0b00), 1);
    EXPECT_EQ(zz.eigenvalue(0b01), -1);
    EXPECT_EQ(zz.eigenvalue(0b10), -1);
    EXPECT_EQ(zz.eigenvalue(0b11), 1);

    PauliString zi("ZI");
    EXPECT_EQ(zi.eigenvalue(0b01), 1);   // identity qubit ignored
    EXPECT_EQ(zi.eigenvalue(0b10), -1);
}

/** Exact <P> on a circuit's output state via the rotated distribution. */
double
exactExpectation(const Circuit& c, const PauliString& p)
{
    auto probs = testing::probabilitiesOf("sv", p.withMeasurementBasis(c));
    double e = 0.0;
    for (std::uint64_t x = 0; x < probs.size(); ++x)
        e += probs[x] * p.eigenvalue(x);
    return e;
}

TEST(PauliStringTest, BellStateStabilizers)
{
    // |Phi+> is stabilized by XX and ZZ, and <XZ> = <ZX> = 0, <YY> = -1.
    Circuit bell = testing::bellCircuit();
    EXPECT_NEAR(exactExpectation(bell, PauliString("XX")), 1.0, 1e-9);
    EXPECT_NEAR(exactExpectation(bell, PauliString("ZZ")), 1.0, 1e-9);
    EXPECT_NEAR(exactExpectation(bell, PauliString("YY")), -1.0, 1e-9);
    EXPECT_NEAR(exactExpectation(bell, PauliString("XZ")), 0.0, 1e-9);
    EXPECT_NEAR(exactExpectation(bell, PauliString("ZI")), 0.0, 1e-9);
}

TEST(PauliStringTest, SingleQubitRotationExpectations)
{
    // Ry(theta)|0>: <Z> = cos(theta), <X> = sin(theta).
    double theta = 0.8;
    Circuit c(1);
    c.ry(0, theta);
    EXPECT_NEAR(exactExpectation(c, PauliString("Z")), std::cos(theta), 1e-9);
    EXPECT_NEAR(exactExpectation(c, PauliString("X")), std::sin(theta), 1e-9);
    EXPECT_NEAR(exactExpectation(c, PauliString("Y")), 0.0, 1e-9);
}

TEST(PauliSumTest, ClassifiesDiagonality)
{
    PauliSum diag;
    diag.add(1.0, PauliString("ZZ")).add(-0.5, PauliString("IZ"));
    EXPECT_TRUE(diag.isDiagonal());
    EXPECT_EQ(diag.numQubits(), 2u);

    PauliSum mixed = diag;
    mixed.add(0.25, PauliString("XI"));
    EXPECT_FALSE(mixed.isDiagonal());
}

TEST(PauliSumTest, SessionExpectationMatchesBellValues)
{
    // H = 0.5 XX + 0.25 ZZ - 0.75 YY + 1.5 I on the Bell state:
    // 0.5 + 0.25 + 0.75 + 1.5 = 3.0 — exact through the sv session.
    PauliSum h;
    h.add(0.5, PauliString("XX"))
        .add(0.25, PauliString("ZZ"))
        .add(-0.75, PauliString("YY"))
        .add(1.5, PauliString("II"));

    StateVectorBackend backend;
    auto session = backend.open(testing::bellCircuit());
    Rng rng(3);
    Result r = session->run(Expectation{h, 0}, rng);
    EXPECT_TRUE(r.meta.exact);
    EXPECT_NEAR(r.expectation, 3.0, 1e-9);
}

TEST(PauliSumTest, KcSessionServesNonDiagonalTermsExactly)
{
    // XX is non-diagonal: the kc session answers it from AC amplitude
    // queries on ideal circuits — no rotated-basis sampling, no recompile.
    PauliSum h;
    h.add(1.0, PauliString("XX")).add(1.0, PauliString("ZZ"));
    KnowledgeCompilationBackend kc;
    auto session = kc.open(testing::bellCircuit());
    Rng rng(5);
    Result r = session->run(Expectation{h, 0}, rng);
    EXPECT_TRUE(r.meta.exact);
    EXPECT_EQ(r.meta.fallbackShots, 0u);
    EXPECT_NEAR(r.expectation, 2.0, 1e-9);
    EXPECT_EQ(session->planBuilds(), 1u);
}

TEST(PauliSumTest, TnSessionFallsBackToSampling)
{
    // The tensor-network session estimates <H> from rotated-basis shots;
    // the estimate must land within CLT distance of the exact value and be
    // flagged as non-exact.
    PauliSum h;
    h.add(0.5, PauliString("XX")).add(0.25, PauliString("ZZ"));
    TensorNetworkBackend tn;
    auto session = tn.open(testing::bellCircuit());
    Rng rng(7);
    Result r = session->run(Expectation{h, 4000}, rng);
    EXPECT_FALSE(r.meta.exact);
    EXPECT_GT(r.meta.fallbackShots, 0u);
    EXPECT_NEAR(r.expectation, 0.75, 0.08);
}

TEST(PauliStringTest, QubitCountMismatchThrows)
{
    EXPECT_THROW(PauliString("X").withMeasurementBasis(testing::bellCircuit()),
                 std::invalid_argument);
}

} // namespace
} // namespace qkc
