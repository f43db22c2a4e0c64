#include "server/admission.h"

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "vqa/pauli.h"

namespace qkc {
namespace server {
namespace {

Circuit
ghz(std::size_t n)
{
    Circuit c(n);
    c.h(0);
    for (std::size_t i = 0; i + 1 < n; ++i)
        c.cnot(i, i + 1);
    return c;
}

TEST(AdmissionTest, SmallStateVectorRequestsAdmit)
{
    const auto spec = parseBackendSpec("sv");
    const AdmissionVerdict v =
        admitRequest(spec, ghz(10), Sample{1024}, AdmissionLimits{});
    EXPECT_TRUE(v.admitted);
    EXPECT_TRUE(v.reason.empty());
}

TEST(AdmissionTest, FortyQubitStateVectorIsRefused)
{
    // 16 * 2^40 bytes = 16 TiB; the front door must refuse it, with the
    // structured field/reason the ISSUE's acceptance criteria name.
    const auto spec = parseBackendSpec("sv");
    const AdmissionVerdict v =
        admitRequest(spec, ghz(40), Sample{16}, AdmissionLimits{});
    EXPECT_FALSE(v.admitted);
    EXPECT_EQ(v.field, "memory");
    EXPECT_NE(v.reason.find("40"), std::string::npos);
}

TEST(AdmissionTest, MemoryBudgetScalesTheQubitCeiling)
{
    const auto spec = parseBackendSpec("sv");
    AdmissionLimits limits;
    limits.stateMemoryBytes = 16ull << 20; // 16 MiB -> exactly 20 qubits
    EXPECT_TRUE(admitRequest(spec, ghz(20), Sample{1}, limits).admitted);
    EXPECT_FALSE(admitRequest(spec, ghz(21), Sample{1}, limits).admitted);
}

TEST(AdmissionTest, DensityMatrixPaysTheSquaredCost)
{
    const auto spec = parseBackendSpec("dm");
    AdmissionLimits limits; // 4 GiB -> 16*4^n <= 2^32 -> n <= 14
    EXPECT_TRUE(admitRequest(spec, ghz(14), Sample{1}, limits).admitted);
    EXPECT_FALSE(admitRequest(spec, ghz(15), Sample{1}, limits).admitted);
    // Far past any uint64 representation of 16*4^n: must reject, not wrap.
    EXPECT_FALSE(admitRequest(spec, ghz(40), Sample{1}, limits).admitted);
}

TEST(AdmissionTest, KcExactQueriesAreBudgeted)
{
    const auto spec = parseBackendSpec("kc");
    AdmissionLimits limits;
    EXPECT_TRUE(
        admitRequest(spec, ghz(17), Sample{64}, limits).admitted);
    EXPECT_FALSE(
        admitRequest(spec, ghz(17), Probabilities{}, limits).admitted);
    EXPECT_FALSE(
        admitRequest(spec, ghz(17), Amplitudes{{0}}, limits).admitted);
    EXPECT_TRUE(
        admitRequest(spec, ghz(16), Probabilities{}, limits).admitted);
}

TEST(AdmissionTest, KcGibbsSweepsAreBudgeted)
{
    // A chain runs burnin + shots·thin sweeps; both knobs are client input.
    AdmissionLimits limits;
    const AdmissionVerdict thin = admitRequest(
        parseBackendSpec("kc:thin=4096"), ghz(4), Sample{1024}, limits);
    EXPECT_FALSE(thin.admitted);
    EXPECT_EQ(thin.field, "shots");
    const AdmissionVerdict burnin = admitRequest(
        parseBackendSpec("kc:burnin=2000000"), ghz(4), Sample{1}, limits);
    EXPECT_FALSE(burnin.admitted);
    EXPECT_EQ(burnin.field, "shots");

    Expectation e;
    e.observable.add(1.0, PauliString("ZZII"));
    e.shots = 1024;
    EXPECT_FALSE(
        admitRequest(parseBackendSpec("kc:thin=4096"), ghz(4), e, limits)
            .admitted);
    // A product past 2^64 must reject, not wrap into range.
    EXPECT_FALSE(admitRequest(parseBackendSpec("kc:thin=4611686018427387904"),
                              ghz(4), Sample{4}, limits)
                     .admitted);

    EXPECT_TRUE(admitRequest(parseBackendSpec("kc"), ghz(4),
                             Sample{limits.maxShots}, limits)
                    .admitted);
    EXPECT_TRUE(admitRequest(parseBackendSpec("kc:thin=4"), ghz(4),
                             Sample{limits.maxShots / 4}, limits)
                    .admitted);
}

TEST(AdmissionTest, TensornetRejectsNoise)
{
    const auto spec = parseBackendSpec("tn");
    Circuit noisy = ghz(4).withNoiseAfterEachGate(NoiseKind::BitFlip, 0.01);
    EXPECT_FALSE(admitRequest(spec, noisy, Sample{16}, AdmissionLimits{})
                     .admitted);
    EXPECT_TRUE(admitRequest(spec, ghz(4), Sample{16}, AdmissionLimits{})
                    .admitted);
}

TEST(AdmissionTest, TaskCapsApplyOnEveryBackend)
{
    const auto spec = parseBackendSpec("dd");
    AdmissionLimits limits;
    limits.maxShots = 100;
    limits.maxAmplitudes = 2;
    limits.maxMarginalQubits = 3;
    limits.maxObservableTerms = 1;

    EXPECT_FALSE(admitRequest(spec, ghz(4), Sample{101}, limits).admitted);
    EXPECT_TRUE(admitRequest(spec, ghz(4), Sample{100}, limits).admitted);

    EXPECT_FALSE(
        admitRequest(spec, ghz(4), Amplitudes{{0, 1, 2}}, limits).admitted);

    // Empty qubit list means the full register: 4 > 3 rejects.
    EXPECT_FALSE(admitRequest(spec, ghz(4), Probabilities{}, limits).admitted);
    EXPECT_TRUE(
        admitRequest(spec, ghz(4), Probabilities{{0, 1}}, limits).admitted);

    Expectation wide;
    wide.observable.add(1.0, PauliString("ZZII")).add(0.5,
                                                      PauliString("IIZZ"));
    EXPECT_FALSE(admitRequest(spec, ghz(4), wide, limits).admitted);

    Expectation heavy;
    heavy.observable.add(1.0, PauliString("ZZII"));
    heavy.shots = 101;
    EXPECT_FALSE(admitRequest(spec, ghz(4), heavy, limits).admitted);
}

TEST(AdmissionTest, VerdictFieldsNameTheConstraint)
{
    const auto spec = parseBackendSpec("sv");
    AdmissionLimits limits;
    limits.maxShots = 1;
    const AdmissionVerdict v = admitRequest(spec, ghz(2), Sample{2}, limits);
    ASSERT_FALSE(v.admitted);
    EXPECT_EQ(v.field, "shots");
    EXPECT_NE(v.reason.find("2"), std::string::npos);
}

} // namespace
} // namespace server
} // namespace qkc
