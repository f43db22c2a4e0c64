#include "circuit/device_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "ac/kc_simulator.h"
#include "algorithms/algorithms.h"
#include "testing/session_runs.h"

namespace qkc {
namespace {

TEST(DeviceModelTest, InsertsChannelsAfterGates)
{
    DeviceModel model;
    Circuit noisy = model.apply(bellCircuit());
    EXPECT_EQ(noisy.gateCount(), 2u);
    // H: amp damp + phase damp + depolarizing = 3 channels;
    // CNOT: (amp+phase) x 2 qubits + 1 correlated depolarizing = 5.
    EXPECT_EQ(noisy.noiseCount(), 8u);
}

TEST(DeviceModelTest, PerQubitCalibration)
{
    DeviceModel model;
    model.t1 = {10e3, 1e9};  // qubit 0 decays fast, qubit 1 essentially not
    model.t2 = {15e3, 1e9};
    model.singleQubitDepolarizing = 0.0;
    model.twoQubitDepolarizing = 0.0;

    Circuit c(2);
    c.x(0).x(1);
    Circuit noisy = model.apply(c);

    auto dist = testing::probabilitiesOf("dm", noisy);
    // Qubit 0 relaxes more than qubit 1: P(0 on q0) > P(0 on q1).
    double p0q0 = dist[0b00] + dist[0b01];
    double p0q1 = dist[0b00] + dist[0b10];
    EXPECT_GT(p0q0, p0q1 + 1e-6);
}

TEST(DeviceModelTest, LongerGatesDecayMore)
{
    DeviceModel model;
    model.singleQubitDepolarizing = 0.0;
    model.twoQubitDepolarizing = 0.0;

    // One X gate vs an X implemented "slowly" via many identity paddings.
    Circuit fast(1);
    fast.x(0);
    Circuit slow(1);
    slow.x(0);
    for (int i = 0; i < 9; ++i)
        slow.i(0);

    double pFast = testing::probabilitiesOf("dm", model.apply(fast))[1];
    double pSlow = testing::probabilitiesOf("dm", model.apply(slow))[1];
    EXPECT_GT(pFast, pSlow + 1e-6);
}

TEST(DeviceModelTest, RejectsUnphysicalT2)
{
    DeviceModel model;
    model.defaultT1 = 10e3;
    model.defaultT2 = 30e3;  // > 2 T1
    Circuit c(1);
    c.x(0);
    EXPECT_THROW(model.apply(c), std::invalid_argument);
}

TEST(DeviceModelTest, T2EqualTwoT1HasNoExtraDephasing)
{
    DeviceModel model;
    model.defaultT1 = 10e3;
    model.defaultT2 = 20e3;  // exactly 2 T1: no pure dephasing
    model.singleQubitDepolarizing = 0.0;
    Circuit c(1);
    c.h(0);
    Circuit noisy = model.apply(c);
    // Only the amplitude damping channel is inserted.
    EXPECT_EQ(noisy.noiseCount(), 1u);
    const auto& ch = std::get<NoiseChannel>(noisy.operations()[1]);
    EXPECT_EQ(ch.kind(), NoiseKind::AmplitudeDamping);
}

TEST(DeviceModelTest, KcSimulatesDeviceNoisyCircuit)
{
    DeviceModel model;
    model.defaultT1 = 5e3;  // exaggerate decay so the effect is visible
    model.defaultT2 = 7e3;
    Circuit noisy = model.apply(bellCircuit());

    KcSimulator kc(noisy);
    auto exact = testing::probabilitiesOf("dm", noisy);
    auto kcDist = kc.outcomeDistribution();
    for (std::size_t x = 0; x < exact.size(); ++x)
        EXPECT_NEAR(kcDist[x], exact[x], 1e-9) << x;
    // Decay skews |11> below the ideal 1/2 and pushes weight to |10>/|01>.
    EXPECT_LT(exact[0b11], 0.5);
    EXPECT_GT(exact[0b00] + exact[0b01] + exact[0b10], 0.5);
}

} // namespace
} // namespace qkc
