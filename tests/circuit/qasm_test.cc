#include "circuit/qasm.h"

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/algorithms.h"
#include "testing/session_runs.h"
#include "testing/test_circuits.h"

namespace qkc {
namespace {

/** Round-trips `c` through QASM and checks the distribution is unchanged. */
void
expectRoundTrip(const Circuit& c)
{
    Circuit back = parseQasm(toQasm(c));
    ASSERT_EQ(back.numQubits(), c.numQubits());
    if (c.noiseCount() == 0) {
        auto a = testing::finalState(c).amplitudes();
        auto b = testing::finalState(back).amplitudes();
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_TRUE(approxEqual(a[i], b[i], 1e-9)) << i;
    } else {
        auto a = testing::probabilitiesOf("dm", c);
        auto b = testing::probabilitiesOf("dm", back);
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_NEAR(a[i], b[i], 1e-9) << i;
    }
}

TEST(QasmTest, ExportContainsHeaderAndGates)
{
    std::string qasm = toQasm(bellCircuit());
    EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(qasm.find("qreg q[2];"), std::string::npos);
    EXPECT_NE(qasm.find("h q[0];"), std::string::npos);
    EXPECT_NE(qasm.find("cx q[0],q[1];"), std::string::npos);
}

TEST(QasmTest, RoundTripBell)
{
    expectRoundTrip(bellCircuit());
}

TEST(QasmTest, RoundTripAllGateKinds)
{
    Circuit c(3);
    c.i(0).x(0).y(1).z(2).h(0).s(1).sdg(2).t(0).tdg(1);
    c.rx(0, 0.3).ry(1, -1.2).rz(2, 2.5).phase(0, 0.7);
    c.cnot(0, 1).cz(1, 2).swap(0, 2).crz(0, 1, 0.4).cphase(1, 2, -0.9);
    c.zz(0, 2, 1.1).ccx(0, 1, 2).ccz(0, 1, 2).cswap(0, 1, 2);
    expectRoundTrip(c);
}

TEST(QasmTest, RoundTripNoiseChannels)
{
    Circuit c(2);
    c.h(0);
    c.append(NoiseChannel::bitFlip(0, 0.12));
    c.cnot(0, 1);
    c.append(NoiseChannel::depolarizing(1, 0.06));
    c.append(NoiseChannel::asymmetricDepolarizing(0, 0.01, 0.02, 0.03));
    c.append(NoiseChannel::amplitudeDamping(1, 0.3));
    c.append(NoiseChannel::phaseDamping(0, 0.25));
    c.append(NoiseChannel::generalizedAmplitudeDamping(1, 0.2, 0.6));
    c.append(NoiseChannel::phaseFlip(0, 0.18));
    expectRoundTrip(c);

    Circuit back = parseQasm(toQasm(c));
    EXPECT_EQ(back.noiseCount(), c.noiseCount());
}

TEST(QasmTest, RoundTripRandomCircuits)
{
    for (int seed = 0; seed < 5; ++seed) {
        Rng rng(7100 + seed);
        expectRoundTrip(testing::randomCircuit(3, 12, rng));
    }
}

TEST(QasmTest, ParsesAngleExpressions)
{
    Circuit c = parseQasm(R"(
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[1];
        rz(pi/2) q[0];
        rx(-3*pi/4) q[0];
        ry(0.25e1) q[0];
        u1(2*(pi - 1)) q[0];
    )");
    const Gate& rz = std::get<Gate>(c.operations()[0]);
    EXPECT_NEAR(rz.param(), M_PI / 2, 1e-12);
    const Gate& rx = std::get<Gate>(c.operations()[1]);
    EXPECT_NEAR(rx.param(), -3 * M_PI / 4, 1e-12);
    const Gate& ry = std::get<Gate>(c.operations()[2]);
    EXPECT_NEAR(ry.param(), 2.5, 1e-12);
    const Gate& u1 = std::get<Gate>(c.operations()[3]);
    EXPECT_NEAR(u1.param(), 2 * (M_PI - 1), 1e-12);
}

TEST(QasmTest, IgnoresMeasureBarrierCreg)
{
    Circuit c = parseQasm(R"(
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[2];
        creg c[2];
        h q[0];
        barrier q[0],q[1];
        cx q[0],q[1];
        measure q[0] -> c[0];
        measure q[1] -> c[1];
    )");
    EXPECT_EQ(c.gateCount(), 2u);
}

TEST(QasmTest, RejectsUnsupportedConstructs)
{
    EXPECT_THROW(parseQasm("OPENQASM 2.0;\nh q[0];"), std::invalid_argument);
    EXPECT_THROW(parseQasm("qreg q[2];\nfrobnicate q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(parseQasm("qreg q[2];\nqreg r[2];"), std::invalid_argument);
    EXPECT_THROW(parseQasm("qreg q[2];\nh q;"), std::invalid_argument);

    Circuit custom(1);
    custom.append(Gate::custom({0}, Matrix{{0.0, 1.0}, {1.0, 0.0}}, "myX"));
    EXPECT_THROW(toQasm(custom), std::invalid_argument);
}

TEST(QasmTest, CczBecomesHadamardConjugatedToffoli)
{
    Circuit c(3);
    c.h(0).h(1).h(2).ccz(0, 1, 2);
    std::string qasm = toQasm(c);
    EXPECT_EQ(qasm.find("ccz"), std::string::npos);
    EXPECT_NE(qasm.find("ccx"), std::string::npos);
    expectRoundTrip(c);
}

TEST(QasmTest, ParsedCircuitRunsOnKcPipeline)
{
    // QASM in, knowledge compilation out.
    Circuit c = parseQasm(toQasm(ghzCircuit(3)));
    auto exact = testing::probabilitiesOf("sv", c);
    EXPECT_NEAR(exact[0], 0.5, 1e-12);
    EXPECT_NEAR(exact[7], 0.5, 1e-12);
}

} // namespace
} // namespace qkc
