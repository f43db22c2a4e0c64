#include "circuit/qasm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "algorithms/algorithms.h"
#include "testing/algorithm_circuits.h"
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
    std::string qasm = toQasm(testing::bellCircuit());
    EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(qasm.find("qreg q[2];"), std::string::npos);
    EXPECT_NE(qasm.find("h q[0];"), std::string::npos);
    EXPECT_NE(qasm.find("cx q[0],q[1];"), std::string::npos);
}

TEST(QasmTest, RoundTripBell)
{
    expectRoundTrip(testing::bellCircuit());
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

TEST(QasmTest, TrailingNoiseCommentFollowsTheStatementsBeforeIt)
{
    Circuit c = parseQasm("OPENQASM 2.0;\nqreg q[2];\n"
                          "h q[0]; cx q[0],q[1]; // qkc.noise depol2q 0 1 0.1\n");
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(std::get<Gate>(c.operations()[0]).kind(), GateKind::H);
    EXPECT_EQ(std::get<Gate>(c.operations()[1]).kind(), GateKind::CNOT);
    EXPECT_EQ(std::get<NoiseChannel>(c.operations()[2]).kind(),
              NoiseKind::TwoQubitDepolarizing);
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

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameBits(const Matrix& a, const Matrix& b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            if (!sameBits(a(r, c).real(), b(r, c).real()) ||
                !sameBits(a(r, c).imag(), b(r, c).imag()))
                return false;
    return true;
}

// Every kind QASM spells directly comes back as itself: same kind, wires
// and angle bits, so the same unitary bits. (CCZ is spelled h+ccx+h; see
// CczBecomesHadamardConjugatedToffoli.)
TEST(QasmTest, RoundTripKeepsEveryGateKindBitForBit)
{
    Rng rng(3301);
    for (const GateInfo& info : kGateInfo) {
        if (!info.qasm)
            continue;
        std::vector<std::size_t> wires{2, 0, 1};
        wires.resize(info.arity);
        for (int trial = 0; trial < 4; ++trial) {
            const double theta =
                info.parameterized ? rng.uniform(-2 * M_PI, 2 * M_PI) : 0.0;
            const Gate gate(info.kind, wires, theta);
            Circuit c(3);
            c.append(gate);
            const Circuit back = parseQasm(toQasm(c));
            ASSERT_EQ(back.size(), 1u) << info.name;
            const Gate& g = std::get<Gate>(back.operations()[0]);
            EXPECT_EQ(g.kind(), info.kind) << info.name;
            EXPECT_EQ(g.qubits(), wires) << info.name;
            EXPECT_TRUE(sameBits(g.param(), theta)) << info.name;
            EXPECT_TRUE(sameBits(g.unitary(), gate.unitary())) << info.name;
        }
    }
}

// Every channel kind on a probability grid comes back with the same kind,
// wires and parameter bits, so the same Kraus bits. Parameters printed at
// fewer than 17 digits, or rebuilt from Kraus entries, fail at
// p = 0.123456789 and on every asymmetric-depolarizing point.
TEST(QasmTest, RoundTripKeepsEveryNoiseKindBitForBit)
{
    const double grid[] = {0.0,  0.001,       0.005, 0.01, 0.05,
                           0.1,  0.123456789, 0.25,  0.3,  0.5};
    for (const NoiseInfo& info : kNoiseInfo) {
        for (double p : grid) {
            // p, p/2, p/3: distinct values, and pX+pY+pZ <= 1 on the grid.
            std::vector<double> params;
            for (std::size_t i = 0; i < info.params; ++i)
                params.push_back(p / static_cast<double>(i + 1));
            std::vector<std::size_t> wires{1, 0};
            wires.resize(info.qubits);
            const NoiseChannel ch = NoiseChannel::make(info.kind, wires, params);
            Circuit c(2);
            c.append(ch);
            const Circuit back = parseQasm(toQasm(c));
            ASSERT_EQ(back.size(), 1u) << info.tag << " " << p;
            const auto& got = std::get<NoiseChannel>(back.operations()[0]);
            EXPECT_EQ(got.kind(), info.kind);
            EXPECT_EQ(got.qubits(), wires);
            ASSERT_EQ(got.params().size(), params.size());
            for (std::size_t i = 0; i < params.size(); ++i)
                EXPECT_TRUE(sameBits(got.params()[i], params[i]))
                    << info.tag << " " << p;
            const auto& want = ch.krausOperators();
            ASSERT_EQ(got.krausOperators().size(), want.size());
            for (std::size_t k = 0; k < want.size(); ++k)
                EXPECT_TRUE(sameBits(got.krausOperators()[k], want[k]))
                    << info.tag << " " << p << " E" << k;
        }
    }
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
