#include "circuit/qasm.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace qkc {
namespace {

// The server feeds request bodies straight into parseQasm, so every
// malformed, truncated, oversized or numerically hostile input must come
// back as a QasmParseError — never a crash, an uncaught foreign exception,
// or an unbounded allocation.

/** Asserts the input is rejected with the structured error type. */
void
expectRejected(const std::string& text, const QasmLimits& limits = {})
{
    EXPECT_THROW(parseQasm(text, limits), QasmParseError) << text;
}

const char* kHeader = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

std::string
program(const std::string& body)
{
    return std::string(kHeader) + "qreg q[3];\n" + body;
}

TEST(QasmAdversarialTest, StructuredErrorIsAnInvalidArgument)
{
    // Pre-hardening callers caught std::invalid_argument; the refined type
    // must still land in those handlers.
    EXPECT_THROW(parseQasm(std::string("garbage")), std::invalid_argument);
}

TEST(QasmAdversarialTest, EmptyAndBinaryGarbage)
{
    expectRejected("");
    expectRejected("\n\n\n");
    const char binary[] = "\x00\xff\xfe\x01garbage\x7f";
    expectRejected(std::string(binary, sizeof binary - 1));
    expectRejected("qreg"); // truncated mid-declaration
}

TEST(QasmAdversarialTest, TruncatedStatements)
{
    expectRejected(program("rx( q[0];"));        // unterminated angle
    expectRejected(program("cx q[0],;"));        // missing operand
    expectRejected(program("cx q[0], q[;"));     // operand cut mid-index
    expectRejected(std::string(kHeader) + "qreg q[3;\nh q[0];");
    expectRejected(program("h ;"));
    expectRejected(program("h"));
}

TEST(QasmAdversarialTest, OutOfRangeNumbers)
{
    expectRejected(std::string(kHeader) +
                   "qreg q[99999999999999999999999];");
    expectRejected(program("h q[18446744073709551616];"));
    expectRejected(program("h q[-1];"));
    expectRejected(program("h q[1x];"));
    expectRejected(program("rx(1e999999) q[0];"));
    expectRejected(std::string(kHeader) + "qreg q[0];");
    expectRejected(std::string(kHeader) + "qreg q[64];\nh q[0];");
    expectRejected(program("h q[3];")); // index == register size
}

TEST(QasmAdversarialTest, NonFiniteAngles)
{
    expectRejected(program("rx(1/0) q[0];"));
    expectRejected(program("rx(1e308*1e308) q[0];"));
    expectRejected(program("rx(0/0) q[0];"));
}

TEST(QasmAdversarialTest, AngleRecursionIsBounded)
{
    // Paren and unary-minus chains recurse per nesting level; past the
    // depth cap they must error out instead of exhausting the stack.
    const std::string deepParens =
        program("rx(" + std::string(200000, '(') + "1" +
                std::string(200000, ')') + ") q[0];");
    expectRejected(deepParens);
    const std::string deepMinus =
        program("rx(" + std::string(200000, '-') + "1) q[0];");
    expectRejected(deepMinus);

    // At the default cap, reasonable nesting still parses.
    Circuit ok = parseQasm(program("rx(-(-(2*(pi/4)))) q[0];"));
    EXPECT_EQ(ok.gateCount(), 1u);
}

TEST(QasmAdversarialTest, MalformedStructure)
{
    expectRejected(program("frobnicate q[0];"));  // unknown gate
    expectRejected(program("h r[0];"));           // unknown register
    expectRejected(program("h q;"));              // whole-register op
    expectRejected(std::string(kHeader) + "h q[0];"); // gate before qreg
    expectRejected(program("qreg r[2];"));        // second qreg
    expectRejected(program("cx q[0];"));          // arity mismatch
    expectRejected(program("h q[0], q[1];"));     // arity mismatch
}

TEST(QasmAdversarialTest, MalformedNoiseComments)
{
    expectRejected(program("// qkc.noise bitflip"));        // no qubit
    expectRejected(program("// qkc.noise bitflip 0"));      // no parameter
    expectRejected(program("// qkc.noise bitflip q 0.1"));  // junk qubit
    expectRejected(program("// qkc.noise bitflip 0 junk")); // junk parameter
    expectRejected(program("// qkc.noise bitflip 0 2.0"));  // p > 1
    expectRejected(program("// qkc.noise bitflip 0 -0.5")); // p < 0
    expectRejected(program("// qkc.noise wormhole 0 0.1")); // unknown tag
    expectRejected(program("// qkc.noise depol2q 0 0.1"));  // missing qubit
    expectRejected(std::string(kHeader) + "// qkc.noise bitflip 0 0.1");

    // A well-formed channel comment still round-trips.
    Circuit ok = parseQasm(program("// qkc.noise bitflip 0 0.25"));
    EXPECT_EQ(ok.noiseCount(), 1u);
}

TEST(QasmAdversarialTest, AnglesMustMatchTheGate)
{
    expectRejected(program("rx q[0];"));            // angle missing
    expectRejected(program("rx() q[0];"));          // angle empty
    expectRejected(program("crz q[0],q[1];"));      // angle missing
    expectRejected(program("h(0.5) q[0];"));        // angle on a fixed gate
    expectRejected(program("h() q[0];"));           // empty angle list too
    expectRejected(program("cx(pi) q[0],q[1];"));   // angle on a fixed gate

    Circuit ok = parseQasm(program("rx(0.5) q[0];\nh q[1];"));
    EXPECT_EQ(ok.gateCount(), 2u);
}

TEST(QasmAdversarialTest, NoiseCountsMustMatchTheKind)
{
    expectRejected(program("// qkc.noise bitflip 0 0.1 0.2"));     // extra p
    expectRejected(program("// qkc.noise adepolarizing 0 0.1 0.1")); // 2 of 3
    expectRejected(program("// qkc.noise gad 0 0.1"));             // 1 of 2
    expectRejected(program("// qkc.noise depol2q 0 1 2 0.1"));     // 3 qubits
    expectRejected(program("// qkc.noise bitflip 0 1 0.1"));       // 2 qubits
    expectRejected(program("// qkc.noise bitflip -1 0.1"));        // bad qubit
    expectRejected(program("// qkc.noise bitflip 0 0.1x"));        // bad p
    expectRejected(program("// qkc.noise bitflip 0 nan"));         // non-finite

    Circuit ok = parseQasm(program("// qkc.noise depol2q 0 1 0.1\n"
                                   "// qkc.noise gad 2 0.1 0.4"));
    EXPECT_EQ(ok.noiseCount(), 2u);
}

TEST(QasmAdversarialTest, ErrorsQuoteTheStatementAsWritten)
{
    const char* statements[] = {
        "rx q[0]",
        "h(0.5) q[0]",
        "// qkc.noise bitflip 0 0.1 0.2",
        "// qkc.noise bitflip 0",
        "// qkc.noise adepolarizing 0 0.1",
        "// qkc.noise wormhole 0 0.1",
    };
    for (const char* stmt : statements) {
        try {
            parseQasm(program(std::string(stmt) + "\n"));
            ADD_FAILURE() << "accepted: " << stmt;
        } catch (const QasmParseError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(std::string("\"") + stmt + "\""),
                      std::string::npos)
                << what;
            EXPECT_EQ(what.find("@noise"), std::string::npos) << what;
            EXPECT_EQ(what.find("_M_"), std::string::npos) << what;
        }
    }
}

TEST(QasmAdversarialTest, ByteLimitIsEnforced)
{
    QasmLimits tight;
    tight.maxBytes = 256;
    expectRejected(program(std::string(1024, ' ') + "h q[0];"), tight);

    // At or under the cap, the same program parses.
    const std::string small = program("h q[0];");
    ASSERT_LE(small.size(), tight.maxBytes);
    EXPECT_EQ(parseQasm(small, tight).gateCount(), 1u);
}

TEST(QasmAdversarialTest, OperationLimitIsEnforced)
{
    QasmLimits tight;
    tight.maxOperations = 8;
    std::string body;
    for (int i = 0; i < 9; ++i)
        body += "h q[0];\n";
    expectRejected(program(body), tight);

    body.clear();
    for (int i = 0; i < 8; ++i)
        body += "h q[0];\n";
    EXPECT_EQ(parseQasm(program(body), tight).gateCount(), 8u);
}

TEST(QasmAdversarialTest, StreamReadStopsAtTheByteCap)
{
    // The istream overload must not drain an arbitrarily long stream into
    // memory before noticing it is oversized.
    QasmLimits tight;
    tight.maxBytes = 128;
    std::istringstream oversized(program(std::string(1u << 20, ';')));
    EXPECT_THROW(parseQasm(oversized, tight), QasmParseError);
}

TEST(QasmAdversarialTest, ErrorsNameTheOffendingStatement)
{
    try {
        parseQasm(program("frobnicate q[0];"));
        FAIL() << "expected QasmParseError";
    } catch (const QasmParseError& e) {
        EXPECT_NE(std::string(e.what()).find("frobnicate"),
                  std::string::npos);
    }
}

} // namespace
} // namespace qkc
