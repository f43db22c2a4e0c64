#include "util/cli.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace qkc {
namespace {

Cli
makeCli(std::vector<const char*> args)
{
    args.insert(args.begin(), "prog");
    return Cli(static_cast<int>(args.size()),
               const_cast<char**>(args.data()));
}

TEST(CliTest, ParsesKeyValue)
{
    auto cli = makeCli({"--qubits=12", "--noise=0.005", "--mode=fast"});
    EXPECT_EQ(cli.getInt("qubits", 0), 12);
    EXPECT_DOUBLE_EQ(cli.getDouble("noise", 0.0), 0.005);
    EXPECT_EQ(cli.getString("mode", ""), "fast");
}

TEST(CliTest, DefaultsWhenMissing)
{
    auto cli = makeCli({});
    EXPECT_EQ(cli.getInt("qubits", 7), 7);
    EXPECT_DOUBLE_EQ(cli.getDouble("noise", 0.25), 0.25);
    EXPECT_EQ(cli.getString("mode", "slow"), "slow");
    EXPECT_FALSE(cli.has("qubits"));
}

TEST(CliTest, BareFlag)
{
    auto cli = makeCli({"--verbose"});
    EXPECT_TRUE(cli.has("verbose"));
    EXPECT_EQ(cli.getString("verbose", "x"), "");
}

TEST(CliTest, IgnoresPositional)
{
    auto cli = makeCli({"positional", "--x=1"});
    EXPECT_FALSE(cli.has("positional"));
    EXPECT_EQ(cli.getInt("x", 0), 1);
}

TEST(CliTest, NegativeNumbers)
{
    auto cli = makeCli({"--shift=-4", "--gamma=-0.5"});
    EXPECT_EQ(cli.getInt("shift", 0), -4);
    EXPECT_DOUBLE_EQ(cli.getDouble("gamma", 0.0), -0.5);
}

/** The message getInt/getDouble throws for `flag`, or "" if it parses. */
std::string
refusal(const Cli& cli, const std::string& flag, bool integer)
{
    try {
        if (integer)
            cli.getInt(flag, 0);
        else
            cli.getDouble(flag, 0.0);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(CliTest, RejectsMalformedIntegers)
{
    auto cli = makeCli({"--samples=1e3", "--cache=abc", "--x=12abc",
                        "--empty=", "--bare", "--space= 5", "--dot=1.5",
                        "--huge=99999999999999999999"});
    EXPECT_EQ(refusal(cli, "samples", true), "--samples=1e3: not a number");
    EXPECT_EQ(refusal(cli, "cache", true), "--cache=abc: not a number");
    EXPECT_EQ(refusal(cli, "x", true), "--x=12abc: not a number");
    EXPECT_EQ(refusal(cli, "empty", true), "--empty=: not a number");
    EXPECT_EQ(refusal(cli, "bare", true), "--bare=: not a number");
    EXPECT_EQ(refusal(cli, "space", true), "--space= 5: not a number");
    EXPECT_EQ(refusal(cli, "dot", true), "--dot=1.5: not a number");
    EXPECT_EQ(refusal(cli, "huge", true),
              "--huge=99999999999999999999: not a number");
    // An absent flag still falls back to its default.
    EXPECT_EQ(cli.getInt("absent", 9), 9);
}

TEST(CliTest, RejectsMalformedDoubles)
{
    auto cli = makeCli({"--noise=abc", "--gamma=0.5x", "--empty=",
                        "--huge=1e999"});
    EXPECT_EQ(refusal(cli, "noise", false), "--noise=abc: not a number");
    EXPECT_EQ(refusal(cli, "gamma", false), "--gamma=0.5x: not a number");
    EXPECT_EQ(refusal(cli, "empty", false), "--empty=: not a number");
    EXPECT_EQ(refusal(cli, "huge", false), "--huge=1e999: not a number");
}

TEST(CliTest, AcceptsWholeNumbers)
{
    auto cli = makeCli({"--samples=1000", "--noise=1e-3", "--rate=2"});
    EXPECT_EQ(cli.getInt("samples", 0), 1000);
    EXPECT_DOUBLE_EQ(cli.getDouble("noise", 0.0), 1e-3);
    EXPECT_DOUBLE_EQ(cli.getDouble("rate", 0.0), 2.0);
}

} // namespace
} // namespace qkc
