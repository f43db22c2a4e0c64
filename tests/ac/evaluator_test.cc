#include "ac/evaluator.h"

#include <gtest/gtest.h>

namespace qkc {
namespace {

/** f = lambda_{0=0} * p0 + lambda_{0=1} * p1 : a one-variable mini circuit. */
struct MiniCircuit {
    ArithmeticCircuit ac;
    MiniCircuit()
    {
        auto root = ac.add({ac.mul({ac.indicator(0, 0), ac.param(0)}),
                            ac.mul({ac.indicator(0, 1), ac.param(1)})});
        ac.setRoot(root);
    }
};

TEST(AcEvaluatorTest, EvidenceSelectsBranch)
{
    MiniCircuit mini;
    AcEvaluator eval(mini.ac, {2}, {Complex{0.6}, Complex{0.0, 0.8}});
    eval.setEvidence(0, 0);
    EXPECT_TRUE(approxEqual(eval.evaluate(), Complex{0.6}));
    eval.setEvidence(0, 1);
    EXPECT_TRUE(approxEqual(eval.evaluate(), Complex(0.0, 0.8)));
    eval.setEvidence(0, AcEvaluator::kFree);
    EXPECT_TRUE(approxEqual(eval.evaluate(), Complex(0.6, 0.8)));
}

TEST(AcEvaluatorTest, SetParamsUpdatesValue)
{
    MiniCircuit mini;
    AcEvaluator eval(mini.ac, {2}, {Complex{0.6}, Complex{0.8}});
    eval.setEvidence(0, 0);
    EXPECT_TRUE(approxEqual(eval.evaluate(), Complex{0.6}));
    eval.setParams({Complex{0.3}, Complex{0.8}});
    EXPECT_TRUE(approxEqual(eval.evaluate(), Complex{0.3}));
}

TEST(AcEvaluatorTest, SetParamsRejectsSizeMismatch)
{
    MiniCircuit mini;
    AcEvaluator eval(mini.ac, {2}, {Complex{0.6}, Complex{0.8}});
    EXPECT_THROW(eval.setParams({Complex{1.0}}), std::invalid_argument);
}

TEST(AcEvaluatorTest, MemoizationRecomputesOnlyDirtyCone)
{
    MiniCircuit mini;
    AcEvaluator eval(mini.ac, {2}, {Complex{0.6}, Complex{0.8}});
    eval.setEvidence(0, 0);
    eval.evaluate();
    std::size_t full = eval.lastRecomputeCount();
    EXPECT_GT(full, 0u);

    // No change: nothing recomputed.
    eval.evaluate();
    EXPECT_EQ(eval.lastRecomputeCount(), 0u);

    // One param change: strictly fewer recomputations than the full sweep.
    eval.setParams({Complex{0.6}, Complex{0.9}});
    eval.evaluate();
    EXPECT_GT(eval.lastRecomputeCount(), 0u);
    EXPECT_LT(eval.lastRecomputeCount(), full);

    // Unchanged params: no dirtying at all.
    eval.setParams({Complex{0.6}, Complex{0.9}});
    eval.evaluate();
    EXPECT_EQ(eval.lastRecomputeCount(), 0u);
}

TEST(AcEvaluatorTest, DerivativesGiveFlipAmplitudes)
{
    MiniCircuit mini;
    AcEvaluator eval(mini.ac, {2}, {Complex{0.6}, Complex{0.0, 0.8}});
    eval.setEvidence(0, 0);
    eval.evaluate();
    eval.computeDerivatives();
    // d f / d lambda_{0=v} equals f with variable 0 set to v.
    EXPECT_TRUE(approxEqual(eval.derivative(0, 0), Complex{0.6}));
    EXPECT_TRUE(approxEqual(eval.derivative(0, 1), Complex(0.0, 0.8)));
}

TEST(AcEvaluatorTest, DerivativesThroughProductsWithZeros)
{
    // f = lambda_{0=1} * lambda_{1=1} * p ; evidence (0=0, 1=1) makes the
    // product zero, but the derivative w.r.t. lambda_{0=1} must recover p.
    ArithmeticCircuit ac;
    auto root = ac.mul(
        {ac.indicator(0, 1), ac.indicator(1, 1), ac.param(0)});
    ac.setRoot(root);
    AcEvaluator eval(ac, {2, 2}, {Complex{0.7}});
    eval.setEvidence(0, 0);
    eval.setEvidence(1, 1);
    EXPECT_TRUE(approxEqual(eval.evaluate(), Complex{}));
    eval.computeDerivatives();
    EXPECT_TRUE(approxEqual(eval.derivative(0, 1), Complex{0.7}));
    // Flipping var 1 to 0 keeps amplitude zero (two zero factors).
    EXPECT_TRUE(approxEqual(eval.derivative(1, 0), Complex{}));
}

TEST(AcEvaluatorTest, MulDerivativeSurvivesExtremeProducts)
{
    // f = p0 * p1: d f / d p0 = p1 even when p0 * p1 underflows to zero or
    // overflows to infinity. Checked relatively — an absolute tolerance
    // would accept 0 for 1e-200.
    ArithmeticCircuit ac;
    ac.setRoot(ac.mul({ac.param(0), ac.param(1)}));
    for (double x : {1e-200, 1e200}) {
        AcEvaluator eval(ac, {}, {Complex{x}, Complex{x}});
        eval.computeDerivatives();
        EXPECT_DOUBLE_EQ(eval.paramDerivative(0).real(), x);
        EXPECT_DOUBLE_EQ(eval.paramDerivative(1).real(), x);
        EXPECT_EQ(eval.paramDerivative(0).imag(), 0.0);
    }
}

TEST(AcEvaluatorTest, MissingIndicatorDerivativeIsZero)
{
    MiniCircuit mini;
    AcEvaluator eval(mini.ac, {2, 2}, {Complex{0.6}, Complex{0.8}});
    eval.evaluate();
    eval.computeDerivatives();
    EXPECT_TRUE(approxEqual(eval.derivative(1, 0), Complex{}));
}

} // namespace
} // namespace qkc
