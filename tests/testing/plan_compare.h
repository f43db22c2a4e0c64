#ifndef QKC_TESTS_TESTING_PLAN_COMPARE_H
#define QKC_TESTS_TESTING_PLAN_COMPARE_H

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "exec/execution_plan.h"

namespace qkc::testing {

/** True when `a` and `b` hold the same bits (so -0.0 differs from 0.0). */
inline bool
sameBits(const Complex& a, const Complex& b)
{
    return std::memcmp(&a, &b, sizeof(Complex)) == 0;
}

inline void
expectSameMatrixBits(const Matrix& a, const Matrix& b, const std::string& at)
{
    ASSERT_EQ(a.rows(), b.rows()) << at;
    ASSERT_EQ(a.cols(), b.cols()) << at;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            EXPECT_TRUE(sameBits(a(r, c), b(r, c)))
                << at << " (" << r << "," << c << ")";
}

/** Every field a sweep reads, plus `full`, bit for bit. */
inline void
expectSameKernel(const GateKernel& a, const GateKernel& b,
                 const std::string& at)
{
    ASSERT_EQ(a.op, b.op) << at << ": " << a.className() << " vs "
                          << b.className();
    EXPECT_EQ(a.arity, b.arity) << at;
    EXPECT_EQ(a.targets, b.targets) << at;
    EXPECT_EQ(a.occupiedCount, b.occupiedCount) << at;
    EXPECT_EQ(a.ctrlMask, b.ctrlMask) << at;
    EXPECT_EQ(a.targetBits, b.targetBits) << at;
    EXPECT_EQ(a.fullBits, b.fullBits) << at;
    EXPECT_EQ(a.occupied, b.occupied) << at;
    EXPECT_TRUE(sameBits(a.scalar, b.scalar)) << at << " scalar";
    for (std::size_t l = 0; l < a.diag.size(); ++l) {
        EXPECT_TRUE(sameBits(a.diag[l], b.diag[l])) << at << " diag " << l;
        EXPECT_TRUE(sameBits(a.permW[l], b.permW[l])) << at << " permW " << l;
    }
    EXPECT_EQ(a.perm, b.perm) << at;
    expectSameMatrixBits(a.reduced, b.reduced, at + " reduced");
    expectSameMatrixBits(a.full, b.full, at + " full");
    ASSERT_EQ(a.factors.size(), b.factors.size()) << at;
    for (std::size_t f = 0; f < a.factors.size(); ++f) {
        const std::string where = at + " factor " + std::to_string(f);
        EXPECT_EQ(a.factors[f].arity, b.factors[f].arity) << where;
        EXPECT_EQ(a.factors[f].bits, b.factors[f].bits) << where;
        for (std::size_t l = 0; l < a.factors[f].diag.size(); ++l)
            EXPECT_TRUE(sameBits(a.factors[f].diag[l], b.factors[f].diag[l]))
                << where << " diag " << l;
    }
}

/**
 * `rebound` (a plan after a tryRebindPlan/tryRebindDmPlan shim) holds the
 * kernel stream of `fresh` (a new plan of the same circuit): the same
 * planned ops with the same source ops and kernel counts, and
 * bit-identical kernels.
 */
inline void
expectSamePlan(const ExecutionPlan& rebound, const ExecutionPlan& fresh)
{
    ASSERT_EQ(rebound.engine, fresh.engine);
    ASSERT_EQ(rebound.ops.size(), fresh.ops.size());
    for (std::size_t i = 0; i < fresh.ops.size(); ++i) {
        const PlannedOp& a = rebound.ops[i];
        const PlannedOp& b = fresh.ops[i];
        const std::string at = "op " + std::to_string(i);
        EXPECT_EQ(a.opIndices, b.opIndices) << at;
        EXPECT_EQ(a.isChannel, b.isChannel) << at;
        ASSERT_EQ(a.kernels.size(), b.kernels.size()) << at;
        for (std::size_t k = 0; k < b.kernels.size(); ++k)
            expectSameKernel(a.kernels[k], b.kernels[k],
                             at + " kernel " + std::to_string(k));
    }
}

} // namespace qkc::testing

#endif // QKC_TESTS_TESTING_PLAN_COMPARE_H
