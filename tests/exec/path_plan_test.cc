/**
 * The dense plans' path-option forwarders: an inactive planner (auto or
 * linear) yields exactly the two-argument plan, an active one is refused —
 * simulation paths are a decision-diagram feature. Also pins the plain
 * plan's thread-count invariance and its structure-change refusal.
 */
#include "exec/execution_plan.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "circuit/simulation_path.h"
#include "densitymatrix/densitymatrix_simulator.h"

namespace qkc {
namespace {

PathOptions
pathOf(const char* spec)
{
    PathOptions o;
    EXPECT_TRUE(parsePathPlanner(spec, &o));
    return o;
}

/** Fixed H/CNOT prefix feeding a parameterized Rz suffix. */
Circuit
frozenPrefixCircuit(double theta)
{
    Circuit c(3);
    c.h(0).h(1).h(2).cnot(0, 1).cnot(1, 2);
    c.rz(0, theta).rz(1, theta + 0.1).rz(2, theta + 0.2);
    return c;
}

void
expectSameKernelStream(const ExecutionPlan& a, const ExecutionPlan& b)
{
    ASSERT_EQ(a.circuit.size(), b.circuit.size());
    for (std::size_t i = 0; i < a.circuit.size(); ++i) {
        const auto& oa = a.circuit.operations()[i];
        const auto& ob = b.circuit.operations()[i];
        ASSERT_EQ(oa.index(), ob.index()) << "op " << i;
        const auto* ga = std::get_if<Gate>(&oa);
        if (!ga)
            continue;
        const auto* gb = std::get_if<Gate>(&ob);
        ASSERT_EQ(ga->qubits(), gb->qubits()) << "op " << i;
        const Matrix ma = ga->unitary();
        const Matrix mb = gb->unitary();
        ASSERT_EQ(ma.rows(), mb.rows());
        for (std::size_t r = 0; r < ma.rows(); ++r)
            for (std::size_t col = 0; col < ma.cols(); ++col)
                EXPECT_EQ(ma(r, col), mb(r, col)) << "op " << i;
    }
}

TEST(PathPlanTest, LinearOverloadEqualsClassicPlan)
{
    const Circuit c = frozenPrefixCircuit(0.3);
    ExecPolicy policy;
    const ExecutionPlan classic = planCircuit(c, policy);
    const ExecutionPlan linear = planCircuit(c, policy, pathOf("linear"));
    expectSameKernelStream(classic, linear);
    ASSERT_EQ(classic.ops.size(), linear.ops.size());

    EXPECT_THROW(planCircuit(c, policy, pathOf("pairwise")),
                 std::invalid_argument);
    EXPECT_THROW(planCircuitDm(c, policy, pathOf("pairwise")),
                 std::invalid_argument);
}

TEST(PathPlanTest, AutoResolvesToLinear)
{
    const Circuit c = frozenPrefixCircuit(0.3);
    ExecPolicy policy;
    expectSameKernelStream(planCircuit(c, policy),
                           planCircuit(c, policy, PathOptions{}));
    EXPECT_EQ(planCircuitDm(c, policy).ops.size(),
              planCircuitDm(c, policy, PathOptions{}).ops.size());
}

TEST(PathPlanTest, KernelStreamIsThreadCountInvariant)
{
    const Circuit c = frozenPrefixCircuit(0.4);
    ExecPolicy one;
    one.threads = 1;
    ExecPolicy four;
    four.threads = 4;
    expectSameKernelStream(planCircuit(c, one), planCircuit(c, four));
}

TEST(PathPlanTest, RebindRefusesStructureChange)
{
    ExecPolicy policy;
    ExecutionPlan plan = planCircuit(frozenPrefixCircuit(0.3), policy);
    ASSERT_TRUE(tryRebindPlan(plan, frozenPrefixCircuit(0.9)));

    Circuit other(3);
    other.h(0).h(1).h(2).cnot(0, 1).cnot(1, 2);
    other.rx(0, 0.3).rz(1, 0.4).rz(2, 0.5); // rz -> rx at one position
    EXPECT_FALSE(tryRebindPlan(plan, other));
}

} // namespace
} // namespace qkc
