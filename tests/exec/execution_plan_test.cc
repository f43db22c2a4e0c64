/**
 * The dense execution plan's structural contracts: the compiled kernel
 * stream does not depend on the thread count, the benchmark's PathOptions
 * forwarders return the two-argument plans unchanged, and neither engine
 * runs a plan the other engine lowered.
 */
#include "exec/execution_plan.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "densitymatrix/densitymatrix_simulator.h"
#include "statevector/statevector_simulator.h"

namespace qkc {
namespace {

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

TEST(ExecutionPlanTest, KernelStreamIsThreadCountInvariant)
{
    const Circuit c = frozenPrefixCircuit(0.4);
    ExecPolicy one;
    one.threads = 1;
    ExecPolicy four;
    four.threads = 4;
    expectSameKernelStream(planCircuit(c, one), planCircuit(c, four));
}

TEST(ExecutionPlanTest, PathOptionsForwardersReturnThePlainPlans)
{
    Circuit c = frozenPrefixCircuit(0.3);
    c.append(NoiseChannel::depolarizing(1, 0.05));
    ExecPolicy policy;
    const ExecutionPlan plain = planCircuit(c, policy);
    const ExecutionPlan forwarded = planCircuit(c, policy, PathOptions{});
    expectSameKernelStream(plain, forwarded);
    EXPECT_EQ(plain.ops.size(), forwarded.ops.size());

    const DmExecutionPlan dmPlain = planCircuitDm(c, policy);
    const DmExecutionPlan dmForwarded =
        planCircuitDm(c, policy, PathOptions{});
    ASSERT_EQ(dmPlain.ops.size(), dmForwarded.ops.size());
    EXPECT_EQ(dmPlain.circuit.size(), dmForwarded.circuit.size());
}

TEST(ExecutionPlanTest, EachEngineLowersItsOwnKernels)
{
    Circuit c(2);
    c.h(0).cnot(0, 1);
    c.append(NoiseChannel::depolarizing(1, 0.05));
    ExecPolicy policy;
    const ExecutionPlan sv = planCircuit(c, policy);
    const DmExecutionPlan dm = planCircuitDm(c, policy);
    ASSERT_EQ(sv.ops.size(), 2u); // one fused gate, one channel
    ASSERT_EQ(dm.ops.size(), 2u);
    EXPECT_EQ(sv.ops[0].kernels.size(), 1u);
    EXPECT_EQ(dm.ops[0].kernels.size(), 2u); // row, then column kernel
    EXPECT_EQ(sv.ops[1].kernels.size(), 4u); // one per Kraus operator
    EXPECT_EQ(dm.ops[1].kernels.size(), 1u); // the Liouville kernel
}

TEST(ExecutionPlanTest, DensityMatrixSimulatorRefusesStateVectorPlan)
{
    const Circuit c = frozenPrefixCircuit(0.3);
    ExecPolicy policy;
    ExecutionPlan plan = planCircuit(c, policy);
    const DensityMatrixSimulator sim(policy);
    EXPECT_THROW(sim.simulatePlanned(plan), std::invalid_argument);
}

TEST(ExecutionPlanTest, StateVectorSimulatorRefusesDensityMatrixPlan)
{
    const Circuit c = frozenPrefixCircuit(0.3);
    ExecPolicy policy;
    DmExecutionPlan plan = planCircuitDm(c, policy);
    const StateVectorSimulator sim(policy);
    EXPECT_THROW(sim.simulatePlanned(plan), std::invalid_argument);
    Rng rng(5);
    EXPECT_THROW(sim.sampleNoisyPlanned(plan, 4, rng), std::invalid_argument);
}

} // namespace
} // namespace qkc
