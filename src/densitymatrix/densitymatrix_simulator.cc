#include "densitymatrix/densitymatrix_simulator.h"

#include "obs/trace.h"

#include <stdexcept>

namespace qkc {

namespace {

constexpr OpLowering kDmLowering{PlanEngine::DensityMatrix,
                                 DensityMatrix::compileOp,
                                 DensityMatrix::tryRefreshOp};

} // namespace

DmExecutionPlan
planCircuitDm(const Circuit& circuit, const ExecPolicy& policy)
{
    QKC_SPAN("exec.planDm");
    return buildPlan(circuit, policy, kDmLowering);
}

DmExecutionPlan
planCircuitDm(const Circuit& circuit, const ExecPolicy& policy,
              const PathOptions&)
{
    return planCircuitDm(circuit, policy);
}

bool
tryRebindDmPlan(DmExecutionPlan& plan, const Circuit& circuit)
{
    return rebindPlan(plan, circuit, kDmLowering);
}

DensityMatrix
DensityMatrixSimulator::simulatePlanned(const DmExecutionPlan& plan) const
{
    DensityMatrix rho(plan.numQubits);
    simulatePlanned(plan, rho);
    return rho;
}

void
DensityMatrixSimulator::simulatePlanned(const DmExecutionPlan& plan,
                                        DensityMatrix& rho) const
{
    if (plan.engine != PlanEngine::DensityMatrix)
        throw std::invalid_argument(
            "simulatePlanned: the plan was not lowered for a density "
            "matrix; use planCircuitDm");
    if (rho.numQubits() != plan.numQubits)
        throw std::invalid_argument(
            "simulatePlanned: density matrix / plan qubit count mismatch");
    rho.reset();
    rho.setExecPolicy(policy_);
    for (const PlannedOp& op : plan.ops)
        for (const GateKernel& k : op.kernels)
            rho.apply(k);
}

} // namespace qkc
