#include "densitymatrix/densitymatrix_simulator.h"

#include "obs/trace.h"

#include <stdexcept>

namespace qkc {

namespace {

/**
 * The source-op lists of the dm plan's ops, in execution order. A
 * multi-qubit op is its own; with `merge`, each wire's maximal run of
 * one-qubit ops is one, placed just before the multi-qubit op that ends
 * it (runs still open at the end follow in wire order). Without it every
 * op is its own.
 */
std::vector<std::vector<std::size_t>>
wireRuns(const Circuit& circuit, bool merge)
{
    const auto& ops = circuit.operations();
    std::vector<std::vector<std::size_t>> out;
    std::vector<std::vector<std::size_t>> open(circuit.numQubits());
    const auto close = [&](std::size_t q) {
        if (!open[q].empty()) {
            out.push_back(std::move(open[q]));
            open[q].clear();
        }
    };
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto& qubits = operandsOf(ops[i]);
        if (merge && qubits.size() == 1) {
            open[qubits[0]].push_back(i);
            continue;
        }
        for (std::size_t q : qubits)
            close(q);
        out.push_back({i});
    }
    for (std::size_t q = 0; q < open.size(); ++q)
        close(q);
    return out;
}

} // namespace

DmExecutionPlan
planCircuitDm(const Circuit& circuit, const ExecPolicy& policy)
{
    QKC_SPAN("exec.planDm");
    DmExecutionPlan plan =
        preparePlan(circuit, policy, PlanEngine::DensityMatrix);
    const auto& ops = plan.circuit.operations();
    for (auto& run : wireRuns(plan.circuit, policy.fuseGates)) {
        PlannedOp op;
        for (std::size_t i : run)
            op.isChannel =
                op.isChannel || std::holds_alternative<NoiseChannel>(ops[i]);
        op.kernels = DensityMatrix::compileRun(plan.circuit, run);
        op.opIndices = std::move(run);
        plan.ops.push_back(std::move(op));
    }
    return plan;
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
    if (!rebindPlanCircuit(plan, circuit, PlanEngine::DensityMatrix))
        return false;
    for (PlannedOp& op : plan.ops)
        if (!DensityMatrix::tryRefreshRun(op.kernels, plan.circuit,
                                          op.opIndices))
            return false;
    return true;
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
