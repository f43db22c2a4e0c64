#include "densitymatrix/densitymatrix_simulator.h"

#include "obs/trace.h"

#include <stdexcept>

namespace qkc {

namespace {

/** One dm planned op's source ops; `diagonal` marks a diagonal run. */
struct DmUnit {
    std::vector<std::size_t> ops;
    bool diagonal = false;
};

/**
 * The dm plan's ops in execution order, from the plan's lowering units
 * (preparePlan, exec/execution_plan.h). A multi-qubit op or a diagonal
 * run is its own; with `merge`, each wire's maximal run of one-qubit ops
 * is one, placed just before the op that ends it (runs still open at the
 * end follow in wire order). Without it every op is its own.
 */
std::vector<DmUnit>
wireRuns(const DmExecutionPlan& plan, const std::vector<OpSpan>& units,
         bool merge)
{
    const auto& ops = plan.circuit.operations();
    std::vector<DmUnit> out;
    out.reserve(units.size());
    std::vector<std::vector<std::size_t>> open(plan.numQubits);
    const auto close = [&](std::size_t q) {
        if (!open[q].empty()) {
            out.push_back({std::move(open[q]), false});
            open[q].clear();
        }
    };
    for (const OpSpan& unit : units) {
        const bool diagonal = unit.end - unit.begin > 1;
        const auto& wires = operandsOf(ops[unit.begin]);
        if (merge && !diagonal && wires.size() == 1) {
            open[wires[0]].push_back(unit.begin);
            continue;
        }
        DmUnit next{{}, diagonal};
        next.ops.reserve(unit.end - unit.begin);
        for (std::size_t i = unit.begin; i < unit.end; ++i) {
            for (std::size_t q : operandsOf(ops[i]))
                close(q);
            next.ops.push_back(i);
        }
        out.push_back(std::move(next));
    }
    for (std::size_t q = 0; q < open.size(); ++q)
        close(q);
    return out;
}

/**
 * Lowers `op` from its source ops in plan.circuit: sets its dm kernels, one
 * DiagRun kernel for a diagonal run and DensityMatrix::compileRun's for any
 * other op.
 */
void
lowerDmOp(const DmExecutionPlan& plan, PlannedOp& op, bool diagonal)
{
    if (!diagonal) {
        op.kernels = DensityMatrix::compileRun(plan.circuit, op.opIndices);
        return;
    }
    op.kernels.clear();
    op.kernels.push_back(compileDiagRun(
        DensityMatrix::diagRunFactors(plan.circuit, op.opIndices)));
}

} // namespace

DmExecutionPlan
planCircuitDm(const Circuit& circuit, const ExecPolicy& policy)
{
    QKC_SPAN("exec.planDm");
    std::vector<OpSpan> units;
    DmExecutionPlan plan =
        preparePlan(circuit, policy, PlanEngine::DensityMatrix, units);
    const auto& ops = plan.circuit.operations();
    std::vector<DmUnit> runs = wireRuns(plan, units, policy.fuseGates);
    plan.ops.reserve(runs.size());
    for (DmUnit& unit : runs) {
        PlannedOp op;
        for (std::size_t i : unit.ops)
            op.isChannel =
                op.isChannel || std::holds_alternative<NoiseChannel>(ops[i]);
        op.opIndices = std::move(unit.ops);
        lowerDmOp(plan, op, unit.diagonal);
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
    ExecPolicy policy;
    policy.fuseGates = plan.fusionEnabled;
    plan = planCircuitDm(circuit, policy);
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
