#include "densitymatrix/densitymatrix_simulator.h"

#include "obs/trace.h"

#include <stdexcept>

#include "circuit/fusion.h"
#include "exec/execution_plan.h"
#include "statevector/statevector_simulator.h"

namespace qkc {

namespace {

void
compileDmOps(DmExecutionPlan& plan)
{
    const auto& ops = plan.circuit.operations();
    plan.ops.clear();
    plan.ops.reserve(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        DmPlannedOp p;
        p.opIndex = i;
        if (const Gate* g = std::get_if<Gate>(&ops[i])) {
            p.gate = DensityMatrix::compileSuperKernel(g->unitary(),
                                                       g->qubits(),
                                                       plan.numQubits);
        } else {
            const auto& ch = std::get<NoiseChannel>(ops[i]);
            p.isChannel = true;
            p.channel = DensityMatrix::compileChannelKernel(
                ch.krausOperators(), ch.qubits(), plan.numQubits);
        }
        plan.ops.push_back(std::move(p));
    }
}

} // namespace

DmExecutionPlan
planCircuitDm(const Circuit& circuit, const ExecPolicy& policy)
{
    QKC_SPAN("exec.planDm");
    DmExecutionPlan plan;
    plan.numQubits = circuit.numQubits();
    plan.fusionEnabled = policy.fuseGates;
    if (policy.fuseGates) {
        plan.recipe = planFusion(circuit, {});
        plan.circuit = *materializeFusion(plan.recipe, circuit, &plan.fusion);
    } else {
        plan.circuit = circuit;
    }
    compileDmOps(plan);
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
    // On any failure the caller re-plans from scratch, so a partially
    // refreshed plan is never executed.
    if (circuit.numQubits() != plan.numQubits)
        return false;

    if (plan.fusionEnabled) {
        // materializeFusion validates indices, kinds and wires itself.
        auto fused = materializeFusion(plan.recipe, circuit, &plan.fusion);
        if (!fused || fused->size() != plan.circuit.size())
            return false;
        plan.circuit = std::move(*fused);
    } else {
        if (!sameStructure(plan.circuit, circuit))
            return false;
        plan.circuit = circuit;
    }

    for (DmPlannedOp& op : plan.ops) {
        const Operation& o = plan.circuit.operations()[op.opIndex];
        if (op.isChannel) {
            const auto* ch = std::get_if<NoiseChannel>(&o);
            if (!ch || !DensityMatrix::tryRefreshChannelKernel(
                           op.channel, ch->krausOperators()))
                return false;
        } else {
            const Gate* g = std::get_if<Gate>(&o);
            if (!g || !DensityMatrix::tryRefreshSuperKernel(op.gate,
                                                            g->unitary()))
                return false;
        }
    }
    return true;
}

DensityMatrix
DensityMatrixSimulator::simulate(const Circuit& circuit) const
{
    return simulatePlanned(planCircuitDm(circuit, policy_));
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
    if (rho.numQubits() != plan.numQubits)
        throw std::invalid_argument(
            "simulatePlanned: density matrix / plan qubit count mismatch");
    rho.reset();
    rho.setExecPolicy(policy_);
    for (const auto& op : plan.ops) {
        if (op.isChannel)
            rho.applyChannelKernel(op.channel);
        else
            rho.applySuper(op.gate);
    }
}

std::vector<double>
DensityMatrixSimulator::distribution(const Circuit& circuit) const
{
    return simulate(circuit).diagonalProbabilities();
}

std::vector<std::uint64_t>
DensityMatrixSimulator::sample(const Circuit& circuit, std::size_t numSamples,
                               Rng& rng) const
{
    auto probs = distribution(circuit);
    return StateVectorSimulator::sampleFromDistribution(probs, numSamples, rng);
}

} // namespace qkc
