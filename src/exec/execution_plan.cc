#include "exec/execution_plan.h"

#include "obs/trace.h"

namespace qkc {

namespace {

std::vector<std::uint32_t>
svBits(const std::vector<std::size_t>& qubits, std::size_t numQubits)
{
    std::vector<std::uint32_t> bits;
    bits.reserve(qubits.size());
    for (std::size_t q : qubits)
        bits.push_back(static_cast<std::uint32_t>(numQubits - 1 - q));
    return bits;
}

/** State-vector lowering: one kernel per gate, one per Kraus operator. */
std::vector<GateKernel>
compileSvOp(const Operation& op, std::size_t numQubits)
{
    std::vector<GateKernel> kernels;
    if (const Gate* g = std::get_if<Gate>(&op)) {
        kernels.push_back(
            compileKernel(g->unitary(), svBits(g->qubits(), numQubits)));
        return kernels;
    }
    const auto& ch = std::get<NoiseChannel>(op);
    const auto bits = svBits(ch.qubits(), numQubits);
    kernels.reserve(ch.krausOperators().size());
    for (const Matrix& e : ch.krausOperators())
        kernels.push_back(compileKernel(e, bits));
    return kernels;
}

bool
refreshSvOp(std::vector<GateKernel>& kernels, const Operation& op)
{
    if (const Gate* g = std::get_if<Gate>(&op))
        return kernels.size() == 1 &&
               tryRefreshKernel(kernels[0], g->unitary());
    const auto& kraus = std::get<NoiseChannel>(op).krausOperators();
    if (kraus.size() != kernels.size())
        return false;
    for (std::size_t k = 0; k < kernels.size(); ++k)
        if (!tryRefreshKernel(kernels[k], kraus[k]))
            return false;
    return true;
}

} // namespace

ExecutionPlan
preparePlan(const Circuit& circuit, const ExecPolicy& policy,
            PlanEngine engine)
{
    ExecutionPlan plan;
    plan.engine = engine;
    plan.numQubits = circuit.numQubits();
    plan.fusionEnabled = policy.fuseGates;
    if (policy.fuseGates) {
        plan.recipe = planFusion(circuit);
        plan.circuit = *materializeFusion(plan.recipe, circuit, &plan.fusion);
    } else {
        plan.circuit = circuit;
    }
    return plan;
}

bool
rebindPlanCircuit(ExecutionPlan& plan, const Circuit& circuit,
                  PlanEngine engine)
{
    // On any failure the caller re-plans from scratch, so a partially
    // refreshed plan is never executed.
    if (plan.engine != engine || circuit.numQubits() != plan.numQubits)
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
    return true;
}

ExecutionPlan
planCircuit(const Circuit& circuit, const ExecPolicy& policy)
{
    QKC_SPAN("exec.plan");
    ExecutionPlan plan =
        preparePlan(circuit, policy, PlanEngine::StateVector);
    const auto& ops = plan.circuit.operations();
    plan.ops.reserve(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        plan.ops.push_back({{i}, std::holds_alternative<NoiseChannel>(ops[i]),
                            compileSvOp(ops[i], plan.numQubits)});
    return plan;
}

ExecutionPlan
planCircuit(const Circuit& circuit, const ExecPolicy& policy,
            const PathOptions&)
{
    return planCircuit(circuit, policy);
}

std::uint64_t
structureHash(const Circuit& circuit)
{
    // FNV-1a over the sameStructure fields, in the order that function
    // visits them; any edit there must be mirrored here (and vice versa) or
    // the cache-key invariant in the header comment breaks.
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    mix(circuit.numQubits());
    mix(circuit.size());
    for (const Operation& op : circuit.operations()) {
        mix(op.index());
        if (const Gate* g = std::get_if<Gate>(&op)) {
            mix(static_cast<std::uint64_t>(g->kind()));
            mix(g->qubits().size());
            for (std::size_t q : g->qubits())
                mix(q);
        } else {
            const auto& ch = std::get<NoiseChannel>(op);
            mix(ch.qubits().size());
            for (std::size_t q : ch.qubits())
                mix(q);
            mix(ch.krausOperators().size());
        }
    }
    return h;
}

bool
sameStructure(const Circuit& a, const Circuit& b)
{
    if (a.numQubits() != b.numQubits() || a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const Operation& oa = a.operations()[i];
        const Operation& ob = b.operations()[i];
        if (oa.index() != ob.index())
            return false;
        if (const Gate* ga = std::get_if<Gate>(&oa)) {
            const Gate& gb = std::get<Gate>(ob);
            if (ga->kind() != gb.kind() || ga->qubits() != gb.qubits())
                return false;
        } else {
            const auto& ca = std::get<NoiseChannel>(oa);
            const auto& cb = std::get<NoiseChannel>(ob);
            if (ca.qubits() != cb.qubits() ||
                ca.krausOperators().size() != cb.krausOperators().size())
                return false;
        }
    }
    return true;
}

bool
tryRebindPlan(ExecutionPlan& plan, const Circuit& circuit)
{
    if (!rebindPlanCircuit(plan, circuit, PlanEngine::StateVector))
        return false;
    for (PlannedOp& op : plan.ops) {
        const Operation& o = plan.circuit.operations()[op.opIndices[0]];
        if (std::holds_alternative<NoiseChannel>(o) != op.isChannel ||
            !refreshSvOp(op.kernels, o))
            return false;
    }
    return true;
}

} // namespace qkc
