#include "exec/execution_plan.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

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

/** The diagonal factors of the gates at `unit`, on their sv bits. */
std::vector<DiagFactor>
svDiagFactors(const Circuit& circuit, const std::vector<std::size_t>& unit)
{
    const std::size_t n = circuit.numQubits();
    std::vector<DiagFactor> factors;
    factors.reserve(unit.size());
    for (std::size_t i : unit) {
        const Gate& g = std::get<Gate>(circuit.operations()[i]);
        factors.push_back(diagFactorOf(g, svBits(g.qubits(), n)));
    }
    return factors;
}

/** Lowers `op` from its source ops in plan.circuit: sets its sv kernels. */
void
lowerSvOp(const ExecutionPlan& plan, PlannedOp& op)
{
    if (op.opIndices.size() == 1) {
        op.kernels = compileSvOp(plan.circuit.operations()[op.opIndices[0]],
                                 plan.numQubits);
        return;
    }
    op.kernels.clear();
    op.kernels.push_back(
        compileDiagRun(svDiagFactors(plan.circuit, op.opIndices)));
}

} // namespace

ExecutionPlan
preparePlan(const Circuit& circuit, const ExecPolicy& policy,
            PlanEngine engine, std::vector<OpSpan>& units)
{
    ExecutionPlan plan;
    plan.engine = engine;
    plan.numQubits = circuit.numQubits();
    plan.fusionEnabled = policy.fuseGates;
    std::vector<OpSpan> runs;
    if (policy.fuseGates)
        plan.circuit = fuseGates(circuit, &plan.fusion, &runs);
    else
        plan.circuit = circuit;
    units.reserve(plan.circuit.size());
    std::size_t i = 0;
    for (const OpSpan& run : runs) {
        for (; i < run.begin; ++i)
            units.push_back({i, i + 1});
        units.push_back(run);
        i = run.end;
    }
    for (; i < plan.circuit.size(); ++i)
        units.push_back({i, i + 1});
    return plan;
}

DiagFactor
diagFactorOf(const Gate& gate, const std::vector<std::uint32_t>& bits)
{
    if (!gate.isDiagonal() || bits.size() != gate.arity())
        throw std::invalid_argument("diagFactorOf: not a diagonal gate");
    const Matrix u = gate.unitary();
    DiagFactor f;
    f.arity = static_cast<std::uint8_t>(bits.size());
    for (std::size_t b = 0; b < bits.size(); ++b)
        f.bits[b] = bits[b];
    for (std::size_t l = 0; l < u.rows(); ++l)
        f.diag[l] = u(l, l);
    return f;
}

ExecutionPlan
planCircuit(const Circuit& circuit, const ExecPolicy& policy)
{
    QKC_SPAN("exec.plan");
    std::vector<OpSpan> units;
    ExecutionPlan plan =
        preparePlan(circuit, policy, PlanEngine::StateVector, units);
    const auto& ops = plan.circuit.operations();
    plan.ops.reserve(units.size());
    for (const OpSpan& unit : units) {
        PlannedOp op;
        op.isChannel = unit.end - unit.begin == 1 &&
                       std::holds_alternative<NoiseChannel>(ops[unit.begin]);
        op.opIndices.resize(unit.end - unit.begin);
        std::iota(op.opIndices.begin(), op.opIndices.end(), unit.begin);
        lowerSvOp(plan, op);
        plan.ops.push_back(std::move(op));
    }
    return plan;
}

ExecutionPlan
planCircuit(const Circuit& circuit, const ExecPolicy& policy,
            const PathOptions&)
{
    return planCircuit(circuit, policy);
}

namespace {

/**
 * The structural fields of one op, in a fixed order: the variant index,
 * then a gate's kind and wires, or a channel's wires and Kraus count.
 * sameStructure compares these and structureHash digests them, so the two
 * cannot drift apart. Fills `out` and returns the field count, at most
 * six (a gate has at most three wires).
 */
std::size_t
structureFields(const Operation& op, std::uint64_t (&out)[8])
{
    std::size_t n = 0;
    out[n++] = op.index();
    const Gate* g = std::get_if<Gate>(&op);
    if (g)
        out[n++] = static_cast<std::uint64_t>(g->kind());
    const auto& wires = operandsOf(op);
    out[n++] = wires.size();
    for (std::size_t q : wires)
        out[n++] = q;
    if (!g)
        out[n++] = std::get<NoiseChannel>(op).krausOperators().size();
    return n;
}

} // namespace

std::uint64_t
structureHash(const Circuit& circuit)
{
    // FNV-1a over the qubit count, the op count and every op's
    // structureFields.
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    mix(circuit.numQubits());
    mix(circuit.size());
    std::uint64_t fields[8];
    for (const Operation& op : circuit.operations()) {
        const std::size_t n = structureFields(op, fields);
        for (std::size_t i = 0; i < n; ++i)
            mix(fields[i]);
    }
    return h;
}

bool
sameStructure(const Circuit& a, const Circuit& b)
{
    if (a.numQubits() != b.numQubits() || a.size() != b.size())
        return false;
    std::uint64_t fa[8], fb[8];
    for (std::size_t i = 0; i < a.size(); ++i) {
        const std::size_t n = structureFields(a.operations()[i], fa);
        if (structureFields(b.operations()[i], fb) != n ||
            !std::equal(fa, fa + n, fb))
            return false;
    }
    return true;
}

bool
tryRebindPlan(ExecutionPlan& plan, const Circuit& circuit)
{
    ExecPolicy policy;
    policy.fuseGates = plan.fusionEnabled;
    plan = planCircuit(circuit, policy);
    return true;
}

} // namespace qkc
