/**
 * Regenerates Figure 1's qualitative claim: the optimizations (internal
 * qubit-state elision, structure-aware decision order, component caching,
 * unit resolution) shrink the arithmetic circuit compiled from a 4-qubit
 * noisy QAOA circuit, and the reduced AC is equivalent (same amplitudes).
 *
 * Also doubles as the ablation study for the design choices in DESIGN.md.
 */
#include <cstdio>

#include "ac/kc_simulator.h"
#include "bench_common.h"
#include "circuit/circuit.h"
#include "cnf/bn_to_cnf.h"
#include "knowledge/compiler.h"
#include "util/cli.h"

using namespace qkc;

namespace {

struct Config {
    const char* label;
    CompileOptions options;
    bool unitResolution;
};

void
report(const Circuit& circuit, const Config& config)
{
    obs::TimedSpan t("bench.compile");
    auto bn = circuitToBayesNet(circuit);
    Cnf cnf = bayesNetToCnf(bn, {.unitResolution = config.unitResolution});
    KnowledgeCompiler compiler(config.options);
    ArithmeticCircuit ac = compiler.compile(cnf);
    double seconds = t.seconds();
    std::printf("%-28s %8zu %9zu %9zu %10zu %9.3f\n", config.label,
                cnf.numClauses(), ac.liveNodeCount(), ac.liveEdgeCount(),
                compiler.stats().decisions, seconds);
    std::fflush(stdout);
}

} // namespace

int
driverMain(int argc, char** argv)
{
    Cli cli(argc, argv);
    std::size_t qubits = static_cast<std::size_t>(cli.getInt("qubits", 4));
    double noise = cli.getDouble("noise", 0.005);

    Circuit circuit = bench::qaoaCircuit(qubits, 1, 7)
                          .withNoiseAfterEachGate(NoiseKind::Depolarizing,
                                                  noise);
    std::printf("# Figure 1: AC minimization for a %zu-qubit noisy QAOA "
                "circuit (%zu ops)\n",
                qubits, circuit.size());
    std::printf("%-28s %8s %9s %9s %10s %9s\n", "configuration", "clauses",
                "ac_nodes", "ac_edges", "decisions", "seconds");

    // "Before": direct compilation — lexicographic (time) order, no unit
    // resolution, no internal-state elision. Component caching stays on in
    // every configuration (as in c2d); without it the direct configuration
    // is intractable even at four qubits.
    CompileOptions plain;
    plain.heuristic = DecisionHeuristic::Lexicographic;
    plain.componentCaching = true;
    plain.componentDecomposition = true;
    plain.elideInternalStates = false;

    Config before{"before (direct)", plain, false};
    report(circuit, before);

    Config unit = before;
    unit.label = "+ unit resolution";
    unit.unitResolution = true;
    report(circuit, unit);

    Config elide = unit;
    elide.label = "+ state elision";
    elide.options.elideInternalStates = true;
    report(circuit, elide);

    Config order = elide;
    order.label = "+ min-fill order (after)";
    order.options.heuristic = DecisionHeuristic::MinFill;
    report(circuit, order);

    Config dynamic = order;
    dynamic.label = "ablation: dynamic order";
    dynamic.options.heuristic = DecisionHeuristic::Dynamic;
    report(circuit, dynamic);

    // Caching / decomposition ablations run on the ideal circuit: without
    // component decomposition the noisy encoding is intractable even at
    // four qubits (which is itself the point of the optimization).
    Circuit ideal = bench::qaoaCircuit(qubits, 1, 7);
    std::printf("# ablations on the ideal %zu-qubit QAOA circuit:\n", qubits);
    for (bool cache : {true, false}) {
        for (bool decomp : {true, false}) {
            Config config = order;
            config.options.componentCaching = cache;
            config.options.componentDecomposition = decomp;
            config.label = cache ? (decomp ? "cache+decomposition"
                                           : "cache, no decomposition")
                                 : (decomp ? "no cache, decomposition"
                                           : "no cache, no decomposition");
            report(ideal, config);
        }
    }

    // Equivalence check between the two extremes: the upward-pass amplitude
    // of random (outcome, noise-assignment) pairs must agree exactly.
    KcSimulator beforeSim(circuit, plain);
    KcSimulator afterSim(circuit, order.options);
    const auto& noiseVars = beforeSim.bayesNet().noiseVars();
    Rng rng(123);
    double maxDiff = 0.0;
    for (int trial = 0; trial < 256; ++trial) {
        std::uint64_t x = rng.below(std::uint64_t{1} << qubits);
        std::vector<std::size_t> nu;
        nu.reserve(noiseVars.size());
        for (BnVarId v : noiseVars)
            nu.push_back(rng.below(
                beforeSim.bayesNet().variable(v).cardinality));
        double d = std::abs(beforeSim.amplitude(x, nu) -
                            afterSim.amplitude(x, nu));
        maxDiff = std::max(maxDiff, d);
    }
    std::printf("# equivalence: max |A_before - A_after| over 256 random "
                "path families = %.2e\n", maxDiff);
    return 0;
}

int
main(int argc, char** argv)
{
    return bench::runDriver(argc, argv, driverMain);
}
