/**
 * Error diagnosis with the Section 5 research-direction queries:
 *
 *  1. MPE — "what error event best explains a given symptomatic observed
 *     outcome": observe corrupted GHZ readouts and ask the compiled AC
 *     which noise events most probably fired.
 *  2. Sensitivity analysis — rank the circuit's weight parameters by their
 *     influence on a target amplitude (the paper's suggested use: map the
 *     most influential operations onto the most reliable hardware qubits).
 *
 * Usage: error_diagnosis [--qubits=4] [--flip=0.08]
 */
#include <cstdio>
#include <exception>

#include "ac/queries.h"
#include "algorithms/algorithms.h"
#include "util/cli.h"

using namespace qkc;

int
main(int argc, char** argv)
try {
    Cli cli(argc, argv);
    std::size_t n = static_cast<std::size_t>(cli.getInt("qubits", 4));
    double flip = cli.getDouble("flip", 0.08);

    // GHZ ladder with a bit-flip channel after every gate.
    Circuit c = ghzCircuit(n).withNoiseAfterEachGate(NoiseKind::BitFlip, flip);
    KcSimulator kc(c);
    const auto& bn = kc.bayesNet();
    std::printf("GHZ-%zu with %zu bit-flip channels (p=%.2f each)\n\n", n,
                bn.noiseVars().size(), flip);

    // Diagnose a few symptomatic outcomes.
    Rng rng(1);
    std::vector<std::uint64_t> observations{
        (std::uint64_t{1} << n) - 1,       // clean |1...1>
        (std::uint64_t{1} << n) - 2,       // last qubit flipped
        (std::uint64_t{1} << (n - 1)) - 1, // first qubit flipped
    };
    for (std::uint64_t obs : observations) {
        auto mpe = mostProbableExplanation(kc, obs, rng);
        std::printf("observed %s -> most probable explanation (%s): ",
                    basisKet(obs, n).c_str(),
                    mpe.exact ? "exact" : "annealed");
        bool any = false;
        for (std::size_t i = 0; i < mpe.noiseAssignment.size(); ++i) {
            if (mpe.noiseAssignment[i] != 0) {
                std::printf("%s fired; ",
                            bn.variable(bn.noiseVars()[i]).name.c_str());
                any = true;
            }
        }
        if (!any)
            std::printf("no noise event");
        std::printf(" (mass %.4f)\n", mpe.mass);
    }

    // Sensitivity of the ideal outcome amplitude to each weight parameter.
    std::printf("\ntop-5 parameters by influence on A(|1...1>, no noise):\n");
    std::vector<std::size_t> noNoise(bn.noiseVars().size(), 0);
    kc.amplitude((std::uint64_t{1} << n) - 1, noNoise);
    auto sens = parameterSensitivities(kc);
    for (std::size_t i = 0; i < std::min<std::size_t>(5, sens.size()); ++i) {
        std::printf("  param %3d  value %+.4f%+.4fi  dA/dw %+.4f%+.4fi  "
                    "influence %.4f\n",
                    sens[i].paramId, sens[i].value.real(),
                    sens[i].value.imag(), sens[i].derivative.real(),
                    sens[i].derivative.imag(), sens[i].influence);
    }
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error_diagnosis: %s\n", e.what());
    return 2;
}
