/**
 * Tour of the canonical noise models (paper Table 1): applies each channel
 * to a GHZ state and reports how the measurement distribution degrades,
 * cross-checking the knowledge-compilation simulator against the exact
 * density-matrix simulator for every channel type.
 *
 * Usage: noise_models [--qubits=3] [--strength=0.2]
 */
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "ac/kc_simulator.h"
#include "algorithms/algorithms.h"
#include "util/cli.h"
#include "vqa/backends.h"

using namespace qkc;

int
main(int argc, char** argv)
try {
    Cli cli(argc, argv);
    std::size_t n = static_cast<std::size_t>(cli.getInt("qubits", 3));
    double strength = cli.getDouble("strength", 0.2);

    struct Entry {
        std::string label;
        NoiseChannel channel;
    };
    std::vector<Entry> channels{
        {"bit flip (Pauli-X mixture)", NoiseChannel::bitFlip(1, strength)},
        {"phase flip (Pauli-Z mixture)", NoiseChannel::phaseFlip(1, strength)},
        {"symmetric depolarizing", NoiseChannel::depolarizing(1, strength)},
        {"asymmetric depolarizing",
         NoiseChannel::asymmetricDepolarizing(1, strength / 2, strength / 3,
                                              strength / 4)},
        {"amplitude damping (T1)", NoiseChannel::amplitudeDamping(1, strength)},
        {"phase damping (T2)", NoiseChannel::phaseDamping(1, strength)},
        {"generalized amplitude damping",
         NoiseChannel::generalizedAmplitudeDamping(1, strength, 0.7)},
    };

    std::printf("GHZ-%zu with one mid-circuit channel of strength %.2f\n", n,
                strength);
    std::printf("%-32s %-9s %8s %8s %10s %10s\n", "channel", "kind", "P(0..0)",
                "P(1..1)", "leak_mass", "kc_vs_dm");

    for (const auto& entry : channels) {
        // Entangle first, then hit qubit 1 with the channel so that every
        // noise type has something to act on, then finish the GHZ ladder.
        Circuit c(n);
        c.h(0);
        c.cnot(0, 1);
        c.append(entry.channel);
        for (std::size_t q = 2; q < n; ++q)
            c.cnot(q - 1, q);

        KcSimulator kc(c);
        Rng rng(0); // Probabilities draws nothing
        auto exact =
            makeBackend("dm")->open(c)->run(Probabilities{}, rng).probabilities;
        auto kcDist = kc.outcomeDistribution();

        double maxDiff = 0.0;
        double leak = 0.0;
        for (std::size_t x = 0; x < exact.size(); ++x) {
            maxDiff = std::max(maxDiff, std::abs(exact[x] - kcDist[x]));
            if (x != 0 && x != exact.size() - 1)
                leak += exact[x];
        }
        std::printf("%-32s %-9s %8.4f %8.4f %10.4f %10.2e\n",
                    entry.label.c_str(),
                    entry.channel.isMixture() ? "mixture" : "channel",
                    kcDist.front(), kcDist.back(), leak, maxDiff);
    }
    std::printf("\n'leak_mass' is probability escaping the GHZ support; "
                "'kc_vs_dm' is the max deviation between the two exact "
                "simulators (should be ~1e-16).\n");
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "noise_models: %s\n", e.what());
    return 2;
}
