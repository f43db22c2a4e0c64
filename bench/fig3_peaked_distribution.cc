/**
 * Regenerates Figure 3: the measurement distribution of a 10-qubit QAOA
 * Max-Cut circuit is sharply peaked. Prints four series over outcome rank:
 *  (a) exact measurement probability by outcome index,
 *  (b) exact probability sorted by rank,
 *  (c) empirical distribution of ideal (direct) sampling,
 *  (d) empirical distribution of Gibbs sampling on the compiled AC.
 */
#include <cstdio>

#include "ac/kc_simulator.h"
#include "bench_common.h"
#include "util/cli.h"
#include "util/stats.h"
#include "vqa/backends.h"

using namespace qkc;

int
driverMain(int argc, char** argv)
{
    Cli cli(argc, argv);
    std::size_t qubits = static_cast<std::size_t>(cli.getInt("qubits", 10));
    std::size_t samples = static_cast<std::size_t>(cli.getInt("samples", 4000));
    std::size_t topRanks = static_cast<std::size_t>(cli.getInt("ranks", 64));

    Circuit circuit = bench::qaoaCircuit(qubits, 1, 11);
    auto sv = makeBackend("sv")->open(circuit);
    Rng rng(17);
    auto exact = sv->run(Probabilities{}, rng).probabilities;
    auto idealSamples = sv->run(Sample{samples}, rng).samples;
    auto idealEmp = empiricalDistribution(idealSamples, exact.size());

    KcSimulator kc(circuit);
    Rng gibbsRng(23);
    GibbsOptions gibbsOptions;
    gibbsOptions.burnIn = 128;
    auto gibbsSamples = kc.sample(samples, gibbsRng, gibbsOptions);
    auto gibbsEmp = empiricalDistribution(gibbsSamples, exact.size());

    auto rank = rankByDescending(exact);
    bench::printHeader(
        "Figure 3: QAOA measurement distribution is sharply peaked "
        "(qubits=" + std::to_string(qubits) + ")",
        "rank\toutcome\texact_prob\tideal_sampling\tgibbs_sampling");
    for (std::size_t r = 0; r < std::min(topRanks, rank.size()); ++r) {
        std::size_t x = rank[r];
        std::printf("%zu\t%zu\t%.6f\t%.6f\t%.6f\n", r, x, exact[x],
                    idealEmp[x], gibbsEmp[x]);
    }

    // Peakedness summary: mass of the top-k outcomes.
    double top16 = 0.0, top64 = 0.0;
    for (std::size_t r = 0; r < rank.size(); ++r) {
        if (r < 16)
            top16 += exact[rank[r]];
        if (r < 64)
            top64 += exact[rank[r]];
    }
    std::printf("# outcomes=%zu top16_mass=%.4f top64_mass=%.4f\n",
                exact.size(), top16, top64);
    std::printf("# KL(exact || ideal)=%.4f KL(exact || gibbs)=%.4f\n",
                klDivergence(exact, idealEmp), klDivergence(exact, gibbsEmp));
    return 0;
}

int
main(int argc, char** argv)
{
    return bench::runDriver(argc, argv, driverMain);
}
