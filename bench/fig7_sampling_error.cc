/**
 * Regenerates Figure 7: KL divergence of Gibbs sampling versus ideal
 * (direct) sampling as a function of sample count, for (a) a noise-free
 * QAOA circuit and (b) a noisy QAOA circuit with 0.5% symmetric
 * depolarizing after each gate. Both estimators converge; Gibbs trails
 * slightly due to MCMC warmup and mixing.
 *
 * Default sizes are reduced from the paper's (16q / 8q) to fit a single
 * core; pass --ideal-qubits=16 --noisy-qubits=8 for the full setting.
 */
#include <cstdio>

#include "ac/kc_simulator.h"
#include "bench_common.h"
#include "util/cli.h"
#include "util/stats.h"
#include "vqa/backends.h"

using namespace qkc;

namespace {

void
sweepSeries(const char* label, const std::vector<double>& exact,
            const std::vector<std::uint64_t>& ideal,
            const std::vector<std::uint64_t>& gibbs)
{
    for (std::size_t count = 1; count <= ideal.size(); count *= 4) {
        std::vector<std::uint64_t> idealHead(ideal.begin(),
                                             ideal.begin() + count);
        std::vector<std::uint64_t> gibbsHead(gibbs.begin(),
                                             gibbs.begin() + count);
        std::printf("%s\t%zu\t%.5f\t%.5f\n", label, count,
                    klDivergence(exact,
                                 empiricalDistribution(idealHead,
                                                       exact.size())),
                    klDivergence(exact,
                                 empiricalDistribution(gibbsHead,
                                                       exact.size())));
        std::fflush(stdout);
    }
}

} // namespace

int
driverMain(int argc, char** argv)
{
    Cli cli(argc, argv);
    std::size_t idealQubits =
        static_cast<std::size_t>(cli.getInt("ideal-qubits", 12));
    std::size_t noisyQubits =
        static_cast<std::size_t>(cli.getInt("noisy-qubits", 6));
    std::size_t samples =
        static_cast<std::size_t>(cli.getInt("samples", 16384));
    std::size_t noisySamples =
        static_cast<std::size_t>(cli.getInt("noisy-samples", 4096));

    bench::printHeader("Figure 7: sampling error vs number of samples",
                       "series\tsamples\tkl_ideal\tkl_gibbs");

    {
        Circuit circuit = bench::qaoaCircuit(idealQubits, 1, 13);
        auto sv = makeBackend("sv")->open(circuit);
        Rng idealRng(31);
        auto exact = sv->run(Probabilities{}, idealRng).probabilities;
        auto ideal = sv->run(Sample{samples}, idealRng).samples;
        KcSimulator kc(circuit);
        Rng gibbsRng(37);
        GibbsOptions options;
        options.burnIn = 128;
        auto gibbs = kc.sample(samples, gibbsRng, options);
        sweepSeries("ideal_qaoa", exact, ideal, gibbs);
    }

    {
        Circuit circuit =
            bench::qaoaCircuit(noisyQubits, 1, 13)
                .withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.005);
        auto dm = makeBackend("dm")->open(circuit);
        Rng idealRng(41);
        auto exact = dm->run(Probabilities{}, idealRng).probabilities;
        auto ideal = dm->run(Sample{noisySamples}, idealRng).samples;
        KcSimulator kc(circuit);
        Rng gibbsRng(43);
        GibbsOptions options;
        options.burnIn = 128;
        auto gibbs = kc.sample(noisySamples, gibbsRng, options);
        sweepSeries("noisy_qaoa", exact, ideal, gibbs);
    }
    return 0;
}

int
main(int argc, char** argv)
{
    return bench::runDriver(argc, argv, driverMain);
}
