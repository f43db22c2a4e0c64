/**
 * VQE for the minimum-energy configuration of a random-coupling 2D Ising
 * model, run against a comma-separated list of registry backends on the
 * NOISY circuit (0.5% depolarizing after every gate), mirroring the
 * paper's Figure 9 workload.
 *
 * Usage: vqe_ising [--rows=2] [--cols=3] [--iterations=1] [--samples=192]
 *                  [--backends=kc,dm]   (any makeBackend names, e.g. dd)
 *                  [--exact]            (score with the Expectation task:
 *                                        exact on dm/kc, trajectory-sampled
 *                                        on sv/dd)
 */
#include <cstdio>
#include <sstream>

#include "obs/trace.h"
#include "util/cli.h"
#include "vqa/driver.h"

using namespace qkc;

int
main(int argc, char** argv)
{
    Cli cli(argc, argv);
    std::size_t rows = static_cast<std::size_t>(cli.getInt("rows", 2));
    std::size_t cols = static_cast<std::size_t>(cli.getInt("cols", 3));
    std::size_t p = static_cast<std::size_t>(cli.getInt("iterations", 1));
    std::size_t samples = static_cast<std::size_t>(cli.getInt("samples", 192));

    Rng modelRng(5);
    VqeIsing problem(rows, cols, p, modelRng);
    std::printf("2D Ising model on a %zux%zu grid (%zu couplings), "
                "VQE ansatz depth %zu\n",
                rows, cols, problem.grid().numEdges(), p);
    std::printf("exact ground state energy: %.4f\n\n",
                problem.groundStateEnergy());

    VqaOptions options;
    options.samplesPerEvaluation = samples;
    options.optimizer.maxIterations = 25;
    options.seed = 13;
    options.noisy = true;
    options.noiseKind = NoiseKind::Depolarizing;
    options.noiseStrength = 0.005;
    options.exactExpectation = cli.has("exact");

    std::istringstream names(cli.getString("backends", "kc,dm"));
    std::string name;
    while (std::getline(names, name, ',')) {
        if (name.empty())
            continue;
        auto backend = makeBackend(name);
        const obs::TimedSpan t("example.vqe");
        VqaResult r = runVqeIsing(problem, *backend, options);
        std::printf("[%-20s] best energy %.4f in %.2fs (%zu evaluations, "
                    "%.2fs in backend, compiled %zux, rebound %zux)\n",
                    backend->name().c_str(), r.bestObjective, t.seconds(),
                    r.circuitEvaluations, r.sampleSeconds, r.planBuilds,
                    r.planReuses);
    }
    return 0;
}
