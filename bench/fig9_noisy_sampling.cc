/**
 * Regenerates Figure 9 (a-d): time to draw samples from noisy QAOA / VQE
 * circuits (0.5% symmetric depolarizing after every gate) versus qubit
 * count, comparing the Cirq-style density-matrix baseline and the
 * DDSIM-style decision-diagram trajectory sampler against knowledge
 * compilation. The density matrix pays 4^n storage and matrix-matrix
 * updates; DD trajectories pay one diagram rebuild per sample; the
 * compiled AC pays its (noise-enlarged) circuit size, which is why KC
 * breaks even at fewer qubits than the ideal case.
 *
 * Defaults reduced for one core; --samples=1000 --max-qubits=12 approaches
 * the paper's setting.
 */
#include <cstdio>

#include "bench_common.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"
#include "util/cli.h"
#include "vqa/backends.h"

using namespace qkc;

namespace {

/** One backend row via the session API (setup column = open time). */
void
runBackendRow(const std::string& spec, const std::string& label,
              const char* workload, std::size_t p, std::size_t qubits,
              const Circuit& noisy, std::size_t samples, std::uint64_t seed)
{
    auto backend = makeBackend(spec);
    Rng rng(seed);
    obs::TimedSpan setup("bench.setup");
    auto session = backend->open(noisy);
    const double setupSeconds = setup.seconds();
    setup.finish();
    const Result r = session->run(Sample{samples}, rng);
    std::printf("%-6s %2zu %4zu %-20s %10.4f %10.4f\n", workload, p, qubits,
                label.c_str(), r.meta.seconds, setupSeconds);
    bench::JsonRow("fig9")
        .field("workload", workload)
        .field("p", p)
        .field("qubits", qubits)
        .field("backend", label)
        .field("sample_sec", r.meta.seconds)
        .field("setup_sec", setupSeconds);
}

void
runRow(const char* workload, std::size_t p, std::size_t qubits,
       const Circuit& noisy, std::size_t samples, std::size_t dmMax,
       std::size_t ddMax, std::size_t svMax, std::size_t threads)
{
    if (qubits <= dmMax) {
        runBackendRow("densitymatrix:threads=1", "densitymatrix", workload,
                      p, qubits, noisy, samples, 1);
        if (threads > 1)
            runBackendRow("densitymatrix:threads=" + std::to_string(threads),
                          "dm+t" + std::to_string(threads), workload, p,
                          qubits, noisy, samples, 1);
    }

    // Trajectory cost model: one full re-simulation per sample, but the
    // trajectories are independent — the threaded row parallelizes them.
    if (qubits <= svMax) {
        runBackendRow("statevector:threads=1", "sv-traj", workload, p,
                      qubits, noisy, samples, 5);
        if (threads > 1)
            runBackendRow("statevector:threads=" + std::to_string(threads),
                          "sv-traj+t" + std::to_string(threads), workload, p,
                          qubits, noisy, samples, 5);
    }

    // Trajectory cost is one diagram rebuild per sample, and deep/noisy QAOA
    // diagrams lose their compactness — cap the row like the others.
    if (qubits <= ddMax)
        runBackendRow("decisiondiagram", "decisiondiagram", workload, p,
                      qubits, noisy, samples, 3);

    runBackendRow("knowledgecompilation:burnin=32", "knowledgecompilation",
                  workload, p, qubits, noisy, samples, 2);
}

} // namespace

int
driverMain(int argc, char** argv)
{
    Cli cli(argc, argv);
    const std::size_t samples =
        static_cast<std::size_t>(cli.getInt("samples", 100));
    const std::size_t maxQubits =
        static_cast<std::size_t>(cli.getInt("max-qubits", 10));
    const std::size_t dmMax =
        static_cast<std::size_t>(cli.getInt("dm-max-qubits", 10));
    const std::size_t ddMax =
        static_cast<std::size_t>(cli.getInt("dd-max-qubits", 12));
    const std::size_t maxIterations =
        static_cast<std::size_t>(cli.getInt("max-iterations", 2));
    const std::size_t svMax =
        static_cast<std::size_t>(cli.getInt("sv-max-qubits", 12));
    const std::size_t threads = static_cast<std::size_t>(
        cli.getInt("threads", static_cast<std::int64_t>(defaultThreads())));
    const double noise = cli.getDouble("noise", 0.005);

    bench::printHeader(
        "Figure 9: noisy sampling time vs qubits (samples=" +
            std::to_string(samples) + ", depolarizing=" +
            std::to_string(noise) + ")",
        "# work   p  qub backend              sample_sec  setup_sec");

    for (std::size_t p = 1; p <= maxIterations; ++p) {
        for (std::size_t n = 4; n <= maxQubits; n += 2) {
            Circuit noisy = bench::qaoaCircuit(n, p, 19).withNoiseAfterEachGate(
                NoiseKind::Depolarizing, noise);
            runRow("qaoa", p, n, noisy, samples, dmMax, ddMax, svMax, threads);
        }
        for (std::size_t n : {4, 6, 9}) {
            if (n > maxQubits)
                break;
            Circuit noisy = bench::vqeCircuit(n, p, 19).withNoiseAfterEachGate(
                NoiseKind::Depolarizing, noise);
            runRow("vqe", p, n, noisy, samples, dmMax, ddMax, svMax, threads);
        }
    }
    return 0;
}

int
main(int argc, char** argv)
{
    return bench::runDriver(argc, argv, driverMain);
}
