/**
 * Regenerates Figure 8 (a-d): time to draw samples from ideal (noise-free)
 * QAOA Max-Cut and VQE Ising circuits versus qubit count, for the four
 * simulator families: state vector (qsim-style), tensor network
 * (qTorch-style), decision diagram (DDSIM-style), and knowledge compilation
 * (this paper). For KC the compile time is reported separately — it is paid
 * once per variational run and amortized over every optimizer iteration.
 *
 * The state-vector family prints four rows — the seed configuration
 * (serial, unfused), `sv+fused`, `sv+fused+tN` (shared thread pool), and
 * `sv+tN+batchB` (one Session::runBatch over B parameter bindings, fanned
 * across the pool) — so the fusion, threading and batching gains are
 * visible side by side. --threads=N controls the threaded rows (defaults
 * to the machine / QKC_THREADS); --batch=B sizes the batch row.
 *
 * Defaults are reduced (200 samples, <= 24 qubits) for a single core; use
 * --samples=1000 --max-qubits=32 to approach the paper's setting.
 */
#include <cstdio>
#include <stdexcept>
#include <string>

#include "exec/simd.h"
#include "exec/thread_pool.h"
#include "bench_common.h"
#include "obs/trace.h"
#include "util/cli.h"
#include "vqa/backends.h"

using namespace qkc;

namespace {

struct Row {
    const char* workload;
    std::size_t iterations;
    std::size_t qubits;
};

/**
 * One backend row through the session API: open() is the setup column
 * (plan / contraction planning / KC compile), the Sample task's metadata
 * is the sampling column — the same split the paper reports for KC,
 * now uniform across families.
 */
void
runBackendRow(const std::string& spec, const std::string& label,
              const Row& row, const Circuit& circuit, std::size_t samples,
              std::uint64_t seed)
{
    auto backend = makeBackend(spec);
    Rng rng(seed);
    obs::TimedSpan setup("bench.setup");
    auto session = backend->open(circuit);
    const double setupSeconds = setup.seconds();
    setup.finish();
    const Result r = session->run(Sample{samples}, rng);
    std::printf("%-6s %2zu %4zu %-20s %10.4f %10.4f\n", row.workload,
                row.iterations, row.qubits, label.c_str(), r.meta.seconds,
                setupSeconds);
    bench::JsonRow("fig8")
        .field("workload", row.workload)
        .field("p", row.iterations)
        .field("qubits", row.qubits)
        .field("backend", label)
        .field("simd", simdLevelName(activeSimdLevel()))
        .field("sample_sec", r.meta.seconds)
        .field("setup_sec", setupSeconds);
}

/**
 * The batch= row: `batch` same-structure parameter bindings of the circuit
 * (values jittered deterministically) served by ONE Session::runBatch —
 * the structure is planned once and the bindings fan out across the thread
 * pool, each from its own RNG stream. The sample_sec column is the batch
 * wall time divided by the batch size, directly comparable to the
 * per-circuit rows above it.
 */
void
runSvBatchRow(const Row& row, const Circuit& circuit, std::size_t samples,
              std::size_t threads, std::size_t batch, std::uint64_t seed)
{
    auto backend = makeBackend("statevector:threads=" +
                               std::to_string(threads) + ",fuse=1");
    Rng rng(seed);
    obs::TimedSpan setup("bench.setup");
    auto session = backend->open(circuit);
    const double setupSeconds = setup.seconds();
    setup.finish();

    const auto paramIdx = circuit.parameterizedGateIndices();
    std::vector<ParamBinding> bindings;
    bindings.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        Circuit c = circuit;
        for (std::size_t idx : paramIdx)
            c.setGateParam(idx, 0.3 + 0.05 * static_cast<double>(b + 1));
        bindings.push_back(std::move(c));
    }

    obs::TimedSpan wall("bench.batch");
    const auto results = session->runBatch(bindings, Sample{samples}, rng);
    const double perBinding = wall.seconds() / static_cast<double>(batch);
    wall.finish();
    const BatchStats& stats = results.front().meta.batch;
    const std::string label = "sv+t" + std::to_string(threads) + "+batch" +
                              std::to_string(batch);
    std::printf("%-6s %2zu %4zu %-20s %10.4f %10.4f\n", row.workload,
                row.iterations, row.qubits, label.c_str(), perBinding,
                setupSeconds);
    bench::JsonRow("fig8")
        .field("workload", row.workload)
        .field("p", row.iterations)
        .field("qubits", row.qubits)
        .field("backend", label)
        .field("simd", simdLevelName(activeSimdLevel()))
        .field("sample_sec", perBinding)
        .field("setup_sec", setupSeconds)
        .field("batch_wall_sec", stats.wallSeconds)
        .field("batch_lanes", stats.lanes)
        .field("batch_imbalance", stats.imbalance);
}

void
runRow(const Row& row, const Circuit& circuit, std::size_t samples,
       std::size_t svMax, std::size_t tnMax, std::size_t ddMax,
       std::size_t kcP2Max, std::size_t threads, std::size_t batch)
{
    if (row.qubits <= svMax) {
        // Three state-vector rows: the seed configuration (serial,
        // unfused), fusion alone, and fusion + the shared thread pool —
        // the specialized kernels are active in all three.
        runBackendRow("statevector:threads=1,fuse=0", "statevector", row,
                      circuit, samples, 1);
        runBackendRow("statevector:threads=1,fuse=1", "sv+fused", row,
                      circuit, samples, 1);
        if (threads > 1) {
            runBackendRow("statevector:threads=" + std::to_string(threads) +
                              ",fuse=1",
                          "sv+fused+t" + std::to_string(threads), row,
                          circuit, samples, 1);
        }
        if (batch > 1)
            runSvBatchRow(row, circuit, samples, threads, batch, 1);
    }

    // Diagram size tracks state structure: QAOA on expander graphs loses
    // its compactness as depth grows, so the DD row gets its own cap.
    if (row.qubits <= ddMax) {
        runBackendRow("decisiondiagram", "decisiondiagram", row, circuit,
                      samples, 4);
    }

    // The doubled-network contraction blows past the rank limit (or takes
    // hours) on expander-graph QAOA beyond ~12 qubits; deeper circuits make
    // it worse, so p >= 2 gets a tighter cap.
    std::size_t tnCap = row.iterations == 1 ? tnMax : std::min<std::size_t>(tnMax, 8);
    if (row.qubits <= tnCap) {
        try {
            runBackendRow("tensornetwork", "tensornetwork", row, circuit,
                          samples, 2);
        } catch (const std::exception& e) {
            std::printf("# tensornetwork skipped at %zu qubits: %s\n",
                        row.qubits, e.what());
        }
    }

    if (row.iterations == 1 || row.qubits <= kcP2Max)
        runBackendRow("knowledgecompilation:burnin=64",
                      "knowledgecompilation", row, circuit, samples, 3);
}

} // namespace

int
driverMain(int argc, char** argv)
{
    Cli cli(argc, argv);
    const std::size_t samples =
        static_cast<std::size_t>(cli.getInt("samples", 200));
    const std::size_t maxQubits =
        static_cast<std::size_t>(cli.getInt("max-qubits", 24));
    const std::size_t svMax =
        static_cast<std::size_t>(cli.getInt("sv-max-qubits", 22));
    const std::size_t tnMax =
        static_cast<std::size_t>(cli.getInt("tn-max-qubits", 12));
    const std::size_t ddMax =
        static_cast<std::size_t>(cli.getInt("dd-max-qubits", 16));
    const std::size_t kcP2Max =
        static_cast<std::size_t>(cli.getInt("kc-p2-max-qubits", 20));
    const std::size_t maxIterations =
        static_cast<std::size_t>(cli.getInt("max-iterations", 2));
    // Extra sv rows: fused and fused+threaded (--threads=1 drops the row).
    const std::size_t threads = static_cast<std::size_t>(
        cli.getInt("threads", static_cast<std::int64_t>(defaultThreads())));
    // Bindings per Session::runBatch for the batch= row (--batch=1 drops it).
    const std::size_t batch =
        static_cast<std::size_t>(cli.getInt("batch", 8));

    bench::printHeader(
        "Figure 8: ideal sampling time vs qubits (samples=" +
            std::to_string(samples) + ")",
        "# work   p  qub backend              sample_sec  setup_sec");

    for (std::size_t p = 1; p <= maxIterations; ++p) {
        for (std::size_t n = 4; n <= maxQubits; n += 4) {
            Row row{"qaoa", p, n};
            runRow(row, bench::qaoaCircuit(n, p, 19), samples, svMax, tnMax,
                   ddMax, kcP2Max, threads, batch);
        }
        for (std::size_t n : {4, 6, 9, 12, 16, 20}) {
            if (n > maxQubits)
                break;
            Row row{"vqe", p, n};
            runRow(row, bench::vqeCircuit(n, p, 19), samples, svMax, tnMax,
                   ddMax, kcP2Max, threads, batch);
        }
    }
    return 0;
}

int
main(int argc, char** argv)
{
    return bench::runDriver(argc, argv, driverMain);
}
