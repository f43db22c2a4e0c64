#ifndef QKC_BENCH_BENCH_COMMON_H
#define QKC_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "obs/trace.h"
#include "server/json.h"
#include "util/rng.h"
#include "vqa/workloads.h"

namespace qkc::bench {

/**
 * Workload builders shared by the figure/table harnesses. Instances are
 * deterministic per (size, seed) so runs are reproducible and the same
 * random graph is fed to every backend.
 */

/** QAOA Max-Cut circuit on a random 3-regular graph (paper Figures 8a/c). */
inline Circuit
qaoaCircuit(std::size_t qubits, std::size_t iterations, std::uint64_t seed,
            QaoaMaxCut* problemOut = nullptr)
{
    Rng rng(seed);
    auto problem = QaoaMaxCut::randomRegular(qubits, 3, iterations, rng);
    std::vector<double> params;
    for (std::size_t i = 0; i < problem.numParams(); ++i)
        params.push_back(i % 2 == 0 ? -0.55 : 0.35);  // near-optimal p=1 angles
    if (problemOut)
        *problemOut = problem;
    return problem.circuit(params);
}

/** VQE 2D-Ising circuit on an approximately square grid (Figures 8b/d). */
inline Circuit
vqeCircuit(std::size_t qubits, std::size_t iterations, std::uint64_t seed,
           VqeIsing* problemOut = nullptr)
{
    // Factor `qubits` into the most square rows x cols grid.
    std::size_t rows = 1;
    for (std::size_t r = 1; r * r <= qubits; ++r)
        if (qubits % r == 0)
            rows = r;
    std::size_t cols = qubits / rows;
    Rng rng(seed);
    VqeIsing problem(rows, cols, iterations, rng);
    std::vector<double> params;
    for (std::size_t i = 0; i < problem.numParams(); ++i)
        params.push_back(i % 2 == 0 ? -0.45 : 0.3);
    if (problemOut)
        *problemOut = problem;
    return problem.circuit(params);
}

/** Prints a table header comment. */
inline void
printHeader(const std::string& title, const std::string& columns)
{
    std::printf("# %s\n", title.c_str());
    std::printf("%s\n", columns.c_str());
}

/**
 * One machine-readable line per bench row, printed alongside the human
 * table row: `{"bench":"fig8","workload":"qaoa",...}`. JSON lines are the
 * only stdout lines starting with '{' (table rows start with a letter,
 * headers with '#'), so `grep '^{' > BENCH_fig8.json` recovers the series
 * for trend tracking. Serialized by the server's JSON codec: fields keep
 * insertion order, strings are escaped and a non-finite number (a
 * degenerate ratio) is written as null. The destructor emits the line, so
 * a chained temporary prints at the end of its statement.
 */
class JsonRow {
  public:
    explicit JsonRow(const char* bench) { row_.set("bench", bench); }

    ~JsonRow()
    {
        std::printf("%s\n", row_.dump().c_str());
        std::fflush(stdout);
    }

    JsonRow(const JsonRow&) = delete;
    JsonRow& operator=(const JsonRow&) = delete;

    JsonRow& field(const char* key, server::Json v)
    {
        row_.set(key, std::move(v));
        return *this;
    }

  private:
    server::Json row_ = server::Json::object();
};

/**
 * A driver's main: runs `body` and reports what it throws the way qkc_cli
 * does, as `<driver>: <what>` on stderr with exit status 2 (a bad size
 * such as an odd --noisy-qubits for a 3-regular QAOA graph). The driver is
 * named by argv[0]'s basename.
 */
inline int
runDriver(int argc, char** argv, int (*body)(int, char**))
{
    try {
        return body(argc, argv);
    } catch (const std::exception& e) {
        const char* name = argc > 0 ? argv[0] : "bench";
        if (const char* slash = std::strrchr(name, '/'))
            name = slash + 1;
        std::fprintf(stderr, "%s: %s\n", name, e.what());
        return 2;
    }
}

} // namespace qkc::bench

#endif // QKC_BENCH_BENCH_COMMON_H
