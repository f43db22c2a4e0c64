/**
 * vqabench — the repository benchmark binary (run.py builds and drives it).
 *
 *   vqabench --workload ideal_sv|noisy_dm|serve_mix --seed N
 *            --seconds S --trace 0|1 [--corrupt 1] [--out DIR]
 *
 * Prints a host line, then as its last stdout line one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * With --trace 0 the metrics are the end-to-end set, with --trace 1 the
 * per-layer set (and a Chrome trace is written to DIR). --corrupt zeroes
 * every output before it is checked, so the self-test can see the checks
 * fail.
 */
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"

using namespace vqabench;

namespace {

struct MetricDef {
    const char* name;
    const char* unit;
};

// Must match BENCHMARK.json (the self-test checks it). eval_p99_ms is not
// among them: a simulation run makes 10 to 40 evaluations, so its p99 is
// the slowest one, which one burst of host steal time sets. It goes to the
// host line instead, where serve_mix's (thousands of requests) is a true p99.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"eval_p50_ms", "ms"},
    {"evals_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"circuit.qasm_parse_us", "us"},
    {"circuit.fused_ops", "count"},
    {"exec.plan_ms", "ms"},
    {"exec.rebind_us", "us"},
    {"exec.rebind_ok_ratio", "ratio"},
    {"exec.sweep_gbps", "GB/s"},
    {"exec.sweep_bw_frac", "ratio"},
    {"statevector.simulate_ms", "ms"},
    {"statevector.sample_ms", "ms"},
    {"densitymatrix.plan_ms", "ms"},
    {"densitymatrix.rebind_us", "us"},
    {"densitymatrix.rebind_ok_ratio", "ratio"},
    {"densitymatrix.simulate_ms", "ms"},
    {"densitymatrix.sweep_gbps", "GB/s"},
    {"bayesnet.build_ms", "ms"},
    {"bayesnet.nodes", "count"},
    {"cnf.encode_ms", "ms"},
    {"cnf.clauses", "count"},
    {"knowledge.compile_ms", "ms"},
    {"knowledge.decisions", "count"},
    {"knowledge.cache_hit_ratio", "ratio"},
    {"ac.edges", "count"},
    {"ac.refresh_us", "us"},
    {"ac.gibbs_sweep_us", "us"},
    {"ac.gibbs_sweeps", "count"},
    {"ac.indep_move_us", "us"},
    {"ac.indep_accept_ratio", "ratio"},
    {"vqa.open_ms", "ms"},
    {"vqa.bind_us", "us"},
    {"vqa.run_ms", "ms"},
    {"vqa.plan_reuse_ratio", "ratio"},
    {"server.handle_ms", "ms"},
    {"server.transport_ms", "ms"},
    {"server.json_parse_us", "us"},
    {"server.json_dump_us", "us"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.coalesce_width_mean", "count"},
    {"server.queue_wait_p50_us", "us"},
    {"server.os_threads", "count"},
    {"host.copy_gbps", "GB/s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.coverage", "ratio"},
};

bool
parseArgs(int argc, char** argv, Args& a)
{
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        std::string value;
        const auto eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            return false;
        }
        try {
            if (key == "--workload")
                a.workload = value;
            else if (key == "--seed")
                a.seed = std::stoull(value);
            else if (key == "--seconds")
                a.seconds = std::stod(value);
            else if (key == "--trace")
                a.trace = std::stoi(value) != 0;
            else if (key == "--corrupt")
                a.corrupt = std::stoi(value) != 0;
            else if (key == "--out")
                a.outDir = value;
            else
                return false;
        } catch (const std::exception&) {
            return false;
        }
    }
    return !a.workload.empty() && a.seconds > 0.0;
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: vqabench --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--corrupt 1] [--out DIR]\n");
        return 2;
    }
    Outcome (*run)(const Args&, Tracer&) = nullptr;
    if (args.workload == "ideal_sv")
        run = runIdealSv;
    else if (args.workload == "noisy_dm")
        run = runNoisyDm;
    else if (args.workload == "serve_mix")
        run = runServeMix;
    if (!run) {
        std::fprintf(stderr, "vqabench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }

    const Host host = probeHost();
    const double stealStart = stealSeconds();
    Tracer tracer(args.trace);
    Outcome out;
    std::size_t probeBytes = 0;
    try {
        double copyGbps = 0.0;
        if (args.trace) {
            // Source and destination each at least 4x the last-level cache.
            probeBytes = std::max<std::size_t>(4 * host.llcBytes, 256u << 20);
            copyGbps = copyBandwidthGbps(probeBytes, host.nproc);
        }
        out = run(args, tracer);
        if (args.trace) {
            out.metrics["host.copy_gbps"] = copyGbps;
            const auto sweep = out.metrics.find("exec.sweep_gbps");
            if (sweep != out.metrics.end())
                out.metrics["exec.sweep_bw_frac"] = ratio(sweep->second, copyGbps);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "vqabench: %s failed: %s\n", args.workload.c_str(),
                     e.what());
        return 1;
    }
    for (const std::string& why : out.failures)
        std::fprintf(stderr, "vqabench: check failed: %s\n", why.c_str());

    const auto threadsIt = out.metrics.find("threads");
    const std::size_t threads =
        threadsIt == out.metrics.end()
            ? 1
            : static_cast<std::size_t>(threadsIt->second);
    std::string info = "{\"workload\": " + jsonString(args.workload) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"host\": " + host.json(threads) +
                       ", \"copy_probe_bytes\": " + std::to_string(probeBytes) +
                       ", \"host_steal_s\": " +
                       jsonNumber(stealSeconds() - stealStart);
    for (const char* extra :
         {"eval_count", "eval_p99_ms", "eval_slow_count", "malloc_pinned",
          "requests_hot", "requests_cold"})
        if (out.metrics.count(extra))
            info += std::string(", \"") + extra +
                    "\": " + jsonNumber(out.metrics[extra]);
    info += "}";
    std::printf("%s\n", info.c_str());

    if (args.trace) {
        std::string self = "{";
        for (const auto& [layer, sec] : selfSecondsByLayer(tracer.spans()))
            self += (self.size() > 1 ? ", " : "") + jsonString(layer) + ": " +
                    jsonNumber(sec * 1e3);
        self += "}";
        std::error_code ec;
        std::filesystem::create_directories(args.outDir, ec);
        const std::string path = args.outDir + "/trace_" + args.workload + "_" +
                                 std::to_string(args.seed) + ".json";
        if (!tracer.writeChrome(path, "{\"run\": " + info +
                                          ", \"self_ms_by_layer\": " + self +
                                          "}"))
            std::fprintf(stderr, "vqabench: could not write %s\n", path.c_str());
    }

    bool correct = out.failed == 0 && out.attempted > 0;
    std::string metrics;
    auto emit = [&](const MetricDef& d, bool required) {
        const auto it = out.metrics.find(d.name);
        const double v = it == out.metrics.end() ? 0.0 : it->second;
        if (required && (it == out.metrics.end() || !std::isfinite(v)))
            correct = false;
        metrics += (metrics.empty() ? "" : ", ") + jsonString(d.name) +
                   ": {\"value\": " + jsonNumber(v) +
                   ", \"unit\": " + jsonString(d.unit) + "}";
    };
    if (args.trace)
        for (const MetricDef& d : kPerLayer)
            emit(d, false);
    else
        for (const MetricDef& d : kEndToEnd)
            emit(d, true);

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", out.attempted, out.failed,
                metrics.c_str());
    std::fflush(stdout);
    return 0;
}
