/**
 * QAOA Max-Cut end to end: a random 3-regular graph, the hybrid
 * quantum-classical loop with Nelder-Mead, and one backend session that
 * compiles the circuit structure once and only rebinds parameter leaves on
 * every optimizer iteration — the paper's headline use case, now served by
 * every backend through the task API.
 *
 * Usage: qaoa_maxcut [--vertices=10] [--iterations=1] [--samples=256]
 *                    [--backend=kc]   (any makeBackend spec, e.g. dd,
 *                                      sv:threads=8)
 *                    [--exact]        (score with the exact Expectation
 *                                      task instead of shot estimates)
 *                    [--starts=K]     (score K random starting points in
 *                                      one batched sweep first)
 *                    [--gradient]     (after optimizing, evaluate the
 *                                      shift-rule gradient at the optimum
 *                                      twice — sequential bind/run loop vs
 *                                      one Session::runBatch — and report
 *                                      the batch speedup)
 *                    [--trace=FILE]   (record every span of the run and
 *                                      write Chrome trace-event JSON:
 *                                      chrome://tracing / Perfetto)
 *                    [--profile]      (run one Sample and one Expectation
 *                                      task at the optimum and print their
 *                                      ResultMeta.profile phase reports)
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cli.h"
#include "vqa/driver.h"

using namespace qkc;

int
main(int argc, char** argv)
{
    Cli cli(argc, argv);
    std::size_t vertices = static_cast<std::size_t>(cli.getInt("vertices", 10));
    std::size_t p = static_cast<std::size_t>(cli.getInt("iterations", 1));
    std::size_t samples = static_cast<std::size_t>(cli.getInt("samples", 256));

    Rng graphRng(7);
    auto problem = QaoaMaxCut::randomRegular(vertices, 3, p, graphRng);
    std::printf("Max-Cut on a random 3-regular graph: %zu vertices, "
                "%zu edges, QAOA p=%zu\n",
                problem.numQubits(), problem.graph().numEdges(), p);

    std::size_t optimal = maxCutBruteForce(problem.graph());
    std::printf("brute-force max cut: %zu\n\n", optimal);

    VqaOptions options;
    options.samplesPerEvaluation = samples;
    options.optimizer.maxIterations = 40;
    options.seed = 11;
    options.exactExpectation = cli.has("exact");
    options.batchedStarts = static_cast<std::size_t>(cli.getInt("starts", 0));

    auto backend = makeBackend(cli.getString("backend", "kc"));

    const std::string tracePath = cli.getString("trace", "");
    if (!tracePath.empty())
        obs::TraceRecorder::instance().start();

    obs::TimedSpan t("example.optimize");
    VqaResult result = runQaoaMaxCut(problem, *backend, options);
    double seconds = t.seconds();

    std::printf("optimizer finished in %.2fs with the %s backend "
                "(%zu circuit evaluations, %.2fs inside the backend)\n",
                seconds, backend->name().c_str(), result.circuitEvaluations,
                result.sampleSeconds);
    std::printf("structure compiled %zu time(s), parameters rebound %zu "
                "time(s) — every non-first evaluation reused the plan\n",
                result.planBuilds, result.planReuses);
    std::printf("best expected cut: %.3f / %zu (ratio %.3f)\n",
                -result.bestObjective, optimal,
                -result.bestObjective / static_cast<double>(optimal));
    std::printf("best parameters:");
    for (double v : result.bestParams)
        std::printf(" %.3f", v);
    std::printf("\n");

    if (cli.has("profile")) {
        // One Sample and one Expectation task at the optimum, each carrying
        // its own ResultMeta.profile: the phase times are the run's
        // top-level spans and must sum to ~meta.seconds.
        auto session = backend->open(problem.circuit(result.bestParams));
        Rng profileRng(5);
        const Result sampled = session->run(Sample{samples}, profileRng);
        std::printf("\n--- profile: Sample{%zu} at the optimum "
                    "(meta.seconds %.6f) ---\n",
                    samples, sampled.meta.seconds);
        obs::writeProfileReport(std::cout, sampled.meta.profile);
        const Result expected = session->run(
            Expectation{problem.cutObservable(), samples}, profileRng);
        std::printf("--- profile: Expectation at the optimum "
                    "(meta.seconds %.6f) ---\n",
                    expected.meta.seconds);
        obs::writeProfileReport(std::cout, expected.meta.profile);
        std::printf("--- process metrics ---\n");
        obs::writeMetricsReport(std::cout,
                                obs::MetricsRegistry::instance().snapshot());
    }

    if (cli.has("gradient")) {
        // Shift-rule gradient of the exact expected cut at the optimum —
        // 2*numParams + 1 expectation evaluations — computed twice: a
        // sequential bind/run loop over one session, then a single batched
        // Session::runBatch that fans the same bindings across the thread
        // pool. The values must agree exactly; only the wall time differs.
        const PauliSum observable = problem.cutObservable();
        auto makeCircuit = [&](const std::vector<double>& p) {
            return problem.circuit(p);
        };
        const double shift = 1e-4; // gammas feed every edge: FD mode

        auto sequential = [&](Session& session) {
            std::vector<double> grad(result.bestParams.size());
            Rng gradRng(99);
            std::vector<double> p = result.bestParams;
            const obs::TimedSpan t("example.sequentialGradient");
            for (std::size_t i = 0; i < p.size(); ++i) {
                p[i] = result.bestParams[i] + shift;
                session.bind(makeCircuit(p));
                const double plus =
                    session.run(Expectation{observable, samples}, gradRng)
                        .expectation;
                p[i] = result.bestParams[i] - shift;
                session.bind(makeCircuit(p));
                const double minus =
                    session.run(Expectation{observable, samples}, gradRng)
                        .expectation;
                p[i] = result.bestParams[i];
                grad[i] = (plus - minus) / (2.0 * std::sin(shift));
            }
            std::printf("  sequential bind/run loop: %.3fs\n", t.seconds());
            return grad;
        };

        std::printf("\nparameter-shift gradient at the optimum "
                    "(%zu evaluations):\n",
                    2 * result.bestParams.size() + 1);
        auto seqSession = backend->open(makeCircuit(result.bestParams));
        obs::TimedSpan seqTimer("example.sequential");
        const std::vector<double> seqGrad = sequential(*seqSession);
        const double seqSeconds = seqTimer.seconds();

        auto batchSession = backend->open(makeCircuit(result.bestParams));
        Rng gradRng(99);
        const GradientResult g =
            parameterShiftGradient(*batchSession, makeCircuit, observable,
                                   result.bestParams, gradRng, shift,
                                   samples);
        std::printf("  one runBatch of %zu bindings: %.3fs (%.1fx)\n",
                    g.batchSize, g.seconds, seqSeconds / g.seconds);
        double maxDiff = 0.0;
        for (std::size_t i = 0; i < g.gradient.size(); ++i)
            maxDiff = std::max(maxDiff,
                               std::abs(g.gradient[i] - seqGrad[i]));
        std::printf("  max |batched - sequential| component: %.3g\n",
                    maxDiff);
        std::printf("  gradient:");
        for (double v : g.gradient)
            std::printf(" %.4f", v);
        std::printf("\n");
    }

    if (!tracePath.empty()) {
        auto& recorder = obs::TraceRecorder::instance();
        recorder.stop();
        std::ofstream out(tracePath);
        recorder.writeChromeJson(out);
        std::printf("\ntrace written to %s (%zu spans)\n", tracePath.c_str(),
                    recorder.drain().size());
    }
    return 0;
}
