#include "vqa/driver.h"

#include <cmath>
#include <functional>
#include <stdexcept>

#include "obs/trace.h"

namespace qkc {

GradientResult
parameterShiftGradient(Session& session, const CircuitBuilder& makeCircuit,
                       const PauliSum& observable,
                       const std::vector<double>& params, Rng& rng,
                       double shift, std::size_t shots)
{
    if (params.empty())
        throw std::invalid_argument("parameterShiftGradient: no parameters");
    // Exact-zero compare would wave through shift = pi (sin ~ 1e-16) and
    // return gradients scaled by ~1e16; any |sin| this small means the two
    // shifted points coincide to machine precision.
    if (std::abs(std::sin(shift)) < 1e-12)
        throw std::invalid_argument(
            "parameterShiftGradient: sin(shift) ~ 0 (shift a multiple of "
            "pi) leaves the two-point rule undefined");

    // Batch layout: [value, p+s e_0, p-s e_0, p+s e_1, p-s e_1, ...].
    std::vector<ParamBinding> bindings;
    bindings.reserve(2 * params.size() + 1);
    bindings.push_back(makeCircuit(params));
    std::vector<double> shifted = params;
    for (std::size_t i = 0; i < params.size(); ++i) {
        shifted[i] = params[i] + shift;
        bindings.push_back(makeCircuit(shifted));
        shifted[i] = params[i] - shift;
        bindings.push_back(makeCircuit(shifted));
        shifted[i] = params[i];
    }

    const std::uint64_t t0 = obs::nowNs();
    const std::vector<Result> results =
        session.runBatch(bindings, Expectation{observable, shots}, rng);

    GradientResult out;
    out.seconds = static_cast<double>(obs::nowNs() - t0) * 1e-9;
    out.batchSize = bindings.size();
    out.value = results[0].expectation;
    out.gradient.resize(params.size());
    const double denom = 2.0 * std::sin(shift);
    for (std::size_t i = 0; i < params.size(); ++i) {
        out.gradient[i] = (results[1 + 2 * i].expectation -
                           results[2 + 2 * i].expectation) /
                          denom;
    }
    return out;
}

namespace {

/**
 * Shared loop body: builds circuits, binds them into one session, scores.
 * `observable` is the workload objective as a Pauli sum (used when
 * options.exactExpectation asks for the Expectation task); `sign` maps the
 * expectation onto the minimized objective; `score` maps raw samples.
 */
VqaResult
runLoop(std::size_t numParams,
        const std::function<Circuit(const std::vector<double>&)>& makeCircuit,
        const std::function<double(const std::vector<std::uint64_t>&)>& score,
        const PauliSum& observable, double sign, const Backend& backend,
        const VqaOptions& options)
{
    VqaResult result;
    Rng rng(options.seed);
    std::unique_ptr<Session> session;
    std::size_t evaluations = 0;
    double sampleSeconds = 0.0;

    auto objective = [&](const std::vector<double>& params) {
        Circuit c = makeCircuit(params);
        if (options.noisy)
            c = c.withNoiseAfterEachGate(options.noiseKind,
                                         options.noiseStrength);
        // One session per circuit structure: the first evaluation pays the
        // plan/compile, every later one rebinds the session (kc refreshes
        // its leaves; sv and dm plan afresh). The bind/open is backend
        // work too, so it counts toward sampleSeconds
        // alongside the task time the Result metadata reports.
        const std::uint64_t t0 = obs::nowNs();
        if (!session)
            session = backend.open(c);
        else
            session->bind(c);
        sampleSeconds += static_cast<double>(obs::nowNs() - t0) * 1e-9;
        ++evaluations;
        if (options.exactExpectation) {
            Result r = session->run(
                Expectation{observable, options.samplesPerEvaluation}, rng);
            sampleSeconds += r.meta.seconds;
            return sign * r.expectation;
        }
        Result r = session->run(Sample{options.samplesPerEvaluation}, rng);
        sampleSeconds += r.meta.seconds;
        return score(r.samples);
    };

    std::vector<double> initial(numParams);
    Rng initRng(options.seed ^ 0x5deece66dULL);
    for (double& p : initial)
        p = initRng.uniform(0.1, 1.0);

    if (options.batchedStarts > 1) {
        // Batched simplex seeding: score a population of random starts in
        // ONE Session::runBatch — the bindings fan out across the thread
        // pool — and let Nelder-Mead begin from the winner.
        std::vector<std::vector<double>> points;
        points.reserve(options.batchedStarts);
        points.push_back(initial);
        while (points.size() < options.batchedStarts) {
            std::vector<double> p(numParams);
            for (double& v : p)
                v = initRng.uniform(0.1, 1.0);
            points.push_back(std::move(p));
        }
        std::vector<ParamBinding> bindings;
        bindings.reserve(points.size());
        for (const auto& p : points) {
            Circuit c = makeCircuit(p);
            if (options.noisy)
                c = c.withNoiseAfterEachGate(options.noiseKind,
                                             options.noiseStrength);
            bindings.push_back(std::move(c));
        }
        const std::uint64_t t0 = obs::nowNs();
        if (!session)
            session = backend.open(bindings.front());
        const Task task =
            options.exactExpectation
                ? Task(Expectation{observable, options.samplesPerEvaluation})
                : Task(Sample{options.samplesPerEvaluation});
        const std::vector<Result> scored =
            session->runBatch(bindings, task, rng);
        sampleSeconds += static_cast<double>(obs::nowNs() - t0) * 1e-9;
        evaluations += scored.size();
        std::size_t best = 0;
        double bestValue = 0.0;
        for (std::size_t i = 0; i < scored.size(); ++i) {
            const double value = options.exactExpectation
                                     ? sign * scored[i].expectation
                                     : score(scored[i].samples);
            if (i == 0 || value < bestValue) {
                best = i;
                bestValue = value;
            }
        }
        initial = points[best];
    }

    NelderMeadResult nm = nelderMead(objective, initial, options.optimizer);
    result.bestParams = nm.best;
    result.bestObjective = nm.value;
    result.circuitEvaluations = evaluations;
    result.sampleSeconds = sampleSeconds;
    if (session) {
        result.planBuilds = session->planBuilds();
        result.planReuses = session->planReuses();
    }
    return result;
}

} // namespace

VqaResult
runQaoaMaxCut(const QaoaMaxCut& problem, const Backend& backend,
              const VqaOptions& options)
{
    return runLoop(
        problem.numParams(),
        [&](const std::vector<double>& p) { return problem.circuit(p); },
        [&](const std::vector<std::uint64_t>& samples) {
            return -problem.expectedCut(samples);
        },
        problem.cutObservable(), /*sign=*/-1.0, backend, options);
}

VqaResult
runVqeIsing(const VqeIsing& problem, const Backend& backend,
            const VqaOptions& options)
{
    return runLoop(
        problem.numParams(),
        [&](const std::vector<double>& p) { return problem.circuit(p); },
        [&](const std::vector<std::uint64_t>& samples) {
            return problem.expectedEnergy(samples);
        },
        problem.hamiltonian(), /*sign=*/1.0, backend, options);
}

} // namespace qkc
