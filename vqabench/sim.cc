/**
 * The simulation workloads: ideal_sv and noisy_dm. Each is a closed loop
 * over one open Session — bind fresh QAOA angles, run one Sample task,
 * check it (untimed), repeat — the way an optimizer waits on its objective.
 * In trace mode every other evaluation is traced and is followed by a
 * mirror of the session's work made of direct calls into the layers (plan
 * rebind, kernel sweep, sampling); noisy_dm's traced run also drives the kc
 * path (compile pipeline, AC refresh, Gibbs sweeps) on the same bindings.
 */
#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include <malloc.h>

#include "ac/gibbs_sampler.h"
#include "ac/kc_simulator.h"
#include "bayesnet/bayes_net.h"
#include "bench.h"
#include "cnf/bn_to_cnf.h"
#include "densitymatrix/densitymatrix_simulator.h"
#include "exec/execution_plan.h"
#include "knowledge/compiler.h"
#include "statevector/statevector_simulator.h"
#include "vqa/backends.h"
#include "vqa/workloads.h"

namespace vqabench {

using namespace qkc;

namespace {

constexpr double kNoise = 0.005; ///< depolarizing after every gate (fig9)

unsigned
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Seeded angles in a band around the QAOA optimum (gamma_k < 0, beta_k > 0),
 * like an optimizer's steps near its working point. The band is narrow
 * because kc's Gibbs cost varies with the angles; a wide band would make a
 * run's median depend on which angles its seed drew.
 */
std::vector<double>
qaoaAngles(Rng& rng, std::size_t layers)
{
    std::vector<double> params;
    for (std::size_t k = 0; k < layers; ++k) {
        params.push_back(rng.uniform(-0.65, -0.45));
        params.push_back(rng.uniform(0.25, 0.40));
    }
    return params;
}

/** The session's exact expected cut for its current binding: tr(rho H). */
double
exactCut(Session& session, const QaoaMaxCut& problem)
{
    Rng unused(0);
    return session.run(Expectation{problem.cutObservable()}, unused)
        .expectation;
}

/**
 * Untimed check of the mean cut over `samples` against the exact one: within
 * 6 standard errors, where the standard error is the samples' own standard
 * deviation times sqrt(tau / shots), with `tau` the allowance for correlated
 * samples (1 for independent ones). All-equal samples have no spread, so
 * they pass only if their cut is the exact mean.
 */
void
checkCut(const QaoaMaxCut& problem, const std::vector<std::uint64_t>& samples,
         double exact, double tau, Outcome& out)
{
    constexpr double zMax = 6.0;
    const double n = static_cast<double>(samples.size());
    double sum = 0.0;
    double sumSq = 0.0;
    for (const std::uint64_t s : samples) {
        const double cut = static_cast<double>(problem.cutOfOutcome(s));
        sum += cut;
        sumSq += cut * cut;
    }
    const double mean = sum / n;
    const double var = std::max(sumSq / n - mean * mean, 0.0) * n / (n - 1.0);
    const double se = std::sqrt(var * tau / n);
    if (!(std::abs(mean - exact) <= zMax * se + 1e-9))
        out.fail("mean cut " + std::to_string(mean) + " vs exact " +
                 std::to_string(exact) + " (se " + std::to_string(se) + ")");
}

/** What a simulation workload plugs into the shared closed loop. */
struct SimWorkload {
    std::function<std::unique_ptr<Session>()> open;
    std::function<Circuit(Rng&)> binding;
    std::size_t shots = 0;
    /** Verifies one evaluation's result; untimed. */
    std::function<void(Session&, const Result&, Outcome&)> check;
    /** Trace mode: direct layer calls mirroring one evaluation. */
    std::function<void(const Circuit&, Tracer&, Rng&)> mirror;
    /**
     * Trace mode, optional: other layers on the session's current binding,
     * checked against the session.
     */
    std::function<void(Session&, const Circuit&, Tracer&, Rng&, Outcome&)>
        probe;
};

/**
 * Shared set-up and evaluation loop. Opening a session runs at one of two
 * speeds about 1.6x apart, set by host and heap state that lasts for
 * hundreds of milliseconds, so the median of one stretch of opens lands on
 * either. Set-up is therefore timed in small batches spread over the run,
 * one before the measured phase, one after each evaluation (untimed) and
 * one at the end; setup_s is the mean of the batch medians. One untimed
 * warm-up evaluation follows the first batch. The measured phase runs until
 * its evaluations add up to `seconds`.
 */
Outcome
runLoop(const Args& args, Tracer& tracer, const SimWorkload& w)
{
    constexpr std::size_t kOpensPerBatch = 50;
    Outcome out;
    Tracer off(false);

    std::vector<double> batchMedians;
    auto openBatch = [&] {
        std::unique_ptr<Session> session;
        std::vector<double> times;
        for (std::size_t n = 0; n < kOpensPerBatch; ++n) {
            session.reset();
            const double t0 = now();
            {
                Scope span(tracer, "vqa.open");
                session = w.open();
            }
            times.push_back(now() - t0);
        }
        batchMedians.push_back(median(times));
        return session;
    };
    const std::unique_ptr<Session> session = openBatch();

    Rng bindRng(args.seed * 0x9e3779b97f4a7c15ULL + 1);
    Rng runRng(args.seed + 17);
    Rng mirrorRng(args.seed + 29);
    session->bind(w.binding(bindRng));
    session->run(Sample{w.shots}, runRng);
    const std::size_t reusesBefore = session->planReuses();
    const std::size_t buildsBefore = session->planBuilds();

    std::vector<double> plain;
    std::vector<double> traced;
    double measured = 0.0;
    Result last;
    for (std::size_t i = 0;
         measured < args.seconds || plain.size() + traced.size() < 3; ++i) {
        const Circuit c = w.binding(bindRng);
        const bool tracedEval = tracer.enabled() && i % 2 == 1;
        Tracer& t = tracedEval ? tracer : off;
        const double t0 = now();
        {
            Scope eval(t, "eval");
            {
                Scope s(t, "vqa.bind");
                session->bind(c);
            }
            Scope s(t, "vqa.run");
            last = session->run(Sample{w.shots}, runRng);
        }
        const double dt = now() - t0;
        measured += dt;
        (tracedEval ? traced : plain).push_back(dt);

        ++out.attempted;
        if (args.corrupt)
            std::fill(last.samples.begin(), last.samples.end(), 0);
        if (last.samples.size() != w.shots)
            out.fail("sample count " + std::to_string(last.samples.size()));
        else
            w.check(*session, last, out);

        if (tracedEval) {
            {
                Scope mirror(tracer, "layers");
                w.mirror(c, tracer, mirrorRng);
            }
            if (w.probe) {
                Scope probe(tracer, "probe");
                w.probe(*session, c, tracer, mirrorRng, out);
            }
        }
        openBatch();
    }
    const double reuses =
        static_cast<double>(session->planReuses() - reusesBefore);
    const double builds =
        static_cast<double>(session->planBuilds() - buildsBefore);

    openBatch();

    std::vector<double> all = plain;
    all.insert(all.end(), traced.begin(), traced.end());
    out.metrics["setup_s"] =
        std::accumulate(batchMedians.begin(), batchMedians.end(), 0.0) /
        static_cast<double>(batchMedians.size());
    out.metrics["eval_p50_ms"] = median(plain) * 1e3;
    out.metrics["eval_p99_ms"] = percentile(all, 0.99) * 1e3;
    // Evaluations of the same work can switch speed (host steal time,
    // allocator paths), so count those well off the median.
    const double slow = 1.5 * median(plain);
    out.metrics["eval_slow_count"] = static_cast<double>(
        std::count_if(all.begin(), all.end(),
                      [&](double dt) { return dt > slow; }));
    out.metrics["evals_per_s"] = static_cast<double>(all.size()) / measured;
    out.metrics["peak_rss_mb"] = peakRssMb();
    out.metrics["eval_count"] = static_cast<double>(all.size());
    out.metrics["vqa.plan_reuse_ratio"] = ratio(reuses, reuses + builds);

    if (tracer.enabled()) {
        const std::vector<Span> spans = tracer.spans();
        out.metrics["vqa.open_ms"] = median(durations(spans, "vqa.open")) * 1e3;
        out.metrics["vqa.bind_us"] = median(durations(spans, "vqa.bind")) * 1e6;
        out.metrics["vqa.run_ms"] = median(durations(spans, "vqa.run")) * 1e3;
        addTraceMetrics(out, spans, plain, traced);
    }
    return out;
}

/** Computed bytes of a dense sweep: read + write of every entry per op. */
double
sweepBytes(std::size_t ops, std::size_t entries)
{
    return static_cast<double>(ops) * 2.0 * 16.0 *
           static_cast<double>(entries);
}

/** Times planning `reps` times; keeps the last plan. */
template <class Plan, class F>
Plan
timedPlans(Tracer& tracer, const char* name, int reps, F&& plan)
{
    Plan p = plan();
    for (int r = 0; r < reps; ++r) {
        Scope s(tracer, name);
        p = plan();
    }
    return p;
}

} // namespace

// ---------------------------------------------------------------------------
// ideal_sv: QAOA p=2 Max-Cut, 24 qubits, sv with threads = nproc
// ---------------------------------------------------------------------------

Outcome
runIdealSv(const Args& args, Tracer& tracer)
{
    constexpr std::size_t kQubits = 24;
    constexpr std::size_t kLayers = 2;
    constexpr std::size_t kShots = 1000;
    const unsigned threads = hostThreads();

    Rng graphRng(args.seed);
    const QaoaMaxCut problem =
        QaoaMaxCut::randomRegular(kQubits, 3, kLayers, graphRng);
    Rng firstRng(args.seed + 3);
    const Circuit first = problem.circuit(qaoaAngles(firstRng, kLayers));

    BackendOptions options;
    options.threads = threads;
    const StateVectorBackend backend;

    ExecPolicy policy;
    policy.threads = threads;
    const StateVectorSimulator sim(policy);
    ExecutionPlan plan{};
    std::size_t rebinds = 0;
    std::size_t rebindsOk = 0;
    std::vector<double> gbps;
    if (tracer.enabled())
        plan = timedPlans<ExecutionPlan>(tracer, "exec.plan", 5, [&] {
            return planCircuit(first, policy, PathOptions{});
        });

    SimWorkload w;
    w.shots = kShots;
    w.open = [&] { return backend.open(first, options); };
    w.binding = [&](Rng& rng) {
        return problem.circuit(qaoaAngles(rng, kLayers));
    };
    w.check = [&](Session& session, const Result& r, Outcome& out) {
        // The exact mean from the outcome distribution. Expectation{
        // cutObservable()} gives the same value, but reads all 2^24 entries
        // once per term (37 terms), about 10 s per check.
        Rng unused(0);
        const double exact = problem.expectedCutExact(
            session.run(Probabilities{}, unused).probabilities);
        checkCut(problem, r.samples, exact, 1.0, out);
    };
    w.mirror = [&](const Circuit& c, Tracer& t, Rng& rng) {
        bool ok;
        {
            Scope s(t, "exec.rebind");
            ok = tryRebindPlan(plan, c);
        }
        ++rebinds;
        rebindsOk += ok;
        if (!ok) {
            Scope s(t, "exec.plan");
            plan = planCircuit(c, policy, PathOptions{});
        }
        const double t0 = now();
        StateVector psi = [&] {
            Scope s(t, "statevector.simulate");
            return sim.simulatePlanned(plan);
        }();
        gbps.push_back(sweepBytes(plan.ops.size(), psi.dimension()) /
                       (now() - t0) / 1e9);
        Scope s(t, "statevector.sample");
        const std::vector<double> probs = psi.probabilities();
        StateVectorSimulator::sampleFromDistribution(probs, kShots, rng);
    };

    Outcome out = runLoop(args, tracer, w);
    out.metrics["threads"] = threads;
    if (tracer.enabled()) {
        const std::vector<Span> spans = tracer.spans();
        out.metrics["circuit.fused_ops"] =
            static_cast<double>(plan.fusion.gatesOut);
        out.metrics["exec.plan_ms"] =
            median(durations(spans, "exec.plan")) * 1e3;
        out.metrics["exec.rebind_us"] =
            median(durations(spans, "exec.rebind")) * 1e6;
        out.metrics["exec.rebind_ok_ratio"] =
            ratio(static_cast<double>(rebindsOk), static_cast<double>(rebinds));
        out.metrics["exec.sweep_gbps"] = median(gbps);
        out.metrics["statevector.simulate_ms"] =
            median(durations(spans, "statevector.simulate")) * 1e3;
        out.metrics["statevector.sample_ms"] =
            median(durations(spans, "statevector.sample")) * 1e3;
    }
    return out;
}

// ---------------------------------------------------------------------------
// noisy_dm: noisy QAOA p=1, 10 qubits, dm with threads = nproc; kc probed
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kNoisyQubits = 10;
constexpr std::size_t kNoisyShots = 200;

struct NoisyProblem {
    QaoaMaxCut problem;
    Circuit first;

    explicit NoisyProblem(std::uint64_t seed)
        : problem([&] {
              Rng graphRng(seed);
              return QaoaMaxCut::randomRegular(kNoisyQubits, 3, 1, graphRng);
          }()),
          first(1)
    {
        Rng firstRng(seed + 3);
        first = circuit(firstRng);
    }

    Circuit circuit(Rng& rng) const
    {
        return problem.circuit(qaoaAngles(rng, 1))
            .withNoiseAfterEachGate(NoiseKind::Depolarizing, kNoise);
    }
};

/**
 * The kc path on noisy_dm's input, driven layer by layer in the traced run:
 * the compile pipeline (bayesnet -> cnf -> knowledge) as direct calls, then
 * per traced evaluation a leaf refresh and the Gibbs chain a kc session runs
 * (init, burn-in, one sweep and one independence move per step, one sample
 * per `thin` steps). Its samples are checked against the dm session's exact
 * tr(rho H). kc is not a timed workload of its own: its single-threaded Gibbs
 * loop is compute-bound, and on a shared host its evaluation median moved
 * by more than the benchmark's bound between runs.
 */
class KcProbe {
  public:
    KcProbe(const Circuit& first, Tracer& tracer)
    {
        BackendOptions defaults;
        gibbs_.burnIn = defaults.burnIn;
        gibbs_.thin = defaults.thin;
        for (int rep = 0; rep < 3; ++rep) {
            Scope compile(tracer, "compile");
            QuantumBayesNet bn;
            {
                Scope s(tracer, "bayesnet.build");
                bn = circuitToBayesNet(first);
            }
            Cnf cnf;
            {
                Scope s(tracer, "cnf.encode");
                cnf = bayesNetToCnf(bn);
            }
            KnowledgeCompiler compiler;
            ArithmeticCircuit ac;
            {
                Scope s(tracer, "knowledge.compile");
                ac = compiler.compile(cnf);
            }
            const CompileStats& st = compiler.stats();
            counts_["bayesnet.nodes"] = static_cast<double>(bn.variables().size());
            counts_["cnf.clauses"] = static_cast<double>(cnf.numClauses());
            counts_["knowledge.decisions"] = static_cast<double>(st.decisions);
            counts_["knowledge.cache_hit_ratio"] =
                ratio(static_cast<double>(st.cacheHits),
                      static_cast<double>(st.cacheHits + st.cacheEntries));
            counts_["ac.edges"] = static_cast<double>(ac.liveEdgeCount());
        }
        sim_ = std::make_unique<KcSimulator>(first);
    }

    std::vector<std::uint64_t> sample(const Circuit& c, Tracer& t, Rng& rng)
    {
        {
            Scope s(t, "ac.refresh");
            sim_->refreshParams(c);
        }
        sim_->evaluator().clearEvidence();
        GibbsSampler sampler(sim_->bayesNet(), sim_->evaluator(), gibbs_);
        {
            Scope s(t, "ac.gibbs_init");
            if (!sampler.init(rng))
                throw std::runtime_error("kc probe: no support state");
        }
        std::vector<std::uint64_t> samples;
        const std::size_t total = gibbs_.burnIn + kNoisyShots * gibbs_.thin;
        for (std::size_t k = 1; k <= total; ++k) {
            {
                Scope s(t, "ac.gibbs_sweep");
                sampler.sweep(rng);
            }
            ++sweeps_;
            {
                Scope s(t, "ac.indep_move");
                accepted_ += sampler.independenceMove(rng);
            }
            if (k > gibbs_.burnIn && (k - gibbs_.burnIn) % gibbs_.thin == 0)
                samples.push_back(sampler.outcome());
        }
        ++chains_;
        return samples;
    }

    void report(Outcome& out, const std::vector<Span>& spans) const
    {
        out.metrics.insert(counts_.begin(), counts_.end());
        out.metrics["bayesnet.build_ms"] =
            median(durations(spans, "bayesnet.build")) * 1e3;
        out.metrics["cnf.encode_ms"] =
            median(durations(spans, "cnf.encode")) * 1e3;
        out.metrics["knowledge.compile_ms"] =
            median(durations(spans, "knowledge.compile")) * 1e3;
        out.metrics["ac.refresh_us"] =
            median(durations(spans, "ac.refresh")) * 1e6;
        out.metrics["ac.gibbs_sweep_us"] =
            median(durations(spans, "ac.gibbs_sweep")) * 1e6;
        out.metrics["ac.indep_move_us"] =
            median(durations(spans, "ac.indep_move")) * 1e6;
        const double sweeps = static_cast<double>(sweeps_);
        out.metrics["ac.gibbs_sweeps"] =
            ratio(sweeps, static_cast<double>(chains_));
        out.metrics["ac.indep_accept_ratio"] =
            ratio(static_cast<double>(accepted_), sweeps);
    }

  private:
    GibbsOptions gibbs_;
    std::map<std::string, double> counts_; ///< repeat exactly for a seed
    std::unique_ptr<KcSimulator> sim_;
    std::size_t chains_ = 0;
    std::size_t sweeps_ = 0; ///< one independence move per sweep
    std::size_t accepted_ = 0;
};

} // namespace

Outcome
runNoisyDm(const Args& args, Tracer& tracer)
{
    // A departure from how the program runs. glibc adapts its mmap threshold
    // to the sizes the program frees, so the 16 MiB density-matrix buffers
    // are sometimes fresh zeroed pages and sometimes recycled heap; with the
    // default allocator evaluations flip between about 0.65 s and 1.1 s,
    // roughly half each, and a run's median lands on either. Fixed
    // thresholds keep every evaluation on the recycled-heap path. This hides
    // the slow path: a change that reuses those buffers across binds shows
    // no gain here, and peak_rss_mb sees no heap trimming.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);

    const NoisyProblem p(args.seed);
    const unsigned threads = hostThreads();

    BackendOptions options;
    options.threads = threads;
    const DensityMatrixBackend backend;

    ExecPolicy policy;
    policy.threads = threads;
    const DensityMatrixSimulator sim(policy);
    DmExecutionPlan plan{};
    std::size_t rebinds = 0;
    std::size_t rebindsOk = 0;
    std::vector<double> gbps;
    if (tracer.enabled())
        plan = timedPlans<DmExecutionPlan>(tracer, "densitymatrix.plan", 5, [&] {
            return planCircuitDm(p.first, policy, PathOptions{});
        });

    SimWorkload w;
    w.shots = kNoisyShots;
    w.open = [&] { return backend.open(p.first, options); };
    w.binding = [&](Rng& rng) { return p.circuit(rng); };
    w.check = [&](Session& session, const Result& r, Outcome& out) {
        checkCut(p.problem, r.samples, exactCut(session, p.problem), 1.0, out);
    };
    std::unique_ptr<KcProbe> kc;
    if (tracer.enabled()) {
        kc = std::make_unique<KcProbe>(p.first, tracer);
        w.probe = [&](Session& session, const Circuit& c, Tracer& t, Rng& rng,
                      Outcome& out) {
            std::vector<std::uint64_t> samples = kc->sample(c, t, rng);
            ++out.attempted;
            if (args.corrupt)
                std::fill(samples.begin(), samples.end(), 0);
            // Gibbs samples are correlated: allow an integrated
            // autocorrelation time of up to 8 sweeps.
            checkCut(p.problem, samples, exactCut(session, p.problem), 8.0,
                     out);
        };
    }
    w.mirror = [&](const Circuit& c, Tracer& t, Rng& rng) {
        bool ok;
        {
            Scope s(t, "densitymatrix.rebind");
            ok = tryRebindDmPlan(plan, c);
        }
        ++rebinds;
        rebindsOk += ok;
        if (!ok) {
            Scope s(t, "densitymatrix.plan");
            plan = planCircuitDm(c, policy, PathOptions{});
        }
        const double t0 = now();
        DensityMatrix rho = [&] {
            Scope s(t, "densitymatrix.simulate");
            return sim.simulatePlanned(plan);
        }();
        gbps.push_back(sweepBytes(plan.ops.size(),
                                  rho.dimension() * rho.dimension()) /
                       (now() - t0) / 1e9);
        std::vector<double> probs;
        {
            Scope s(t, "densitymatrix.probabilities");
            probs = rho.diagonalProbabilities();
        }
        Scope s(t, "statevector.sample");
        StateVectorSimulator::sampleFromDistribution(probs, kNoisyShots, rng);
    };

    Outcome out = runLoop(args, tracer, w);
    out.metrics["threads"] = threads;
    out.metrics["malloc_pinned"] = 1.0;
    if (tracer.enabled()) {
        const std::vector<Span> spans = tracer.spans();
        out.metrics["circuit.fused_ops"] =
            static_cast<double>(plan.fusion.gatesOut);
        out.metrics["densitymatrix.plan_ms"] =
            median(durations(spans, "densitymatrix.plan")) * 1e3;
        out.metrics["densitymatrix.rebind_us"] =
            median(durations(spans, "densitymatrix.rebind")) * 1e6;
        out.metrics["densitymatrix.rebind_ok_ratio"] =
            ratio(static_cast<double>(rebindsOk), static_cast<double>(rebinds));
        out.metrics["densitymatrix.simulate_ms"] =
            median(durations(spans, "densitymatrix.simulate")) * 1e3;
        out.metrics["densitymatrix.sweep_gbps"] = median(gbps);
        out.metrics["statevector.sample_ms"] =
            median(durations(spans, "statevector.sample")) * 1e3;
        kc->report(out, spans);
    }
    return out;
}

} // namespace vqabench
