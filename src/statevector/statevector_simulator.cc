#include "statevector/statevector_simulator.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace qkc {

namespace {

void
requireSvPlan(const ExecutionPlan& plan, const char* caller)
{
    if (plan.engine != PlanEngine::StateVector)
        throw std::invalid_argument(
            std::string(caller) +
            ": the plan was not lowered for a state vector; use planCircuit");
}

/**
 * Draws `numSamples` indices x in [0, dim) with probability weight(x) /
 * total. The weights are summed once, in fixed chunks of kSampleChunk
 * entries (each chunk serially, the chunks in parallel), and the chunk
 * sums are combined in chunk order into the total and the chunk prefixes.
 * The draws r = uniform * total are taken in shot order and resolved in
 * sorted order: each chunk holding a draw is scanned once, from its
 * prefix, and a draw resolves to the first x whose running sum exceeds
 * it. That x always has positive weight; a draw that rounding puts past
 * the chunk's (or the whole) sum takes the last positive x instead.
 * With a single chunk this is exactly the serial-CDF upper_bound.
 */
template <class Weight>
std::vector<std::uint64_t>
sampleByWeight(std::uint64_t dim, const Weight& weight,
               std::size_t numSamples, Rng& rng, const ExecPolicy& policy)
{
    constexpr std::uint64_t chunk = StateVectorSimulator::kSampleChunk;
    if (numSamples == 0)
        return {};
    const std::uint64_t numChunks = (dim + chunk - 1) / chunk;

    // prefix[c]: the weight of chunks 0..c. Pool tasks group whole chunks,
    // so a chunk's sum never depends on the pool's partition.
    std::vector<double> prefix(numChunks);
    ExecPolicy perChunk = policy;
    perChunk.grain = std::max<std::uint64_t>(1, policy.grain / chunk);
    perChunk.serialThreshold = policy.serialThreshold / chunk;
    parallelFor(perChunk, numChunks, [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t c = b; c < e; ++c) {
            double sum = 0.0;
            const std::uint64_t end = std::min(dim, (c + 1) * chunk);
            for (std::uint64_t x = c * chunk; x < end; ++x)
                sum += weight(x);
            prefix[c] = sum;
        }
    });
    double total = 0.0;
    for (double& p : prefix) {
        total += p;
        p = total;
    }
    if (!(total > 0.0))
        throw std::invalid_argument("sample: the distribution has no weight");

    std::vector<double> draws(numSamples);
    for (double& r : draws)
        r = rng.uniform() * total;
    std::vector<std::size_t> order(numSamples);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return draws[a] < draws[b];
    });

    std::vector<std::uint64_t> samples(numSamples);
    std::uint64_t c = numChunks; // the chunk being scanned (none yet)
    std::uint64_t x = 0;         // next entry of chunk c to add
    std::uint64_t end = 0;
    std::uint64_t lastPositive = 0;
    double acc = 0.0;
    for (const std::size_t s : order) {
        const double r = draws[s];
        if (c == numChunks || (r >= prefix[c] && c + 1 < numChunks)) {
            const auto from = c == numChunks ? prefix.begin()
                                             : prefix.begin() + c + 1;
            c = static_cast<std::uint64_t>(
                std::upper_bound(from, prefix.end(), r) - prefix.begin());
            if (c == numChunks) { // past the total by rounding
                c = numChunks - 1;  // take the last chunk with weight
                while (c > 0 && !(prefix[c] > prefix[c - 1]))
                    --c;
            }
            acc = c == 0 ? 0.0 : prefix[c - 1];
            x = c * chunk;
            end = std::min(dim, x + chunk);
        }
        while (x < end && !(acc > r)) {
            const double w = weight(x);
            if (w > 0.0)
                lastPositive = x;
            acc += w;
            ++x;
        }
        samples[s] = acc > r ? x - 1 : lastPositive;
    }
    return samples;
}

} // namespace

void
StateVectorSimulator::runIdeal(const ExecutionPlan& plan,
                               StateVector& state) const
{
    std::vector<const GateKernel*> kernels;
    kernels.reserve(plan.ops.size());
    for (const auto& op : plan.ops) {
        if (op.isChannel) {
            throw std::invalid_argument(
                "StateVectorSimulator::simulatePlanned: plan has channels; "
                "use sampleNoisyPlanned");
        }
        kernels.push_back(&op.kernels[0]);
    }
    applyKernels(kernels, state.data(), state.dimension(), state.execPolicy());
}

StateVector
StateVectorSimulator::simulatePlanned(const ExecutionPlan& plan) const
{
    requireSvPlan(plan, "StateVectorSimulator::simulatePlanned");
    StateVector sv(plan.numQubits, policy_);
    runIdeal(plan, sv);
    return sv;
}

void
StateVectorSimulator::simulatePlanned(const ExecutionPlan& plan,
                                      StateVector& state) const
{
    requireSvPlan(plan, "StateVectorSimulator::simulatePlanned");
    if (state.numQubits() != plan.numQubits) {
        state = StateVector(plan.numQubits, policy_);
    } else {
        state.setExecPolicy(policy_);
        state.reset();
    }
    runIdeal(plan, state);
}

void
StateVectorSimulator::runTrajectory(const ExecutionPlan& plan, Rng& rng,
                                    StateVector& sv) const
{
    sv.reset();
    std::vector<double> weights;
    for (const auto& op : plan.ops) {
        if (!op.isChannel) {
            sv.apply(op.kernels[0]);
            continue;
        }
        // Born-rule Kraus selection: p_k = ||E_k psi||^2, computed by a
        // read-only norm kernel (no state copies). The 1/sqrt(w) that used
        // to be a separate normalize() pass is folded into the selected
        // operator's application.
        weights.resize(op.kernels.size());
        for (std::size_t k = 0; k < op.kernels.size(); ++k)
            weights[k] = sv.normAfter(op.kernels[k]);
        const std::size_t pick = rng.categorical(weights);
        if (weights[pick] > 0.0)
            sv.apply(op.kernels[pick],
                     Complex{1.0 / std::sqrt(weights[pick]), 0.0});
        else
            sv.apply(op.kernels[pick]);
    }
}

std::vector<std::uint64_t>
StateVectorSimulator::sampleNoisyPlanned(const ExecutionPlan& plan,
                                         std::size_t numSamples,
                                         Rng& rng) const
{
    requireSvPlan(plan, "StateVectorSimulator::sampleNoisyPlanned");
    if (numSamples == 0)
        return {};

    // Independent per-trajectory RNG streams, seeded from the caller's
    // generator *before* any parallel work: the seed sequence — and with it
    // every trajectory and sample — is identical for every thread count.
    std::vector<std::uint64_t> seeds(numSamples);
    for (auto& s : seeds)
        s = rng.next();

    // Parallelism lives at the trajectory level: trajectories fan out over
    // contiguous lanes, each running its amplitude sweeps serially
    // (statePolicy.threads = 1) in one state it resets per trajectory, and
    // results land at their trajectory index. A throwing trajectory is
    // rethrown here, after every lane ends.
    ExecPolicy statePolicy = policy_;
    if (numSamples > 1)
        statePolicy.threads = 1;

    std::vector<std::uint64_t> samples(numSamples);
    parallelForLanes(laneCount(policy_.threads, numSamples), numSamples,
                     [&](std::size_t, std::uint64_t b, std::uint64_t e) {
        StateVector sv(plan.numQubits, statePolicy);
        for (std::uint64_t i = b; i < e; ++i) {
            Rng trajectoryRng(seeds[i]);
            runTrajectory(plan, trajectoryRng, sv);
            samples[i] = sampleFromState(sv, 1, trajectoryRng)[0];
        }
    });
    return samples;
}

std::vector<std::uint64_t>
StateVectorSimulator::sampleFromState(const StateVector& state,
                                      std::size_t numSamples, Rng& rng)
{
    const Complex* amps = state.data();
    return sampleByWeight(
        state.dimension(), [amps](std::uint64_t x) { return norm2(amps[x]); },
        numSamples, rng, state.execPolicy());
}

std::vector<std::uint64_t>
StateVectorSimulator::sampleFromDistribution(const std::vector<double>& probs,
                                             std::size_t numSamples, Rng& rng)
{
    const double* p = probs.data();
    return sampleByWeight(
        probs.size(), [p](std::uint64_t x) { return p[x]; }, numSamples, rng,
        ExecPolicy{});
}

} // namespace qkc
