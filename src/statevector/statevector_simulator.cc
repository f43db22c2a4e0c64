#include "statevector/statevector_simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
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

} // namespace

StateVector
StateVectorSimulator::simulatePlanned(const ExecutionPlan& plan) const
{
    requireSvPlan(plan, "StateVectorSimulator::simulatePlanned");
    StateVector sv(plan.numQubits);
    sv.setExecPolicy(policy_);
    for (const auto& op : plan.ops) {
        if (op.isChannel) {
            throw std::invalid_argument(
                "StateVectorSimulator::simulatePlanned: plan has channels; "
                "use sampleNoisyPlanned");
        }
        sv.apply(op.kernels[0]);
    }
    return sv;
}

StateVector
StateVectorSimulator::runTrajectory(const ExecutionPlan& plan, Rng& rng,
                                    const ExecPolicy& statePolicy) const
{
    StateVector sv(plan.numQubits);
    sv.setExecPolicy(statePolicy);
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
    return sv;
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
    // (statePolicy.threads = 1), and results land at their trajectory
    // index. A throwing trajectory is rethrown here, after every lane ends.
    ExecPolicy statePolicy = policy_;
    if (numSamples > 1)
        statePolicy.threads = 1;

    std::vector<std::uint64_t> samples(numSamples);
    parallelForLanes(laneCount(policy_.threads, numSamples), numSamples,
                     [&](std::size_t, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) {
            Rng trajectoryRng(seeds[i]);
            StateVector sv = runTrajectory(plan, trajectoryRng, statePolicy);
            auto one = sampleFromDistribution(sv.probabilities(), 1,
                                              trajectoryRng);
            samples[i] = one[0];
        }
    });
    return samples;
}

std::vector<double>
StateVectorSimulator::noisyDistributionExhaustive(const Circuit& circuit) const
{
    // Collect channel positions so we can enumerate Kraus-choice vectors.
    const ExecutionPlan plan = planCircuit(circuit, policy_);
    std::vector<std::size_t> channelOps;
    for (std::size_t i = 0; i < plan.ops.size(); ++i) {
        if (plan.ops[i].isChannel)
            channelOps.push_back(i);
    }
    if (channelOps.size() > 20) {
        throw std::invalid_argument(
            "noisyDistributionExhaustive: too many channels to enumerate");
    }

    std::vector<double> dist(std::size_t{1} << circuit.numQubits(), 0.0);
    std::vector<std::size_t> choice(channelOps.size(), 0);

    // Odometer-style enumeration over all Kraus index combinations. Each
    // combination is one unnormalized branch; its squared amplitudes already
    // carry the branch probability, so plain accumulation is exact.
    for (;;) {
        StateVector sv(circuit.numQubits());
        sv.setExecPolicy(policy_);
        std::size_t chIdx = 0;
        for (const auto& op : plan.ops) {
            if (!op.isChannel) {
                sv.apply(op.kernels[0]);
            } else {
                sv.apply(op.kernels[choice[chIdx]]);
                ++chIdx;
            }
        }
        const auto probs = sv.probabilities();
        for (std::size_t i = 0; i < dist.size(); ++i)
            dist[i] += probs[i];

        // Advance the odometer.
        std::size_t pos = 0;
        for (; pos < choice.size(); ++pos) {
            if (++choice[pos] < plan.ops[channelOps[pos]].kernels.size())
                break;
            choice[pos] = 0;
        }
        if (pos == choice.size())
            break;
    }
    return dist;
}

std::vector<std::uint64_t>
StateVectorSimulator::sampleFromDistribution(const std::vector<double>& probs,
                                             std::size_t numSamples, Rng& rng)
{
    std::vector<double> cdf(probs.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < probs.size(); ++i) {
        acc += probs[i];
        cdf[i] = acc;
    }
    assert(acc > 0.0);

    std::vector<std::uint64_t> samples;
    samples.reserve(numSamples);
    for (std::size_t s = 0; s < numSamples; ++s) {
        double r = rng.uniform() * acc;
        auto it = std::upper_bound(cdf.begin(), cdf.end(), r);
        std::size_t idx = static_cast<std::size_t>(it - cdf.begin());
        if (idx >= probs.size())
            idx = probs.size() - 1;
        samples.push_back(idx);
    }
    return samples;
}

} // namespace qkc
