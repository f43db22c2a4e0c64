#include "ac/gibbs_sampler.h"

#include <cmath>
#include <stdexcept>

#include "linalg/types.h"
#include "obs/metrics.h"

namespace qkc {

namespace {

/** Random restarts init() tries before the sequential construction. */
constexpr std::size_t kInitTries = 64;

} // namespace

GibbsSampler::GibbsSampler(const QuantumBayesNet& bn, AcEvaluator& eval,
                           GibbsOptions options)
    : bn_(&bn), eval_(&eval), options_(options), queryVars_(bn.queryVars())
{
    cards_.reserve(queryVars_.size());
    for (BnVarId v : queryVars_)
        cards_.push_back(bn.variable(v).cardinality);
    state_.assign(queryVars_.size(), 0);
}

void
GibbsSampler::applyState()
{
    for (std::size_t i = 0; i < queryVars_.size(); ++i)
        eval_->setEvidence(queryVars_[i], state_[i]);
}

bool
GibbsSampler::sequentialConditional(Rng& rng, std::vector<int>& out,
                                    double& logDensity, bool evaluateOnly)
{
    for (BnVarId v : queryVars_)
        eval_->setEvidence(v, AcEvaluator::kFree);
    logDensity = 0.0;
    for (std::size_t i = 0; i < queryVars_.size(); ++i) {
        std::vector<double> weights(cards_[i], 0.0);
        double total = 0.0;
        for (std::size_t k = 0; k < cards_[i]; ++k) {
            eval_->setEvidence(queryVars_[i], static_cast<int>(k));
            weights[k] = norm2(eval_->evaluate());
            total += weights[k];
        }
        if (total <= 0.0) {
            // Amplitude sums over the remaining free variables interfered
            // to zero for every value: the proposal density is undefined.
            return false;
        }
        int pick = evaluateOnly
                       ? out[i]
                       : static_cast<int>(rng.categorical(weights));
        if (weights[pick] <= 0.0)
            return false;
        logDensity += std::log(weights[pick] / total);
        out[i] = pick;
        eval_->setEvidence(queryVars_[i], pick);
    }
    return true;
}

bool
GibbsSampler::init(Rng& rng)
{
    // Phase 1: random restarts.
    for (std::size_t attempt = 0; attempt < kInitTries; ++attempt) {
        for (std::size_t i = 0; i < state_.size(); ++i)
            state_[i] = static_cast<int>(rng.below(cards_[i]));
        applyState();
        if (norm2(eval_->evaluate()) > 0.0)
            return true;
    }

    // Phase 2: sequential conditional construction, which handles sharply
    // peaked (even deterministic) wavefunctions.
    std::vector<int> candidate(state_.size(), 0);
    double logDensity;
    if (sequentialConditional(rng, candidate, logDensity,
                              /*evaluateOnly=*/false)) {
        state_ = candidate;
        applyState();
        if (norm2(eval_->evaluate()) > 0.0)
            return true;
    }

    // Phase 3: a few more randomized sequential attempts.
    for (int attempt = 0; attempt < 8; ++attempt) {
        if (!sequentialConditional(rng, candidate, logDensity, false))
            continue;
        state_ = candidate;
        applyState();
        if (norm2(eval_->evaluate()) > 0.0)
            return true;
    }
    applyState();
    return false;
}

void
GibbsSampler::sweep(Rng& rng)
{
    static obs::Counter sweeps("kc.gibbsSweeps");
    sweeps.add();
    for (std::size_t i = 0; i < queryVars_.size(); ++i) {
        // One upward + one downward pass yields the full conditional of
        // variable i given all others.
        eval_->evaluate();
        eval_->computeDerivatives();
        std::vector<double> weights(cards_[i]);
        for (std::size_t k = 0; k < cards_[i]; ++k)
            weights[k] = norm2(
                eval_->derivative(queryVars_[i], static_cast<std::uint32_t>(k)));
        double total = 0.0;
        for (double w : weights)
            total += w;
        if (total <= 0.0)
            continue;  // degenerate; keep the current value
        int next = static_cast<int>(rng.categorical(weights));
        if (next != state_[i]) {
            state_[i] = next;
            eval_->setEvidence(queryVars_[i], next);
        }
    }
}

bool
GibbsSampler::independenceMove(Rng& rng)
{
    // Current amplitude and proposal density of the current state.
    applyState();
    double curAmp2 = norm2(eval_->evaluate());
    std::vector<int> current = state_;
    double logQCurrent;
    if (!sequentialConditional(rng, current, logQCurrent,
                               /*evaluateOnly=*/true)) {
        applyState();
        return false;
    }

    std::vector<int> proposal(state_.size(), 0);
    double logQProposal;
    if (!sequentialConditional(rng, proposal, logQProposal,
                               /*evaluateOnly=*/false)) {
        applyState();
        return false;
    }
    // Evidence is now the full proposal; its amplitude:
    double propAmp2 = norm2(eval_->evaluate());
    if (propAmp2 <= 0.0) {
        applyState();
        return false;
    }

    double logAccept = std::log(propAmp2) + logQCurrent -
                       (curAmp2 > 0.0 ? std::log(curAmp2) : -1e300) -
                       logQProposal;
    if (logAccept >= 0.0 || rng.uniform() < std::exp(logAccept)) {
        state_ = proposal;
        return true;
    }
    applyState();
    return false;
}

std::uint64_t
GibbsSampler::outcome() const
{
    const std::size_t numQubits = bn_->finalVars().size();
    std::uint64_t idx = 0;
    for (std::size_t q = 0; q < numQubits; ++q)
        idx = (idx << 1) | static_cast<std::uint64_t>(state_[q]);
    return idx;
}

std::vector<std::uint64_t>
GibbsSampler::run(std::size_t numSamples, Rng& rng)
{
    if (!init(rng))
        throw std::runtime_error(
            "GibbsSampler: could not find a support state");
    auto advance = [&] {
        sweep(rng);
        independenceMove(rng);
    };
    for (std::size_t i = 0; i < options_.burnIn; ++i)
        advance();
    std::vector<std::uint64_t> samples;
    samples.reserve(numSamples);
    while (samples.size() < numSamples) {
        for (std::size_t t = 0; t < options_.thin; ++t)
            advance();
        samples.push_back(outcome());
    }
    return samples;
}

} // namespace qkc
