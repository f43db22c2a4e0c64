#include "ac/kc_simulator.h"

#include <sstream>

#include "cnf/bn_to_cnf.h"
#include "linalg/types.h"
#include "obs/trace.h"

namespace qkc {

KcSimulator::KcSimulator(const Circuit& circuit, CompileOptions options)
{
    const std::uint64_t t0 = obs::nowNs();
    {
        QKC_SPAN("bayesnet.fromCircuit");
        bn_ = circuitToBayesNet(circuit);
    }
    {
        QKC_SPAN("cnf.encode");
        cnf_ = bayesNetToCnf(bn_);
    }
    KnowledgeCompiler compiler(options);
    {
        QKC_SPAN("knowledge.compile");
        ac_ = compiler.compile(cnf_);
    }
    compileStats_ = compiler.stats();
    compileSeconds_ = static_cast<double>(obs::nowNs() - t0) * 1e-9;

    std::vector<std::size_t> cards(bn_.variables().size());
    for (BnVarId v = 0; v < cards.size(); ++v)
        cards[v] = bn_.variable(v).cardinality;
    eval_ = std::make_unique<AcEvaluator>(ac_, std::move(cards),
                                          bn_.paramValues());
}

KcMetrics
KcSimulator::metrics() const
{
    KcMetrics m;
    m.bnNodes = bn_.variables().size();
    m.bnPotentials = bn_.potentials().size();
    m.cnfVars = cnf_.numVars();
    m.cnfIndicatorVars = cnf_.numIndicatorVars();
    m.cnfClauses = cnf_.numClauses();
    m.acNodes = ac_.liveNodeCount();
    m.acEdges = ac_.liveEdgeCount();
    std::ostringstream sink;
    m.acFileBytes = ac_.writeNnf(sink);
    m.compileSeconds = compileSeconds_;
    return m;
}

void
KcSimulator::setOutcomeEvidence(std::uint64_t outcome)
{
    const auto& finals = bn_.finalVars();
    const std::size_t n = finals.size();
    for (std::size_t q = 0; q < n; ++q) {
        int bit = static_cast<int>((outcome >> (n - 1 - q)) & 1);
        eval_->setEvidence(finals[q], bit);
    }
}

Complex
KcSimulator::amplitude(std::uint64_t outcome,
                       const std::vector<std::size_t>& noise)
{
    eval_->clearEvidence();
    setOutcomeEvidence(outcome);
    const auto& noiseVars = bn_.noiseVars();
    if (!noise.empty() && noise.size() != noiseVars.size())
        throw std::invalid_argument("KcSimulator::amplitude: noise size");
    for (std::size_t i = 0; i < noise.size(); ++i)
        eval_->setEvidence(noiseVars[i], static_cast<int>(noise[i]));
    // Noise-free circuits have no noise vars; noisy circuits with an empty
    // noise argument leave them free, which SUMS amplitudes over noise
    // events — only meaningful when they cannot interfere. Callers wanting
    // probabilities should use probability().
    return eval_->evaluate();
}

double
KcSimulator::probability(std::uint64_t outcome)
{
    eval_->clearEvidence();
    setOutcomeEvidence(outcome);
    const auto& noiseVars = bn_.noiseVars();
    if (noiseVars.empty())
        return norm2(eval_->evaluate());

    // Enumerate noise assignments with an odometer; each term contributes
    // |A(outcome, nu)|^2 (the paper's Table 5 density-matrix components).
    std::vector<std::size_t> cards(noiseVars.size());
    for (std::size_t i = 0; i < noiseVars.size(); ++i)
        cards[i] = bn_.variable(noiseVars[i]).cardinality;
    std::vector<std::size_t> nu(noiseVars.size(), 0);
    double total = 0.0;
    for (;;) {
        for (std::size_t i = 0; i < noiseVars.size(); ++i)
            eval_->setEvidence(noiseVars[i], static_cast<int>(nu[i]));
        total += norm2(eval_->evaluate());
        std::size_t pos = 0;
        for (; pos < nu.size(); ++pos) {
            if (++nu[pos] < cards[pos])
                break;
            nu[pos] = 0;
        }
        if (pos == nu.size())
            break;
    }
    return total;
}

std::vector<double>
KcSimulator::outcomeDistribution()
{
    const std::size_t n = bn_.finalVars().size();
    std::vector<double> dist(std::size_t{1} << n);
    for (std::uint64_t x = 0; x < dist.size(); ++x)
        dist[x] = probability(x);
    return dist;
}

std::vector<std::uint64_t>
KcSimulator::sample(std::size_t numSamples, Rng& rng,
                    const GibbsOptions& options)
{
    eval_->clearEvidence();
    GibbsSampler sampler(bn_, *eval_, options);
    return sampler.run(numSamples, rng);
}

void
KcSimulator::refreshParams(const Circuit& circuit)
{
    bn_.refreshParams(circuit);
    eval_->setParams(bn_.paramValues());
}

} // namespace qkc
