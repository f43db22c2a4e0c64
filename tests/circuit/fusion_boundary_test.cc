/**
 * Where the default fusion pass may and may not carry gates across a noise
 * channel: a channel is a barrier on its own wires only, so pending gates
 * on untouched wires fuse across it, while no group touching the channel's
 * wires merges ops from both sides of it.
 */
#include "circuit/fusion.h"

#include <gtest/gtest.h>

#include <vector>

#include "circuit/noise.h"

namespace qkc {
namespace {

/** Every source op index a group references, in no particular order. */
std::vector<std::size_t>
groupSources(const FusionRecipe::Group& g)
{
    std::vector<std::size_t> all = g.sources;
    all.insert(all.end(), g.gateIndices.begin(), g.gateIndices.end());
    for (const auto& stage : g.pendingHigh)
        all.insert(all.end(), stage.begin(), stage.end());
    for (const auto& stage : g.pendingLow)
        all.insert(all.end(), stage.begin(), stage.end());
    return all;
}

/** h(0); channel on the OTHER wire; h(0) — the cross-boundary bait. */
Circuit
baitCircuit()
{
    Circuit c(2);
    c.h(0);
    c.append(NoiseChannel::depolarizing(1, 0.02));
    c.h(0);
    return c;
}

TEST(FusionBoundaryTest, DefaultOptionsFuseAcrossAnUntouchedChannel)
{
    // The channel only touches q1, so the pass carries the pending H
    // across it and the H·H product drops as identity.
    const Circuit fused = fuseGates(baitCircuit());
    EXPECT_EQ(fused.gateCount(), 0u);
    EXPECT_EQ(fused.noiseCount(), 1u);
}

TEST(FusionBoundaryTest, NoGroupSpansAChannel)
{
    // Pendings on both wires and a 2q chain candidate interrupted by a
    // channel on one of the chain's wires.
    Circuit c(2);
    c.h(0).t(1).zz(0, 1, 0.4);
    c.append(NoiseChannel::phaseFlip(0, 0.01));
    c.s(1).cnot(0, 1).h(0);
    const std::size_t channelIdx = 3;

    const FusionRecipe recipe = planFusion(c);
    for (const auto& g : recipe.groups) {
        if (g.kind == FusionRecipe::Group::Kind::Channel)
            continue;
        const auto sources = groupSources(g);
        ASSERT_FALSE(sources.empty());
        bool before = true;
        bool after = true;
        for (std::size_t s : sources) {
            EXPECT_NE(s, channelIdx);
            before = before && s < channelIdx;
            after = after && s > channelIdx;
        }
        EXPECT_TRUE(before || after)
            << "group fuses ops from both sides of the channel";
    }
}

} // namespace
} // namespace qkc
