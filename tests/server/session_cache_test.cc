#include "server/session_cache.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "circuit/circuit.h"
#include "exec/execution_plan.h"
#include "server/server_core.h" // completes Waiter

namespace qkc {
namespace server {
namespace {

TEST(SessionCacheTest, MissThenHit)
{
    SessionCache cache(4);
    bool hit = true;
    auto e1 = cache.acquire("sv", 111, hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.size(), 1u);

    auto e2 = cache.acquire("sv", 111, hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(e1.get(), e2.get());
    EXPECT_EQ(e2->hits, 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SessionCacheTest, SpecAndStructureBothKeyTheEntry)
{
    SessionCache cache(8);
    bool hit = false;
    auto a = cache.acquire("sv", 111, hit);
    auto b = cache.acquire("sv:fuse=0", 111, hit);
    EXPECT_FALSE(hit);
    auto c = cache.acquire("sv", 222, hit);
    EXPECT_FALSE(hit);
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(cache.size(), 3u);
}

TEST(SessionCacheTest, LruEvictionDropsTheColdestEntry)
{
    SessionCache cache(2);
    bool hit = false;
    auto a = cache.acquire("sv", 1, hit);
    auto b = cache.acquire("sv", 2, hit);

    // Touch 1 so 2 becomes the LRU victim.
    cache.acquire("sv", 1, hit);
    EXPECT_TRUE(hit);

    cache.acquire("sv", 3, hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);

    cache.acquire("sv", 1, hit);
    EXPECT_TRUE(hit); // survived
    cache.acquire("sv", 2, hit);
    EXPECT_FALSE(hit); // evicted; re-acquire is a miss (evicting 3 or 1)
}

TEST(SessionCacheTest, EvictedEntriesSurviveWhileHeld)
{
    SessionCache cache(1);
    bool hit = false;
    auto held = cache.acquire("sv", 1, hit);
    cache.acquire("sv", 2, hit); // evicts entry 1
    EXPECT_EQ(cache.evictions(), 1u);

    // The holder's shared_ptr keeps the evicted entry (and its queue/
    // session) alive; a re-acquire makes a *new* entry.
    held->hits = 99;
    auto fresh = cache.acquire("sv", 1, hit);
    EXPECT_FALSE(hit);
    EXPECT_NE(held.get(), fresh.get());
    EXPECT_EQ(fresh->hits, 0u);
}

TEST(SessionCacheTest, ClearEmptiesAndCountsEvictions)
{
    SessionCache cache(8);
    bool hit = false;
    cache.acquire("sv", 1, hit);
    cache.acquire("sv", 2, hit);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.evictions(), 2u);
    cache.acquire("sv", 1, hit);
    EXPECT_FALSE(hit);
}

TEST(SessionCacheTest, CapacityMustBePositive)
{
    EXPECT_THROW(SessionCache(0), std::invalid_argument);
}

// structureHash is the cache key half the server derives itself; its
// contract (sameStructure => equal hash, structural edits change it) is
// what makes collisions harmless and hits meaningful.
TEST(SessionCacheTest, StructureHashTracksStructureNotParameters)
{
    Circuit a(3);
    a.h(0).rx(1, 0.5).cnot(1, 2);
    Circuit b(3);
    b.h(0).rx(1, 2.75).cnot(1, 2); // same structure, different angle
    EXPECT_EQ(structureHash(a), structureHash(b));

    Circuit c(3);
    c.h(0).ry(1, 0.5).cnot(1, 2); // different gate kind
    EXPECT_NE(structureHash(a), structureHash(c));

    Circuit d(3);
    d.h(0).rx(2, 0.5).cnot(1, 2); // different wire
    EXPECT_NE(structureHash(a), structureHash(d));

    Circuit e(4);
    e.h(0).rx(1, 0.5).cnot(1, 2); // different register width
    EXPECT_NE(structureHash(a), structureHash(e));

    // Noise placement is structure too.
    Circuit f = a.withNoiseAfterEachGate(NoiseKind::BitFlip, 0.01);
    Circuit g = a.withNoiseAfterEachGate(NoiseKind::BitFlip, 0.02);
    EXPECT_NE(structureHash(a), structureHash(f));
    EXPECT_EQ(structureHash(f), structureHash(g)); // p is a parameter
}

TEST(SessionCacheTest, StructureHashSpreadsAcrossVariants)
{
    // Not a collision-resistance proof — just a guard against a degenerate
    // implementation hashing everything to a handful of values.
    std::set<std::uint64_t> hashes;
    for (std::size_t n = 2; n <= 5; ++n) {
        for (std::size_t layers = 1; layers <= 4; ++layers) {
            Circuit c(n);
            for (std::size_t l = 0; l < layers; ++l) {
                for (std::size_t q = 0; q < n; ++q)
                    c.rx(q, 0.1);
                for (std::size_t q = 0; q + 1 < n; ++q)
                    c.cnot(q, q + 1);
            }
            hashes.insert(structureHash(c));
        }
    }
    EXPECT_EQ(hashes.size(), 16u);
}

} // namespace
} // namespace server
} // namespace qkc
