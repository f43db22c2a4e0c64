#include "vqa/backends.h"

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "circuit/noise.h"
#include "util/rng.h"

namespace qkc {
namespace {

Circuit
bell()
{
    Circuit c(2);
    c.h(0).cnot(0, 1);
    return c;
}

TEST(BackendOptionsTest, OptionSpecsResolveToCanonicalBackends)
{
    EXPECT_EQ(makeBackend("sv:threads=2")->name(), "statevector");
    EXPECT_EQ(makeBackend("statevector:threads=2,fuse=0")->name(),
              "statevector");
    EXPECT_EQ(makeBackend("dm:threads=4,fuse=1")->name(), "densitymatrix");
    EXPECT_EQ(makeBackend("kc:burnin=8")->name(), "knowledgecompilation");
    EXPECT_EQ(makeBackend("kc:burnin=8,thin=2")->name(),
              "knowledgecompilation");
}

TEST(BackendOptionsTest, DdGcOptionsParse)
{
    BackendSpec spec = parseBackendSpec("dd:gcthreshold=4096");
    EXPECT_EQ(spec.name, "decisiondiagram");
    EXPECT_EQ(spec.options.gcThreshold, 4096u);

    // Default: the package's documented threshold.
    spec = parseBackendSpec("dd");
    EXPECT_EQ(spec.options.gcThreshold, std::size_t{1} << 16);

    EXPECT_THROW(makeBackend("dd:gcthreshold=0"), std::invalid_argument);
    // gcthreshold is a dd-only knob: the other backends must reject it.
    for (const char* other : {"sv:gcthreshold=8", "dm:gcthreshold=8",
                              "tn:gcthreshold=8", "kc:gcthreshold=8"})
        EXPECT_THROW(makeBackend(other), std::invalid_argument) << other;
}

TEST(BackendOptionsTest, UnknownOptionsThrow)
{
    EXPECT_THROW(makeBackend("sv:bogus=1"), std::invalid_argument);
    EXPECT_THROW(makeBackend("dm:burnin=8"), std::invalid_argument);
    EXPECT_THROW(makeBackend("kc:threads=2"), std::invalid_argument);
    EXPECT_THROW(makeBackend("tn:threads=2"), std::invalid_argument);
    EXPECT_THROW(makeBackend("dd:bogus=2"), std::invalid_argument);
    // threads became a dd knob when trajectory lanes landed.
    EXPECT_EQ(makeBackend("dd:threads=2")->name(), "decisiondiagram");

    // Spec keys that only duplicated a process switch (QKC_OBS, QKC_SIMD),
    // served as a test oracle (dd:gc) or picked a simulation path are gone.
    for (const char* spec : {"sv:obs=0", "dm:simd=off", "dd:gc=0",
                             "dd:path=pairwise", "sv:path=linear"})
        EXPECT_THROW(makeBackend(spec), std::invalid_argument) << spec;
    try {
        makeBackend("tn:obs=1");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("accepts no options"),
                  std::string::npos)
            << e.what();
    }
}

TEST(BackendOptionsTest, MalformedOptionsThrow)
{
    EXPECT_THROW(makeBackend("sv:"), std::invalid_argument);
    EXPECT_THROW(makeBackend("sv:threads"), std::invalid_argument);
    EXPECT_THROW(makeBackend("sv:threads=abc"), std::invalid_argument);
    EXPECT_THROW(makeBackend("sv:=3"), std::invalid_argument);
    EXPECT_THROW(makeBackend("sv:threads=2,,fuse=1"), std::invalid_argument);
    EXPECT_THROW(makeBackend("sv:fuse=2"), std::invalid_argument);
    EXPECT_THROW(makeBackend("kc:thin=0"), std::invalid_argument);
    // Overflowing values must be rejected, not clamped to LONG_MAX (a
    // clamped burnin would hang the first Gibbs sample "forever").
    EXPECT_THROW(makeBackend("kc:burnin=644444444444444444444"),
                 std::invalid_argument);
}

TEST(BackendOptionsTest, UnknownBackendStillListsKnownNames)
{
    try {
        makeBackend("qsim:threads=2");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("statevector"),
                  std::string::npos);
    }
}

TEST(BackendOptionsTest, OptionedBackendsSampleCorrectly)
{
    const Circuit c = bell();
    for (const char* spec :
         {"sv:threads=2,fuse=1", "sv:fuse=0", "dm:threads=2"}) {
        Rng rng(7);
        auto samples =
            makeBackend(spec)->open(c)->run(Sample{400}, rng).samples;
        std::size_t odd = 0;
        for (auto s : samples) {
            EXPECT_TRUE(s == 0 || s == 3) << "spec " << spec;
            odd += s == 3 ? 1 : 0;
        }
        EXPECT_GT(odd, 100u);
        EXPECT_LT(odd, 300u);
    }
}

TEST(BackendOptionsTest, KcBurninOptionIsAccepted)
{
    const Circuit c = bell();
    Rng rng(3);
    auto samples = makeBackend("kc:burnin=4,thin=1")
                       ->open(c)
                       ->run(Sample{50}, rng)
                       .samples;
    EXPECT_EQ(samples.size(), 50u);
    for (auto s : samples)
        EXPECT_TRUE(s == 0 || s == 3);
}

TEST(BackendOptionsTest, NoisyCircuitsWorkThroughOptionedBackends)
{
    const Circuit noisy =
        bell().withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.05);
    Rng rng(5);
    auto samples =
        makeBackend("sv:threads=2")->open(noisy)->run(Sample{100}, rng).samples;
    EXPECT_EQ(samples.size(), 100u);
}

} // namespace
} // namespace qkc
