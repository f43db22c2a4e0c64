/**
 * Unit checks of the benchmark's helpers. Exits non-zero on the first
 * failed check; selftest.py runs it.
 */
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench.h"

using namespace vqabench;

namespace {

int failures = 0;

void
expect(bool ok, const char* what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

} // namespace

int
main()
{
    // The writer never prints a non-finite number: a broken ratio shows.
    expect(jsonNumber(std::numeric_limits<double>::quiet_NaN()) == "null",
           "NaN is written as null");
    expect(jsonNumber(std::numeric_limits<double>::infinity()) == "null",
           "+Inf is written as null");
    expect(jsonNumber(-std::numeric_limits<double>::infinity()) == "null",
           "-Inf is written as null");
    expect(jsonNumber(ratio(1.0, 0.0)) == "null", "x/0 ratio is null");
    expect(jsonNumber(0.1) == "0.1", "shortest round-trip digits");
    expect(jsonNumber(1.2034567890123) == "1.2034567890123", "all digits kept");
    expect(jsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"", "string escapes");

    expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
    expect(median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
    expect(std::isnan(median({})), "empty median is NaN");
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    expect(percentile(hundred, 0.99) == 99.0, "nearest-rank p99");
    expect(percentile({5.0, 7.0}, 0.99) == 7.0, "p99 of two is the max");

    // eval [0,10] holds vqa.run [1,9]; layers [10,18] holds exec [10,13]
    // and statevector [13,17] with a nested statevector child [14,15].
    std::vector<Span> spans = {
        {"eval", 0, 10, -1, 0},       {"vqa.run", 1, 9, 0, 0},
        {"layers", 10, 18, -1, 0},    {"exec.rebind", 10, 13, 2, 0},
        {"statevector.simulate", 13, 17, 2, 0},
        {"statevector.inner", 14, 15, 4, 0},
    };
    const auto self = selfSecondsByLayer(spans);
    expect(self.at("eval") == 2.0, "eval self time excludes its child");
    expect(self.at("statevector") == 4.0, "statevector self time");
    expect(self.at("exec") == 3.0, "exec self time");
    Outcome out;
    addTraceMetrics(out, spans, {1.0, 1.0}, {1.5});
    expect(out.metrics.at("trace.overhead_frac") == 0.5, "overhead fraction");
    expect(out.metrics.at("trace.coverage") == 0.7, "coverage = 7 / 10");

    if (failures == 0)
        std::printf("vqabench_unit: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
