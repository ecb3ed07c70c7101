/**
 * @file
 * Tests of the benchmark's own statistics helpers, host-speed
 * scaling and argument parsing. Run: `python3 perfbench/run.py --selftest` (or the built
 * perfbench_selftest binary). Exit 0 when every check holds.
 */
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "args.h"
#include "host.h"
#include "spans.h"
#include "stats.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void
expect(bool ok, const char *what, int line)
{
    if (!ok) {
        ++g_failures;
        std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

void
testTailRule()
{
    // 10 samples: even p50 leaves only 5 beyond -> no tail.
    EXPECT(!tailPercentile(iota(10)));
    EXPECT(!tailPercentile({}));
    // 20 samples: p50 (rank 10) leaves exactly 10 beyond.
    auto t = tailPercentile(iota(20));
    EXPECT(t && near(t->percentile, 50.0) && near(t->value, 10.0) &&
           t->samples == 20 && t->beyond == 10);
    // 100 samples: p90 (rank 90) leaves 10; p95 would leave 5.
    t = tailPercentile(iota(100));
    EXPECT(t && near(t->percentile, 90.0) && near(t->value, 90.0) &&
           t->beyond == 10);
    // 1000 samples: p99 (rank 990) leaves 10.
    t = tailPercentile(iota(1000));
    EXPECT(t && near(t->percentile, 99.0) && near(t->value, 990.0) &&
           t->samples == 1000 && t->beyond == 10);
    // 10000 samples: p99.9 (rank 9990) leaves 10.
    t = tailPercentile(iota(10000));
    EXPECT(t && near(t->percentile, 99.9) && t->beyond == 10);
    // Input order does not matter.
    std::vector<double> rev = iota(100);
    std::vector<double> back(rev.rbegin(), rev.rend());
    t = tailPercentile(back);
    EXPECT(t && near(t->value, 90.0));
    // A custom minimum.
    t = tailPercentile(iota(100), 1);
    EXPECT(t && near(t->percentile, 99.0) && t->beyond == 1);
}

void
testPercentile()
{
    EXPECT(std::isnan(percentile({}, 50)));
    EXPECT(near(median({3, 1, 2}), 2.0));
    EXPECT(near(percentile(iota(4), 50), 2.0));
    EXPECT(near(percentile(iota(4), 100), 4.0));
    EXPECT(near(percentile(iota(4), 0), 1.0));
}

void
testOpenLoop()
{
    // On time: latency from due equals latency from send.
    OpenLoopLatency l = openLoopLatency({10.0, 10.0, 10.5});
    EXPECT(near(l.from_due, 0.5) && near(l.lag, 0.0));
    // The generator stalled 2 s: the request is charged the stall.
    l = openLoopLatency({10.0, 12.0, 12.5});
    EXPECT(near(l.from_due, 2.5) && near(l.lag, 2.0));
    // Sent early (clock jitter) never yields negative lag.
    l = openLoopLatency({10.0, 9.999, 10.1});
    EXPECT(near(l.lag, 0.0) && near(l.from_due, 0.1));
}

void
testSelfTime()
{
    // Parent [0, 100], children [10, 30] and [50, 60] -> 70 self.
    EXPECT(selfTime({0, 100}, {{10, 30}, {50, 60}}) == 70);
    // Overlapping children count once; unsorted input.
    EXPECT(selfTime({0, 100}, {{20, 40}, {10, 30}}) == 70);
    // A child sticking out of the parent is clipped.
    EXPECT(selfTime({0, 100}, {{90, 150}, {-5, 5}}) == 85);
    // No children: the full duration.
    EXPECT(selfTime({5, 25}, {}) == 20);
    // Fully covered.
    EXPECT(selfTime({0, 10}, {{0, 10}}) == 0);
}

void
testSpanRecorder()
{
    SpanRecorder spans(true);
    const std::uint32_t outer = spans.intern("fleet.outer");
    const std::uint32_t inner = spans.intern("world.inner");
    EXPECT(spans.intern("fleet.outer") == outer);
    {
        const auto a = spans.open(outer, 7);
        const auto b = spans.open(inner);
    }
    EXPECT(spans.spans().size() == 2);
    EXPECT(spans.spans()[1].parent == 0);
    EXPECT(spans.spans()[1].request == 7); // inherited from the parent
    const auto sum = spans.summarize();
    EXPECT(sum[0].calls == 1 && sum[1].calls == 1);
    EXPECT(sum[0].self_ns == sum[0].total_ns - sum[1].total_ns);

    SpanRecorder off(false);
    {
        const auto a = off.open(off.intern("x.y"));
    }
    EXPECT(off.spans().empty());
}

void
testSlopeAndJain()
{
    EXPECT(near(slope({1, 2, 3}, {2, 4, 6}), 2.0));
    EXPECT(near(slope({1, 1}, {2, 4}), 0.0));
    EXPECT(near(jainIndex({5, 5, 5, 5}), 1.0));
    EXPECT(near(jainIndex({1, 0, 0, 0}), 0.25));
}

bool
parses(std::vector<std::string> argv)
{
    std::string error;
    return parseArgs(argv, error).has_value();
}

void
testArgs()
{
    EXPECT(parses({"--workload", "serve_mix"}));
    EXPECT(parses({"--workload=fleet_crowded", "--seed", "7",
                   "--seconds", "2.5", "--trace", "1"}));
    EXPECT(!parses({}));                                    // no workload
    EXPECT(!parses({"--workload", "nope"}));                // unknown
    EXPECT(!parses({"--workload", "serve_mix", "--sead", "1"})); // typo
    EXPECT(!parses({"--workload", "serve_mix", "--seed", "-1"}));
    EXPECT(!parses({"--workload", "serve_mix", "--seed", "1x"}));
    EXPECT(!parses({"--workload", "serve_mix", "--seconds", "nan"}));
    EXPECT(!parses({"--workload", "serve_mix", "--seconds", "inf"}));
    EXPECT(!parses({"--workload", "serve_mix", "--seconds", "-3"}));
    EXPECT(!parses({"--workload", "serve_mix", "--seconds", "0"}));
    EXPECT(!parses({"--workload", "serve_mix", "--trace", "2"}));
    EXPECT(!parses({"--workload", "serve_mix", "--seed"}));  // no value
    EXPECT(!parses({"--workload", "serve_mix", "--seed", "1", "--seed",
                    "2"}));                                  // repeated
    EXPECT(!parses({"serve_mix"}));                          // positional
    std::string error;
    const auto a = parseArgs({"--workload", "pointcloud_trace", "--seed",
                              "18446744073709551615"},
                             error);
    EXPECT(a && a->seed == 18446744073709551615ull && !a->trace);
    EXPECT(!parses({"--workload", "serve_mix", "--seed",
                    "18446744073709551616"})); // u64 overflow
}

void
testHostSpeed()
{
    // At reference speed the time is unchanged; on a host 2x slower
    // (reference 2x its nominal time) it halves; the two readings
    // around the work are averaged.
    EXPECT(near(atReferenceSpeed(10.0, 1e6, 1e6, 1e6), 10.0));
    EXPECT(near(atReferenceSpeed(10.0, 2e6, 2e6, 1e6), 5.0));
    EXPECT(near(atReferenceSpeed(12.0, 1e6, 3e6, 1e6), 6.0));
    HostSpeed speed;
    const double ns = speed.sampleNs();
    EXPECT(ns > 0.0 && speed.samples().size() == 1);
    EXPECT(near(speed.scale(3.0, ns, ns), 3.0 * speed.referenceNs() / ns));
    EXPECT(near(speed.medianSpeed(), speed.referenceNs() / ns));
}

} // namespace

int
main()
{
    testTailRule();
    testPercentile();
    testOpenLoop();
    testSelfTime();
    testSpanRecorder();
    testSlopeAndJain();
    testArgs();
    testHostSpeed();
    if (g_failures) {
        std::fprintf(stderr, "%d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("selftest: all checks passed\n");
    return 0;
}
