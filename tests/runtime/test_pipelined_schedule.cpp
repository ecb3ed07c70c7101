#include <gtest/gtest.h>

#include "runtime/dataflow.h"

namespace sov::runtime {
namespace {

// A miniature version of the Fig. 5 pipeline used across these tests:
// sensing -> {localization, scene understanding} -> planning, with
// localization on the FPGA and the rest on GPU/CPU.
StageGraph
makePipeline(Duration sense, Duration loc, Duration scene, Duration plan)
{
    StageGraph g;
    const StageId s = g.addFixed("sensing", "fpga", sense);
    const StageId l = g.addFixed("localization", "fpga", loc, {s});
    const StageId u = g.addFixed("scene", "gpu", scene, {s});
    g.addFixed("planning", "cpu", plan, {l, u});
    return g;
}

/** Release @p frames frames every @p period through @p g. */
RunResult
schedule(StageGraph &g, std::size_t frames, Duration period)
{
    RunOptions opts;
    opts.frames = frames;
    opts.period = period;
    opts.max_in_flight = frames;
    return DataflowExecutor::run(g, opts);
}

TEST(PipelinedSchedule, CriticalPathTakesSlowerBranch)
{
    StageGraph g = makePipeline(Duration::millis(50), Duration::millis(24),
                                Duration::millis(77), Duration::millis(3));
    // 50 + max(24, 77) + 3 = 130
    EXPECT_DOUBLE_EQ(g.criticalPathLatency().toMillis(), 130.0);
}

TEST(PipelinedSchedule, ParallelBranchesOverlapInSchedule)
{
    StageGraph g = makePipeline(Duration::millis(10), Duration::millis(20),
                                Duration::millis(30), Duration::millis(5));
    const RunResult r = schedule(g, 1, Duration::millis(100));
    const auto &spans = r.frames[0].spans;
    // localization and scene start together right after sensing.
    EXPECT_EQ(spans[1].start.toMillis(), 10.0);
    EXPECT_EQ(spans[2].start.toMillis(), 10.0);
    // planning starts when the slower branch ends.
    EXPECT_EQ(spans[3].start.toMillis(), 40.0);
    EXPECT_EQ(r.frames[0].latency().toMillis(), 45.0);
}

TEST(PipelinedSchedule, ResourceSerializationWithinFrame)
{
    // Two independent stages on one resource must serialize.
    StageGraph g;
    g.addFixed("a", "gpu", Duration::millis(10));
    g.addFixed("b", "gpu", Duration::millis(10));
    const RunResult r = schedule(g, 1, Duration::millis(100));
    EXPECT_EQ(r.frames[0].latency().toMillis(), 20.0);
    // Critical path (infinite resources) would be 10 ms.
    EXPECT_EQ(g.criticalPathLatency().toMillis(), 10.0);
}

TEST(PipelinedSchedule, PipeliningOverlapsFrames)
{
    // Stage times 50/77/3: throughput is set by the 77 ms bottleneck
    // even though single-frame latency is 130 ms (Sec. III-A:
    // "throughput ... easier to meet than latency due to pipelining").
    StageGraph g;
    const StageId s = g.addFixed("sense", "fpga", Duration::millis(50));
    const StageId p =
        g.addFixed("perceive", "gpu", Duration::millis(77), {s});
    g.addFixed("plan", "cpu", Duration::millis(3), {p});

    const RunResult r = schedule(g, 64, Duration::millis(77));
    EXPECT_NEAR(r.steadyStateThroughputHz(), 1000.0 / 77.0, 0.5);
    // Latency of late frames remains bounded (no queue explosion).
    EXPECT_LT(r.frames.back().latency().toMillis(), 200.0);
}

TEST(PipelinedSchedule, SlowInputPeriodThrottlesThroughput)
{
    StageGraph g;
    g.addFixed("only", "cpu", Duration::millis(10));
    const RunResult r = schedule(g, 32, Duration::millis(100));
    EXPECT_NEAR(r.steadyStateThroughputHz(), 10.0, 0.3);
}

TEST(PipelinedSchedule, PerFrameDurationCallback)
{
    StageGraph g;
    g.addAnalytic("var", "cpu", [](std::size_t f) {
        return Duration::millis(10 + static_cast<std::int64_t>(f) * 5);
    });
    const RunResult r = schedule(g, 3, Duration::millis(1000));
    EXPECT_EQ(r.frames[0].latency().toMillis(), 10.0);
    EXPECT_EQ(r.frames[1].latency().toMillis(), 15.0);
    EXPECT_EQ(r.frames[2].latency().toMillis(), 20.0);
}

TEST(PipelinedSchedule, FindStageByName)
{
    StageGraph g = makePipeline(Duration::millis(1), Duration::millis(1),
                                Duration::millis(1), Duration::millis(1));
    EXPECT_EQ(g.findStage("sensing"), 0u);
    EXPECT_EQ(g.findStage("planning"), 3u);
    EXPECT_EQ(g.stageNames().size(), 4u);
    EXPECT_EQ(g.stage(2).name, "scene");
}

TEST(PipelinedSchedule, FrameReleaseTimes)
{
    StageGraph g;
    g.addFixed("t", "cpu", Duration::millis(1));
    const RunResult r = schedule(g, 3, Duration::millis(33));
    EXPECT_EQ(r.frames[2].release.toMillis(), 66.0);
    EXPECT_EQ(r.frames[2].finish.toMillis(), 67.0);
}

} // namespace
} // namespace sov::runtime
