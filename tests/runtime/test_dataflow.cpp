#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "runtime/dataflow.h"

namespace sov::runtime {
namespace {

// Fig. 5 DAG with the paper's mean stage durations.
constexpr double kSense = 50.0, kDepth = 32.0, kDet = 54.0, kTrack = 1.0,
                 kLoc = 24.0, kPlan = 3.0;

StageGraph
fig5StageGraph()
{
    StageGraph g;
    const StageId s =
        g.addFixed("sensing", "sensor-fpga", Duration::millisF(kSense));
    const StageId d =
        g.addFixed("depth", "scene", Duration::millisF(kDepth), {s});
    const StageId o =
        g.addFixed("detection", "scene", Duration::millisF(kDet), {s});
    const StageId t =
        g.addFixed("tracking", "cpu", Duration::millisF(kTrack), {o});
    const StageId l =
        g.addFixed("localization", "loc", Duration::millisF(kLoc), {s});
    g.addFixed("planning", "cpu", Duration::millisF(kPlan), {d, t, l});
    return g;
}

TEST(Dataflow, SingleShotFrameLatencyIsResourceConstrainedCriticalPath)
{
    // Period zero: frames never contend; with depth and detection
    // serialized on the scene lane the frame latency is
    // 50 + max(32 + 54 + 1, 24) + 3 = 140 ms, every frame.
    StageGraph sg = fig5StageGraph();
    RunOptions opts;
    opts.frames = 8;
    const RunResult r = DataflowExecutor::run(sg, opts);
    ASSERT_EQ(r.frames.size(), 8u);
    for (const auto &frame : r.frames)
        EXPECT_DOUBLE_EQ(frame.latency().toMillis(), 140.0);
    // Depth issues first on the scene lane; detection queues behind it.
    const StageSpan &det = r.span(0, sg.findStage("detection"));
    EXPECT_DOUBLE_EQ(det.ready.toMillis(), 50.0);
    EXPECT_DOUBLE_EQ(det.start.toMillis(), 50.0 + 32.0);
    EXPECT_DOUBLE_EQ(det.queueing().toMillis(), 32.0);
}

TEST(Dataflow, DeadlineMissesAtOverloadedFrameRate)
{
    // Satellite acceptance: a 110 ms stage fed every 100 ms builds a
    // queue; frame f starts at 110 f, releases at 100 f, so latency is
    // 110 + 10 f and a 120 ms deadline is blown from frame 2 on.
    StageGraph g;
    g.addFixed("only", "accel", Duration::millis(110));
    RunOptions opts;
    opts.frames = 32;
    opts.period = Duration::millis(100);
    opts.max_in_flight = opts.frames;
    opts.deadline = Duration::millis(120);
    const RunResult r = DataflowExecutor::run(g, opts);

    EXPECT_EQ(r.deadline_misses, 30u);
    EXPECT_FALSE(r.frames[0].deadline_missed);
    EXPECT_FALSE(r.frames[1].deadline_missed);
    EXPECT_TRUE(r.frames[2].deadline_missed);
    // Queueing delay grows linearly with the backlog.
    EXPECT_DOUBLE_EQ(r.span(31, 0).queueing().toMillis(), 310.0);
    // Throughput saturates at the stage rate, not the release rate.
    EXPECT_NEAR(r.steadyStateThroughputHz(), 1000.0 / 110.0, 0.3);
}

TEST(Dataflow, NoMissesWhenPipelineKeepsUp)
{
    StageGraph g;
    g.addFixed("only", "accel", Duration::millis(90));
    RunOptions opts;
    opts.frames = 16;
    opts.period = Duration::millis(100);
    opts.max_in_flight = opts.frames;
    opts.deadline = Duration::millis(120);
    const RunResult r = DataflowExecutor::run(g, opts);
    EXPECT_EQ(r.deadline_misses, 0u);
    for (const auto &frame : r.frames)
        EXPECT_DOUBLE_EQ(frame.latency().toMillis(), 90.0);
}

TEST(Dataflow, CompletionCallbacksFireInFrameOrder)
{
    // A slow frame 0 and fast frame 1 on the same lane: in-order issue
    // guarantees frame 0 completes first — actuation commands cannot
    // overtake each other in the closed loop.
    Simulator sim;
    StageGraph g;
    g.addAnalytic("stage", "lane", [](std::size_t f) {
        return f == 0 ? Duration::millis(300) : Duration::millis(10);
    });
    DataflowExecutor exec(sim, g);
    std::vector<std::size_t> completions;
    auto record = [&completions](const FrameTrace &t) {
        completions.push_back(t.frame);
    };
    sim.scheduleAt(Timestamp::origin(),
                   [&] { exec.releaseFrame(record); });
    sim.scheduleAt(Timestamp::origin() + Duration::millis(50),
                   [&] { exec.releaseFrame(record); });
    sim.run();
    ASSERT_EQ(completions.size(), 2u);
    EXPECT_EQ(completions[0], 0u);
    EXPECT_EQ(completions[1], 1u);
    EXPECT_EQ(exec.framesCompleted(), 2u);
}

TEST(Dataflow, MetricsReceiveSpansQueueingAndTotals)
{
    Simulator sim;
    StageGraph g;
    const StageId a = g.addFixed("alpha", "lane", Duration::millis(10));
    g.addFixed("beta", "lane", Duration::millis(5), {a});
    DataflowExecutor exec(sim, g);
    obs::MetricRegistry metrics;
    exec.attachMetrics(&metrics);
    exec.setKeepTraces(false);
    sim.scheduleAt(Timestamp::origin(), [&] { exec.releaseFrame(); });
    sim.scheduleAt(Timestamp::origin(), [&] { exec.releaseFrame(); });
    sim.run();
    EXPECT_EQ(metrics.count("alpha"), 2u);
    EXPECT_EQ(metrics.count("beta"), 2u);
    EXPECT_EQ(metrics.count("total"), 2u);
    EXPECT_DOUBLE_EQ(metrics.mean("alpha"), 10.0);
    EXPECT_DOUBLE_EQ(metrics.mean("beta"), 5.0);
    // Both frames released at t=0 share the lane: frame 0 runs
    // 0-10-15, frame 1's alpha waits 15 ms and it finishes at 30.
    EXPECT_DOUBLE_EQ(metrics.max("queue:alpha"), 15.0);
    EXPECT_DOUBLE_EQ(metrics.mean("total"), 22.5);
    // Keep-traces off: no per-frame history retained.
    EXPECT_TRUE(exec.traces().empty());
}

TEST(Dataflow, TraceFingerprintIndependentOfThreadCount)
{
    // The executor is single-threaded, but the recorder's snapshot
    // order must be content-canonical: two identical runs recorded
    // into recorders whose buffers were touched from different
    // threads fingerprint identically.
    auto runOnce = [](obs::TraceRecorder &rec) {
        Simulator sim;
        StageGraph g;
        const StageId a =
            g.addFixed("alpha", "lane", Duration::millis(10));
        g.addFixed("beta", "lane", Duration::millis(5), {a});
        DataflowExecutor exec(sim, g);
        exec.attachTrace(&rec);
        sim.scheduleAt(Timestamp::origin(), [&] { exec.releaseFrame(); });
        sim.scheduleAt(Timestamp::origin(), [&] { exec.releaseFrame(); });
        sim.run();
    };
    obs::TraceRecorder direct;
    runOnce(direct);
    obs::TraceRecorder threaded;
    std::thread worker([&] { runOnce(threaded); });
    worker.join();
    EXPECT_GT(direct.eventCount(), 0u);
    EXPECT_EQ(direct.fingerprint(), threaded.fingerprint());
}

} // namespace
} // namespace sov::runtime
