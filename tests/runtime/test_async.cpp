#include <gtest/gtest.h>

#include <vector>

#include "core/thread_pool.h"
#include "obs/trace.h"
#include "runtime/dataflow.h"
#include "runtime/sched_core.h"

namespace sov::runtime {
namespace {

// The Fig. 5 DAG at the paper's mean stage durations (the same graph
// test_dataflow.cpp schedules). Single-shot critical
// path: 50 + 54 + 1 + 3 = 108... sensing 50, scene lane 32 + 54 = 86.
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

// Fingerprints of the single-shot and pipelined schedules as the
// former dedicated (unwindowed) batch driver produced them: the one
// windowed driver must keep reproducing both bit for bit.
constexpr std::uint64_t kSingleShot24Fingerprint = 0x61b58eb149709f2eULL;
constexpr std::uint64_t kPipelined16x100msFingerprint =
    0xe827b08a6b96c0b6ULL;

TEST(AsyncDataflow, OverlapOffBitIdenticalToSyncExecutor)
{
    // Overlap off (window 1, zero period): frame f+1 releases the
    // instant frame f completes, so every frame runs the 140 ms
    // critical path back to back.
    const std::size_t frames = 24;
    StageGraph graph = fig5StageGraph();
    RunOptions opts;
    opts.frames = frames;
    const RunResult run = DataflowExecutor::run(graph, opts);

    ASSERT_EQ(run.frames.size(), frames);
    for (std::size_t f = 0; f < frames; ++f) {
        EXPECT_EQ(run.frames[f].release.ns(),
                  Duration::millis(140).ns() * static_cast<std::int64_t>(f));
        EXPECT_DOUBLE_EQ(run.frames[f].latency().toMillis(), 140.0);
    }
    EXPECT_EQ(run.fingerprint(), kSingleShot24Fingerprint);
}

TEST(AsyncDataflow, PeriodicAsyncWithWideWindowMatchesPipelinedRun)
{
    // With the admission window out of the way, frame f releases at
    // f * period unconditionally: the pipelined schedule.
    const std::size_t frames = 16;
    StageGraph graph = fig5StageGraph();
    RunOptions opts;
    opts.frames = frames;
    opts.period = Duration::millis(100);
    opts.max_in_flight = frames;
    const RunResult run = DataflowExecutor::run(graph, opts);

    ASSERT_EQ(run.frames.size(), frames);
    for (std::size_t f = 0; f < frames; ++f) {
        EXPECT_EQ(run.frames[f].release.ns(),
                  (opts.period * static_cast<double>(f)).ns());
    }
    EXPECT_EQ(run.fingerprint(), kPipelined16x100msFingerprint);
}

TEST(AsyncDataflow, FingerprintsThreadCountIndependent)
{
    // The async characterization is a deterministic simulation: running
    // it from worker threads of a 1-, 2- or 8-thread pool must yield
    // bit-identical schedule fingerprints.
    constexpr std::size_t kJobs = 4;
    std::vector<std::vector<std::uint64_t>> per_pool;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        std::vector<std::uint64_t> fps(kJobs, 0);
        pool.parallelFor(kJobs, [&fps](std::size_t j) {
            StageGraph graph = fig5StageGraph();
            RunOptions opts;
            opts.frames = 8 + j;
            opts.max_in_flight = 1 + j % 3;
            fps[j] = DataflowExecutor::run(graph, opts).fingerprint();
        });
        per_pool.push_back(std::move(fps));
    }
    EXPECT_EQ(per_pool[0], per_pool[1]);
    EXPECT_EQ(per_pool[1], per_pool[2]);
}

TEST(AsyncDataflow, DisabledTracingIsBitTransparent)
{
    // Attaching a recorder must not perturb the schedule, and not
    // attaching one must be free of any trace side effects.
    const std::size_t frames = 12;
    StageGraph bare_graph = fig5StageGraph();
    RunOptions bare;
    bare.frames = frames;
    bare.max_in_flight = 3;
    const RunResult without =
        DataflowExecutor::run(bare_graph, bare);

    obs::TraceRecorder recorder;
    StageGraph traced_graph = fig5StageGraph();
    RunOptions traced = bare;
    traced.trace = &recorder;
    const RunResult with =
        DataflowExecutor::run(traced_graph, traced);

    EXPECT_EQ(without.fingerprint(), with.fingerprint());
    EXPECT_GT(recorder.eventCount(), 0u);
}

TEST(AsyncDataflow, SelfPacedThroughputBeatsSingleShotBy1_5x)
{
    const std::size_t frames = 64;
    StageGraph single_graph = fig5StageGraph();
    RunOptions single;
    single.frames = frames;
    const double single_hz = DataflowExecutor::run(single_graph, single)
                                 .steadyStateThroughputHz();

    StageGraph async_graph = fig5StageGraph();
    RunOptions async;
    async.frames = frames;
    async.max_in_flight = 3;
    const double async_hz =
        DataflowExecutor::run(async_graph, async)
            .steadyStateThroughputHz();

    // Single-shot: 140 ms critical path = 7.14 Hz. Self-paced async
    // saturates the 86 ms scene lane = 11.6 Hz — a 1.63x win.
    EXPECT_GT(single_hz, 0.0);
    EXPECT_GE(async_hz, 1.5 * single_hz);
}

TEST(AsyncDataflow, FramesActuallyOverlapAcrossTheWindow)
{
    StageGraph graph = fig5StageGraph();
    RunOptions opts;
    opts.frames = 8;
    opts.max_in_flight = 2;
    const RunResult run = DataflowExecutor::run(graph, opts);

    // Frame f+1's sensing must start before frame f finishes (the
    // overlap the single-shot mode forbids).
    bool overlapped = false;
    for (std::size_t f = 0; f + 1 < run.frames.size(); ++f) {
        if (run.frames[f + 1].spans[0].start < run.frames[f].finish)
            overlapped = true;
    }
    EXPECT_TRUE(overlapped);
}

TEST(AsyncDataflow, BackpressureBoundsFramesInFlight)
{
    // Release far faster than the 86 ms bottleneck: admission must
    // defer due frames so at most `window` frames are ever in flight.
    StageGraph graph = fig5StageGraph();
    RunOptions opts;
    opts.frames = 16;
    opts.period = Duration::millis(10);
    opts.max_in_flight = 2;
    const RunResult run = DataflowExecutor::run(graph, opts);

    ASSERT_EQ(run.frames.size(), opts.frames);
    for (std::size_t f = 0; f < run.frames.size(); ++f) {
        std::size_t in_flight = 1; // frame f itself
        for (std::size_t j = 0; j < f; ++j) {
            if (run.frames[j].finish > run.frames[f].release)
                ++in_flight;
        }
        EXPECT_LE(in_flight, opts.max_in_flight) << "frame " << f;
        // A deferred frame releases later than its nominal tick.
        EXPECT_GE(run.frames[f].release.ns(),
                  (Timestamp::origin() +
                   opts.period * static_cast<double>(f))
                      .ns());
    }
    // Throughput still saturates the bottleneck lane, not the period.
    EXPECT_NEAR(run.steadyStateThroughputHz(), 1000.0 / 86.0, 0.15);
}

TEST(AsyncDataflow, SteadyStateGrowsNoContainers)
{
    StageGraph graph = fig5StageGraph();
    RunOptions opts;
    opts.frames = 96;
    opts.max_in_flight = 3;
    opts.keep_traces = false;
    const RunResult run = DataflowExecutor::run(graph, opts);
    EXPECT_EQ(run.frames.size(), 0u); // traces off
    EXPECT_EQ(run.finish_times.size(), opts.frames);
    EXPECT_GT(run.growth_events, 0u); // warmup did size the pools
    EXPECT_EQ(run.steady_growth_events, 0u);
}

TEST(AsyncDataflow, PayloadRingIsNotCorruptedByOverlap)
{
    // Kernel-style stages materialize per-frame payloads in a
    // double-buffered FramePayloadRing; with the admission window
    // capped at the ring depth, no consumer may ever observe another
    // frame's bytes.
    constexpr std::size_t kDepth = 2;
    constexpr std::size_t kWords = 256;
    FramePayloadRing ring(kDepth);
    std::vector<std::uint32_t *> payload(kDepth, nullptr);
    std::uint64_t mismatches = 0;

    StageGraph graph;
    const StageId produce = graph.addAnalytic(
        "produce", "sensor", [&](std::size_t frame) {
            auto *buf = ring.acquire(frame).alloc<std::uint32_t>(kWords);
            for (std::size_t i = 0; i < kWords; ++i)
                buf[i] = static_cast<std::uint32_t>(frame * 31 + i);
            payload[frame % kDepth] = buf;
            return Duration::millisF(4.0);
        });
    graph.addAnalytic(
        "consume", "cpu",
        [&](std::size_t frame) {
            const std::uint32_t *buf = payload[frame % kDepth];
            for (std::size_t i = 0; i < kWords; ++i) {
                if (buf[i] != static_cast<std::uint32_t>(frame * 31 + i))
                    ++mismatches;
            }
            return Duration::millisF(6.0);
        },
        {produce});

    RunOptions opts;
    opts.frames = 32;
    opts.max_in_flight = kDepth;
    opts.keep_traces = false;
    const RunResult run = DataflowExecutor::run(graph, opts);

    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(run.steady_growth_events, 0u);
    // The ring warmed up once; rewinding per frame allocated nothing
    // beyond the two slot arenas' first blocks.
    const std::size_t warm = ring.systemAllocations();
    std::uint64_t second_mismatches = 0;
    StageGraph second;
    const StageId p2 = second.addAnalytic(
        "produce", "sensor", [&](std::size_t frame) {
            auto *buf = ring.acquire(frame).alloc<std::uint32_t>(kWords);
            for (std::size_t i = 0; i < kWords; ++i)
                buf[i] = static_cast<std::uint32_t>(frame * 7 + i);
            payload[frame % kDepth] = buf;
            return Duration::millisF(4.0);
        });
    second.addAnalytic(
        "consume", "cpu",
        [&](std::size_t frame) {
            const std::uint32_t *buf = payload[frame % kDepth];
            for (std::size_t i = 0; i < kWords; ++i) {
                if (buf[i] != static_cast<std::uint32_t>(frame * 7 + i))
                    ++second_mismatches;
            }
            return Duration::millisF(6.0);
        },
        {p2});
    DataflowExecutor::run(second, opts);
    EXPECT_EQ(second_mismatches, 0u);
    EXPECT_EQ(ring.systemAllocations(), warm);
}

TEST(AsyncDataflow, SchedulerCoreRecyclesSlots)
{
    StageGraph graph = fig5StageGraph();
    Simulator sim;
    DataflowExecutor exec(sim, graph);
    for (int i = 0; i < 5; ++i) {
        exec.releaseFrame();
        sim.run();
    }
    EXPECT_EQ(exec.framesCompleted(), 5u);
    const std::uint64_t warm = exec.coreGrowthEvents();
    for (int i = 0; i < 50; ++i) {
        exec.releaseFrame();
        sim.run();
    }
    EXPECT_EQ(exec.framesCompleted(), 55u);
    EXPECT_EQ(exec.coreGrowthEvents(), warm);
}

} // namespace
} // namespace sov::runtime
