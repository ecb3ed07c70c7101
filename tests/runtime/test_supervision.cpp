/**
 * Async supervision semantics: watchdog abandonment cancels in-flight
 * sibling stages (no head-of-line blocking), retry backoff shifts the
 * schedule by exactly the configured pause, and a policy that never
 * fires is bit-identical to an unsupervised run.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>

#include "runtime/dataflow.h"
#include "runtime/sched_core.h"

namespace sov::runtime {
namespace {

/** Hangs (never completes on its own) on one scripted frame. */
class HangOnFrameExecutor final : public StageExecutor
{
  public:
    HangOnFrameExecutor(std::size_t hang_frame, Duration normal)
        : hang_frame_(hang_frame), normal_(normal) {}

    Duration execute(std::size_t frame) override
    {
        hung_ = frame == hang_frame_;
        return hung_ ? Duration::seconds(10.0) : normal_;
    }
    StageOutcome lastOutcome() const override
    {
        return hung_ ? StageOutcome::Hang : StageOutcome::Ok;
    }
    const char *kind() const override { return "hang-on-frame"; }

  private:
    std::size_t hang_frame_;
    Duration normal_;
    bool hung_ = false;
};

/** Crashes the first @p crashes attempts of every frame. */
class CrashFirstAttemptsExecutor final : public StageExecutor
{
  public:
    CrashFirstAttemptsExecutor(std::uint32_t crashes, Duration duration)
        : crashes_(crashes), duration_(duration) {}

    Duration execute(std::size_t frame) override
    {
        if (frame != current_) {
            current_ = frame;
            attempt_ = 0;
        }
        crashed_ = attempt_ < crashes_;
        ++attempt_;
        return duration_;
    }
    StageOutcome lastOutcome() const override
    {
        return crashed_ ? StageOutcome::Crash : StageOutcome::Ok;
    }
    const char *kind() const override { return "crash-first"; }

  private:
    std::uint32_t crashes_;
    Duration duration_;
    std::size_t current_ = static_cast<std::size_t>(-1);
    std::uint32_t attempt_ = 0;
    bool crashed_ = false;
};

struct ForkJoinIds
{
    StageId src, slow, flaky, join;
};

/** src -> {slow on lane A, flaky on lane B} -> join. The slow branch
 *  (40 ms) sits under the 50 ms watchdog, but with two frames in
 *  flight it is mid-execution when the hung frame's flaky branch is
 *  abandoned — the in-flight revocation scenario. */
ForkJoinIds
forkJoinGraph(StageGraph &g, std::size_t hang_frame)
{
    ForkJoinIds ids;
    ids.src = g.addFixed("src", "sensor", Duration::millisF(10.0));
    ids.slow =
        g.addFixed("slow", "A", Duration::millisF(40.0), {ids.src});
    ids.flaky = g.addStage("flaky", "B",
                           std::make_unique<HangOnFrameExecutor>(
                               hang_frame, Duration::millisF(5.0)),
                           {ids.src});
    ids.join = g.addFixed("join", "cpu", Duration::millisF(5.0),
                          {ids.slow, ids.flaky});
    return ids;
}

TEST(AsyncSupervision, AbandonmentRevokesInFlightSiblingStage)
{
    constexpr std::size_t kHangFrame = 2;
    StageGraph graph;
    const ForkJoinIds ids = forkJoinGraph(graph, kHangFrame);

    RunOptions opts;
    opts.frames = 6;
    opts.max_in_flight = 2;
    StagePolicy policy;
    policy.timeout = Duration::millisF(50.0);
    policy.max_retries = 0;
    opts.stage_policy = policy;
    const RunResult run = DataflowExecutor::run(graph, opts);

    ASSERT_EQ(run.frames.size(), opts.frames);
    EXPECT_EQ(run.frames_failed, 1u);
    EXPECT_EQ(run.stage_cancellations, 1u);

    // The hung frame was abandoned by the watchdog at flaky's timeout.
    const FrameTrace &hung = run.frames[kHangFrame];
    EXPECT_TRUE(hung.failed);
    EXPECT_EQ(hung.failed_stage, ids.flaky);
    EXPECT_TRUE(hung.spans[ids.flaky].timed_out);

    // Its 40 ms sibling was still in flight on lane A: the span must
    // be truncated at the revocation time, not ride out its duration.
    const StageSpan &revoked = hung.spans[ids.slow];
    EXPECT_TRUE(revoked.cancelled);
    EXPECT_EQ(revoked.finish.ns(),
              (hung.spans[ids.flaky].start + *policy.timeout).ns());
    EXPECT_LT(revoked.finish.ns(),
              (revoked.start + Duration::millisF(40.0)).ns());

    // Head-of-line: lane A freed early, so the next frame's slow stage
    // starts before the revoked execution would even have finished.
    const StageSpan &next = run.frames[kHangFrame + 1].spans[ids.slow];
    EXPECT_FALSE(run.frames[kHangFrame + 1].failed);
    EXPECT_LT(next.start.ns(),
              (revoked.start + Duration::millisF(40.0)).ns());

    // Every other frame completed normally.
    for (std::size_t f = 0; f < opts.frames; ++f) {
        if (f == kHangFrame)
            continue;
        EXPECT_FALSE(run.frames[f].failed) << "frame " << f;
        EXPECT_FALSE(run.frames[f].spans[ids.slow].cancelled)
            << "frame " << f;
    }
}

TEST(AsyncSupervision, RetryBackoffShiftsScheduleByExactlyThePause)
{
    const auto build = [](StageGraph &g) {
        const StageId a =
            g.addFixed("a", "cpu", Duration::millisF(10.0));
        const StageId b = g.addStage(
            "b", "engine",
            std::make_unique<CrashFirstAttemptsExecutor>(
                1, Duration::millisF(30.0)),
            {a});
        return b;
    };

    const Duration backoff = Duration::millisF(7.0);
    StagePolicy policy;
    policy.max_retries = 1;

    StageGraph plain_graph;
    const StageId plain_b = build(plain_graph);
    RunOptions opts;
    opts.frames = 4;
    opts.max_in_flight = 1;
    opts.stage_policy = policy;
    const RunResult plain = DataflowExecutor::run(plain_graph, opts);

    StageGraph delayed_graph;
    build(delayed_graph);
    RunOptions delayed_opts = opts;
    delayed_opts.stage_policy->retry_backoff = backoff;
    const RunResult delayed =
        DataflowExecutor::run(delayed_graph, delayed_opts);

    ASSERT_EQ(plain.frames.size(), delayed.frames.size());
    for (std::size_t f = 0; f < plain.frames.size(); ++f) {
        const StageSpan &p = plain.frames[f].spans[plain_b];
        const StageSpan &d = delayed.frames[f].spans[plain_b];
        EXPECT_EQ(p.attempts, 2u);
        EXPECT_EQ(d.attempts, 2u);
        EXPECT_FALSE(d.crashed); // the retry succeeded
        // Crash at +30, backoff 7, retry 30: span is 30+7+30 = 67 ms.
        EXPECT_EQ(d.duration().ns(),
                  (p.duration() + backoff).ns());
        // One frame in flight: each frame slips by one more backoff.
        EXPECT_EQ(d.finish.ns(),
                  (p.finish + backoff * static_cast<double>(f + 1)).ns());
    }

    // Zero backoff is bit-identical to the pre-backoff supervisor.
    StageGraph zero_graph;
    build(zero_graph);
    RunOptions zero_opts = opts;
    zero_opts.stage_policy->retry_backoff = Duration::zero();
    EXPECT_EQ(DataflowExecutor::run(zero_graph, zero_opts)
                  .fingerprint(),
              plain.fingerprint());
}

TEST(AsyncSupervision, IdlePolicyBitIdenticalToUnsupervisedRun)
{
    // A policy whose watchdog never fires (timeout above every stage
    // duration, healthy executors) must not perturb the schedule.
    StageGraph bare_graph;
    forkJoinGraph(bare_graph, 9999);
    RunOptions bare;
    bare.frames = 12;
    bare.max_in_flight = 2;
    const RunResult unsup = DataflowExecutor::run(bare_graph, bare);

    StageGraph sup_graph;
    forkJoinGraph(sup_graph, 9999);
    RunOptions sup = bare;
    StagePolicy policy;
    policy.timeout = Duration::seconds(5.0);
    policy.max_retries = 3;
    policy.retry_backoff = Duration::millisF(25.0);
    sup.stage_policy = policy;
    const RunResult supervised =
        DataflowExecutor::run(sup_graph, sup);

    EXPECT_EQ(supervised.fingerprint(), unsup.fingerprint());
    EXPECT_EQ(supervised.frames_failed, 0u);
    EXPECT_EQ(supervised.stage_cancellations, 0u);
}

TEST(SchedCore, RevokeInFlightFreesLaneAndStalesSerial)
{
    StageGraph g;
    const StageId a = g.addFixed("a", "A", Duration::millisF(1.0));
    const StageId b = g.addFixed("b", "B", Duration::millisF(1.0), {a});
    SchedulerCore core(g);
    const std::uint32_t slot = core.acquire(0, Timestamp::origin());
    const std::uint32_t lane_a = core.laneOf(a);
    const std::uint64_t serial = core.beginDispatch(lane_a, slot);
    EXPECT_TRUE(core.laneBusy(lane_a));

    // Revocation pops the busy head, frees the lane and bumps the
    // serial so the in-flight completion is recognized as stale.
    const auto revoked = core.revokeInFlight(lane_a, slot);
    ASSERT_TRUE(revoked.has_value());
    EXPECT_EQ(*revoked, a);
    EXPECT_FALSE(core.laneBusy(lane_a));
    EXPECT_FALSE(core.finishDispatch(lane_a, serial));

    // A lane not running this slot is untouched.
    EXPECT_FALSE(core.revokeInFlight(core.laneOf(b), slot).has_value());
}

} // namespace
} // namespace sov::runtime
