#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "fleet/fleet_runner.h"
#include "serve/service.h"

namespace sov::serve {
namespace {

using fleet::ScenarioMatrix;
using fleet::ScenarioSpec;

std::vector<TenantConfig>
generousTenants(std::size_t n = 1)
{
    std::vector<TenantConfig> tenants;
    for (std::size_t i = 0; i < n; ++i) {
        TenantConfig t;
        t.name = "t" + std::to_string(i);
        t.rate_scenarios_per_s = 1e6;
        t.burst_scenarios = 1e6;
        t.max_queued_scenarios = 1000000;
        tenants.push_back(std::move(t));
    }
    return tenants;
}

ServiceConfig
smallConfig(std::size_t workers, std::size_t tenants = 1)
{
    ServiceConfig config;
    config.workers = workers;
    config.master_seed = 7;
    config.tenants = generousTenants(tenants);
    return config;
}

/** 1 world x 1 fault x 2 stacks x seeds -> 2*seeds short scenarios. */
std::vector<ScenarioSpec>
smallJob(std::size_t seeds = 2, double horizon_s = 2.0)
{
    fleet::WorldPreset wall = fleet::suddenWallWorld(25.0);
    wall.horizon_s = horizon_s;
    ScenarioMatrix m;
    m.addWorld(wall)
        .addFault(fleet::noFaultPreset())
        .addStack(fleet::bareStack())
        .addStack(fleet::supervisedStack())
        .addSeeds(1, seeds);
    return m.enumerate();
}

TEST(ScenarioService, JobRunsToCompletion)
{
    ScenarioService service(smallConfig(2));
    const auto specs = smallJob();
    const SubmitResult submitted =
        service.submit(JobRequest{"t0", "smoke", specs, std::nullopt});
    ASSERT_TRUE(submitted.admitted) << submitted.reason;

    const auto done = service.wait(submitted.id);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobState::Completed);
    EXPECT_EQ(done->total, specs.size());
    EXPECT_EQ(done->completed, specs.size());
    EXPECT_EQ(done->revoked, 0u);
    EXPECT_GE(done->ttfr_ms, 0.0);
    EXPECT_NE(done->fingerprint, 0u);
    EXPECT_EQ(done->label, "smoke");
}

TEST(ScenarioService, ReportMatchesDirectFleetRunner)
{
    // The service is a scheduler, not a semantics layer: its report
    // must be bit-identical to a direct FleetRunner batch over the
    // same scenarios and master seed.
    const auto specs = smallJob();
    fleet::FleetRunner direct(fleet::FleetConfig{2, 7});
    std::vector<fleet::ScenarioOutcome> rows;
    for (const ScenarioSpec &spec : specs)
        rows.push_back(direct.runScenario(spec));
    const auto batch = fleet::FleetReport::fromOutcomes(rows);

    ScenarioService service(smallConfig(2));
    const auto submitted =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(submitted.admitted);
    service.wait(submitted.id);
    const auto report = service.report(submitted.id);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->fingerprint(), batch.fingerprint());
}

TEST(ScenarioService, FingerprintIndependentOfWorkerCount)
{
    const auto specs = smallJob();
    std::uint64_t first = 0;
    for (const std::size_t workers : {1u, 2u, 8u}) {
        ScenarioService service(smallConfig(workers));
        const auto submitted =
            service.submit(JobRequest{"t0", "", specs, std::nullopt});
        ASSERT_TRUE(submitted.admitted);
        const auto done = service.wait(submitted.id);
        ASSERT_TRUE(done.has_value());
        ASSERT_EQ(done->state, JobState::Completed);
        if (first == 0)
            first = done->fingerprint;
        EXPECT_EQ(done->fingerprint, first) << workers << " workers";
    }
}

TEST(ScenarioService, StreamedRowsCoverTheJobExactlyOnce)
{
    ScenarioService service(smallConfig(4));
    const auto specs = smallJob(3);
    const auto submitted =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(submitted.admitted);

    // Poll the stream like a client would: fetch from the last seen
    // position until the job is terminal and the stream is drained.
    std::vector<fleet::ScenarioOutcome> seen;
    for (;;) {
        const auto chunk = service.fetchRows(submitted.id, seen.size());
        seen.insert(seen.end(), chunk.begin(), chunk.end());
        const auto s = service.status(submitted.id);
        ASSERT_TRUE(s.has_value());
        if (isTerminal(s->state) && seen.size() == s->completed)
            break;
        service.wait(submitted.id, 0.01);
    }
    ASSERT_EQ(seen.size(), specs.size());
    // Every index exactly once (completion order is arbitrary).
    std::vector<bool> hit(specs.size(), false);
    for (const auto &row : seen) {
        ASSERT_LT(row.index, hit.size());
        EXPECT_FALSE(hit[row.index]);
        hit[row.index] = true;
    }
}

TEST(ScenarioService, SecondIdenticalJobIsAllCacheHits)
{
    ScenarioService service(smallConfig(2));
    const auto specs = smallJob();
    const auto cold =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(cold.admitted);
    const auto cold_done = service.wait(cold.id);
    ASSERT_TRUE(cold_done.has_value());
    EXPECT_EQ(cold_done->cache_hits, 0u);

    const auto warm =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(warm.admitted);
    const auto warm_done = service.wait(warm.id);
    ASSERT_TRUE(warm_done.has_value());
    EXPECT_EQ(warm_done->state, JobState::Completed);
    EXPECT_EQ(warm_done->cache_hits, specs.size());
    // The replay is bit-identical: same report fingerprint.
    EXPECT_EQ(warm_done->fingerprint, cold_done->fingerprint);

    const auto metrics = service.metricsSnapshot();
    EXPECT_EQ(metrics.counter("serve.cache.hits"), specs.size());
    EXPECT_EQ(metrics.counter("serve.cache.misses"), specs.size());
}

TEST(ScenarioService, CacheDisabledMeansNoHits)
{
    ServiceConfig config = smallConfig(2);
    config.cache_capacity = 0;
    ScenarioService service(config);
    const auto specs = smallJob(1);
    for (int round = 0; round < 2; ++round) {
        const auto submitted =
            service.submit(JobRequest{"t0", "", specs, std::nullopt});
        ASSERT_TRUE(submitted.admitted);
        const auto done = service.wait(submitted.id);
        ASSERT_TRUE(done.has_value());
        EXPECT_EQ(done->cache_hits, 0u);
    }
}

/** A latch that blocking world builds wait on until the test opens it;
 *  the first @c free_passes builds go through without waiting. */
struct Gate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
    int free_passes = 0;
    int waiting = 0;

    void
    pass()
    {
        std::unique_lock<std::mutex> lock(mutex);
        if (free_passes > 0) {
            --free_passes;
            return;
        }
        ++waiting;
        cv.notify_all();
        cv.wait(lock, [this] { return open; });
    }

    /** True once @p n builds wait at the gate (false after 30 s). */
    bool
    awaitWaiting(int n)
    {
        std::unique_lock<std::mutex> lock(mutex);
        return cv.wait_for(lock, std::chrono::seconds(30),
                           [&] { return waiting >= n; });
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lock(mutex);
        open = true;
        cv.notify_all();
    }
};

/** 2 x @p seeds short scenarios whose world build waits at @p gate. */
std::vector<ScenarioSpec>
gatedJob(const std::shared_ptr<Gate> &gate, std::uint64_t seeds = 1)
{
    fleet::WorldPreset wall = fleet::suddenWallWorld(25.0);
    wall.name = "gated_wall";
    wall.horizon_s = 0.5;
    wall.build = [gate, build = wall.build](World &world, Rng &rng) {
        gate->pass();
        build(world, rng);
    };
    ScenarioMatrix m;
    m.addWorld(wall)
        .addFault(fleet::noFaultPreset())
        .addStack(fleet::bareStack())
        .addStack(fleet::supervisedStack())
        .addSeeds(1, seeds);
    return m.enumerate();
}

TEST(ScenarioService, CancelledJobKeepsMergedPrefixConsistent)
{
    const auto gate = std::make_shared<Gate>();
    ScenarioService service(smallConfig(2, 2));
    // Opens the gate however the test ends, before the service joins
    // its workers (locals are destroyed in reverse order).
    const std::unique_ptr<Gate, void (*)(Gate *)> opener(
        gate.get(), [](Gate *g) { g->release(); });

    // Another tenant's gated job holds both workers, so nothing of the
    // job below can be dispatched before the cancel: the cancel always
    // wins, on any host.
    const auto blocker =
        service.submit(JobRequest{"t1", "", gatedJob(gate), std::nullopt});
    ASSERT_TRUE(blocker.admitted);
    ASSERT_TRUE(gate->awaitWaiting(2));

    const auto specs = smallJob(4); // 8 scenarios
    const auto submitted =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(submitted.admitted);
    EXPECT_TRUE(service.cancel(submitted.id));
    EXPECT_FALSE(service.cancel(submitted.id)); // already terminal
    gate->release();

    const auto done = service.wait(submitted.id);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobState::Cancelled);
    EXPECT_EQ(done->completed, 0u);
    EXPECT_EQ(done->revoked, specs.size());

    // The partial report over the rows that DID land must equal a
    // batch build over exactly those rows: cancellation leaves the
    // merge state consistent, never half-merged.
    const auto report = service.report(submitted.id);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->outcomes().size(), done->completed);
    EXPECT_EQ(report->fingerprint(),
              fleet::FleetReport::fromOutcomes(report->outcomes())
                  .fingerprint());
    const auto final_metrics = service.jobMetrics(submitted.id);
    ASSERT_TRUE(final_metrics.has_value());

    // The gated job itself is untouched by the other tenant's cancel.
    const auto blocked = service.wait(blocker.id);
    ASSERT_TRUE(blocked.has_value());
    EXPECT_EQ(blocked->state, JobState::Completed);
    EXPECT_EQ(blocked->completed, 2u);
}

TEST(ScenarioService, CancelDiscardsInFlightShardsWithoutMerging)
{
    // The job's first two world builds pass; the next two hold both
    // workers at the gate, already past the dispatch-time revoke
    // check. Those two must take the mid-flight discard once the
    // cancel has landed: the merged prefix stays the first two rows.
    const auto gate = std::make_shared<Gate>();
    gate->free_passes = 2;
    ScenarioService service(smallConfig(2));
    const std::unique_ptr<Gate, void (*)(Gate *)> opener(
        gate.get(), [](Gate *g) { g->release(); });

    const auto specs = gatedJob(gate, 4); // 8 scenarios
    const auto submitted =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(submitted.admitted);
    // A worker takes its next shard only after merging its last one,
    // so with two shards waiting, the two free ones have merged.
    ASSERT_TRUE(gate->awaitWaiting(2));
    EXPECT_TRUE(service.cancel(submitted.id));

    const auto cancelled = service.status(submitted.id);
    ASSERT_TRUE(cancelled.has_value());
    EXPECT_EQ(cancelled->state, JobState::Cancelled);
    EXPECT_EQ(cancelled->completed, 2u);
    EXPECT_EQ(cancelled->revoked, 4u); // the queued four
    const auto before = service.report(submitted.id);
    ASSERT_TRUE(before.has_value());

    gate->release();
    // The two held shards now finish their scenarios and must discard
    // them on the way back.
    std::optional<JobSnapshot> done;
    for (int i = 0; i < 3000; ++i) {
        done = service.status(submitted.id);
        ASSERT_TRUE(done.has_value());
        if (done->revoked == specs.size() - 2)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(done->state, JobState::Cancelled);
    EXPECT_EQ(done->completed, 2u);
    EXPECT_EQ(done->revoked, 6u);
    EXPECT_EQ(done->fingerprint, cancelled->fingerprint);

    const auto report = service.report(submitted.id);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->outcomes().size(), 2u);
    EXPECT_EQ(report->fingerprint(), before->fingerprint());
    EXPECT_EQ(report->fingerprint(),
              fleet::FleetReport::fromOutcomes(report->outcomes())
                  .fingerprint());
    EXPECT_EQ(service.fetchRows(submitted.id, 0).size(), 2u);
    const auto metrics = service.metricsSnapshot();
    EXPECT_EQ(metrics.counter("serve.scenarios_completed"), 2u);
    EXPECT_EQ(metrics.counter("serve.shards_revoked"), 2u);
}

TEST(ScenarioService, ExpiredDeadlineTimesOutInsteadOfRunning)
{
    ScenarioService service(smallConfig(1));
    const auto specs = smallJob(4);
    // A deadline of zero seconds expires before the first dispatch:
    // the pump must finalize to TimedOut, not run the job anyway.
    const auto submitted =
        service.submit(JobRequest{"t0", "", specs, 0.0});
    ASSERT_TRUE(submitted.admitted);
    const auto done = service.wait(submitted.id, 5.0);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobState::TimedOut);
    EXPECT_EQ(done->completed, 0u);
    const auto metrics = service.metricsSnapshot();
    EXPECT_EQ(metrics.counter("serve.jobs_timed_out"), 1u);
}

TEST(ScenarioService, RejectsUnknownTenantAndEmptyJob)
{
    ScenarioService service(smallConfig(1));
    const auto ghost =
        service.submit(JobRequest{"ghost", "", smallJob(1), std::nullopt});
    EXPECT_FALSE(ghost.admitted);
    EXPECT_EQ(ghost.reason, kRejectUnknownTenant);

    const auto empty =
        service.submit(JobRequest{"t0", "", {}, std::nullopt});
    EXPECT_FALSE(empty.admitted);
    EXPECT_EQ(empty.reason, kRejectEmptyJob);

    const auto metrics = service.metricsSnapshot();
    EXPECT_EQ(metrics.counter("serve.jobs_rejected"), 2u);
    EXPECT_EQ(metrics.counter("serve.jobs_admitted"), 0u);
}

TEST(ScenarioService, OverRateTenantIsRejectedAtTheDoor)
{
    ServiceConfig config = smallConfig(1);
    config.tenants[0].rate_scenarios_per_s = 0.001; // ~no refill
    config.tenants[0].burst_scenarios = 4.0;
    ScenarioService service(config);

    const auto specs = smallJob(1); // 2 scenarios
    const auto first =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(first.admitted);
    const auto second =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(second.admitted); // burst covers 4
    const auto third =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    EXPECT_FALSE(third.admitted);
    EXPECT_EQ(third.reason, kRejectOverRate);
    service.wait(first.id);
    service.wait(second.id);
}

TEST(ScenarioService, UnknownJobIdsAreNullopt)
{
    ScenarioService service(smallConfig(1));
    EXPECT_FALSE(service.status(99).has_value());
    EXPECT_FALSE(service.wait(99, 0.1).has_value());
    EXPECT_FALSE(service.report(99).has_value());
    EXPECT_FALSE(service.jobMetrics(99).has_value());
    EXPECT_FALSE(service.cancel(99));
    EXPECT_TRUE(service.fetchRows(99, 0).empty());
}

TEST(ScenarioService, WaitWithZeroTimeoutReturnsLiveSnapshot)
{
    ScenarioService service(smallConfig(1));
    const auto specs = smallJob(2);
    const auto submitted =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(submitted.admitted);
    const auto peek = service.wait(submitted.id, 0.0);
    ASSERT_TRUE(peek.has_value()); // may or may not be terminal yet
    EXPECT_EQ(peek->id, submitted.id);
    const auto done = service.wait(submitted.id);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobState::Completed);
}

TEST(ScenarioService, DestructorCancelsLiveJobsCleanly)
{
    const auto specs = smallJob(4);
    {
        ScenarioService service(smallConfig(2));
        const auto submitted =
            service.submit(JobRequest{"t0", "", specs, std::nullopt});
        ASSERT_TRUE(submitted.admitted);
        // Tear down with the job mid-flight: the destructor must
        // revoke, drain and join without hanging or crashing.
    }
    SUCCEED();
}

TEST(ScenarioService, JobMetricsMergeStreamedShards)
{
    ScenarioService service(smallConfig(2));
    const auto specs = smallJob();
    const auto submitted =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(submitted.admitted);
    service.wait(submitted.id);
    const auto metrics = service.jobMetrics(submitted.id);
    ASSERT_TRUE(metrics.has_value());
    EXPECT_FALSE(metrics->empty());
    EXPECT_NE(metrics->fingerprint(), 0u);
}

TEST(ScenarioService, PerTenantCountersTrackCompletions)
{
    ScenarioService service(smallConfig(2, /*tenants=*/2));
    const auto specs = smallJob(1); // 2 scenarios
    const auto a =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    const auto b =
        service.submit(JobRequest{"t1", "", specs, std::nullopt});
    ASSERT_TRUE(a.admitted);
    ASSERT_TRUE(b.admitted);
    service.wait(a.id);
    service.wait(b.id);
    const auto metrics = service.metricsSnapshot();
    EXPECT_EQ(metrics.counter("serve.tenant.t0.completed"),
              specs.size());
    EXPECT_EQ(metrics.counter("serve.tenant.t1.completed"),
              specs.size());
    EXPECT_EQ(metrics.counter("serve.jobs_completed"), 2u);
    EXPECT_EQ(metrics.counter("serve.scenarios_completed"),
              2 * specs.size());
}

} // namespace
} // namespace sov::serve
