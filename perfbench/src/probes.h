/**
 * @file
 * Layer probes of the traced run.
 *
 * A probe replays inputs through one public call of one module and
 * reports the per-call host cost. Every traced run, on every workload,
 * reports the same probe rows (BENCHMARK.json "per_layer"), so a
 * change to one layer shows on the workload that exercises it and the
 * ones that bypass it side by side. Each probe group takes the
 * workload's own inputs where the workload has them (its worlds, its
 * service, its clouds) and otherwise a small input drawn from the
 * run's seed; the full report says which ("input=").
 */
#pragma once

#include <cstdint>
#include <vector>

#include "fleet/scenario.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

/** Per-call costs of the closed loop's hot calls. */
struct ClosedLoopCosts
{
    double advance_ns = 0.0;         //!< World::advanceTo
    double raycast_ns = 0.0;         //!< WorldSnapshot::raycast
    double box_distance_ns = 0.0;    //!< OrientedBox2::distanceTo
    double radar_nearest_ns = 0.0;   //!< RadarModel::nearestInPath
    double first_collision_us = 0.0; //!< firstCollision
    double mpc_plan_us = 0.0;        //!< MpcPlanner::plan
    double frame_us = 0.0;  //!< one Fig. 5 frame, DataflowExecutor
    double event_ns = 0.0;  //!< one Simulator periodic event
    double events_per_frame = 0.0;
};

/**
 * Replay @p worlds (built once each) along their routes at cruise
 * speed for @p replay_s simulated seconds and time each call at the
 * closed loop's rates; the pipeline probes run the default Fig. 5
 * graph on a Simulator.
 */
ClosedLoopCosts probeClosedLoop(
    const std::vector<sov::fleet::WorldPreset> &worlds, std::uint64_t seed,
    double replay_s, SpanRecorder &spans);

/** Record the closed-loop probe rows (per_layer names). */
void reportClosedLoop(Report &report, const ClosedLoopCosts &costs,
                      const char *input);

/** Small fuzzed worlds for workloads without worlds of their own. */
std::vector<sov::fleet::WorldPreset> probeWorlds(std::uint64_t seed,
                                                 std::size_t count);

/** Host split of one traced point-cloud pass. */
struct PointcloudCosts
{
    double kdtree_build_ms = 0.0;
    double kernel_ms = 0.0; //!< calls with trace = nullptr
    double trace_ms = 0.0;  //!< MemTrace only, minus kernel
    double cache_ms = 0.0;  //!< MemTrace + CacheSim, minus trace-only
    std::uint64_t accesses = 0;
};

/** The point-cloud probe rows (per_layer names) from @p costs. */
void reportPointcloud(Report &report, const PointcloudCosts &costs,
                      const char *input);

/** Costs of the serve line protocol, per call. */
struct ServeCosts
{
    double submit_us = 0.0;        //!< SUBMIT handleLine, p50
    double line_protocol_us = 0.0; //!< STATUS handleLine, p50
    double fetch_rows_us = 0.0;    //!< ROWS handleLine, p50
};

void reportServe(Report &report, const ServeCosts &costs,
                 const char *input);

/** A small socketless service run for workloads that bypass serve. */
ServeCosts probeServe(std::uint64_t seed, SpanRecorder &spans);

} // namespace perfbench
