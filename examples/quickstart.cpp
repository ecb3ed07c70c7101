/**
 * @file
 * Quickstart: assemble a Systems-on-a-Vehicle and drive it.
 *
 * Builds a loop-road deployment site, adds a pedestrian and a parked
 * car, instantiates the SoV closed-loop simulation (calibrated
 * compute-latency pipeline -> MPC -> CAN -> ECU -> plant, with the
 * radar reactive path armed), runs a route, and prints the end-to-end
 * characterization.
 *
 * Run: ./quickstart [seconds=60] [speed=5.6]
 */
#include <cstdio>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/logging.h"
#include "sovpipe/closed_loop.h"
#include "world/lane_map.h"

using namespace sov;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const double seconds = cfg.getDouble("seconds", 60.0);
    const double speed = cfg.getDouble("speed", 5.6);

    const std::vector<std::string> unread = cfg.unreadKeys();
    if (!unread.empty()) {
        std::fprintf(stderr,
                     "quickstart: unknown argument '%s'\n"
                     "usage: quickstart [seconds=60] [speed=5.6]\n",
                     unread.front().c_str());
        return 2;
    }

    // 1. The deployment site: a 120 x 80 m loop (think of the
    //    industrial-park route of Sec. II-A).
    World world(LaneMap::makeLoopMap(120.0, 80.0));

    // A parked car just off the lane and a pedestrian near the route.
    Obstacle car;
    car.cls = ObjectClass::Car;
    car.footprint = OrientedBox2{Pose2{Vec2(60.0, 4.5), 0.0}, 2.2, 1.0};
    car.height = 1.6;
    world.addObstacle(car);

    Obstacle pedestrian;
    pedestrian.cls = ObjectClass::Pedestrian;
    pedestrian.footprint =
        OrientedBox2{Pose2{Vec2(100.0, -6.0), 0.0}, 0.3, 0.3};
    pedestrian.velocity = Vec2(0.0, 0.4); // strolling toward the lane
    pedestrian.height = 1.8;
    world.addObstacle(pedestrian);

    // 2. The route: one lap of the loop.
    const Route route = world.map().findRoute(0, 3);
    const Polyline2 path = world.map().routeCenterline(route);
    std::printf("route: %zu lanes, %.0f m\n", route.lanes.size(),
                path.length());

    // 3. The SoV: default mapping (scene on GPU, localization on the
    //    FPGA — the Fig. 8 winner), radar tracking, lane-level MPC.
    ClosedLoopConfig loop_cfg;
    loop_cfg.cruise_speed = speed;
    SovPipelineConfig pipeline_cfg;
    ClosedLoopSim sim(world, path, loop_cfg, pipeline_cfg, Rng(2026));

    // 4. Drive.
    const ClosedLoopResult result =
        sim.run(Duration::seconds(seconds));

    std::printf("\n=== quickstart summary ===\n");
    std::printf("distance travelled : %.1f m\n",
                result.distance_travelled);
    std::printf("sim time           : %.1f s\n",
                result.elapsed.toSeconds());
    std::printf("outcome            : %s\n",
                result.collided ? "COLLIDED (bug!)"
                : result.stopped ? "stopped for obstacle"
                                 : "completed / cruising");
    std::printf("min obstacle gap   : %.2f m\n", result.min_gap);
    std::printf("reactive triggers  : %llu\n",
                static_cast<unsigned long long>(
                    result.reactive_triggers));
    std::printf("proactive fraction : %.1f%% (paper: >90%%)\n",
                100.0 * (1.0 - result.reactive_fraction));

    // 5. What did the computing system look like meanwhile?
    const PlatformModel model;
    SovPipelineModel pipeline(model, pipeline_cfg, Rng(7));
    PipelineStats stats = pipeline.characterize(20000);
    std::printf("\ncomputing latency  : best %.0f ms / mean %.0f ms / "
                "p99 %.0f ms\n",
                stats.best_case.toMillis(), stats.mean.toMillis(),
                stats.p99.toMillis());
    std::printf("throughput         : %.1f Hz\n", stats.throughput_hz);
    return 0;
}
