/**
 * @file
 * Ablation: the ELAS-style stereo design choices — support-point
 * prior vs full-range search, SAD block radius, and left-right
 * consistency — traded against accuracy and host compute time.
 * (Sec. IV motivates ELAS over DNN depth precisely on this
 * compute-vs-accuracy trade-off.)
 */
#include <chrono>
#include <cmath>
#include <cstdio>

#include "core/config.h"
#include "core/rng.h"
#include "core/stats.h"
#include "harness.h"
#include "vision/renderer.h"
#include "vision/stereo.h"

using namespace sov;

namespace {

struct Scene
{
    World world;
    RenderedFrame left;
    RenderedFrame right;
    StereoRig rig;
};

Scene
makeScene()
{
    Scene s;
    Rng rng(5);
    for (int i = 0; i < 4; ++i) {
        Obstacle o;
        o.cls = ObjectClass::Pedestrian;
        o.footprint = OrientedBox2{
            Pose2{Vec2(8.0 + 5.0 * i, rng.uniform(-3.0, 3.0)), 0.0},
            0.5, 1.0};
        o.height = 2.0;
        s.world.addObstacle(o);
    }
    s.rig = StereoRig::forwardFacing(CameraIntrinsics{}, 0.5, 1.0);
    const Renderer renderer;
    const Pose2 body{Vec2(0, 0), 0.0};
    s.left = renderer.render(s.world, s.rig.left,
                             s.rig.left.poseAt(body, 1.5),
                             Timestamp::origin());
    s.right = renderer.render(s.world, s.rig.right,
                              s.rig.right.poseAt(body, 1.5),
                              Timestamp::origin());
    return s;
}

/** Returns the disparity-map density so gates can compare variants. */
double
evaluate(const char *name, const Scene &scene, const StereoConfig &cfg,
         bench::BenchReport &report)
{
    const StereoMatcher matcher(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    const DisparityMap map =
        matcher.match(scene.left.intensity, scene.right.intensity);
    const auto t1 = std::chrono::steady_clock::now();

    RunningStats err;
    for (std::size_t y = 60; y < 230; y += 3) {
        for (std::size_t x = 30; x < 290; x += 3) {
            const double gt = scene.left.depth(x, y);
            if (gt <= 1.0 || gt > 30.0 || map.disparity(x, y) <= 0.0)
                continue;
            err.add(std::fabs(map.depthAt(x, y, scene.rig) - gt));
        }
    }
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    std::printf("%-28s err=%6.3f m  density=%4.0f%%  time=%7.1f ms\n",
                name, err.mean(), 100.0 * map.density, ms);
    report.addRow("variants")
        .set("variant", name)
        .set("mean_err_m", err.mean())
        .set("density", map.density)
        .set("time_ms", ms);
    return map.density;
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    std::printf("=== Ablation: stereo matcher design choices ===\n\n");
    const Scene scene = makeScene();
    bench::BenchReport report("ablation_stereo");

    StereoConfig base;
    base.max_disparity = 48;
    const double base_density =
        evaluate("baseline (ELAS-style)", scene, base, report);

    StereoConfig no_prior = base;
    no_prior.support_grid_step = 10000; // no support points -> full range
    evaluate("no support-point prior", scene, no_prior, report);

    StereoConfig no_lr = base;
    no_lr.left_right_check = false;
    const double no_lr_density =
        evaluate("no left-right check", scene, no_lr, report);

    for (const int r : {1, 2, 3, 5}) {
        StereoConfig cfg = base;
        cfg.block_radius = r;
        char label[40];
        std::snprintf(label, sizeof(label), "block radius %d", r);
        evaluate(label, scene, cfg, report);
    }

    std::printf("\nShape: the support-point prior buys most of the "
                "speed; the LR check buys\naccuracy (density drops); "
                "small blocks are fast but noisy.\n");
    report.gate("lr_check_prunes_matches", base_density <= no_lr_density,
                "LR consistency must only remove disparities");
    return report.write(cfg);
}
