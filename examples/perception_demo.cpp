/**
 * @file
 * The full camera perception stack running end-to-end on rendered
 * frames: site-specific detector training (Sec. IV), stereo depth,
 * corner tracking, detection + radar spatial synchronization — every
 * algorithm real, no latency models involved.
 *
 * Run: ./perception_demo [views=20] [epochs=6]
 */
#include <cstdio>
#include <string>
#include <vector>

#include "core/config.h"
#include "sensors/radar.h"
#include "tracking/radar_tracker.h"
#include "tracking/spatial_sync.h"
#include "vision/detector.h"
#include "vision/features.h"
#include "vision/renderer.h"
#include "vision/stereo.h"

using namespace sov;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const auto views = static_cast<std::size_t>(cfg.getInt("views", 20));
    const auto epochs = static_cast<std::size_t>(cfg.getInt("epochs", 6));

    const std::vector<std::string> unread = cfg.unreadKeys();
    if (!unread.empty()) {
        std::fprintf(stderr,
                     "perception_demo: unknown argument '%s'\n"
                     "usage: perception_demo [views=20] [epochs=6]\n",
                     unread.front().c_str());
        return 2;
    }

    // ------------------------------------------------- the scene
    World world;
    Obstacle ped;
    ped.cls = ObjectClass::Pedestrian;
    ped.footprint = OrientedBox2{Pose2{Vec2(11.0, 2.0), 0.0}, 0.3, 0.3};
    ped.height = 1.8;
    ped.velocity = Vec2(0.0, -0.6);
    world.addObstacle(ped);
    Obstacle car;
    car.cls = ObjectClass::Car;
    car.footprint = OrientedBox2{Pose2{Vec2(17.0, -3.0), 0.3}, 2.2, 1.0};
    car.height = 1.6;
    world.addObstacle(car);
    Rng rng(99);
    world.scatterLandmarks(Polyline2({Vec2(0, 0), Vec2(40, 0)}), 120,
                           10.0, 4.0, rng);

    const Pose2 ego{Vec2(0.0, 0.0), 0.0};

    // ------------------------------------ 1. train the site detector
    std::printf("=== 1. site-specific detector training "
                "(Sec. IV) ===\n");
    const CameraModel mono(CameraIntrinsics{}, Vec3(1.0, 0.0, 0.0));
    Rng train_rng(7);
    const ObjectDetector detector =
        trainSiteDetector(world, mono, views, epochs, train_rng);
    std::printf("trained on %zu rendered views, %zu epochs\n\n", views,
                epochs);

    // ----------------------------------------- 2. render stereo pair
    const StereoRig rig =
        StereoRig::forwardFacing(CameraIntrinsics{}, 0.5, 1.0);
    const Renderer renderer;
    const CameraPose lp = rig.left.poseAt(ego, 1.5);
    const CameraPose rp = rig.right.poseAt(ego, 1.5);
    const RenderedFrame left =
        renderer.render(world, rig.left, lp, Timestamp::origin());
    const RenderedFrame right =
        renderer.render(world, rig.right, rp, Timestamp::origin());

    // ------------------------------------------------ 3. stereo depth
    std::printf("=== 2. stereo depth estimation (ELAS-style) ===\n");
    StereoConfig stereo_cfg;
    stereo_cfg.max_disparity = 48;
    const StereoMatcher matcher(stereo_cfg);
    const DisparityMap disparity =
        matcher.match(left.intensity, right.intensity);
    std::printf("disparity density: %.0f%%\n",
                100.0 * disparity.density);
    double depth_err = 0.0;
    std::size_t depth_n = 0;
    for (std::size_t y = 100; y < 220; y += 4) {
        for (std::size_t x = 40; x < 280; x += 4) {
            const double gt = left.depth(x, y);
            if (gt <= 1.0 || gt > 25.0 ||
                disparity.disparity(x, y) <= 0.0) {
                continue;
            }
            depth_err += std::fabs(disparity.depthAt(x, y, rig) - gt);
            ++depth_n;
        }
    }
    std::printf("mean |depth error| over %zu pixels: %.2f m "
                "(tolerance per Sec. III-D: ~0.2 m)\n\n",
                depth_n, depth_err / depth_n);

    // -------------------------------------------------- 4. detection
    std::printf("=== 3. object detection (CNN) ===\n");
    const auto detections = detector.detect(left.intensity);
    for (const auto &d : detections) {
        std::printf("  %-11s conf=%.2f box=(%.0f,%.0f %.0fx%.0f)\n",
                    toString(d.cls), d.confidence, d.box.x, d.box.y,
                    d.box.w, d.box.h);
    }

    // ------------------------------------ 5. corner tracking front-end
    std::printf("\n=== 4. feature tracking (key-frame front-end) ===\n");
    const Pose2 ego_next{Vec2(0.28, 0.0), 0.005}; // ~50 ms later
    const RenderedFrame next = renderer.render(
        world, rig.left, rig.left.poseAt(ego_next, 1.5),
        Timestamp::millisF(50.0));
    auto corners = detectCorners(left.intensity);
    const auto tracks =
        trackFeatures(left.intensity, next.intensity, corners);
    std::size_t tracked = 0;
    for (const auto &t : tracks)
        tracked += t.converged;
    std::printf("corners: %zu, tracked into next frame: %zu\n\n",
                corners.size(), tracked);

    // --------------------------- 6. radar tracking + spatial sync
    std::printf("=== 5. radar tracking + spatial synchronization "
                "(Sec. VI-B) ===\n");
    RadarConfig radar_cfg;
    radar_cfg.detection_probability = 1.0;
    RadarModel radar(radar_cfg, Rng(5));
    RadarTracker tracker;
    // ~1.5 s of 20 Hz scans: enough for the alpha-beta filter to
    // average the azimuth noise out of the velocity estimate.
    for (int i = 0; i < 30; ++i) {
        const Timestamp t = Timestamp::seconds(i * 0.05);
        tracker.update(ego, radar.scan(world, ego, Vec2(0, 0), t), t);
    }
    const auto fused = spatialSync(rig.left, lp,
                                   tracker.confirmedTracks(), detections);
    for (const auto &f : fused) {
        std::printf("  track %u -> %-11s at (%.1f, %.1f) vel "
                    "(%.2f, %.2f) m/s\n",
                    f.track_id, toString(f.cls), f.position.x(),
                    f.position.y(), f.velocity.x(), f.velocity.y());
    }
    std::printf("\ndone: every stage above executed the real "
                "algorithm, from pixels to tracks.\n");
    return 0;
}
