/**
 * @file
 * Reproduces Fig. 11b: VIO-localized trajectory with synchronized vs
 * unsynchronized (camera vs IMU) sensor timestamps.
 *
 * The VIO dead-reckons a two-lap loop; camera timestamps carry a
 * constant offset of 0 / 20 / 40 ms relative to the (correct) IMU
 * stamps. The estimator orients visual-odometry displacements with
 * its heading at the *stamped* time, so the offset rotates them by
 * stale headings during turns and the error compounds.
 *
 * Expected shape (paper): synchronized tracks ground truth;
 * 20/40 ms offsets veer away by many meters, worse with offset.
 */
#include <cmath>
#include <cstdio>

#include "core/config.h"
#include "harness.h"
#include "localization/vio.h"
#include "sensors/imu.h"

using namespace sov;

namespace {

Polyline2
roundedLoop(double w, double h, double r, int laps)
{
    Polyline2 p;
    const auto arc = [&p, r](Vec2 c, double a0, double a1) {
        for (int i = 0; i <= 8; ++i) {
            const double a = a0 + (a1 - a0) * i / 8.0;
            p.append(c + Vec2(std::cos(a), std::sin(a)) * r);
        }
    };
    for (int lap = 0; lap < laps; ++lap) {
        p.append(Vec2(r, 0));
        p.append(Vec2(w - r, 0));
        arc(Vec2(w - r, r), -M_PI / 2, 0);
        p.append(Vec2(w, h - r));
        arc(Vec2(w - r, h - r), 0, M_PI / 2);
        p.append(Vec2(r, h));
        arc(Vec2(r, h - r), M_PI / 2, M_PI);
        p.append(Vec2(0, r));
        arc(Vec2(r, r), M_PI, 1.5 * M_PI);
    }
    return p;
}

struct VioRun
{
    std::vector<Vec2> estimated; //!< sampled every second
    std::vector<Vec2> truth;
    double max_error = 0.0;
    double final_error = 0.0;
};

VioRun
run(Duration camera_offset, std::uint64_t seed)
{
    const Trajectory traj =
        Trajectory::alongPath(roundedLoop(120, 80, 8, 2), 5.6);
    ImuConfig imu_cfg;
    imu_cfg.gyro_noise = 0.001;
    ImuModel imu(imu_cfg, Rng(seed));
    Rng vo_rng(seed + 1);

    VioOdometry vio;
    const auto start = traj.sample(traj.startTime());
    vio.initialize(Vec2(start.position.x(), start.position.y()),
                   start.orientation.yaw());

    VioRun out;
    const double imu_dt = 1.0 / 240.0;
    const double cam_dt = 1.0 / 30.0;
    const double horizon = traj.duration().toSeconds() - 1.0;
    double next_cam = cam_dt, prev_cam = 0.0, next_log = 1.0;
    for (double t = imu_dt; t < horizon; t += imu_dt) {
        const Timestamp now = Timestamp::seconds(t);
        vio.propagateImu(imu.sample(traj, now), now);
        if (t >= next_cam) {
            VoMeasurement vo = makeVoMeasurement(
                traj, Timestamp::seconds(prev_cam), now, vo_rng);
            vo.t0 = Timestamp::seconds(prev_cam) + camera_offset;
            vo.t1 = now + camera_offset;
            vio.applyVo(vo);
            prev_cam = t;
            next_cam = t + cam_dt;
        }
        if (t >= next_log) {
            next_log += 1.0;
            const auto truth = traj.sample(now);
            const Vec2 tp(truth.position.x(), truth.position.y());
            out.estimated.push_back(vio.state().position);
            out.truth.push_back(tp);
            const double err = vio.state().position.distanceTo(tp);
            out.max_error = std::max(out.max_error, err);
            out.final_error = err;
        }
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    std::printf("=== Fig. 11b: VIO trajectory vs camera-IMU sync "
                "===\n");
    std::printf("(two-lap 770 m loop at 5.6 m/s)\n\n");

    const VioRun synced = run(Duration::zero(), 21);
    const VioRun off20 = run(Duration::millisF(20.0), 21);
    const VioRun off40 = run(Duration::millisF(40.0), 21);

    bench::BenchReport report("fig11b_sync_vio");
    std::printf("%-22s %-16s %-16s\n", "condition", "max err (m)",
                "final err (m)");
    const struct
    {
        const char *name;
        const VioRun *r;
    } conditions[] = {{"synchronized", &synced},
                      {"20 ms unsynced", &off20},
                      {"40 ms unsynced", &off40}};
    for (const auto &c : conditions) {
        std::printf("%-22s %-16.2f %-16.2f\n", c.name, c.r->max_error,
                    c.r->final_error);
        report.addRow("conditions")
            .set("condition", c.name)
            .set("max_err_m", c.r->max_error)
            .set("final_err_m", c.r->final_error);
    }

    std::printf("\ntrajectory samples every 10 s "
                "(truth -> sync / 20 ms / 40 ms):\n");
    for (std::size_t i = 9; i < synced.truth.size(); i += 10) {
        std::printf("  t=%3zus truth(%7.1f,%7.1f) sync(%7.1f,%7.1f) "
                    "20ms(%7.1f,%7.1f) 40ms(%7.1f,%7.1f)\n",
                    i + 1, synced.truth[i].x(), synced.truth[i].y(),
                    synced.estimated[i].x(), synced.estimated[i].y(),
                    off20.estimated[i].x(), off20.estimated[i].y(),
                    off40.estimated[i].x(), off40.estimated[i].y());
    }
    std::printf("\npaper: synchronized is indistinguishable from ground "
                "truth; 40 ms offset\nerrs by ~10 m over a shorter "
                "course — the same compounding shape.\n");
    report.gate("sync_beats_unsynced",
                synced.max_error < off40.max_error,
                "Fig. 11b: camera-IMU offset must inflate drift");
    return report.write(cfg);
}
