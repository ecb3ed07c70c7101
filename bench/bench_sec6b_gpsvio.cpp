/**
 * @file
 * Reproduces Sec. VI-B (localization): the GPS-VIO hybrid.
 *
 * VIO accumulates error with distance; GNSS fixes correct the drift
 * with a ~1 ms EKF update instead of heavier loop-closure compute.
 * Includes an outage (tunnel) and a multipath burst, during which the
 * corrected VIO carries the estimate.
 */
#include <cmath>
#include <cstdio>

#include "core/config.h"
#include "harness.h"
#include "localization/gps_fusion.h"
#include "sensors/gps.h"
#include "sensors/imu.h"

using namespace sov;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    bench::BenchReport report("sec6b_gpsvio");
    // Long straight + curves so VIO drift is visible.
    Polyline2 path;
    for (int i = 0; i <= 120; ++i) {
        const double s = i * 5.0;
        path.append(Vec2(s, 25.0 * std::sin(s / 60.0)));
    }
    const Trajectory traj = Trajectory::alongPath(path, 5.6);

    GpsConfig gps_cfg;
    gps_cfg.noise_sigma = 0.5;
    gps_cfg.multipath_probability = 0.002;
    GpsModel gps(gps_cfg, Rng(1));
    // Outage window (e.g. an underpass) mid-route.
    gps.addOutage(Timestamp::seconds(40.0), Timestamp::seconds(60.0));

    ImuModel imu(ImuConfig{}, Rng(2));
    Rng vo_rng(3);

    // Two estimators: VIO alone vs GPS-VIO fusion.
    VioOdometry vio_only;
    GpsVioFusion fusion;
    const auto start = traj.sample(traj.startTime());
    vio_only.initialize(Vec2(start.position.x(), start.position.y()),
                        start.orientation.yaw());
    fusion.vio().initialize(Vec2(start.position.x(), start.position.y()),
                            start.orientation.yaw());

    std::printf("=== Sec. VI-B: GPS-VIO hybrid localization ===\n\n");
    std::printf("%-8s %-14s %-14s %-10s\n", "t (s)", "vio-only err",
                "fusion err", "gnss");

    const double imu_dt = 1.0 / 240.0, cam_dt = 1.0 / 30.0;
    const double gps_dt = 0.1;
    const double horizon = traj.duration().toSeconds() - 1.0;
    double next_cam = cam_dt, prev_cam = 0.0, next_gps = gps_dt;
    double next_log = 10.0;
    double vio_worst = 0.0, fusion_worst = 0.0;

    // Inject a small systematic VO bias so drift is monotone (a real
    // VIO's scale/calibration error).
    const Vec2 vo_bias(0.0, 0.008);

    for (double t = imu_dt; t < horizon; t += imu_dt) {
        const Timestamp now = Timestamp::seconds(t);
        const ImuSample imu_sample = imu.sample(traj, now);
        vio_only.propagateImu(imu_sample, now);
        fusion.vio().propagateImu(imu_sample, now);

        if (t >= next_cam) {
            VoMeasurement vo = makeVoMeasurement(
                traj, Timestamp::seconds(prev_cam), now, vo_rng);
            vo.body_displacement += vo_bias;
            vio_only.applyVo(vo);
            fusion.vio().applyVo(vo);
            prev_cam = t;
            next_cam = t + cam_dt;
        }
        if (t >= next_gps) {
            next_gps = t + gps_dt;
            if (const auto fix = gps.sample(traj, now))
                fusion.applyGps(*fix);
        }
        if (t >= next_log) {
            next_log += 10.0;
            const auto truth = traj.sample(now);
            const Vec2 tp(truth.position.x(), truth.position.y());
            const double e_vio =
                vio_only.state().position.distanceTo(tp);
            const double e_fused = fusion.position().distanceTo(tp);
            vio_worst = std::max(vio_worst, e_vio);
            fusion_worst = std::max(fusion_worst, e_fused);
            const char *gnss = gps.inOutage(now)      ? "OUTAGE"
                               : fusion.gnssHealthy() ? "ok"
                                                      : "rejected";
            std::printf("%-8.0f %-14.2f %-14.2f %-10s\n", t, e_vio,
                        e_fused, gnss);
            report.addRow("timeline")
                .set("t_s", t)
                .set("vio_only_err_m", e_vio)
                .set("fusion_err_m", e_fused)
                .set("gnss", gnss);
        }
    }

    std::printf("\nworst-case error: vio-only %.2f m, fusion %.2f m\n",
                vio_worst, fusion_worst);
    std::printf("\ncompute cost per update (paper): EKF fusion ~1 ms "
                "vs VIO front-end ~24 ms\n-> drift correction at ~4%% "
                "of the localization compute.\n");
    report.meta("vio_only_worst_m", vio_worst);
    report.meta("fusion_worst_m", fusion_worst);
    report.gate("fusion_bounds_drift", fusion_worst < vio_worst,
                "Sec. VI-B: GNSS fixes must bound the VIO drift");
    return report.write(cfg);
}
