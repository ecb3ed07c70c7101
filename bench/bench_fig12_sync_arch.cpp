/**
 * @file
 * Reproduces Fig. 12 / Sec. VI-A: software-only vs hardware-
 * collaborative sensor synchronization, end to end.
 *
 * Both strategies run over the same variable-latency sensor pipeline
 * models (exposure/transmission fixed; ISP ~10 ms variation;
 * application layer up to ~100 ms). Reported: the timestamp error
 * distributions, the camera-IMU pairing error, and the hardware
 * synchronizer's footprint.
 */
#include <cmath>
#include <cstdio>

#include "core/config.h"
#include "core/stats.h"
#include "harness.h"
#include "sync/synchronizer.h"

using namespace sov;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    bench::BenchReport report("fig12_sync_arch");
    std::printf("=== Fig. 12: sensor synchronization strategies ===\n\n");

    HardwareSynchronizer hw;
    SoftwareSync sw_camera;              // camera app-layer stamping
    SoftwareSync sw_imu(Duration::millisF(-4.0)); // own skewed timer

    auto cam_pipe_sw = SensorPipelineModel::cameraPipeline(Rng(1));
    auto imu_pipe_sw = SensorPipelineModel::imuPipeline(Rng(2));
    auto cam_pipe_hw = SensorPipelineModel::cameraPipeline(Rng(3));
    auto imu_pipe_hw = SensorPipelineModel::imuPipeline(Rng(4));
    Rng hw_rng(5);

    const Duration cam_const = Duration::millisF(20.0); // 8 + 12

    RunningStats sw_cam_err, sw_imu_err, sw_pair;
    RunningStats hw_cam_err, hw_imu_err, hw_pair;
    const auto sched = hw.schedule(Duration::seconds(30.0));

    // Per camera frame: stamp camera + its aligned IMU sample, and
    // measure how far apart two same-event stamps can drift.
    for (const auto &trigger : sched.camera_triggers) {
        const auto sw_cam = sw_camera.stamp(trigger, cam_pipe_sw);
        const auto sw_imu_sample = sw_imu.stamp(trigger, imu_pipe_sw);
        sw_cam_err.add(std::fabs(sw_cam.error().toMillis()));
        sw_imu_err.add(std::fabs(sw_imu_sample.error().toMillis()));
        sw_pair.add(std::fabs((sw_cam.stamped_time -
                               sw_imu_sample.stamped_time).toMillis()));

        const auto hw_cam =
            hw.stampCamera(trigger, cam_const, cam_pipe_hw, hw_rng);
        const auto hw_imu_sample =
            hw.stampImu(trigger, imu_pipe_hw, hw_rng);
        hw_cam_err.add(std::fabs(hw_cam.error().toMillis()));
        hw_imu_err.add(std::fabs(hw_imu_sample.error().toMillis()));
        hw_pair.add(std::fabs((hw_cam.stamped_time -
                               hw_imu_sample.stamped_time).toMillis()));
    }

    const struct
    {
        const char *name;
        const RunningStats *s;
    } errors[] = {{"sw_camera", &sw_cam_err}, {"sw_imu", &sw_imu_err},
                  {"sw_pairing", &sw_pair},   {"hw_camera", &hw_cam_err},
                  {"hw_imu", &hw_imu_err},    {"hw_pairing", &hw_pair}};
    std::printf("%-34s %-12s %-12s %-12s\n", "metric (ms, abs)",
                "mean", "max", "stddev");
    for (const auto &e : errors) {
        std::printf("%-34s %-12.3f %-12.3f %-12.3f\n", e.name,
                    e.s->mean(), e.s->max(), e.s->stddev());
        report.addRow("errors")
            .set("metric", e.name)
            .set("mean_ms", e.s->mean())
            .set("max_ms", e.s->max())
            .set("stddev_ms", e.s->stddev());
    }

    // With SW sync, a camera frame's stamp can drift past later IMU
    // samples — the "C0 paired with M7" failure of Fig. 12b.
    const double imu_period_ms = 1000.0 / 240.0;
    std::printf("\nSW-only: a camera frame is mis-paired by up to "
                "%.0f IMU samples (paper: C0 vs M7)\n",
                std::ceil(sw_pair.max() / imu_period_ms));
    std::printf("HW: every camera trigger coincides with an IMU "
                "trigger (240/8 = 30 FPS downsampling)\n");

    const auto fp = hw.footprint();
    std::printf("\nHW synchronizer footprint: %u LUTs, %u registers, "
                "%.0f mW, <%.0f ms added latency\n(paper: 1443 / 1587 "
                "/ 5 mW / <1 ms)\n",
                fp.luts, fp.registers, fp.power_mw,
                fp.added_latency.toMillis());
    report.meta("hw_luts", fp.luts);
    report.meta("hw_registers", fp.registers);
    report.meta("hw_power_mw", fp.power_mw);
    report.meta("hw_added_latency_ms", fp.added_latency.toMillis());
    report.gate("hw_pairing_beats_sw",
                hw_pair.max() < sw_pair.max(),
                "Fig. 12: HW sync must bound camera-IMU pairing error");
    return report.write(cfg);
}
