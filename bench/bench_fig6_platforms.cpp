/**
 * @file
 * Reproduces Fig. 6: latency (6a) and energy (6b) of the three
 * perception tasks — depth estimation, detection, localization — on
 * the four platforms (Coffee Lake CPU, GTX 1060, TX2, Zynq FPGA),
 * from the calibrated platform model.
 *
 * Expected shape (paper): TX2 is far slower than the GPU everywhere
 * (844.2 ms cumulative perception); the embedded FPGA beats the GPU
 * only for localization; TX2's energy advantage over the GPU is
 * marginal and sometimes negative because of its long latency.
 */
#include <cstdio>

#include "core/config.h"
#include "harness.h"
#include "platform/platform_model.h"

using namespace sov;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const PlatformModel model;
    const Platform platforms[] = {Platform::CoffeeLakeCpu,
                                  Platform::Gtx1060, Platform::Tx2,
                                  Platform::ZynqFpga};
    const TaskKind tasks[] = {TaskKind::DepthEstimation,
                              TaskKind::Detection,
                              TaskKind::Localization};

    bench::BenchReport report("fig6_platforms");

    std::printf("=== Fig. 6a: latency (ms) ===\n");
    std::printf("%-18s", "task");
    for (const auto p : platforms)
        std::printf("%10s", toString(p));
    std::printf("\n");
    for (const auto t : tasks) {
        std::printf("%-18s", toString(t));
        bench::Row &row = report.addRow("latency_ms");
        row.set("task", toString(t));
        for (const auto p : platforms) {
            std::printf("%10.1f", model.medianLatency(t, p).toMillis());
            row.set(toString(p), model.medianLatency(t, p).toMillis());
        }
        std::printf("\n");
    }

    double tx2_total = 0.0;
    for (const auto t : tasks)
        tx2_total += model.medianLatency(t, Platform::Tx2).toMillis();
    std::printf("\nTX2 cumulative perception latency: %.1f ms "
                "(paper: 844.2 ms)\n", tx2_total);

    std::printf("\n=== Fig. 6b: energy per invocation (J) ===\n");
    std::printf("%-18s", "task");
    for (const auto p : platforms)
        std::printf("%10s", toString(p));
    std::printf("\n");
    for (const auto t : tasks) {
        std::printf("%-18s", toString(t));
        bench::Row &row = report.addRow("energy_j");
        row.set("task", toString(t));
        for (const auto p : platforms) {
            std::printf("%10.2f", model.energy(t, p).toJoules());
            row.set(toString(p), model.energy(t, p).toJoules());
        }
        std::printf("\n");
    }

    std::printf("\nPlatform active power (W): cpu=%.0f gpu=%.0f "
                "tx2=%.0f fpga=%.0f\n",
                model.power(Platform::CoffeeLakeCpu).toWatts(),
                model.power(Platform::Gtx1060).toWatts(),
                model.power(Platform::Tx2).toWatts(),
                model.power(Platform::ZynqFpga).toWatts());
    std::printf("Shape checks: FPGA wins only localization; TX2 energy "
                "vs GPU is marginal/worse for detection.\n");

    report.meta("tx2_cumulative_perception_ms", tx2_total);
    const auto lat = [&model](TaskKind t, Platform p) {
        return model.medianLatency(t, p).toMillis();
    };
    report.gate(
        "fpga_wins_only_localization",
        lat(TaskKind::Localization, Platform::ZynqFpga) <
                lat(TaskKind::Localization, Platform::Gtx1060) &&
            lat(TaskKind::DepthEstimation, Platform::ZynqFpga) >
                lat(TaskKind::DepthEstimation, Platform::Gtx1060) &&
            lat(TaskKind::Detection, Platform::ZynqFpga) >
                lat(TaskKind::Detection, Platform::Gtx1060),
        "Fig. 6a shape: the embedded FPGA beats the GPU only on "
        "localization");
    report.gate("tx2_bottlenecks_perception",
                tx2_total > 500.0,
                "paper: 844.2 ms cumulative perception on TX2");
    return report.write(cfg);
}
