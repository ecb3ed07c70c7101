/**
 * @file
 * Reproduces Fig. 9 / Sec. V-B3: the runtime-partial-reconfiguration
 * engine — cycle-level transfer simulation (Tx -> FIFO -> ICAP),
 * the CPU-driven baseline, and the time-sharing economics of swapping
 * the feature-extraction and feature-tracking accelerators.
 *
 * Expected values (paper): >350 MB/s vs 300 KB/s CPU-driven; <3 ms
 * and ~2.1 mJ per reconfiguration; ~400 LUTs + 400 FFs.
 */
#include <cstdio>

#include "core/config.h"
#include "harness.h"
#include "platform/calibration.h"
#include "platform/rpr.h"

using namespace sov;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const RprEngine engine;

    std::printf("=== Fig. 9 / Sec. V-B3: RPR engine ===\n\n");
    std::printf("%-14s %-12s %-12s %-12s %-14s\n", "bitstream",
                "time (ms)", "MB/s", "energy (mJ)", "fifo stalls");
    bench::BenchReport report("fig9_rpr");
    for (const std::uint64_t bytes :
         {100'000ull, 500'000ull, 1'000'000ull, 2'000'000ull,
          5'000'000ull}) {
        const RprResult r = engine.reconfigure(bytes);
        std::printf("%-14.1f %-12.3f %-12.1f %-12.2f %-14llu\n",
                    bytes / 1e6, r.duration.toMillis(),
                    r.throughput_mb_s, r.energy.toMillijoules(),
                    static_cast<unsigned long long>(r.fifo_full_stalls));
        report.addRow("transfers")
            .set("bitstream_mb", bytes / 1e6)
            .set("time_ms", r.duration.toMillis())
            .set("mb_per_s", r.throughput_mb_s)
            .set("energy_mj", r.energy.toMillijoules())
            .set("fifo_stalls", r.fifo_full_stalls);
    }

    const auto bitstream = static_cast<std::uint64_t>(
        calibration::kBitstreamBytes);
    const RprResult hw = engine.reconfigure(bitstream);
    const RprResult cpu = engine.cpuDrivenReconfigure(bitstream);
    std::printf("\n1 MB bitstream: engine %.2f ms @ %.0f MB/s vs "
                "CPU-driven %.0f ms @ %.2f MB/s (%.0fx)\n",
                hw.duration.toMillis(), hw.throughput_mb_s,
                cpu.duration.toMillis(), cpu.throughput_mb_s,
                cpu.duration / hw.duration);
    std::printf("engine energy per swap: %.2f mJ (paper: 2.1 mJ)\n",
                hw.energy.toMillijoules());
    std::printf("engine resources: %u LUTs, %u FFs (paper: ~400/400)\n",
                RprEngine::kLuts, RprEngine::kFlipFlops);

    std::printf("\n=== Time-sharing the localization front-end ===\n");
    RprSchedule sched;
    sched.extraction =
        Duration::millisF(calibration::kFeatureExtractionMs);
    sched.tracking = Duration::millisF(calibration::kFeatureTrackingMs);
    sched.reconfig_cost = hw.duration;
    std::printf("%-20s %-22s %-22s\n", "keyframe fraction",
                "with RPR (ms/frame)", "extraction-only (ms)");
    for (const double kf : {0.05, 0.1, 0.2, 0.3, 0.5}) {
        sched.keyframe_fraction = kf;
        std::printf("%-20.2f %-22.2f %-22.2f\n", kf,
                    sched.meanFrameLatencyWithRpr(2.0 * kf).toMillis(),
                    sched.meanFrameLatencyExtractionOnly().toMillis());
        report.addRow("time_sharing")
            .set("keyframe_fraction", kf)
            .set("with_rpr_ms",
                 sched.meanFrameLatencyWithRpr(2.0 * kf).toMillis())
            .set("extraction_only_ms",
                 sched.meanFrameLatencyExtractionOnly().toMillis());
    }
    std::printf("\nRPR wins whenever key frames are the minority — the "
                "cost-effective ALP knob of Sec. VII.\n");

    report.meta("engine_ms_1mb", hw.duration.toMillis());
    report.meta("engine_mb_per_s", hw.throughput_mb_s);
    report.meta("cpu_driven_ms_1mb", cpu.duration.toMillis());
    report.meta("engine_energy_mj", hw.energy.toMillijoules());
    report.meta("engine_luts", RprEngine::kLuts);
    report.meta("engine_flip_flops", RprEngine::kFlipFlops);
    report.gate("engine_beats_cpu_driven", cpu.duration > hw.duration,
                "Fig. 9: DMA-driven ICAP must beat the CPU path");
    return report.write(cfg);
}
