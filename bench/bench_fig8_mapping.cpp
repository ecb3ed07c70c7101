/**
 * @file
 * Reproduces Fig. 8: the latency of different perception mapping
 * strategies (scene understanding and localization across GPU / TX2 /
 * FPGA, including GPU contention when they share it).
 *
 * Expected shape (paper): all-GPU gives 120 ms scene + 31 ms loc;
 * moving localization to the FPGA gives 77 ms + 24 ms (1.6x perception
 * improvement, ~23% end-to-end); any TX2 assignment bottlenecks.
 */
#include <algorithm>
#include <cstdio>

#include "core/config.h"
#include "harness.h"
#include "platform/calibration.h"
#include "platform/mapping.h"

using namespace sov;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const PlatformModel model;
    const MappingExplorer explorer(model);

    std::printf("=== Fig. 8: perception mapping strategies ===\n");
    std::printf("%-22s %12s %12s %12s\n", "mapping", "scene (ms)",
                "loc (ms)", "percep (ms)");
    bench::BenchReport report("fig8_mapping");
    const auto options = explorer.enumerate();
    for (const auto &option : options) {
        std::printf("%-22s %12.1f %12.1f %12.1f\n",
                    option.name().c_str(),
                    option.scene_latency.toMillis(),
                    option.localization_latency.toMillis(),
                    option.perceptionLatency().toMillis());
        report.addRow("mappings")
            .set("name", option.name())
            .set("scene_ms", option.scene_latency.toMillis())
            .set("loc_ms", option.localization_latency.toMillis())
            .set("perception_ms", option.perceptionLatency().toMillis());
    }

    const MappingOption best = explorer.best();
    const auto all_gpu = std::find_if(
        options.begin(), options.end(), [](const MappingOption &o) {
            return o.scene_platform == Platform::Gtx1060 &&
                o.localization_platform == Platform::Gtx1060;
        });

    std::printf("\nbest mapping: %s\n", best.name().c_str());
    std::printf("perception speedup over all-GPU: %.2fx "
                "(paper: 1.6x)\n",
                all_gpu->perceptionLatency() / best.perceptionLatency());
    const Duration rest = Duration::millisF(
        calibration::kSensingMedianMs + calibration::kMpcPlanningMs);
    std::printf("end-to-end latency reduction: %.0f%% (paper: ~23%%)\n",
                100.0 * MappingExplorer::endToEndReduction(best, *all_gpu,
                                                           rest));
    std::printf("\nFPGA localization accelerator footprint (paper): "
                "~200K LUTs, 120K regs, 600 BRAMs, 800 DSPs, <6 W\n");

    const double speedup =
        all_gpu->perceptionLatency() / best.perceptionLatency();
    report.meta("best_mapping", best.name());
    report.meta("perception_speedup_vs_all_gpu", speedup);
    report.meta("end_to_end_reduction",
                MappingExplorer::endToEndReduction(best, *all_gpu, rest));
    report.gate("best_beats_all_gpu", speedup > 1.0,
                "Fig. 8: moving localization off the GPU must pay");
    return report.write(cfg);
}
