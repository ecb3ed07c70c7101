/**
 * @file
 * Entry point of the SoV benchmark binary:
 *
 *   perfbench --workload fleet_crowded|serve_mix|pointcloud_trace
 *             [--seed N] [--seconds S] [--trace 0|1]
 *
 * --trace 0 measures the end-to-end metrics with tracing off. --trace 1
 * measures the workload untraced and traced (spans recorded around the
 * calls into each module, kept in memory, written to .perfbench_out/
 * in the working directory at the end),
 * reports the per-layer metrics and the tracing overhead. The last
 * stdout line is the result JSON (see report.h); bad arguments print
 * usage and exit 2; any other failure exits 1 without a result line.
 */
#include <sys/stat.h>

#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "args.h"
#include "report.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/** Where traced runs write their spans (ignored by git). */
constexpr const char *kSpanDir = ".perfbench_out";

/** BENCHMARK.json "end_to_end" names, the same on every workload. */
const std::vector<std::string> kEndToEnd = {
    "setup_s", "peak_rss_mb", "throughput_per_s", "latency_ms"};

/** BENCHMARK.json "per_layer" names, the same on every workload. */
const std::vector<std::string> kPerLayer = {
    "world.advance_ns",         "world.raycast_ns",
    "math.box_distance_ns",     "sensors.radar_nearest_ns",
    "planning.first_collision_us", "planning.mpc_plan_us",
    "runtime.frame_us",         "sim.event_ns",
    "serve.submit_us",          "serve.line_protocol_us",
    "serve.fetch_rows_us",      "pointcloud.kdtree_build_ms",
    "pointcloud.kernel_ms",     "memsim.trace_ms",
    "memsim.cache_ms",          "memsim.ns_per_access",
    "trace.overhead_frac"};

/** Span self time per name and per layer (the name's prefix). */
void
printSpanTable(const SpanRecorder &spans)
{
    std::map<std::string, double> layer_ms;
    double total_ms = 0.0;
    for (const SpanSummary &s : spans.summarize()) {
        if (s.calls == 0)
            continue;
        const double self_ms = static_cast<double>(s.self_ns) / 1e6;
        std::printf("span %-34s calls=%-8llu total_ms=%.3f self_ms=%.3f\n",
                    s.name.c_str(), static_cast<unsigned long long>(s.calls),
                    static_cast<double>(s.total_ns) / 1e6, self_ms);
        layer_ms[s.name.substr(0, s.name.find('.'))] += self_ms;
        total_ms += self_ms;
    }
    for (const auto &[layer, ms] : layer_ms)
        std::printf("layer %-12s self_ms=%.3f share=%.4f\n", layer.c_str(),
                    ms, total_ms > 0 ? ms / total_ms : 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string error;
    const auto args =
        parseArgs(std::vector<std::string>(argv + 1, argv + argc), error);
    if (!args) {
        std::fprintf(stderr, "perfbench: %s\n%s", error.c_str(),
                     usage().c_str());
        return 2;
    }
    try {
        Report report;
        SpanRecorder spans(args->trace);
        if (args->workload == "fleet_crowded")
            runFleetCrowded(*args, report, spans);
        else if (args->workload == "serve_mix")
            runServeMix(*args, report, spans);
        else
            runPointcloudTrace(*args, report, spans);
        if (args->trace) {
            printSpanTable(spans);
            ::mkdir(kSpanDir, 0755);
            const std::string path = std::string(kSpanDir) + "/spans_" +
                                     args->workload + "_" +
                                     std::to_string(args->seed) + ".json";
            if (!spans.writeChromeTrace(path)) {
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             path.c_str());
                return 1;
            }
            std::printf("spans written to %s\n", path.c_str());
        }
        return report.print(args->trace ? kPerLayer : kEndToEnd) ? 0 : 1;
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
