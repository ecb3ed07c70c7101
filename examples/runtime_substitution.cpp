/**
 * @file
 * Executor substitution on the runtime dataflow layer: the same Fig. 5
 * stage graph executed twice — once with analytic executors drawing
 * from the calibrated platform latency model, once with kernel
 * executors running the repo's real algorithms (stereo depth, CNN
 * detection, corner-tracking visual front-end) under wall-clock
 * measurement. The topology, resource lanes and scheduler are shared;
 * only the per-stage executor changes.
 *
 * Run: ./runtime_substitution [scale=4] [frames=2] [backend=fast]
 *                             [mode=sync] [faults=none]
 * `scale` maps host wall-clock into model time (the SoV's embedded
 * SoC is several times slower than a build machine). `backend`
 * selects the kernel tier (core/kernels.h): the default Fast tier
 * runs the restructured kernels with the vector bodies the host
 * supports (core/simd.h); `backend=reference` runs the naive scalar
 * oracles instead.
 * `mode=async` additionally runs the analytic graph through the
 * asynchronous pipeline-parallel executor and reports the throughput
 * win. `faults=<preset>` (a fleet::faultMatrixPresets() name, e.g.
 * loc-hang@2s) injects that fault scenario into a supervised
 * async run — the watchdog truncates the hang, revokes the abandoned
 * frame's in-flight stages and the pipeline keeps streaming. Unknown
 * values for any of these, and any other key, print this usage and
 * exit 2.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "core/config.h"
#include "fault/fault_plan.h"
#include "fault/stage_faults.h"
#include "fleet/scenario.h"
#include "runtime/dataflow.h"
#include "sim/simulator.h"
#include "sovpipe/fig5_graph.h"
#include "vision/detector.h"
#include "vision/features.h"
#include "vision/renderer.h"
#include "vision/stereo.h"

using namespace sov;

namespace {

int
usage(const char *arg, const std::string &value)
{
    std::fprintf(stderr,
                 "runtime_substitution: unknown %s '%s'\n"
                 "usage: runtime_substitution [scale=4] [frames=2] "
                 "[backend=reference|fast] [mode=sync|async] "
                 "[faults=none|<preset>]\n"
                 "fault presets:",
                 arg, value.c_str());
    for (const fleet::FaultPreset &p : fleet::faultMatrixPresets())
        std::fprintf(stderr, " %s", p.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

/**
 * The faults= demo: run the analytic Fig. 5 graph through the async
 * executor with the preset's pipeline-stage channels injected and a
 * watchdog policy supervising every stage. Sensor/CAN channels of the
 * preset have no pipeline surface here and stay idle — the point is
 * the runtime layer surviving a misbehaving stage.
 */
void
runSupervisedFaultDemo(const PlatformModel &platform,
                       const fleet::FaultPreset &preset)
{
    Simulator sim;
    runtime::StageGraph graph;
    buildFig5Graph(graph, platform, SovPipelineConfig{}, nullptr,
                   Fig5Latency::Mean);
    fault::FaultPlan plan(Rng(42).fork("demo/" + preset.name));
    for (const fault::FaultSpec &spec : preset.specs)
        plan.add(spec);
    const std::size_t wrapped = fault::installStageFaults(
        graph, plan, [&sim] { return sim.now(); });

    runtime::RunOptions opts;
    opts.frames = 64;
    opts.max_in_flight = 3;
    runtime::StagePolicy policy;
    policy.timeout = Duration::millisF(400.0);
    policy.max_retries = 1;
    policy.retry_backoff = Duration::millisF(5.0);
    opts.stage_policy = policy;
    const runtime::RunResult run =
        runtime::DataflowExecutor::run(sim, graph, opts);

    std::printf("\n=== faults=%s: supervised async run (%zu frames, "
                "%zu stages fault-wrapped) ===\n",
                preset.name.c_str(), opts.frames, wrapped);
    std::printf("injections=%llu  frames failed=%llu  in-flight stages "
                "cancelled=%llu  completed=%zu\n",
                static_cast<unsigned long long>(plan.totalInjections()),
                static_cast<unsigned long long>(run.frames_failed),
                static_cast<unsigned long long>(run.stage_cancellations),
                run.finish_times.size());
    std::printf("steady throughput %.2f Hz — the watchdog truncates "
                "hung attempts, abandoned\nframes release their lanes "
                "(no head-of-line blocking) and the stream continues.\n",
                run.steadyStateThroughputHz());
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const double scale = cfg.getDouble("scale", 4.0);
    const auto frames = static_cast<std::size_t>(cfg.getInt("frames", 2));
    // Validate enum-valued arguments up front: a typo must print the
    // usage line, not silently fall back (or abort inside the kernel
    // layer's fatal parser).
    const std::string backend_name = cfg.getString("backend", "fast");
    if (backend_name != "reference" && backend_name != "fast")
        return usage("backend", backend_name);
    const KernelBackend backend = kernelBackendFromName(backend_name);
    const std::string mode = cfg.getString("mode", "sync");
    if (mode != "sync" && mode != "async")
        return usage("mode", mode);
    const std::string faults_name = cfg.getString("faults", "none");
    const fleet::FaultPreset *fault_preset = nullptr;
    const std::vector<fleet::FaultPreset> presets =
        fleet::faultMatrixPresets();
    if (faults_name != "none") {
        for (const fleet::FaultPreset &p : presets)
            if (p.name == faults_name)
                fault_preset = &p;
        if (!fault_preset)
            return usage("faults", faults_name);
    }
    const std::vector<std::string> unread = cfg.unreadKeys();
    if (!unread.empty())
        return usage("argument", unread.front());

    // ----------------------------------------------- shared test scene
    World world;
    Obstacle ped;
    ped.cls = ObjectClass::Pedestrian;
    ped.footprint = OrientedBox2{Pose2{Vec2(11.0, 2.0), 0.0}, 0.3, 0.3};
    ped.height = 1.8;
    world.addObstacle(ped);
    Rng rng(99);
    world.scatterLandmarks(Polyline2({Vec2(0, 0), Vec2(40, 0)}), 120,
                           10.0, 4.0, rng);
    const Pose2 ego{Vec2(0.0, 0.0), 0.0};
    const StereoRig rig =
        StereoRig::forwardFacing(CameraIntrinsics{}, 0.5, 1.0);
    const Renderer renderer;
    Rng train_rng(7);
    DetectorConfig det_cfg;
    det_cfg.backend = backend;
    const ObjectDetector detector = trainSiteDetector(
        world, CameraModel(CameraIntrinsics{}, Vec3(1.0, 0.0, 0.0)), 8,
        3, train_rng, det_cfg);

    // ------------------------- graph A: analytic (calibrated profiles)
    const PlatformModel platform;
    runtime::StageGraph analytic;
    buildFig5Graph(analytic, platform, SovPipelineConfig{}, nullptr,
                   Fig5Latency::Mean);

    // ---------------------------- graph B: kernels (real algorithms)
    // Same shape and lanes; per-frame state lives in the captures.
    runtime::StageGraph kernels;
    RenderedFrame left, right, next;
    const auto sense = kernels.addKernel(
        "sensing", "sensor-fpga",
        [&](std::size_t f) {
            // The simulated sensor: render the stereo pair plus the
            // next key-frame the visual front-end tracks into.
            const Timestamp t = Timestamp::millisF(100.0 * double(f));
            left = renderer.render(world, rig.left,
                                   rig.left.poseAt(ego, 1.5), t);
            right = renderer.render(world, rig.right,
                                    rig.right.poseAt(ego, 1.5), t);
            next = renderer.render(
                world, rig.left,
                rig.left.poseAt(Pose2{Vec2(0.28, 0.0), 0.005}, 1.5),
                t + Duration::millisF(50.0));
        },
        {}, scale);
    StereoConfig stereo_cfg;
    stereo_cfg.max_disparity = 48;
    stereo_cfg.backend = backend;
    const StereoMatcher matcher(stereo_cfg);
    const auto depth = kernels.addKernel(
        "depth", "scene",
        [&](std::size_t) { matcher.match(left.intensity, right.intensity); },
        {sense}, scale);
    const auto det = kernels.addKernel(
        "detection", "scene",
        [&](std::size_t) { detector.detect(left.intensity); }, {sense},
        scale);
    // Radar tracking and planning stay modelled: they are not vision
    // kernels, and mixing executor kinds in one graph is the point.
    const auto track = kernels.addFixed("tracking", "cpu",
                                        Duration::millisF(1.0), {det});
    const auto loc = kernels.addKernel(
        "localization", "loc",
        [&](std::size_t) {
            auto corners = detectCorners(left.intensity);
            trackFeatures(left.intensity, next.intensity, corners);
        },
        {sense}, scale);
    kernels.addFixed("planning", "cpu", Duration::millisF(3.0),
                     {depth, track, loc});

    // --------------------- run both through the same dataflow engine
    runtime::RunOptions opts;
    opts.frames = frames; // single-shot: no cross-frame contention
    const runtime::RunResult model_run =
        runtime::DataflowExecutor::run(analytic, opts);
    const runtime::RunResult kernel_run =
        runtime::DataflowExecutor::run(kernels, opts);

    std::printf("=== Executor substitution: analytic model vs real "
                "kernels (x%.0f host scale, %s backend) ===\n\n",
                scale, kernelBackendName(backend));
    std::printf("%-14s %-10s %14s %16s\n", "stage", "executor",
                "model (ms)", "measured (ms)");
    const std::size_t last = frames - 1; // warm frame
    for (std::size_t s = 0; s < kernels.size(); ++s) {
        std::printf("%-14s %-10s %14.1f %16.1f\n",
                    kernels.stage(s).name.c_str(),
                    kernels.executor(s).kind(),
                    model_run.span(last, s).duration().toMillis(),
                    kernel_run.span(last, s).duration().toMillis());
    }
    std::printf("\nframe latency: model %.1f ms, kernels %.1f ms\n",
                model_run.frames[last].latency().toMillis(),
                kernel_run.frames[last].latency().toMillis());
    std::printf("Same graph, same lanes, same scheduler; swapping the "
                "executor swaps the\nlatency source — profile-driven "
                "simulation vs measured real algorithms.\n");

    if (mode == "async") {
        // Third run: the analytic graph again, but frames released
        // as soon as the in-flight window has room, so frame N+1
        // senses while frame N is still in perception.
        runtime::StageGraph overlapped;
        buildFig5Graph(overlapped, platform, SovPipelineConfig{},
                       nullptr, Fig5Latency::Mean);
        runtime::RunOptions async;
        async.frames = 64;
        async.max_in_flight = 3;
        async.keep_traces = false;
        const runtime::RunResult async_run =
            runtime::DataflowExecutor::run(overlapped, async);
        const double sync_hz = model_run.frames[last].latency().toMillis() >
                0.0
            ? 1000.0 / model_run.frames[last].latency().toMillis()
            : 0.0;
        const double async_hz = async_run.steadyStateThroughputHz();
        std::printf("\n=== mode=async: pipeline-parallel analytic run "
                    "(%zu frames, window %zu) ===\n",
                    async.frames, async.max_in_flight);
        std::printf("single-shot %.2f Hz -> overlapped %.2f Hz "
                    "(%.2fx); steady-state growth events: %llu\n",
                    sync_hz, async_hz,
                    sync_hz > 0.0 ? async_hz / sync_hz : 0.0,
                    static_cast<unsigned long long>(
                        async_run.steady_growth_events));
    }
    if (fault_preset)
        runSupervisedFaultDemo(platform, *fault_preset);
    return 0;
}
