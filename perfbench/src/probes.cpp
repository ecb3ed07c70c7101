#include "probes.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "fleet/fuzzer.h"
#include "planning/collision.h"
#include "planning/mpc.h"
#include "planning/prediction.h"
#include "runtime/dataflow.h"
#include "sensors/radar.h"
#include "serve/catalog.h"
#include "serve/service.h"
#include "serve/socket_server.h"
#include "sim/simulator.h"
#include "sovpipe/pipeline_model.h"
#include "workloads.h"
#include "world/world.h"

namespace perfbench {

using namespace sov;

namespace {

constexpr double kCruise = 5.6;       // ClosedLoopConfig::cruise_speed
constexpr double kPhysicsHz = 200.0;  // ClosedLoopConfig::physics_rate_hz
constexpr double kCorridor = 0.8;     // ReactiveConfig::corridor_half_width
constexpr double kRadarRange = 60.0;  // RadarConfig::max_range
constexpr double kPerception = 40.0;  // ClosedLoopConfig::perception_range

/** Defeats dead-code elimination of probed calls. */
volatile double g_sink = 0.0;

Pose2
egoAt(const Polyline2 &route, double t)
{
    const double s = std::min(kCruise * t, route.length());
    return Pose2{route.sample(s), route.headingAt(s)};
}

/** One replayed physics step: ego pose and the published rows. */
struct State
{
    Timestamp t;
    Pose2 ego;
    std::vector<Obstacle> rows;
};

struct Accum
{
    double ns = 0.0;
    double calls = 0.0;
    void add(std::int64_t elapsed, double n)
    {
        ns += static_cast<double>(elapsed);
        calls += n;
    }
    double perCall() const { return calls > 0.0 ? ns / calls : 0.0; }
};

} // namespace

std::string
hex16(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::vector<fleet::WorldPreset>
probeWorlds(std::uint64_t seed, std::size_t count)
{
    fleet::FuzzConfig fuzz;
    fuzz.base_seed = seed * 1000003ull + 17;
    fuzz.worlds = count;
    return fleet::fuzzWorlds(fuzz);
}

ClosedLoopCosts
probeClosedLoop(const std::vector<fleet::WorldPreset> &worlds,
                std::uint64_t seed, double replay_s, SpanRecorder &spans)
{
    const auto span = spans.open(spans.intern("probe.closed_loop"));
    Accum advance, raycast, box, radar_nearest, first_collision, mpc;
    const auto steps = static_cast<std::size_t>(replay_s * kPhysicsHz);
    const RadarModel radar(RadarConfig{}, Rng(seed));
    const MpcPlanner planner;

    for (const fleet::WorldPreset &preset : worlds) {
        // World::advanceTo on a fresh build, the whole loop timed.
        {
            World world;
            Rng rng(seed);
            preset.build(world, rng);
            std::vector<Pose2> poses(steps);
            for (std::size_t k = 0; k < steps; ++k)
                poses[k] = egoAt(preset.route, k / kPhysicsHz);
            const std::int64_t t0 = nowNs();
            for (std::size_t k = 0; k < steps; ++k)
                world.advanceTo(Timestamp::seconds(k / kPhysicsHz),
                                poses[k], kCruise);
            advance.add(nowNs() - t0, static_cast<double>(steps));
        }
        // The same replay on a second build, keeping every 4th step's
        // published rows for the snapshot-level probes below.
        World world;
        Rng rng(seed);
        preset.build(world, rng);
        std::vector<State> states;
        for (std::size_t k = 0; k < steps; ++k) {
            const Timestamp t = Timestamp::seconds(k / kPhysicsHz);
            const Pose2 ego = egoAt(preset.route, k / kPhysicsHz);
            world.advanceTo(t, ego, kCruise);
            if (k % 4 == 0)
                states.push_back(State{t, ego, world.obstacles()});
        }
        double sink = 0.0;

        std::int64_t t0 = nowNs();
        for (const State &st : states) {
            const WorldSnapshot snap(world.map(), st.rows,
                                     world.landmarks(), st.t);
            const Vec2 dir = st.ego.direction();
            const Vec2 normal(-dir.y(), dir.x());
            for (const double lateral : {-kCorridor, 0.0, kCorridor}) {
                const auto hit = snap.raycast(
                    st.ego.position + normal * lateral, dir, kRadarRange,
                    st.t);
                sink += hit ? *hit : 0.0;
            }
        }
        raycast.add(nowNs() - t0, 3.0 * static_cast<double>(states.size()));

        t0 = nowNs();
        for (const State &st : states) {
            const WorldSnapshot snap(world.map(), st.rows,
                                     world.landmarks(), st.t);
            const auto d = radar.nearestInPath(snap, st.ego, kCorridor,
                                               st.t);
            sink += d ? *d : 0.0;
        }
        radar_nearest.add(nowNs() - t0,
                          static_cast<double>(states.size()));

        std::vector<OrientedBox2> boxes;
        std::vector<OrientedBox2> egos;
        for (const State &st : states) {
            for (const Obstacle &o : st.rows) {
                boxes.push_back(o.footprintAt(st.t));
                egos.push_back(OrientedBox2{st.ego, 1.3, 0.7});
            }
        }
        t0 = nowNs();
        for (std::size_t i = 0; i < boxes.size(); ++i)
            sink += egos[i].distanceTo(boxes[i]);
        box.add(nowNs() - t0, static_cast<double>(boxes.size()));

        // Planning at 10 Hz: every 5th kept state (20 physics steps).
        std::vector<PlannerInput> inputs;
        for (std::size_t i = 0; i < states.size(); i += 5) {
            const State &st = states[i];
            const WorldSnapshot snap(world.map(), st.rows,
                                     world.landmarks(), st.t);
            PlannerInput in;
            in.now = st.t;
            in.ego_pose = st.ego;
            in.ego_speed = kCruise;
            in.reference_path = preset.route;
            for (const Obstacle &o :
                 snap.obstaclesNear(st.ego.position, kPerception, st.t)) {
                FusedObject obj;
                obj.track_id = static_cast<std::uint32_t>(o.id);
                obj.position = o.positionAt(st.t);
                obj.velocity = o.velocity;
                obj.cls = o.cls;
                obj.confidence = 1.0;
                in.objects.push_back(obj);
            }
            inputs.push_back(std::move(in));
        }
        std::vector<std::vector<ObjectPrediction>> predictions;
        std::vector<double> arc;
        for (const PlannerInput &in : inputs) {
            predictions.push_back(predictObjects(in.objects, in.now));
            arc.push_back(in.reference_path.project(in.ego_pose.position)
                              .first);
        }
        t0 = nowNs();
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const auto hit = firstCollision(inputs[i].reference_path,
                                            arc[i], kCruise,
                                            predictions[i]);
            sink += hit ? hit->arc_length : 0.0;
        }
        first_collision.add(nowNs() - t0,
                            static_cast<double>(inputs.size()));
        t0 = nowNs();
        for (const PlannerInput &in : inputs)
            sink += planner.plan(in).target_speed;
        mpc.add(nowNs() - t0, static_cast<double>(inputs.size()));
        g_sink = g_sink + sink;
    }

    ClosedLoopCosts costs;
    costs.advance_ns = advance.perCall();
    costs.raycast_ns = raycast.perCall();
    costs.box_distance_ns = box.perCall();
    costs.radar_nearest_ns = radar_nearest.perCall();
    costs.first_collision_us = first_collision.perCall() / 1e3;
    costs.mpc_plan_us = mpc.perCall() / 1e3;

    // One Fig. 5 frame per 100 ms planning cycle through the dataflow
    // runtime on a Simulator, load-shedding like the closed loop.
    {
        Simulator sim;
        PlatformModel platform;
        SovPipelineModel model(platform, SovPipelineConfig{}, Rng(seed));
        runtime::DataflowExecutor exec(sim, model.graph());
        exec.setKeepTraces(false);
        obs::MetricRegistry metrics;
        exec.attachMetrics(&metrics);
        sim.schedulePeriodic(Duration::millisF(100.0), Duration::zero(),
                             [&] {
                                 if (exec.framesInFlight() < 3)
                                     exec.releaseFrame();
                             });
        const std::int64_t t0 = nowNs();
        sim.runUntil(Timestamp::seconds(60.0));
        const std::int64_t dt = nowNs() - t0;
        const auto frames = static_cast<double>(exec.framesReleased());
        costs.frame_us = frames > 0.0 ? dt / frames / 1e3 : 0.0;
        costs.events_per_frame =
            frames > 0.0 ? sim.eventsExecuted() / frames : 0.0;
    }
    // A bare periodic event at physics rate: schedule + dispatch.
    {
        Simulator sim;
        std::uint64_t n = 0;
        sim.schedulePeriodic(Duration::millisF(5.0), Duration::zero(),
                             [&n] { ++n; });
        const std::int64_t t0 = nowNs();
        sim.runUntil(Timestamp::seconds(500.0));
        const std::int64_t dt = nowNs() - t0;
        costs.event_ns = sim.eventsExecuted()
                             ? static_cast<double>(dt) /
                                   static_cast<double>(sim.eventsExecuted())
                             : 0.0;
        g_sink = g_sink + static_cast<double>(n);
    }
    return costs;
}

void
reportClosedLoop(Report &report, const ClosedLoopCosts &c,
                 const char *input)
{
    const std::string note = std::string("input=") + input;
    report.metric("world.advance_ns", c.advance_ns, "ns", 0, note);
    report.metric("world.raycast_ns", c.raycast_ns, "ns", 0, note);
    report.metric("math.box_distance_ns", c.box_distance_ns, "ns", 0, note);
    report.metric("sensors.radar_nearest_ns", c.radar_nearest_ns, "ns", 0,
                  note);
    report.metric("planning.first_collision_us", c.first_collision_us,
                  "us", 0, note);
    report.metric("planning.mpc_plan_us", c.mpc_plan_us, "us", 0, note);
    report.metric("runtime.frame_us", c.frame_us, "us", 0,
                  "Fig. 5 frame on a Simulator");
    report.metric("sim.event_ns", c.event_ns, "ns", 0,
                  "periodic event at 200 Hz");
}

void
reportPointcloud(Report &report, const PointcloudCosts &c,
                 const char *input)
{
    const std::string note = std::string("input=") + input;
    report.metric("pointcloud.kdtree_build_ms", c.kdtree_build_ms, "ms", 0,
                  note);
    report.metric("pointcloud.kernel_ms", c.kernel_ms, "ms", 0, note);
    report.metric("memsim.trace_ms", c.trace_ms, "ms", 0, note);
    report.metric("memsim.cache_ms", c.cache_ms, "ms", 0, note);
    const double traced_ns = (c.trace_ms + c.cache_ms) * 1e6;
    report.metric("memsim.ns_per_access",
                  c.accesses ? traced_ns / static_cast<double>(c.accesses)
                             : 0.0,
                  "ns", c.accesses, note + " (MemTrace + CacheSim)");
}

void
reportServe(Report &report, const ServeCosts &c, const char *input)
{
    const std::string note = std::string("input=") + input;
    report.metric("serve.submit_us", c.submit_us, "us", 0, note);
    report.metric("serve.line_protocol_us", c.line_protocol_us, "us", 0,
                  note);
    report.metric("serve.fetch_rows_us", c.fetch_rows_us, "us", 0, note);
}

ServeCosts
probeServe(std::uint64_t seed, SpanRecorder &spans)
{
    const auto span = spans.open(spans.intern("probe.serve"));
    serve::ServiceConfig config;
    config.workers = 1;
    config.master_seed = seed;
    config.tenants = {serve::TenantConfig{"probe", 1e6, 1e6, 100000, 1}};
    serve::ScenarioService service(config);
    serve::SocketServer server(service, serve::ScenarioCatalog::standard(),
                               {});
    std::vector<double> submit, status, rows;
    std::vector<std::string> out;
    std::vector<std::string> ids;
    for (int i = 0; i < 12; ++i) {
        out.clear();
        const std::string line = "SUBMIT probe open_road seed=" +
                                 std::to_string(seed % 1000 + i) +
                                 " seeds=1 horizon_s=2";
        const std::int64_t t0 = nowNs();
        server.handleLine(line, out);
        submit.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        const auto pos = out.empty() ? std::string::npos
                                     : out[0].find("job=");
        if (pos != std::string::npos)
            ids.push_back(out[0].substr(pos + 4, out[0].find(' ', pos) -
                                                     pos - 4));
    }
    for (const std::string &id : ids) {
        out.clear();
        server.handleLine("WAIT " + id + " timeout_s=30", out);
        out.clear();
        std::int64_t t0 = nowNs();
        server.handleLine("STATUS " + id, out);
        status.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        out.clear();
        t0 = nowNs();
        server.handleLine("ROWS " + id + " from=0", out);
        rows.push_back(static_cast<double>(nowNs() - t0) / 1e3);
    }
    return ServeCosts{median(submit), median(status), median(rows)};
}

} // namespace perfbench
