/**
 * @file
 * fleet_crowded: FleetRunner on one worker thread over fuzzed agent
 * worlds at 3x the default pedestrian/cyclist/vehicle caps, bare and
 * supervised stacks, no faults, 20 s horizon. The 2-D geometry of the
 * closed loop (gap monitor, radar raycasts, collision checks) does
 * most of the work here, and its cost scales with obstacle count.
 *
 * The seed draws a list of distinct worlds, in blocks whose population
 * mix is fixed (see stratifiedWorlds), so the work does not swing with
 * the seed. The run replays the whole list in passes until its time is
 * spent, timing the host-speed reference before and after each replay;
 * a scenario's replays repeat the same computation, so the fastest of
 * them at reference speed is its cost with the least interference from
 * other load on the host. The first block's FleetReport and triage
 * fingerprints are the run's pinned results. A traced run pairs every
 * scenario with a traced twin whose row must match.
 */
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet_runner.h"
#include "fleet/fuzzer.h"
#include "fleet/triage.h"
#include "host.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {

using namespace sov;
using namespace sov::fleet;

namespace {

/** Worlds per block of the fixed population mix. */
constexpr std::size_t kBlockWorlds = 32;
/** Blocks in the list (x 2 stacks): one pass takes 3-4.5 s on a
 *  4-core Xeon, so a 40 s run replays every scenario nine to twelve
 *  times. */
constexpr std::size_t kBlocks = 2;
constexpr double kHorizonS = 20.0;
constexpr double kPhysicsHz = 200.0;
constexpr double kPlannerHz = 10.0;
constexpr int kSetupRepeats = 9;
/** Fuzz seed base of the reference population mix. */
constexpr std::uint64_t kReferenceSeed = 0x5eed0000;
/** Candidate worlds drawn per run: enough to fill every block's mix
 *  for nearly every seed. */
constexpr std::uint64_t kCandidates = 4096;

/** Fleet and triage fingerprints of the first block, pinned seeds. */
const std::map<std::uint64_t, std::pair<const char *, const char *>>
    kPinned = {
        {1, {"ecbe9cce103442ae", "c15c50e96d87964b"}},
        {7, {"182024cbbc1e1404", "4a238cd9e06b670d"}},
};

FuzzRanges
crowdedRanges()
{
    FuzzRanges r; // 3x the default population caps
    r.max_pedestrians *= 3;
    r.max_cyclists *= 3;
    r.max_vehicles *= 3;
    return r;
}

/** A fuzz world's population: (agents, has a static wall). */
using Population = std::pair<std::size_t, bool>;

/** @p preset's population, from a build spanned as @p build_id. */
Population
populationOf(const WorldPreset &preset, SpanRecorder &spans,
             std::uint32_t build_id)
{
    World world;
    Rng rng(0); // fuzz worlds are self-seeded; the Rng is unused
    {
        const auto span = spans.open(build_id);
        preset.build(world, rng);
    }
    bool wall = false;
    for (const Obstacle &o : world.obstacles())
        wall |= o.cls == ObjectClass::Static;
    return {world.numObstacles() - (wall ? 1 : 0), wall};
}

/**
 * The run's worlds: kCandidates fuzz seeds drawn in order from the run
 * seed, each kept when its population fills an open slot of a block's
 * target mix — the populations of kBlockWorlds fuzz worlds from a fixed
 * reference seed — and the earliest block first. Every seed thus runs
 * different worlds with the same population mix per block, so the
 * work does not swing with the seed; and every seed builds the same
 * number of candidate worlds, so neither does the set-up. A slot still
 * open at the end (rare) takes the earliest unkept candidate.
 */
std::vector<WorldPreset>
stratifiedWorlds(std::uint64_t seed, std::size_t &filled_from_spare,
                 SpanRecorder &spans)
{
    const std::uint32_t build_id = spans.intern("fleet.world_build");
    std::map<Population, std::size_t> target;
    for (std::size_t i = 0; i < kBlockWorlds; ++i)
        ++target[populationOf(fuzzWorldPreset(kReferenceSeed + i, kHorizonS,
                                              crowdedRanges()),
                              spans, build_id)];
    std::vector<std::map<Population, std::size_t>> open(kBlocks, target);
    std::vector<std::vector<WorldPreset>> blocks(kBlocks);
    std::vector<WorldPreset> spare;
    for (std::uint64_t i = 0; i < kCandidates; ++i) {
        WorldPreset preset = fuzzWorldPreset(seed * 1000003ull + 1 + i,
                                             kHorizonS, crowdedRanges());
        const Population pop = populationOf(preset, spans, build_id);
        bool kept = false;
        for (std::size_t b = 0; b < kBlocks && !kept; ++b) {
            const auto slot = open[b].find(pop);
            if (slot == open[b].end())
                continue;
            if (--slot->second == 0)
                open[b].erase(slot);
            blocks[b].push_back(std::move(preset));
            kept = true;
        }
        if (!kept && spare.size() < kBlocks * kBlockWorlds)
            spare.push_back(std::move(preset));
    }
    filled_from_spare = 0;
    std::vector<WorldPreset> worlds;
    for (std::vector<WorldPreset> &block : blocks) {
        while (block.size() < kBlockWorlds)
            block.push_back(spare[filled_from_spare++]);
        worlds.insert(worlds.end(), block.begin(), block.end());
    }
    return worlds;
}

struct Inputs
{
    std::vector<ScenarioSpec> specs;
    std::vector<double> obstacles; //!< per spec, after the world build
};

/**
 * The scenario list over @p worlds, with each spec's obstacle count
 * from a build of its world.
 */
Inputs
buildInputs(const std::vector<WorldPreset> &worlds, std::uint64_t seed,
            SpanRecorder &spans)
{
    const std::uint32_t build_id = spans.intern("fleet.world_build");
    ScenarioMatrix matrix;
    for (const WorldPreset &w : worlds)
        matrix.addWorld(w);
    matrix.addFault(noFaultPreset());
    matrix.addStack(bareStack());
    matrix.addStack(supervisedStack());
    matrix.addSeed(seed);
    Inputs in;
    in.specs = matrix.enumerate();
    for (const ScenarioSpec &spec : in.specs) {
        const Population pop = populationOf(spec.world, spans, build_id);
        in.obstacles.push_back(static_cast<double>(pop.first + pop.second));
    }
    return in;
}

/** The ClosedLoopResult facts kept beside the outcome rows. */
struct HookRow
{
    TriageRow triage;
    std::uint64_t frames_deferred = 0;
};

/** Everything a measurement observed. */
struct Measured
{
    double wall_s = 0.0;
    std::uint64_t threw = 0;
    /** The first pass's rows, list order. Replays keep only their
     *  fingerprints, so memory does not grow with how far a run gets. */
    std::vector<ScenarioOutcome> rows;
    std::vector<std::uint64_t> row_fps; //!< every replay, list order
    std::vector<double> scenario_ms;    //!< every replay
    std::vector<double> scaled_ms; //!< scenario_ms at reference speed
    std::vector<std::uint64_t> traced_fps; //!< twins (traced run)
    std::vector<double> traced_ms;
    std::vector<HookRow> hooks; //!< per spec index
    std::uint64_t block_fleet_fp = 0;
    std::uint64_t block_triage_fp = 0;
    double report_ms = 0.0;
    double merge_ms = 0.0;
};

std::uint64_t
rowFingerprint(const ScenarioOutcome &row)
{
    return FleetReport::fromOutcomes({row}).fingerprint();
}

std::uint64_t
fuzzSeedOf(const std::string &world_name)
{
    return std::stoull(world_name.substr(world_name.rfind('-') + 1));
}

/**
 * Replay the list in passes until @p seconds are spent, the first pass
 * always completing, and fold the first block the way FleetRunner::run
 * folds a sweep (canonical-order MetricRegistry merge, scenario by
 * scenario; FleetReport over the rows in index order when the block
 * completes). Each untraced
 * replay sits between two samples of @p speed. With an enabled
 * @p spans recorder every scenario runs twice back to back, untraced
 * then traced, so the tracing overhead is a paired difference.
 */
Measured
measure(const Inputs &in, std::uint64_t seed, double seconds,
        HostSpeed &speed, SpanRecorder &spans)
{
    const std::size_t n = in.specs.size();
    Measured out;
    out.hooks.resize(n);
    FleetConfig cfg;
    cfg.threads = 1;
    cfg.master_seed = seed;
    cfg.scenario_hook = [&out](const ScenarioSpec &spec,
                               const ClosedLoopResult &r) {
        HookRow &h = out.hooks[spec.index];
        h.triage.scenario = spec.name;
        h.triage.index = spec.index;
        h.triage.fuzz_seed = fuzzSeedOf(spec.world.name);
        h.triage.collided = r.collided;
        h.triage.min_gap = r.min_gap;
        h.triage.min_ttc = r.min_ttc;
        h.triage.offender = r.nearest_obstacle;
        h.frames_deferred = r.frames_deferred;
    };
    const FleetRunner runner(cfg);
    const std::uint32_t scenario_id = spans.intern("fleet.run_scenario");
    const std::uint32_t report_id = spans.intern("fleet.report");
    const std::uint32_t merge_id = spans.intern("obs.metrics_merge");
    // Each scenario of the first block records into a registry of its
    // own, merged into the block's fold in index order right after it
    // (the canonical order of FleetRunner::run); every other run
    // records into one scratch registry. Memory thus does not grow with
    // the block's contents or with how far a run gets.
    const std::size_t block = 2 * kBlockWorlds;
    obs::MetricRegistry merged;
    obs::MetricRegistry scratch;

    // One timed runScenario; a throw loses the row (counted, empty row).
    auto runOne = [&](std::size_t i, bool traced, std::vector<double> &ms,
                      obs::MetricRegistry &metrics) {
        ScenarioOutcome row;
        const std::int64_t t0 = nowNs();
        try {
            if (traced) {
                const auto span = spans.open(scenario_id, i + 1);
                row = runner.runScenario(in.specs[i], &metrics);
            } else {
                row = runner.runScenario(in.specs[i], &metrics);
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "scenario %s threw: %s\n",
                         in.specs[i].name.c_str(), e.what());
            ++out.threw;
            row = ScenarioOutcome{}; // keeps the fold's index order valid
            row.name = in.specs[i].name;
            row.index = in.specs[i].index;
        }
        ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        return row;
    };

    const std::int64_t start = nowNs();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    CpuRotation cpus; // each pass on the next CPU
    double ref_before = 0.0;
    for (std::size_t k = 0; k < n || nowNs() < deadline; ++k) {
        if (k % n == 0)
            cpus.next();
        if (k % n == 0 || spans.enabled())
            ref_before = speed.sampleNs(); // new CPU, or a twin ran since
        obs::MetricRegistry own;
        ScenarioOutcome row =
            runOne(k % n, false, out.scenario_ms, k < block ? own : scratch);
        const double ref_after = speed.sampleNs();
        out.scaled_ms.push_back(
            speed.scale(out.scenario_ms.back(), ref_before, ref_after));
        ref_before = ref_after;
        out.row_fps.push_back(rowFingerprint(row));
        if (k < n)
            out.rows.push_back(std::move(row));
        if (spans.enabled())
            out.traced_fps.push_back(
                rowFingerprint(runOne(k % n, true, out.traced_ms, scratch)));
        if (k < block) {
            const auto span = spans.open(merge_id);
            const std::int64_t t0 = nowNs();
            merged.merge(own);
            out.merge_ms += static_cast<double>(nowNs() - t0) / 1e6;
        }
        if (k + 1 != block)
            continue;
        // The first block, folded as FleetRunner::run folds a sweep.
        {
            const auto span = spans.open(report_id);
            const std::int64_t t0 = nowNs();
            out.block_fleet_fp =
                FleetReport::fromOutcomes(out.rows).fingerprint();
            TriageReport triage;
            for (std::size_t i = 0; i < block; ++i)
                triage.addRow(out.hooks[i].triage);
            out.block_triage_fp = triage.fingerprint();
            out.report_ms = static_cast<double>(nowNs() - t0) / 1e6;
        }
    }
    out.wall_s = static_cast<double>(nowNs() - start) / 1e9;
    return out;
}

/** Rows that differ from the first run of their scenario (a wrapped
 *  list repeats scenarios; traced twins repeat every one). */
std::uint64_t
mismatchedRows(const Measured &m, std::size_t n)
{
    std::uint64_t bad = 0;
    for (std::size_t k = n; k < m.row_fps.size(); ++k)
        bad += m.row_fps[k] != m.row_fps[k % n];
    for (std::size_t k = 0; k < m.traced_fps.size(); ++k)
        bad += m.traced_fps[k] != m.row_fps[k % n];
    return bad;
}

double
total(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return s;
}

} // namespace

void
runFleetCrowded(const Args &args, Report &report, SpanRecorder &spans)
{
    recordHost(report, args, 1);
    // Set-up: the world draw, the scenario list and a build of every
    // scenario's world; then one untimed warm-up scenario so lazy
    // set-up is not charged to the first measured one.
    Inputs in;
    std::size_t filled_from_spare = 0;
    HostSpeed speed;
    const double setup_s = medianSetupSeconds(kSetupRepeats, speed, [&] {
        in = buildInputs(
            stratifiedWorlds(args.seed, filled_from_spare, spans), args.seed,
            spans);
    });
    {
        const FleetRunner warm(FleetConfig{1, args.seed, nullptr, nullptr});
        warm.runScenario(in.specs.front());
    }
    const std::size_t n = in.specs.size();

    // Untraced: the end-to-end numbers. Traced: every scenario paired
    // with a traced twin (about half the time each).
    const Measured m = measure(in, args.seed, args.seconds, speed, spans);
    const std::size_t done = m.row_fps.size();
    report.fact("scenarios_run", std::to_string(done) +
                                     " runs of a list of " +
                                     std::to_string(n));
    report.fact("slots_filled_off_mix", std::to_string(filled_from_spare));

    // ---- correctness: repeated rows, twins, pinned fingerprints ----
    std::uint64_t failed = m.threw + mismatchedRows(m, n);
    const std::uint64_t attempted = done + m.traced_fps.size();
    const std::string fleet_fp = hex16(m.block_fleet_fp);
    const std::string triage_fp = hex16(m.block_triage_fp);
    report.fact("fleet_fingerprint", fleet_fp);
    report.fact("triage_fingerprint", triage_fp);
    report.check("fleet.rows_identical", failed == 0,
                 std::to_string(failed) +
                     " rows threw or differ from their first run "
                     "(traced twins included)");
    if (const auto pin = kPinned.find(args.seed); pin != kPinned.end()) {
        const bool ok = fleet_fp == pin->second.first &&
                        triage_fp == pin->second.second;
        report.check("fleet.pinned_fingerprints", ok,
                     std::string("want ") + pin->second.first + "/" +
                         pin->second.second);
        failed += ok ? 0 : 1;
    }
    report.attempted(attempted);
    report.failed(failed);
    report.metric("setup_s", setup_s, "s", kSetupRepeats,
                  "p50 of world draw + scenario list + world builds, at "
                  "reference speed");
    report.metric("failed_frac", static_cast<double>(failed) / attempted,
                  "ratio", attempted);

    // Each scenario's fastest untraced replay, as measured and at
    // reference speed.
    const std::size_t first = std::min(done, n);
    std::vector<double> best_ms(first, 1e300), best_scaled_ms(first, 1e300);
    for (std::size_t k = 0; k < done; ++k) {
        best_ms[k % n] = std::min(best_ms[k % n], m.scenario_ms[k]);
        best_scaled_ms[k % n] = std::min(best_scaled_ms[k % n], m.scaled_ms[k]);
    }
    report.fact("passes", std::to_string(static_cast<double>(done) / n));

    // ---- closed-loop ratios over the scenarios' fastest replays ----
    double sim_s = 0.0;
    double host_s = 0.0;
    double obstacle_steps = 0.0;
    double frames = 0.0;
    double obstacles = 0.0;
    std::uint64_t dropped = 0, deferred = 0, reactive = 0;
    std::vector<double> x, y;
    for (std::size_t i = 0; i < first; ++i) {
        const ScenarioOutcome &row = m.rows[i];
        const double steps = row.sim_elapsed_s * kPhysicsHz;
        sim_s += row.sim_elapsed_s;
        host_s += best_ms[i] / 1e3;
        obstacle_steps += in.obstacles[i] * steps;
        obstacles += in.obstacles[i];
        frames += static_cast<double>(row.pipeline_frames +
                                      row.pipeline_frames_failed);
        dropped += row.frames_dropped;
        reactive += row.reactive_triggers;
        deferred += m.hooks[i].frames_deferred;
        x.push_back(in.obstacles[i] * steps);
        y.push_back(best_ms[i] * 1e6);
    }
    const double physics_steps = sim_s * kPhysicsHz;
    const double planning_cycles = sim_s * kPlannerHz;
    report.metric("sovpipe.sim_s_per_host_s", sim_s / host_s, "ratio", first);
    report.metric("sovpipe.host_us_per_physics_step",
                  host_s * 1e6 / physics_steps, "us", first);
    report.metric("sovpipe.host_ns_per_obstacle_step", slope(x, y), "ns",
                  first, "slope of scenario host time over obstacles x steps");
    report.metric("runtime.frames_released", frames, "count", first);
    report.metric("runtime.frames_dropped", static_cast<double>(dropped),
                  "count", first);
    report.metric("runtime.frames_deferred", static_cast<double>(deferred),
                  "count", first);
    report.metric("vehicle.reactive_triggers", static_cast<double>(reactive),
                  "count", first);
    report.metric("world.obstacles_mean", obstacles / first, "count", first);

    if (!args.trace) {
        // ---- end-to-end (untraced run) ----
        // Each scenario's fastest replay at reference speed: other load
        // on the host only ever adds time; what stays, in stretches of
        // minutes, the reference beside each replay takes out.
        report.metric("scenarios_per_s", first / (total(best_scaled_ms) / 1e3),
                      "1/s", first,
                      "scenarios / sum of each one's fastest replay at "
                      "reference speed, 1 worker thread");
        report.metric("scenarios_per_s.measured", first / host_s, "1/s",
                      first, "the same over the measured replay times");
        report.metric("scenarios_per_wall_s", done / m.wall_s, "1/s", done,
                      "every replay, incl. the first block's fold and the "
                      "reference");
        report.metric("host.speed", speed.medianSpeed(), "ratio",
                      speed.samples().size(),
                      "p50 of host speed / reference speed; below 1 = slower");
        report.p50("scenario_ms_p50", best_scaled_ms, "ms");
        report.tail("scenario_ms_tail", best_scaled_ms, "ms");
        report.p50("scenario_ms_p50.measured", best_ms, "ms");
        // The contract pair is per simulated time: a seed's worlds differ
        // in how long their scenarios drive before they stop (the
        // simulated seconds of two seeds differ by up to 20%), far less
        // in what one simulated second costs.
        std::vector<double> ms_per_sim_s;
        for (std::size_t i = 0; i < first; ++i)
            if (m.rows[i].sim_elapsed_s > 0.0)
                ms_per_sim_s.push_back(best_scaled_ms[i] /
                                       m.rows[i].sim_elapsed_s);
        report.metric("sim_steps_per_s",
                      physics_steps / (total(best_scaled_ms) / 1e3), "1/s",
                      first,
                      "simulated physics steps / sum of each scenario's "
                      "fastest replay at reference speed");
        report.p50("scenario_ms_per_sim_s_p50", ms_per_sim_s, "ms");
        report.tail("scenario_ms_per_sim_s_tail", ms_per_sim_s, "ms");
        report.metric("peak_rss_mb", peakRssMb(), "MB");
        report.alias("throughput_per_s", "sim_steps_per_s");
        report.alias("latency_ms", "scenario_ms_per_sim_s_p50");
        return;
    }

    // ---- per-layer (traced run) ----
    report.metric("trace.overhead_frac",
                  total(m.traced_ms) / total(m.scenario_ms) - 1.0, "ratio",
                  m.traced_ms.size(),
                  "traced / untraced twin scenario time - 1");
    report.metric("fleet.world_build_ms",
                  total(spans.durationsMs("fleet.world_build")) /
                      kSetupRepeats,
                  "ms", kSetupRepeats,
                  "WorldPreset::build of every drawn world, per set-up");
    report.metric("fleet.report_ms", m.report_ms, "ms", 2 * kBlockWorlds,
                  "FleetReport + triage fold of the first block");
    report.metric("obs.metrics_merge_ms", m.merge_ms, "ms",
                  2 * kBlockWorlds,
                  "MetricRegistry::merge of the first block's scenarios");

    std::vector<WorldPreset> worlds;
    for (std::size_t i = 0; i < 8; ++i)
        worlds.push_back(in.specs[2 * i].world);
    const ClosedLoopCosts c = probeClosedLoop(worlds, args.seed, 4.0, spans);
    reportClosedLoop(report, c, "fleet_crowded worlds");
    // Σ(probe cost x estimated calls) over the measured scenario time,
    // top-level probes only (raycast and firstCollision nest inside
    // the radar and MPC probes).
    const double covered_ns =
        c.advance_ns * (physics_steps + planning_cycles) +
        c.radar_nearest_ns * physics_steps +
        c.box_distance_ns * obstacle_steps +
        c.mpc_plan_us * 1e3 * planning_cycles + c.frame_us * 1e3 * frames +
        c.event_ns * (physics_steps + planning_cycles);
    report.metric("fleet.probe_coverage", covered_ns / (host_s * 1e9),
                  "ratio", first, "sum(probe cost x calls) / scenario time");
    reportServe(report, probeServe(args.seed, spans), "probe service");
    reportPointcloud(report, probePointcloud(args.seed, spans),
                     "probe cloud");
}

} // namespace perfbench
