/**
 * @file
 * serve_mix: open-loop Poisson arrivals at fixed offered rates into a
 * socketless ScenarioService (2 workers) through SocketServer::
 * handleLine — the line protocol, admission, DRR fair share, result
 * cache and streamed merge do the serving; the simulation behind it is
 * runtime/fault/health-heavy and geometry-light (at most one obstacle),
 * so this is the bypass workload for closed-loop geometry changes.
 *
 * Four equal-weight tenants submit jobs over the light catalog sets
 * fault_smoke, sudden_wall and open_road (seeds 1-4, short horizon):
 * two interactive tenants send the light jobs, two batch tenants the
 * heavy ones;
 * a third of the jobs repeat a recent job's (set, seed, seeds,
 * horizon), exercising the cache, while fresh jobs bypass it. Rates
 * are constants in jobs/s; a rung passes when its tail TTFR meets the
 * fixed limit, no job failed and the shard backlog did not grow.
 * Each rate runs as two half rungs, and after each a burst rung
 * (every job due at once) measures drain capacity.
 *
 * Latency is timed from the instant a request was due, not from when
 * the generator got round to sending it, and pools the rungs below
 * capacity. Every job's report fingerprint must equal a direct
 * FleetRunner run of its spec list.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/rng.h"
#include "fleet/fleet_runner.h"
#include "host.h"
#include "serve/catalog.h"
#include "serve/service.h"
#include "serve/socket_server.h"
#include "workloads.h"

namespace perfbench {

using namespace sov;

namespace {

constexpr std::size_t kWorkers = 2;
constexpr const char *kTenants[] = {"t0", "t1", "t2", "t3"};
constexpr const char *kSets[] = {"fault_smoke", "sudden_wall", "open_road"};
/** Scenarios per catalog seed of each set (its matrix size). */
constexpr std::uint64_t kSetScenarios[] = {20, 6, 1};
/** Offered open-loop rates, jobs/s (constants; never calibrated). The
 *  top rate lies near or above the burst-measured capacity (65-100
 *  jobs/s on a 4-core Xeon), so max_rate_jobs_per_s can find the knee. */
constexpr double kRates[] = {10.0, 20.0, 40.0, 80.0};
/** The latency metrics pool the rungs up to this rate; the rungs above
 *  run near or past capacity and serve only max_rate_jobs_per_s. */
constexpr double kLatencyMaxRate = 40.0;
/** Share of the measuring time the open-loop rungs take in total. */
constexpr double kRungShare = 0.75;
/** Jobs per block of the job stream (see JobStream). */
constexpr std::size_t kBlockJobs = 36;
/** Two whole blocks: every burst offers the same work. */
constexpr std::size_t kBurstJobs = 2 * kBlockJobs;
constexpr double kHorizonS = 5.0;
/** Fixed tail-TTFR limit a rung must meet. */
constexpr double kTtfrLimitMs = 100.0;
/** A rung whose last job finishes later than this after its due time
 *  left a growing backlog behind. */
constexpr double kDrainLimitMs = 250.0;
/** Jobs of at most this many scenarios are "light". */
constexpr std::size_t kLightMaxScenarios = 6;
constexpr int kSetupRepeats = 9;
/** Distinct job keys verified scenario by scenario (and timed). */
constexpr std::size_t kTimedKeys = 48;
/** Threads of the pooled direct runs that verify the other keys. */
constexpr std::size_t kVerifyThreads = 4;

struct JobKey
{
    std::string set;
    std::uint64_t seed = 0;
    std::uint64_t seeds = 1;
    bool operator<(const JobKey &o) const
    {
        return std::tie(set, seed, seeds) < std::tie(o.set, o.seed, o.seeds);
    }
};

struct Arrival
{
    double due_s = 0.0; //!< offset from the rung start
    std::string tenant;
    JobKey key;
    bool repeat = false;
};

struct Rung
{
    double rate = 0.0; //!< 0 = burst
    double duration_s = 0.0;
    std::vector<Arrival> arrivals;
};

/**
 * The job stream, in blocks of 36: every (set, seeds) combination
 * three times — the first and third occurrence fresh (a new seed from
 * the run seed), the second a repeat of that combination's most recent
 * key — in a seed-shuffled order. Every block therefore offers the
 * same work and the same one-third repeat share; the seed decides the
 * order and the scenario seeds.
 */
class JobStream
{
  public:
    explicit JobStream(std::uint64_t seed) : rng_(seed * 7919 + 3) {}

    Arrival next(double due)
    {
        if (block_.empty())
            refill();
        const auto [set, seeds, repeat] = block_.back();
        block_.pop_back();
        Arrival a;
        a.due_s = due;
        // Interactive tenants t0/t1 send the light jobs, batch
        // tenants t2/t3 the heavy ones, alternating within each pair.
        const bool light =
            kSetScenarios[set] * seeds <= kLightMaxScenarios;
        a.tenant = kTenants[(light ? 0 : 2) + (next_pair_[light]++ & 1)];
        JobKey &last = latest_[{set, seeds}];
        if (repeat && !last.set.empty()) {
            a.key = last;
            a.repeat = true;
        } else {
            a.key.set = kSets[set];
            a.key.seed =
                static_cast<std::uint64_t>(rng_.uniformInt(1, 1000000000));
            a.key.seeds = seeds;
            last = a.key;
        }
        return a;
    }

    /** Drop the rest of the current block; the next job starts one. */
    void alignToBlock() { block_.clear(); }

  private:
    void refill()
    {
        for (int set = 0; set < 3; ++set)
            for (std::uint64_t seeds = 1; seeds <= 4; ++seeds)
                for (const bool repeat : {false, true, false})
                    block_.emplace_back(set, seeds, repeat);
        // Fisher-Yates, then restore fresh-repeat-fresh order within
        // each combination so a repeat always has a key to repeat.
        for (std::size_t i = block_.size() - 1; i > 0; --i)
            std::swap(block_[i], block_[static_cast<std::size_t>(
                                     rng_.uniformInt(0, i))]);
        std::map<std::pair<int, std::uint64_t>, int> seen;
        // block_ is consumed from the back.
        for (auto it = block_.rbegin(); it != block_.rend(); ++it)
            std::get<2>(*it) =
                seen[{std::get<0>(*it), std::get<1>(*it)}]++ == 1;
    }

    Rng rng_;
    unsigned next_pair_[2] = {0, 0};
    std::vector<std::tuple<int, std::uint64_t, bool>> block_;
    std::map<std::pair<int, std::uint64_t>, JobKey> latest_;
};

/** Draw every rung's arrivals from @p seed. */
std::vector<Rung>
schedule(std::uint64_t seed, double seconds)
{
    JobStream jobs(seed);
    Rng rng(seed * 104729 + 11);
    std::vector<Rung> rungs;
    const double rung_s = seconds * kRungShare / std::size(kRates);
    for (const double rate : kRates) {
        // A fixed job count per rate (Poisson gaps, not a Poisson
        // count), so every seed offers the same amount of work. Each
        // rate runs as two half rungs, each followed by a burst rung:
        // capacity is then sampled eight times across the run.
        const auto count = static_cast<std::size_t>(rate * rung_s);
        for (const std::size_t half : {count / 2, count - count / 2}) {
            Rung r;
            r.rate = rate;
            double t = 0.0;
            for (std::size_t i = 0; i < half; ++i) {
                t += rng.exponential(rate);
                r.arrivals.push_back(jobs.next(t));
            }
            r.duration_s = t;
            rungs.push_back(std::move(r));
            Rung burst;
            jobs.alignToBlock();
            for (std::size_t i = 0; i < kBurstJobs; ++i)
                burst.arrivals.push_back(jobs.next(0.0));
            rungs.push_back(std::move(burst));
        }
    }
    return rungs;
}

std::string
submitLine(const Arrival &a)
{
    return "SUBMIT " + a.tenant + " " + a.key.set +
           " seed=" + std::to_string(a.key.seed) +
           " seeds=" + std::to_string(a.key.seeds) +
           " horizon_s=" + std::to_string(kHorizonS);
}

/** Value of "key=" in a protocol line; empty if absent. */
std::string
field(const std::string &line, const std::string &key)
{
    const std::string pat = " " + key + "=";
    const auto pos = line.find(pat);
    if (pos == std::string::npos)
        return {};
    const auto start = pos + pat.size();
    return line.substr(start, line.find(' ', start) - start);
}

/** One job as the client saw it. */
struct Sent
{
    const Arrival *arrival = nullptr;
    double due = 0.0;      //!< absolute, seconds on the run clock
    double sent = 0.0;
    double submit_us = 0.0; //!< the SUBMIT handleLine call
    std::string id;        //!< empty when rejected / ERR
    std::string final_line; //!< the WAIT snapshot
    std::size_t scenarios = 0;
    bool ok = false;
};

struct RungResult
{
    double rate = 0.0;
    std::vector<Sent> jobs;
    std::vector<double> queue_depth;
    std::vector<double> inflight;
    std::vector<double> tenant_served; //!< completed / submitted
};

struct PhaseResult
{
    std::vector<RungResult> rungs;
    std::vector<double> status_us;
    std::vector<double> rows_us;
    double cache_hits = 0, cache_misses = 0, cache_evictions = 0;
    double admitted = 0, rejected = 0, timed_out = 0;
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

serve::ServiceConfig
serviceConfig(std::uint64_t seed)
{
    serve::ServiceConfig config;
    config.workers = kWorkers;
    config.master_seed = seed;
    for (const char *t : kTenants)
        config.tenants.push_back(serve::TenantConfig{t, 1e6, 1e6, 1000000, 1});
    return config;
}

PhaseResult
runPhase(const std::vector<Rung> &rungs, std::uint64_t seed,
         SpanRecorder &spans)
{
    const std::uint32_t submit_id = spans.intern("serve.submit");
    const std::uint32_t wait_id = spans.intern("serve.wait");
    const std::uint32_t status_id = spans.intern("serve.status");
    const std::uint32_t rows_id = spans.intern("serve.fetch_rows");
    const std::uint32_t gauge_id = spans.intern("obs.metrics_snapshot");

    serve::ScenarioService service(serviceConfig(seed));
    serve::SocketServer server(service, serve::ScenarioCatalog::standard(),
                               {});
    PhaseResult out;
    const auto clock0 = std::chrono::steady_clock::now();
    std::uint64_t request = 0;
    std::vector<std::string> lines;

    for (const Rung &rung : rungs) {
        RungResult rr;
        rr.rate = rung.rate;
        const double start = secondsSince(clock0) + 0.002;
        double last_sample = -1.0;
        const auto before = service.metricsSnapshot();
        for (const Arrival &a : rung.arrivals) {
            Sent s;
            s.arrival = &a;
            s.due = start + a.due_s;
            // Sample the backlog gauges while waiting for the next due
            // time (never when already late).
            if (secondsSince(clock0) - last_sample > 0.2 &&
                s.due - secondsSince(clock0) > 0.002) {
                const auto span = spans.open(gauge_id);
                const obs::MetricRegistry m = service.metricsSnapshot();
                rr.queue_depth.push_back(m.gauge("serve.queued_shards"));
                rr.inflight.push_back(m.gauge("serve.inflight"));
                last_sample = secondsSince(clock0);
            }
            std::this_thread::sleep_until(
                clock0 + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(s.due)));
            lines.clear();
            s.sent = secondsSince(clock0);
            {
                const auto span = spans.open(submit_id, ++request);
                server.handleLine(submitLine(a), lines);
            }
            s.submit_us = (secondsSince(clock0) - s.sent) * 1e6;
            if (!lines.empty() && lines[0].rfind("OK job=", 0) == 0) {
                s.id = field(" " + lines[0].substr(3), "job");
                s.scenarios = std::stoull(field(lines[0], "scenarios"));
            }
            rr.jobs.push_back(std::move(s));
        }
        // Drain the rung: wait for every job, then read its rows.
        for (Sent &s : rr.jobs) {
            if (s.id.empty())
                continue;
            lines.clear();
            {
                const auto span = spans.open(wait_id);
                server.handleLine("WAIT " + s.id + " timeout_s=60", lines);
            }
            s.final_line = lines.empty() ? "" : lines[0];
            s.ok = field(s.final_line, "state") == "completed";
            lines.clear();
            std::int64_t t0 = nowNs();
            {
                const auto span = spans.open(status_id);
                server.handleLine("STATUS " + s.id, lines);
            }
            out.status_us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
            lines.clear();
            t0 = nowNs();
            {
                const auto span = spans.open(rows_id);
                server.handleLine("ROWS " + s.id + " from=0", lines);
            }
            out.rows_us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
            const std::size_t rows = lines.empty() ? 0 : lines.size() - 1;
            if (rows != s.scenarios)
                s.ok = false; // lost rows
        }
        const auto after = service.metricsSnapshot();
        // Per tenant: scenarios completed over scenarios submitted.
        for (const char *t : kTenants) {
            const std::string key = std::string("serve.tenant.") + t +
                                    ".completed";
            double submitted = 0.0;
            for (const Sent &s : rr.jobs)
                if (s.arrival->tenant == t)
                    submitted += static_cast<double>(s.scenarios);
            if (submitted > 0.0)
                rr.tenant_served.push_back(
                    static_cast<double>(after.counter(key) -
                                        before.counter(key)) /
                    submitted);
        }
        out.rungs.push_back(std::move(rr));
    }
    const auto m = service.metricsSnapshot();
    out.cache_hits = static_cast<double>(m.counter("serve.cache.hits"));
    out.cache_misses = static_cast<double>(m.counter("serve.cache.misses"));
    out.cache_evictions =
        static_cast<double>(m.counter("serve.cache.evictions"));
    out.admitted = static_cast<double>(m.counter("serve.jobs_admitted"));
    out.rejected = static_cast<double>(m.counter("serve.jobs_rejected"));
    out.timed_out = static_cast<double>(m.counter("serve.jobs_timed_out"));
    return out;
}

/** Per-class latency samples of one phase (ms from the due time). */
struct Latencies
{
    std::vector<double> ttfr_light, ttfr_heavy, job_light, lag;
    std::vector<double> capacity; //!< per burst rung, jobs/s
    std::map<double, std::vector<double>> rate_ttfr; //!< both rungs
    std::map<double, bool> rate_drained; //!< no rung failed or backed up
    double max_rate = 0.0;
    double jain_min = 1.0;
    std::size_t open_rungs = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> rung_lines;
    std::vector<std::string> rate_lines;
};

Latencies
latencies(const PhaseResult &ph)
{
    Latencies out;
    for (const RungResult &rr : ph.rungs) {
        std::vector<double> &ttfr_all = out.rate_ttfr[rr.rate];
        std::uint64_t rung_failed = 0;
        double last_done = 0.0;
        const double first_due = rr.jobs.empty() ? 0.0 : rr.jobs.front().due;
        const double last_due = rr.jobs.empty() ? 0.0 : rr.jobs.back().due;
        for (const Sent &s : rr.jobs) {
            ++out.attempted;
            if (!s.ok) {
                ++out.failed;
                ++rung_failed;
                continue;
            }
            // The service times ttfr_ms and wall_ms from its own submit
            // instant, inside the SUBMIT call; anchoring them on the
            // send time leaves out only the part of the call before
            // that instant (spec build and admission).
            const double ttfr = std::stod(field(s.final_line, "ttfr_ms"));
            const double wall = std::stod(field(s.final_line, "wall_ms"));
            const OpenLoopLatency first =
                openLoopLatency({s.due, s.sent, s.sent + ttfr / 1e3});
            const OpenLoopLatency done =
                openLoopLatency({s.due, s.sent, s.sent + wall / 1e3});
            last_done = std::max(last_done, s.sent + wall / 1e3);
            if (rr.rate == 0.0)
                continue; // the burst rung only measures capacity
            ttfr_all.push_back(first.from_due * 1e3);
            out.lag.push_back(first.lag * 1e3);
            if (rr.rate > kLatencyMaxRate)
                continue;
            const bool light = s.scenarios <= kLightMaxScenarios;
            (light ? out.ttfr_light : out.ttfr_heavy)
                .push_back(first.from_due * 1e3);
            if (light)
                out.job_light.push_back(done.from_due * 1e3);
        }
        if (rr.rate == 0.0) {
            if (last_done > first_due)
                out.capacity.push_back(static_cast<double>(rr.jobs.size()) /
                                       (last_done - first_due));
            continue;
        }
        // Below capacity the backlog drains within about one job of the
        // last arrival; above it, the backlog grows with the rung.
        const double drain_ms = (last_done - last_due) * 1e3;
        const bool drained = rung_failed == 0 && drain_ms <= kDrainLimitMs;
        out.rate_drained[rr.rate] = out.rate_drained.count(rr.rate)
                                        ? out.rate_drained[rr.rate] && drained
                                        : drained;
        const double jain = jainIndex(rr.tenant_served);
        out.jain_min = std::min(out.jain_min, jain);
        ++out.open_rungs;
        char line[256];
        std::snprintf(line, sizeof line,
                      "rate=%g jobs=%zu failed=%llu drain_ms=%.3f jain=%.4f",
                      rr.rate, rr.jobs.size(),
                      static_cast<unsigned long long>(rung_failed), drain_ms,
                      jain);
        out.rung_lines.push_back(line);
    }
    // A rate meets the limit when the tail TTFR of its two rungs
    // together does and neither rung failed a job or backed up.
    for (const auto &[rate, ttfr] : out.rate_ttfr) {
        if (rate == 0.0)
            continue;
        const auto tail = tailPercentile(ttfr);
        const bool meets = out.rate_drained[rate] && tail &&
                           tail->value <= kTtfrLimitMs;
        if (meets)
            out.max_rate = std::max(out.max_rate, rate);
        char line[160];
        std::snprintf(line, sizeof line,
                      "rate=%g ttfr_tail_ms=%.3f (p%g) %s", rate,
                      tail ? tail->value : -1.0, tail ? tail->percentile : 0.0,
                      meets ? "meets" : "misses");
        out.rate_lines.push_back(line);
    }
    return out;
}

/** Spec list of every distinct job key, in arrival order. */
using SpecLists =
    std::vector<std::pair<JobKey, std::vector<fleet::ScenarioSpec>>>;

/** Build every distinct job key's spec list, as SUBMIT builds it. */
SpecLists
buildSpecLists(const std::vector<Rung> &rungs)
{
    const serve::ScenarioCatalog catalog = serve::ScenarioCatalog::standard();
    std::map<JobKey, bool> seen;
    SpecLists out;
    for (const Rung &r : rungs) {
        for (const Arrival &a : r.arrivals) {
            if (seen[a.key])
                continue;
            seen[a.key] = true;
            serve::CatalogParams params;
            params.seed = a.key.seed;
            params.seeds = a.key.seeds;
            params.horizon_s = kHorizonS;
            out.emplace_back(a.key, *catalog.build(a.key.set, params));
        }
    }
    return out;
}

/**
 * Direct FleetRunner fingerprints of every distinct job key. The first
 * kTimedKeys keys run scenario by scenario on this thread (their times
 * are serve.scenario_ms_p50); the rest run through FleetRunner::run on
 * a pool, whose report is thread-count independent by contract.
 */
std::map<JobKey, std::uint64_t>
directFingerprints(const SpecLists &lists, std::uint64_t seed,
                   std::vector<double> &scenario_ms)
{
    const fleet::FleetRunner single(fleet::FleetConfig{1, seed, nullptr,
                                                       nullptr});
    fleet::FleetRunner pooled(
        fleet::FleetConfig{kVerifyThreads, seed, nullptr, nullptr});
    std::map<JobKey, std::uint64_t> out;
    for (const auto &[key, specs] : lists) {
        if (out.size() >= kTimedKeys) {
            out[key] = pooled.run(specs).fingerprint();
            continue;
        }
        std::vector<fleet::ScenarioOutcome> rows;
        for (const fleet::ScenarioSpec &spec : specs) {
            const std::int64_t t0 = nowNs();
            rows.push_back(single.runScenario(spec));
            scenario_ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        }
        out[key] =
            fleet::FleetReport::fromOutcomes(std::move(rows)).fingerprint();
    }
    return out;
}

/** Jobs whose fingerprint differs from the direct run. */
std::uint64_t
mismatches(const PhaseResult &ph, const std::map<JobKey, std::uint64_t> &want)
{
    std::uint64_t bad = 0;
    for (const RungResult &rr : ph.rungs)
        for (const Sent &s : rr.jobs)
            if (s.ok && field(s.final_line, "fingerprint") !=
                            hex16(want.at(s.arrival->key)))
                ++bad;
    return bad;
}

/** The end-to-end metrics (untraced run). */
void
reportEndToEnd(Report &report, const Latencies &l)
{
    for (std::size_t i = 0; i < l.rung_lines.size(); ++i)
        report.fact("rung" + std::to_string(i), l.rung_lines[i]);
    for (std::size_t i = 0; i < l.rate_lines.size(); ++i)
        report.fact("rate" + std::to_string(i), l.rate_lines[i]);
    report.p50("ttfr_ms_p50.light", l.ttfr_light, "ms");
    report.tail("ttfr_ms_tail.light", l.ttfr_light, "ms");
    report.p50("ttfr_ms_p50.heavy", l.ttfr_heavy, "ms");
    report.tail("ttfr_ms_tail.heavy", l.ttfr_heavy, "ms");
    report.p50("job_ms_p50.light", l.job_light, "ms");
    report.metric("max_rate_jobs_per_s", l.max_rate, "1/s",
                  std::size(kRates),
                  "highest rate whose rungs all meet the TTFR tail and "
                  "drain limits");
    // Every burst offers the same work, and other load on the host only
    // ever slows one down: the fastest burst is the service's capacity.
    report.metric("serve.capacity_jobs_per_s",
                  *std::max_element(l.capacity.begin(), l.capacity.end()),
                  "1/s", l.capacity.size(),
                  "fastest burst rung's drain rate");
    report.p50("serve.capacity_jobs_per_s_p50", l.capacity, "1/s");
}

/** The serve layers' own counters and gauges (both runs). */
void
reportLayers(Report &report, const Latencies &l, const PhaseResult &ph)
{
    report.tail("serve.generator_lag_ms_tail", l.lag, "ms");
    report.metric("serve.jain", l.jain_min, "ratio", l.open_rungs,
                  "min over rungs; per tenant completed / submitted "
                  "scenarios");
    const double lookups = ph.cache_hits + ph.cache_misses;
    report.metric("serve.cache_hit_ratio",
                  lookups > 0 ? ph.cache_hits / lookups : 0.0, "ratio",
                  static_cast<std::size_t>(lookups));
    report.metric("serve.cache_evictions", ph.cache_evictions, "count");
    report.metric("serve.admitted", ph.admitted, "count");
    report.metric("serve.rejected", ph.rejected, "count");
    report.metric("serve.timed_out", ph.timed_out, "count");
    std::vector<double> depth, inflight;
    for (const RungResult &rr : ph.rungs) {
        depth.insert(depth.end(), rr.queue_depth.begin(),
                     rr.queue_depth.end());
        inflight.insert(inflight.end(), rr.inflight.begin(),
                        rr.inflight.end());
    }
    double d = 0.0, f = 0.0;
    for (const double v : depth)
        d += v;
    for (const double v : inflight)
        f += v;
    report.metric("serve.queue_depth_mean",
                  depth.empty() ? 0.0 : d / depth.size(), "count",
                  depth.size(), "queued shards, metricsSnapshot gauge");
    report.metric("serve.inflight_mean",
                  inflight.empty() ? 0.0 : f / inflight.size(), "count",
                  inflight.size());
}

} // namespace

void
runServeMix(const Args &args, Report &report, SpanRecorder &spans)
{
    recordHost(report, args, kWorkers);
    std::vector<Rung> rungs;
    // Set-up: the arrival schedule, the spec list of every distinct
    // job key (the direct runs that verify the jobs use them), and a
    // service with its protocol front end (constructed, never started:
    // no sockets).
    SpecLists lists;
    HostSpeed speed;
    const double setup_s = medianSetupSeconds(kSetupRepeats, speed, [&] {
        rungs = schedule(args.seed, args.seconds);
        lists = buildSpecLists(rungs);
        serve::ScenarioService service(serviceConfig(args.seed));
        serve::SocketServer server(service,
                                   serve::ScenarioCatalog::standard(), {});
        std::vector<std::string> out;
        server.handleLine("PING", out);
    });
    std::size_t jobs = 0, repeats = 0;
    for (const Rung &r : rungs) {
        jobs += r.arrivals.size();
        for (const Arrival &a : r.arrivals)
            repeats += a.repeat;
    }
    report.fact("jobs", std::to_string(jobs));
    report.fact("repeat_jobs", std::to_string(repeats));
    report.fact("distinct_job_keys", std::to_string(lists.size()));

    // One phase: untraced for the end-to-end metrics, or with spans
    // around every handleLine call for the per-layer ones.
    const PhaseResult ph = runPhase(rungs, args.seed, spans);
    std::vector<double> direct_ms;
    const auto want = directFingerprints(lists, args.seed, direct_ms);
    const Latencies l = latencies(ph);
    const std::uint64_t bad_fp = mismatches(ph, want);
    report.check("serve.fingerprints_match_direct", bad_fp == 0,
                 std::to_string(want.size()) + " distinct job keys");
    report.check("serve.no_failed_jobs", l.failed == 0,
                 "rejected, timed out, ERR or lost rows");
    report.attempted(l.attempted);
    report.failed(l.failed + bad_fp);

    report.metric("setup_s", setup_s, "s", kSetupRepeats,
                  "p50 of schedule + spec lists + service construction, "
                  "at reference speed");
    report.metric("failed_frac",
                  static_cast<double>(l.failed + bad_fp) / l.attempted,
                  "ratio", l.attempted);
    reportLayers(report, l, ph);
    if (!args.trace) {
        reportEndToEnd(report, l);
        report.metric("peak_rss_mb", peakRssMb(), "MB");
        report.alias("throughput_per_s", "serve.capacity_jobs_per_s");
        report.alias("latency_ms", "ttfr_ms_p50.light");
        return;
    }

    // The spans wrap the generator thread's calls only, so their cost
    // is below the run-to-run spread of any serve latency; the overhead
    // is the recorded spans times the measured cost of one span, over
    // the phase's time.
    double phase_s = 0.0;
    for (const Rung &r : rungs)
        phase_s += r.duration_s;
    report.metric("trace.overhead_frac",
                  static_cast<double>(spans.spans().size()) * spanCostNs() /
                      1e9 / phase_s,
                  "ratio", spans.spans().size(),
                  "spans x measured span cost / open-loop time");
    report.p50("serve.scenario_ms_p50", direct_ms, "ms");
    std::vector<double> submit_us;
    for (const RungResult &rr : ph.rungs)
        for (const Sent &s : rr.jobs)
            submit_us.push_back(s.submit_us);
    report.tail("serve.submit_us_tail", submit_us, "us");
    ServeCosts costs;
    costs.submit_us = median(submit_us);
    costs.line_protocol_us = median(ph.status_us);
    costs.fetch_rows_us = median(ph.rows_us);
    reportServe(report, costs, "serve_mix jobs");
    std::vector<fleet::WorldPreset> worlds;
    {
        serve::CatalogParams params;
        params.horizon_s = kHorizonS;
        const serve::ScenarioCatalog catalog =
            serve::ScenarioCatalog::standard();
        for (const char *set : kSets) {
            const auto specs = catalog.build(set, params);
            for (const auto &spec : *specs) {
                bool seen = false;
                for (const fleet::WorldPreset &w : worlds)
                    seen |= w.name == spec.world.name;
                if (!seen)
                    worlds.push_back(spec.world);
            }
        }
    }
    reportClosedLoop(report, probeClosedLoop(worlds, args.seed, 4.0, spans),
                     "serve_mix worlds");
    reportPointcloud(report, probePointcloud(args.seed, spans),
                     "probe cloud");
}

} // namespace perfbench
