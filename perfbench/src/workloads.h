/**
 * @file
 * The three workloads. Each fills @p report with its full metric set,
 * binds the BENCHMARK.json contract names with Report::alias, and runs
 * its correctness checks; args.trace selects the untraced (end-to-end)
 * or traced (per-layer) run.
 */
#pragma once

#include <cstdint>
#include <string>

#include "args.h"
#include "host.h"
#include "probes.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

void runFleetCrowded(const Args &args, Report &report, SpanRecorder &spans);
void runServeMix(const Args &args, Report &report, SpanRecorder &spans);
void runPointcloudTrace(const Args &args, Report &report,
                        SpanRecorder &spans);

/** The point-cloud pass on a small seed-drawn map (workloads that do
 *  not reach pointcloud/memsim report its rows as their probe). */
PointcloudCosts probePointcloud(std::uint64_t seed, SpanRecorder &spans);

/** 16 lowercase hex digits. */
std::string hex16(std::uint64_t v);

/** Median of @p repeats timed calls of @p setup, each at reference
 *  speed (see HostSpeed), seconds. */
template <typename F>
double
medianSetupSeconds(int repeats, HostSpeed &speed, F &&setup)
{
    std::vector<double> s;
    double before = speed.sampleNs();
    for (int i = 0; i < repeats; ++i) {
        const std::int64_t t0 = nowNs();
        setup();
        const double ms = static_cast<double>(nowNs() - t0) / 1e6;
        const double after = speed.sampleNs();
        s.push_back(speed.scale(ms, before, after) / 1e3);
        before = after;
    }
    return median(s);
}

} // namespace perfbench
