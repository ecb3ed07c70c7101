/**
 * @file
 * Statistics helpers of the benchmark: percentiles with the tail rule,
 * open-loop latency accounting, least-squares slope and Jain fairness.
 * Pure functions over plain vectors so tests/selftest.cpp covers them.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/** Nearest-rank percentile (p in [0, 100]) of unsorted @p values;
 *  NaN on an empty input. */
double percentile(std::vector<double> values, double p);

/** Median (nearest-rank p50). */
double median(std::vector<double> values);

/** A tail percentile with the sample counts that justify it. */
struct TailStat
{
    double percentile = 0.0;  //!< e.g. 99.0
    double value = 0.0;       //!< the nearest-rank value at it
    std::size_t samples = 0;  //!< all samples
    std::size_t beyond = 0;   //!< samples strictly ranked above it
};

/**
 * The highest percentile of the ladder 99.9, 99.5, 99, 98, 95, 90, 80,
 * 75, 50 that still has at least @p min_beyond samples ranked beyond
 * it (nearest rank k = ceil(p/100 * n), beyond = n - k). nullopt when
 * not even p50 qualifies.
 */
std::optional<TailStat> tailPercentile(std::vector<double> values,
                                       std::size_t min_beyond = 10);

/** One open-loop request: when it was due, when the generator actually
 *  sent it, and when its result arrived (same clock, any unit). */
struct OpenLoopSample
{
    double due = 0.0;
    double sent = 0.0;
    double done = 0.0;
};

/** Latency and generator lag of one open-loop request. */
struct OpenLoopLatency
{
    /** done - due: counts the wait a stalled generator (or a stalled
     *  system that made it late) imposes on this request. */
    double from_due = 0.0;
    /** sent - due: how late the generator ran (never negative). */
    double lag = 0.0;
};

OpenLoopLatency openLoopLatency(const OpenLoopSample &sample);

/** Least-squares slope of y over x; 0 when x has no spread. */
double slope(const std::vector<double> &x, const std::vector<double> &y);

/** Jain's fairness index (sum x)^2 / (n sum x^2); 1 when all equal,
 *  1 for an empty or all-zero input. */
double jainIndex(const std::vector<double> &x);

/** An interval of one span, in any time unit. */
struct Interval
{
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/**
 * Self time of a span: its duration minus the part of it that the
 * child spans cover. Children may overlap each other or stick out of
 * the parent; only their union inside the parent is subtracted.
 */
std::int64_t selfTime(const Interval &parent,
                      std::vector<Interval> children);

} // namespace perfbench
