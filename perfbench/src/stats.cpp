#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

/** 1-based nearest rank of percentile p among n samples. */
std::size_t
nearestRank(double p, std::size_t n)
{
    // The epsilon keeps decimal percentiles (99.9% of 10000) from
    // rounding up a rank through binary representation error.
    const double x = p * static_cast<double>(n) / 100.0;
    const double k = std::ceil(x - 1e-9 * std::max(1.0, x));
    return std::clamp<std::size_t>(static_cast<std::size_t>(k), 1, n);
}

} // namespace

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    return values[nearestRank(p, values.size()) - 1];
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

std::optional<TailStat>
tailPercentile(std::vector<double> values, std::size_t min_beyond)
{
    static constexpr double kLadder[] = {99.9, 99.5, 99.0, 98.0, 95.0,
                                         90.0, 80.0, 75.0, 50.0};
    const std::size_t n = values.size();
    if (n == 0)
        return std::nullopt;
    std::sort(values.begin(), values.end());
    for (const double p : kLadder) {
        const std::size_t k = nearestRank(p, n);
        if (n - k >= min_beyond)
            return TailStat{p, values[k - 1], n, n - k};
    }
    return std::nullopt;
}

OpenLoopLatency
openLoopLatency(const OpenLoopSample &sample)
{
    return OpenLoopLatency{sample.done - sample.due,
                           std::max(0.0, sample.sent - sample.due)};
}

double
slope(const std::vector<double> &x, const std::vector<double> &y)
{
    const std::size_t n = std::min(x.size(), y.size());
    if (n < 2)
        return 0.0;
    double mx = 0.0;
    double my = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        mx += x[i];
        my += y[i];
    }
    mx /= static_cast<double>(n);
    my /= static_cast<double>(n);
    double sxy = 0.0;
    double sxx = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sxy += (x[i] - mx) * (y[i] - my);
        sxx += (x[i] - mx) * (x[i] - mx);
    }
    return sxx > 0.0 ? sxy / sxx : 0.0;
}

double
jainIndex(const std::vector<double> &x)
{
    double sum = 0.0;
    double sq = 0.0;
    for (const double v : x) {
        sum += v;
        sq += v * v;
    }
    if (x.empty() || sq == 0.0)
        return 1.0;
    return sum * sum / (static_cast<double>(x.size()) * sq);
}

std::int64_t
selfTime(const Interval &parent, std::vector<Interval> children)
{
    std::sort(children.begin(), children.end(),
              [](const Interval &a, const Interval &b) {
                  return a.start < b.start;
              });
    std::int64_t covered = 0;
    std::int64_t cursor = parent.start;
    for (const Interval &c : children) {
        const std::int64_t lo = std::max(c.start, cursor);
        const std::int64_t hi = std::min(c.end, parent.end);
        if (hi > lo) {
            covered += hi - lo;
            cursor = hi;
        }
    }
    return (parent.end - parent.start) - covered;
}

} // namespace perfbench
