#include "obs/metrics.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "core/logging.h"

namespace sov::obs {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void
fnvBytes(std::uint64_t &h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

template <typename T>
void
fnvPod(std::uint64_t &h, const T &v)
{
    fnvBytes(h, &v, sizeof(v));
}

void
fnvString(std::uint64_t &h, const std::string &s)
{
    fnvBytes(h, s.data(), s.size());
    const char nul = '\0';
    fnvBytes(h, &nul, 1);
}

template <typename Map>
std::vector<std::string>
keysOf(const Map &map)
{
    std::vector<std::string> names;
    names.reserve(map.size());
    for (const auto &kv : map)
        names.push_back(kv.first);
    return names;
}

} // namespace

void
MetricRegistry::Hist::add(double x)
{
    samples.push_back(x);
    sorted = false;
    digest.add(x);
}

double
MetricRegistry::Hist::mean() const
{
    if (samples.empty())
        return 0.0;
    double s = 0.0;
    for (double x : samples)
        s += x;
    return s / static_cast<double>(samples.size());
}

double
MetricRegistry::Hist::percentile(double p)
{
    SOV_ASSERT(p >= 0.0 && p <= 100.0);
    if (samples.empty())
        return 0.0;
    if (!sorted) {
        std::sort(samples.begin(), samples.end());
        sorted = true;
    }
    if (samples.size() == 1)
        return samples.front();
    const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= samples.size())
        return samples.back();
    return samples[lo] * (1.0 - frac) + samples[lo + 1] * frac;
}

void
MetricRegistry::incr(const std::string &name, std::uint64_t delta)
{
    counters_[name] += delta;
}

std::uint64_t
MetricRegistry::counter(const std::string &name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

std::vector<std::string>
MetricRegistry::counterNames() const
{
    return keysOf(counters_);
}

void
MetricRegistry::setGauge(const std::string &name, double value)
{
    gauges_[name] = value;
}

double
MetricRegistry::gauge(const std::string &name) const
{
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
}

std::vector<std::string>
MetricRegistry::gaugeNames() const
{
    return keysOf(gauges_);
}

void
MetricRegistry::record(const std::string &name, Duration latency)
{
    hists_[name].add(latency.toMillis());
}

void
MetricRegistry::recordValue(const std::string &name, double value)
{
    hists_[name].add(value);
}

std::vector<std::string>
MetricRegistry::histogramNames() const
{
    return keysOf(hists_);
}

MetricRegistry::Hist *
MetricRegistry::findHist(const std::string &name) const
{
    const auto it = hists_.find(name);
    return it == hists_.end() ? nullptr : &it->second;
}

std::size_t
MetricRegistry::count(const std::string &name) const
{
    const Hist *h = findHist(name);
    return h ? h->samples.size() : 0;
}

double
MetricRegistry::mean(const std::string &name) const
{
    const Hist *h = findHist(name);
    SOV_ASSERT(h != nullptr);
    return h->mean();
}

double
MetricRegistry::min(const std::string &name) const
{
    Hist *h = findHist(name);
    return h ? h->percentile(0.0) : 0.0;
}

double
MetricRegistry::max(const std::string &name) const
{
    Hist *h = findHist(name);
    return h ? h->percentile(100.0) : 0.0;
}

double
MetricRegistry::percentile(const std::string &name, double p) const
{
    Hist *h = findHist(name);
    return h ? h->percentile(p) : 0.0;
}

double
MetricRegistry::stddev(const std::string &name) const
{
    const Hist *h = findHist(name);
    SOV_ASSERT(h != nullptr);
    RunningStats rs;
    for (double x : h->samples)
        rs.add(x);
    return rs.stddev();
}

double
MetricRegistry::quantile(const std::string &name, double q) const
{
    const Hist *h = findHist(name);
    SOV_ASSERT(h != nullptr);
    return h->digest.quantile(q);
}

void
MetricRegistry::merge(const MetricRegistry &other)
{
    for (const auto &[name, value] : other.counters_)
        counters_[name] += value;
    for (const auto &[name, value] : other.gauges_) {
        const auto it = gauges_.find(name);
        if (it == gauges_.end())
            gauges_[name] = value;
        else
            it->second = std::max(it->second, value);
    }
    for (const auto &[name, hist] : other.hists_) {
        Hist &mine = hists_[name];
        mine.samples.insert(mine.samples.end(), hist.samples.begin(),
                            hist.samples.end());
        mine.sorted = false;
        mine.digest.merge(hist.digest);
    }
}

std::uint64_t
MetricRegistry::fingerprint() const
{
    std::uint64_t h = kFnvOffset;
    for (const auto &[name, value] : counters_) {
        fnvString(h, name);
        fnvPod(h, value);
    }
    for (const auto &[name, value] : gauges_) {
        fnvString(h, name);
        fnvPod(h, value);
    }
    for (auto &[name, hist] : hists_) {
        fnvString(h, name);
        const std::uint64_t n = hist.samples.size();
        fnvPod(h, n);
        // Sorted samples: insertion order (completion order under a
        // thread pool) must not leak into the fingerprint.
        if (!hist.sorted) {
            std::sort(hist.samples.begin(), hist.samples.end());
            hist.sorted = true;
        }
        for (double x : hist.samples)
            fnvPod(h, x);
        for (const auto &[index, weight] : hist.digest.buckets()) {
            fnvPod(h, index);
            fnvPod(h, weight);
        }
    }
    return h;
}

std::string
MetricRegistry::summary() const
{
    std::ostringstream os;
    for (auto &kv : hists_) {
        Hist &hist = kv.second;
        os << kv.first << ": best=" << hist.percentile(0.0)
           << "ms mean=" << hist.mean()
           << "ms p99=" << hist.percentile(99.0) << "ms\n";
    }
    return os.str();
}

void
MetricRegistry::toJson(std::ostream &os) const
{
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : counters_) {
        os << (first ? "" : ",") << "\"" << name << "\":" << value;
        first = false;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, value] : gauges_) {
        os << (first ? "" : ",") << "\"" << name << "\":" << value;
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (auto &[name, hist] : hists_) {
        os << (first ? "" : ",") << "\"" << name << "\":{"
           << "\"count\":" << hist.samples.size()
           << ",\"mean\":" << hist.mean()
           << ",\"min\":" << hist.percentile(0.0)
           << ",\"max\":" << hist.percentile(100.0)
           << ",\"p50\":" << hist.percentile(50.0)
           << ",\"p99\":" << hist.percentile(99.0) << "}";
        first = false;
    }
    os << "}}";
}

bool
MetricRegistry::empty() const
{
    return counters_.empty() && gauges_.empty() && hists_.empty();
}

void
MetricRegistry::clear()
{
    counters_.clear();
    gauges_.clear();
    hists_.clear();
}

} // namespace sov::obs
