#include "host.h"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "core/simd.h"
#include "spans.h"
#include "stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            break;
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        for (char &c : model)
            if (c == ' ')
                c = '_';
        return model;
    }
    return "unknown";
}

std::uint32_t
lcg(std::uint32_t &x)
{
    x = x * 1664525u + 1013904223u;
    return x;
}

/** A small class hierarchy for the reference's virtual calls. */
struct Shape
{
    virtual ~Shape() = default;
    virtual double step(double x) const = 0;
};

struct Scale final : Shape
{
    explicit Scale(double k) : k(k) {}
    double step(double x) const override { return x * k + 1.0; }
    double k;
};

struct Fold final : Shape
{
    explicit Fold(double k) : k(k) {}
    double step(double x) const override
    {
        return x > k ? x - k : x + 0.5 * k;
    }
    double k;
};

/** Dependent random reads over @p table (a power-of-two size). */
std::uint64_t
randomReads(const std::vector<std::uint32_t> &table, int reads)
{
    const std::size_t mask = table.size() - 1;
    std::uint64_t acc = 0;
    std::uint32_t x = 7;
    for (int i = 0; i < reads; ++i)
        acc += table[(lcg(x) ^ static_cast<std::uint32_t>(acc)) & mask];
    return acc;
}

/** Allocation, a sort and a std::map. */
std::uint64_t
sortAndMap()
{
    std::vector<std::uint32_t> v(4000);
    std::uint32_t x = 99;
    for (std::uint32_t &e : v)
        e = lcg(x);
    std::sort(v.begin(), v.end());
    std::map<std::uint32_t, int> m;
    for (int i = 0; i < 600; ++i)
        m[v[static_cast<std::size_t>(i) * 7919 % v.size()]] += i;
    std::uint64_t acc = v[5];
    for (const auto &[k, n] : m)
        acc += k ^ static_cast<std::uint32_t>(n);
    return acc;
}

/** Virtual calls on freshly allocated objects. */
double
virtualCalls()
{
    std::vector<std::unique_ptr<Shape>> shapes;
    std::uint32_t x = 5;
    for (int i = 0; i < 800; ++i) {
        const std::uint32_t r = lcg(x);
        if (r >> 31)
            shapes.push_back(std::make_unique<Scale>((r & 255) / 256.0));
        else
            shapes.push_back(std::make_unique<Fold>((r & 511) / 64.0));
    }
    double acc = 0.0;
    for (int round = 0; round < 20; ++round)
        for (const auto &s : shapes) {
            acc = s->step(acc);
            if (acc > 1e6)
                acc *= 1e-6;
        }
    return acc;
}

} // namespace

HostSpeed::HostSpeed(Footprint footprint)
    : table_(footprint == Footprint::L2 ? 1u << 18 : 1u << 23),
      reads_(footprint == Footprint::L2 ? 30000 : 15000),
      reference_ns_(footprint == Footprint::L2 ? 1.0e6 : 4.0e6)
{
    for (std::size_t i = 0; i < table_.size(); ++i)
        table_[i] = static_cast<std::uint32_t>(i * 2654435761u);
    sampleNs(); // warm-up: first touch and lazy set-up are not a speed
    samples_.clear();
}

double
HostSpeed::sampleNs()
{
    // Bring the table in first, untimed: whatever evicted it since the
    // last sample is the measured work's doing, not the host's speed.
    for (const std::uint32_t v : table_)
        sink_ += v;
    const std::int64_t t0 = nowNs();
    sink_ += randomReads(table_, reads_) + sortAndMap() +
             static_cast<std::uint64_t>(virtualCalls());
    const double ns = static_cast<double>(nowNs() - t0);
    samples_.push_back(ns);
    return ns;
}

double
HostSpeed::medianSampleNs(int n)
{
    std::vector<double> s;
    for (int i = 0; i < n; ++i)
        s.push_back(sampleNs());
    return median(s);
}

double
atReferenceSpeed(double ms, double before_ns, double after_ns,
                 double reference_ns)
{
    return ms * reference_ns * 2.0 / (before_ns + after_ns);
}

double
HostSpeed::medianSpeed() const
{
    std::vector<double> s;
    for (const double ns : samples_)
        s.push_back(reference_ns_ / ns);
    return median(s);
}

void
recordHost(Report &report, const Args &args, std::size_t workers)
{
    report.host("cpu_model", cpuModel());
    report.host("nproc_online",
                std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)));
    report.host("hardware_concurrency",
                std::to_string(std::thread::hardware_concurrency()));
    report.host("simd_level", sov::simdLevelName(sov::detectSimdLevel()));
    report.host("simd_compiled_in", sov::simdCompiledIn() ? "1" : "0");
    std::string cpus;
    const CpuRotation rotation;
    for (const int cpu : rotation.cpus())
        cpus += (cpus.empty() ? "" : ",") + std::to_string(cpu);
    report.host("cpus_allowed", cpus);
    report.host("build_type", PERFBENCH_BUILD_TYPE);
    report.host("workers", std::to_string(workers));
    report.host("workload", args.workload);
    report.host("seed", std::to_string(args.seed));
    report.host("seconds", std::to_string(args.seconds));
    report.host("trace", args.trace ? "1" : "0");
}

CpuRotation::CpuRotation()
{
    CPU_ZERO(&allowed_);
    if (::sched_getaffinity(0, sizeof allowed_, &allowed_) != 0)
        return; // no rotation: next() does nothing
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &allowed_))
            cpus_.push_back(cpu);
}

CpuRotation::~CpuRotation()
{
    if (!cpus_.empty())
        ::sched_setaffinity(0, sizeof allowed_, &allowed_);
}

void
CpuRotation::next()
{
    if (cpus_.empty())
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof one, &one);
}

double
peakRssMb()
{
    // VmHWM of this process image: getrusage's ru_maxrss also carries
    // the peak of the image exec replaced (e.g. a launching Python).
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) * 1024.0 / 1e6; // kB
    return 0.0;
}

} // namespace perfbench
