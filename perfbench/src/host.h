/**
 * @file
 * The host block of every run (CPU model, online CPUs, SIMD level,
 * build type, worker threads, seed, workload) and the process's peak
 * resident set — read from the machine at run time, never assumed.
 */
#pragma once

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "args.h"
#include "report.h"

namespace perfbench {

/** Record the host block into @p report. @p workers is the number of
 *  threads the workload's system under test runs on. */
void recordHost(Report &report, const Args &args, std::size_t workers);

/** Peak resident set size of this process so far, MB (1e6 bytes). */
double peakRssMb();

/**
 * Moves the calling thread round the CPUs it may run on, one per
 * next(), and restores its CPU set on destruction. On a virtual
 * machine whose CPUs share host cores with other guests, one CPU can
 * run the same work 1.3x slower than another for minutes at a time;
 * replays spread over every CPU let the fastest replay avoid it.
 */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin the calling thread to the next CPU of the set. */
    void next();

    /** The CPUs of the set, in rotation order. */
    const std::vector<int> &cpus() const { return cpus_; }

  private:
    cpu_set_t allowed_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/** @p ms measured between reference times @p before_ns and @p after_ns,
 *  scaled to the speed at which the reference takes @p reference_ns. */
double atReferenceSpeed(double ms, double before_ns, double after_ns,
                        double reference_ns);

/**
 * The host's speed at a moment, from a fixed reference kernel that
 * belongs to the benchmark, not to the program: dependent random reads
 * over a warm table sized like the workload's working set, a sort and
 * a std::map, and virtual calls on heap objects. On a virtual machine
 * whose CPUs share host cores with other guests, the same work runs up
 * to 1.5x slower for minutes at a time, and no statistic inside one
 * run removes that. The workloads time the reference right before and
 * after each unit of measured work and report the unit at reference
 * speed: its time x referenceNs() / the mean reference time beside it.
 */
class HostSpeed
{
  public:
    /** Where the reference's table lives, and its time at reference
     *  speed (about its median on a calm 4-core Xeon KVM guest, AVX2,
     *  RelWithDebInfo). */
    enum class Footprint
    {
        L2,  //!< 1 MiB, within one core's L2: closed-loop and serving work
        Llc, //!< 32 MiB, in the shared LLC: point-cloud/cache-sim work
    };

    explicit HostSpeed(Footprint footprint = Footprint::L2);

    /** Reference kernel time at reference speed, ns. */
    double referenceNs() const { return reference_ns_; }

    /** Run the reference kernel once on this thread; its time, ns. */
    double sampleNs();

    /** Median of @p n samples, ns. */
    double medianSampleNs(int n);

    /** @p ms measured between reference times @p before_ns and
     *  @p after_ns, at reference speed. */
    double scale(double ms, double before_ns, double after_ns) const
    {
        return atReferenceSpeed(ms, before_ns, after_ns, reference_ns_);
    }

    /** Every sample taken so far, ns. */
    const std::vector<double> &samples() const { return samples_; }

    /** Median of referenceNs() / sample over every sample so far:
     *  1 = reference speed, below 1 = slower. */
    double medianSpeed() const;

  private:
    std::vector<std::uint32_t> table_;
    int reads_ = 0;
    double reference_ns_ = 0.0;
    std::uint64_t sink_ = 0;
    std::vector<double> samples_;
};

} // namespace perfbench
