/**
 * @file
 * Address-trace instrumentation bridging algorithm kernels and the
 * cache simulator / reuse profiler.
 *
 * Point-cloud kernels (kd-tree search, ICP, clustering, ...) report
 * which points and tree nodes they touch; the trace assigns synthetic
 * addresses and forwards them to an optional CacheSim while counting
 * per-point reuse for the Fig. 4a histogram.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/stats.h"
#include "memsim/cache_sim.h"
#include "memsim/paged_array.h"

namespace sov {

/** Collects the access stream of an instrumented kernel. */
class MemTrace
{
  public:
    /** Bytes occupied by one point record (x, y, z, pad) — PCL's
     *  PointXYZ layout is 16 bytes. */
    static constexpr std::uint32_t kPointBytes = 16;
    /** Bytes of one kd-tree node record. */
    static constexpr std::uint32_t kNodeBytes = 32;

    MemTrace() = default;

    /** Attach a cache model; may be null to profile reuse only. */
    void attachCache(CacheSim *cache) { cache_ = cache; }

    /** Record a read of point @p index in cloud @p cloud_id. */
    void
    touchPoint(std::uint32_t cloud_id, std::uint32_t index)
    {
        ++total_;
        if (point_counts_[key(cloud_id, index)]++ == 0)
            ++distinct_points_;
        if (cache_)
            cache_->access(kCloudRegion + cloud_id * kRegionStride +
                               std::uint64_t{index} * kPointBytes,
                           kPointBytes);
    }

    /** Record a read of kd-tree node @p index of tree @p tree_id. */
    void
    touchNode(std::uint32_t tree_id, std::uint32_t index)
    {
        ++total_;
        if (node_counts_[key(tree_id, index)]++ == 0)
            ++distinct_nodes_;
        if (cache_)
            cache_->access(kTreeRegion + tree_id * kRegionStride +
                               std::uint64_t{index} * kNodeBytes,
                           kNodeBytes);
    }

    /** Total recorded accesses (points + nodes). */
    std::uint64_t totalAccesses() const { return total_; }

    /** Number of distinct points touched. */
    std::size_t distinctPoints() const { return distinct_points_; }

    /** Number of distinct tree nodes touched. */
    std::size_t distinctNodes() const { return distinct_nodes_; }

    /**
     * Bytes the algorithm actually needs, fetched exactly once and
     * perfectly packed — the "optimal communication case" baseline of
     * Fig. 4b.
     */
    std::uint64_t
    usefulBytes() const
    {
        return static_cast<std::uint64_t>(distinctPoints()) * kPointBytes +
            static_cast<std::uint64_t>(distinctNodes()) * kNodeBytes;
    }

    /**
     * Per-point access counts ("reuse frequency", Fig. 4a x-axis) of
     * one cloud: one entry per touched point, in ascending point
     * index order.
     */
    std::vector<std::uint64_t> pointReuseCounts(std::uint32_t cloud_id) const;

    /**
     * Histogram of reuse frequency: bucket i counts points whose access
     * count falls in bin i of width @p bin_width (Fig. 4a).
     */
    Histogram reuseHistogram(std::uint32_t cloud_id, double bin_width,
                             double max_reuse) const;

    /** Forget everything. */
    void reset();

  private:
    /** Base addresses keep clouds and trees in disjoint regions. */
    static constexpr std::uint64_t kCloudRegion = 0x1000'0000ull;
    static constexpr std::uint64_t kTreeRegion = 0x8000'0000ull;
    static constexpr std::uint64_t kRegionStride = 0x0400'0000ull; // 64 MB
    /** 4096 counters (32 KB) per page. */
    static constexpr unsigned kCountPageBits = 12;
    using Counts = PagedArray<std::uint64_t, kCountPageBits>;

    static std::uint64_t
    key(std::uint32_t id, std::uint32_t index)
    {
        return (static_cast<std::uint64_t>(id) << 32) | index;
    }

    CacheSim *cache_ = nullptr;
    std::uint64_t total_ = 0;
    /** Access count of each (id, index), keyed by (id << 32 | index). */
    Counts point_counts_;
    Counts node_counts_;
    std::size_t distinct_points_ = 0; //!< nonzero point counters
    std::size_t distinct_nodes_ = 0;  //!< nonzero node counters
};

} // namespace sov
