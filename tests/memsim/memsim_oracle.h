/**
 * @file
 * Test-only reference copies of the hashed memsim that memsim/ used to
 * ship: a CacheSim whose ways carry global use-counter stamps (the
 * victim is the invalid or smallest-stamp way, found by scanning the
 * whole set) with an unordered_map of first-touched lines, and a
 * MemTrace that counts reuse in two unordered_maps keyed by
 * (id << 32 | index). The dense production structures must reproduce
 * every CacheStats field and every MemTrace query of these exactly;
 * tests/memsim/test_memsim_oracle.cpp replays seeded streams through
 * both.
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/stats.h"
#include "memsim/cache_sim.h"

namespace sov::oracle {

/** Set-associative cache with true LRU by global use-counter stamps. */
class CacheSim
{
  public:
    explicit CacheSim(const CacheConfig &config)
        : config_(config), num_sets_(config.numSets()),
          ways_(num_sets_ * config.associativity)
    {
    }

    void
    access(std::uint64_t address, std::uint32_t bytes = 1)
    {
        const std::uint64_t first = address / config_.line_bytes;
        const std::uint64_t last =
            (address + bytes - 1) / config_.line_bytes;
        for (std::uint64_t line = first; line <= last; ++line) {
            ++stats_.accesses;
            if (accessLine(line)) {
                ++stats_.hits;
            } else {
                ++stats_.misses;
                if (seen_lines_.emplace(line, true).second)
                    ++stats_.compulsory_misses;
            }
        }
    }

    const CacheStats &stats() const { return stats_; }

  private:
    bool
    accessLine(std::uint64_t line_address)
    {
        const std::uint64_t set = line_address % num_sets_;
        const std::uint64_t tag = line_address / num_sets_;
        Way *base = &ways_[set * config_.associativity];

        Way *victim = base;
        for (std::uint32_t w = 0; w < config_.associativity; ++w) {
            Way &way = base[w];
            if (way.valid && way.tag == tag) {
                way.lru = ++use_counter_;
                return true;
            }
            if (!way.valid) {
                victim = &way; // prefer an invalid way
            } else if (victim->valid && way.lru < victim->lru) {
                victim = &way;
            }
        }
        victim->valid = true;
        victim->tag = tag;
        victim->lru = ++use_counter_;
        return false;
    }

    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0; //!< larger = more recently used
        bool valid = false;
    };

    CacheConfig config_;
    std::uint64_t num_sets_;
    std::vector<Way> ways_; //!< num_sets * associativity, row per set
    std::uint64_t use_counter_ = 0;
    CacheStats stats_;
    std::unordered_map<std::uint64_t, bool> seen_lines_;
};

/** Reuse counter over two hash maps; feeds an oracle CacheSim with the
 *  production MemTrace's address layout. */
class MemTrace
{
  public:
    static constexpr std::uint32_t kPointBytes = 16;
    static constexpr std::uint32_t kNodeBytes = 32;

    void attachCache(CacheSim *cache) { cache_ = cache; }

    void
    touchPoint(std::uint32_t cloud_id, std::uint32_t index)
    {
        ++total_;
        ++point_reuse_[key(cloud_id, index)];
        if (cache_)
            cache_->access(0x1000'0000ull + cloud_id * 0x0400'0000ull +
                               static_cast<std::uint64_t>(index) *
                                   kPointBytes,
                           kPointBytes);
    }

    void
    touchNode(std::uint32_t tree_id, std::uint32_t index)
    {
        ++total_;
        ++node_touches_[key(tree_id, index)];
        if (cache_)
            cache_->access(0x8000'0000ull + tree_id * 0x0400'0000ull +
                               static_cast<std::uint64_t>(index) *
                                   kNodeBytes,
                           kNodeBytes);
    }

    std::uint64_t totalAccesses() const { return total_; }
    std::size_t distinctPoints() const { return point_reuse_.size(); }
    std::size_t distinctNodes() const { return node_touches_.size(); }

    std::uint64_t
    usefulBytes() const
    {
        return static_cast<std::uint64_t>(distinctPoints()) * kPointBytes +
            static_cast<std::uint64_t>(distinctNodes()) * kNodeBytes;
    }

    /** Counts of one cloud in hash-map iteration order. */
    std::vector<std::uint64_t>
    pointReuseCounts(std::uint32_t cloud_id) const
    {
        std::vector<std::uint64_t> counts;
        for (const auto &kv : point_reuse_) {
            if (static_cast<std::uint32_t>(kv.first >> 32) == cloud_id)
                counts.push_back(kv.second);
        }
        return counts;
    }

    /** Index -> count of one cloud, for ordered comparisons. */
    std::unordered_map<std::uint32_t, std::uint64_t>
    pointCountsByIndex(std::uint32_t cloud_id) const
    {
        std::unordered_map<std::uint32_t, std::uint64_t> out;
        for (const auto &kv : point_reuse_) {
            if (static_cast<std::uint32_t>(kv.first >> 32) == cloud_id)
                out.emplace(static_cast<std::uint32_t>(kv.first), kv.second);
        }
        return out;
    }

    Histogram
    reuseHistogram(std::uint32_t cloud_id, double bin_width,
                   double max_reuse) const
    {
        const std::size_t bins =
            static_cast<std::size_t>(max_reuse / bin_width);
        Histogram h(0.0, max_reuse, bins > 0 ? bins : 1);
        for (const auto c : pointReuseCounts(cloud_id))
            h.add(static_cast<double>(c));
        return h;
    }

  private:
    static std::uint64_t
    key(std::uint32_t id, std::uint32_t index)
    {
        return (static_cast<std::uint64_t>(id) << 32) | index;
    }

    CacheSim *cache_ = nullptr;
    std::uint64_t total_ = 0;
    std::unordered_map<std::uint64_t, std::uint64_t> point_reuse_;
    std::unordered_map<std::uint64_t, std::uint64_t> node_touches_;
};

} // namespace sov::oracle
