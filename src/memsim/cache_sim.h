/**
 * @file
 * Set-associative LRU cache simulator.
 *
 * Sec. III-D measures the off-chip memory traffic of point-cloud
 * algorithms on an Intel Coffee Lake CPU with a 9 MB LLC (Fig. 4b),
 * normalized to the optimal case where all reuse is captured on-chip.
 * This model replays the address stream of our point-cloud kernels
 * through a configurable LLC and reports exactly that ratio.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/logging.h"
#include "memsim/paged_array.h"

namespace sov {

/** Geometry of a simulated cache. */
struct CacheConfig
{
    std::uint64_t size_bytes = 9ull << 20; //!< paper: 9 MB LLC
    std::uint32_t line_bytes = 64; //!< a power of two
    std::uint32_t associativity = 16;

    std::uint64_t numSets() const;
};

/** Hit/miss statistics of a replayed address stream. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t compulsory_misses = 0; //!< first touch of a line

    double hitRate() const
    {
        return accesses ? static_cast<double>(hits) /
            static_cast<double>(accesses) : 0.0;
    }

    /** Off-chip traffic in bytes given the line size. */
    std::uint64_t
    trafficBytes(std::uint32_t line_bytes) const
    {
        return misses * line_bytes;
    }

    /**
     * Traffic normalized to the optimal communication case where every
     * line is fetched exactly once (Fig. 4b's y-axis).
     */
    double
    normalizedTraffic() const
    {
        return compulsory_misses
            ? static_cast<double>(misses) /
              static_cast<double>(compulsory_misses)
            : 0.0;
    }
};

/**
 * Set-associative cache with exact LRU replacement.
 *
 * Each set keeps its resident lines most-recently-used first plus a
 * count of valid ways: a hit moves its line to the front, a miss
 * inserts at the front and drops the last line once the set is full.
 * First touches are remembered in a bitset over line numbers whose
 * pages are allocated on first touch.
 */
class CacheSim
{
  public:
    explicit CacheSim(const CacheConfig &config);

    /** Access @p bytes starting at @p address (split across lines). */
    void
    access(std::uint64_t address, std::uint32_t bytes = 1)
    {
        SOV_ASSERT(bytes > 0);
        const std::uint64_t first = address >> line_shift_;
        const std::uint64_t last = (address + bytes - 1) >> line_shift_;
        for (std::uint64_t line = first; line <= last; ++line) {
            ++stats_.accesses;
            if (accessLine(line)) {
                ++stats_.hits;
            } else {
                ++stats_.misses;
                std::uint64_t &word = first_touch_[line >> 6];
                const std::uint64_t bit = std::uint64_t{1} << (line & 63);
                if (!(word & bit)) {
                    word |= bit;
                    ++stats_.compulsory_misses;
                }
            }
        }
    }

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return config_; }

    /** Forget all contents and statistics. */
    void reset();

  private:
    /** Touch a single line; returns true on hit. */
    bool
    accessLine(std::uint64_t line)
    {
        // A set holds whole line numbers rather than tags: within one
        // set the two determine each other, and no division is needed.
        const std::uint64_t set = setOf(line);
        std::uint64_t *mru = &lines_[set * ways_];
        std::uint32_t &valid = valid_[set];
        std::uint32_t w = 0;
        while (w < valid && mru[w] != line)
            ++w;
        const bool hit = w < valid;
        if (!hit) // fill a free way, or overwrite the LRU line
            w = valid < ways_ ? valid++ : valid - 1;
        for (; w > 0; --w)
            mru[w] = mru[w - 1];
        mru[0] = line;
        return hit;
    }

    /**
     * line % num_sets_ by multiplication (Lemire, Kaser and Kurz,
     * "Faster remainder by direct computation", 2019): with a 128-bit
     * reciprocal it is exact for every 64-bit line and set count, and
     * it spares a 64-bit divide on every access.
     */
    std::uint64_t
    setOf(std::uint64_t line) const
    {
        const unsigned __int128 frac = set_reciprocal_ * line;
        const unsigned __int128 low =
            (static_cast<unsigned __int128>(static_cast<std::uint64_t>(frac)) *
             num_sets_) >> 64;
        const unsigned __int128 high = (frac >> 64) * num_sets_;
        return static_cast<std::uint64_t>((low + high) >> 64);
    }

    CacheConfig config_;
    unsigned line_shift_; //!< log2(line_bytes)
    std::uint64_t num_sets_;
    unsigned __int128 set_reciprocal_; //!< 2^128 / num_sets_, rounded up
    std::uint32_t ways_;
    std::vector<std::uint64_t> lines_; //!< num_sets * ways, MRU first
    std::vector<std::uint32_t> valid_; //!< valid ways per set
    CacheStats stats_;
    /** Bit (line & 63) of word (line >> 6) is set once a line missed. */
    PagedArray<std::uint64_t, 9> first_touch_;
};

} // namespace sov
