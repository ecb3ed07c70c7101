/**
 * @file
 * Replays seeded random access streams through the dense memsim and
 * through the hashed reference copy in memsim_oracle.h: every
 * CacheStats field after every batch, and every MemTrace query at the
 * end, must agree exactly.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/rng.h"
#include "memsim/cache_sim.h"
#include "memsim/mem_trace.h"
#include "memsim_oracle.h"

namespace {

/** While set, an allocation larger than this throws bad_alloc (so a
 *  table sized by a 32-bit index fails fast instead of eating RAM). */
std::size_t g_alloc_limit = 0;
std::size_t g_largest_alloc = 0;

} // namespace

// noinline: inlined into the standard allocators, free() against a
// pointer from operator new reads to GCC as a mismatched pair.
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    if (g_alloc_limit) {
        g_largest_alloc = std::max(g_largest_alloc, n);
        if (n > g_alloc_limit)
            throw std::bad_alloc();
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace sov {
namespace {

constexpr int kBatches = 256;
constexpr int kBatchSize = 4096; // 256 x 4096 = 1 048 576 accesses

void
expectSameStats(const CacheStats &got, const CacheStats &want, int batch)
{
    ASSERT_EQ(got.accesses, want.accesses) << "batch " << batch;
    ASSERT_EQ(got.hits, want.hits) << "batch " << batch;
    ASSERT_EQ(got.misses, want.misses) << "batch " << batch;
    ASSERT_EQ(got.compulsory_misses, want.compulsory_misses)
        << "batch " << batch;
}

CacheConfig
geometry(std::uint64_t sets, std::uint32_t line_bytes, std::uint32_t ways)
{
    CacheConfig c;
    c.size_bytes = sets * line_bytes * ways;
    c.line_bytes = line_bytes;
    c.associativity = ways;
    return c;
}

/**
 * Replays >= 1 M accesses of 1 to 3 lines each from @p base: a hot
 * region of half the cache (mostly hits), a warm region of three
 * caches (capacity and conflict misses), and far lines scattered over
 * a 2^40-byte window (compulsory misses).
 */
void
replayAgainstOracle(const CacheConfig &config, std::uint64_t base,
                    std::uint64_t seed)
{
    CacheSim dense(config);
    oracle::CacheSim ref(config);
    Rng rng(seed);
    const std::uint64_t hot = config.size_bytes / 2;
    const std::uint64_t warm = config.size_bytes * 3;
    for (int b = 0; b < kBatches; ++b) {
        for (int i = 0; i < kBatchSize; ++i) {
            const double pick = rng.uniform();
            const std::uint64_t offset = pick < 0.6 ? rng.next() % hot
                : pick < 0.95 ? rng.next() % warm
                              : rng.next() % (std::uint64_t{1} << 40);
            const auto bytes = static_cast<std::uint32_t>(
                1 + rng.next() % (3 * config.line_bytes));
            dense.access(base + offset, bytes);
            ref.access(base + offset, bytes);
        }
        expectSameStats(dense.stats(), ref.stats(), b);
    }
    // The stream must exercise every outcome, or equality shows little.
    EXPECT_GT(dense.stats().hits, 0u);
    EXPECT_GT(dense.stats().misses, dense.stats().compulsory_misses);
    EXPECT_GT(dense.stats().compulsory_misses, 0u);
}

TEST(MemsimOracle, DirectMappedMatchesStampedLru)
{
    replayAgainstOracle(geometry(1024, 64, 1), 0x1000'0000ull, 1);
}

TEST(MemsimOracle, TwoWayMatchesStampedLru)
{
    replayAgainstOracle(geometry(512, 32, 2), 0x1000'0000ull, 2);
}

TEST(MemsimOracle, NonPowerOfTwoSetCountMatchesStampedLru)
{
    replayAgainstOracle(geometry(97, 64, 4), 0x1000'0000ull, 3);
}

TEST(MemsimOracle, PaperLlcMatchesStampedLru)
{
    const CacheConfig llc; // 9 MB, 64 B lines, 16-way: 9216 sets
    ASSERT_NE(llc.numSets() & (llc.numSets() - 1), 0u);
    replayAgainstOracle(llc, 0x1000'0000ull, 4);
}

TEST(MemsimOracle, LineNumbersAbove32BitsMatchStampedLru)
{
    // Line numbers from 2^50 up: set index and first-touch bitset both
    // see keys far beyond 32 bits.
    replayAgainstOracle(geometry(64, 64, 8), std::uint64_t{1} << 56, 5);
}

TEST(MemsimOracle, MemTraceMatchesHashedTrace)
{
    const CacheConfig llc = geometry(256, 64, 8); // 128 KB: many evictions
    CacheSim dense_cache(llc);
    oracle::CacheSim ref_cache(llc);
    MemTrace dense;
    oracle::MemTrace ref;
    dense.attachCache(&dense_cache);
    ref.attachCache(&ref_cache);

    const std::uint32_t clouds[] = {0, 1, 7, 40000};
    const std::uint32_t trees[] = {0, 3};
    Rng rng(6);
    for (int b = 0; b < kBatches; ++b) {
        for (int i = 0; i < kBatchSize; ++i) {
            // Skewed indices: a few hot points, most touched a handful
            // of times, and a sparse tail on 16 pages far above them.
            const double pick = rng.uniform();
            const auto index = static_cast<std::uint32_t>(
                pick < 0.3 ? rng.next() % 512
                : pick < 0.97 ? rng.next() % 200000
                              : 0x8000'0000u +
                        (rng.next() % 16) * 0x0100'0000u +
                        rng.next() % 1024);
            if (rng.next() % 4 == 0) {
                const std::uint32_t tree = trees[rng.next() % 2];
                dense.touchNode(tree, index % 60000);
                ref.touchNode(tree, index % 60000);
            } else {
                const std::uint32_t cloud = clouds[rng.next() % 4];
                dense.touchPoint(cloud, index);
                ref.touchPoint(cloud, index);
            }
        }
        expectSameStats(dense_cache.stats(), ref_cache.stats(), b);
        ASSERT_EQ(dense.totalAccesses(), ref.totalAccesses());
        ASSERT_EQ(dense.distinctPoints(), ref.distinctPoints());
        ASSERT_EQ(dense.distinctNodes(), ref.distinctNodes());
        ASSERT_EQ(dense.usefulBytes(), ref.usefulBytes());
    }

    for (const std::uint32_t cloud : {0u, 1u, 7u, 40000u, 2u}) {
        // Contract: ascending point index order. Equal as sequences in
        // that order, the counts are also equal as multisets.
        const auto by_index = ref.pointCountsByIndex(cloud);
        std::vector<std::uint32_t> indices;
        for (const auto &kv : by_index)
            indices.push_back(kv.first);
        std::sort(indices.begin(), indices.end());
        std::vector<std::uint64_t> ordered;
        for (const std::uint32_t i : indices)
            ordered.push_back(by_index.at(i));
        ASSERT_EQ(dense.pointReuseCounts(cloud), ordered) << "cloud " << cloud;

        const Histogram hg = dense.reuseHistogram(cloud, 2.0, 64.0);
        const Histogram hw = ref.reuseHistogram(cloud, 2.0, 64.0);
        ASSERT_EQ(hg.numBins(), hw.numBins());
        EXPECT_EQ(hg.totalCount(), hw.totalCount());
        for (std::size_t i = 0; i < hg.numBins(); ++i)
            EXPECT_EQ(hg.binCount(i), hw.binCount(i)) << "bin " << i;
    }
    EXPECT_TRUE(dense.pointReuseCounts(2).empty());
}

TEST(MemsimOracle, ExtremeIdsAndIndicesAllocateOnlyTouchedPages)
{
    CacheSim dense_cache(CacheConfig{});
    oracle::CacheSim ref_cache(CacheConfig{});
    MemTrace dense;
    oracle::MemTrace ref;
    dense.attachCache(&dense_cache);
    ref.attachCache(&ref_cache);

    constexpr std::uint32_t kMax = 0xFFFF'FFFFu;
    const std::pair<std::uint32_t, std::uint32_t> points[] = {
        {kMax, kMax}, {kMax, 0}, {kMax, kMax}, {0, kMax}, {kMax, kMax},
    };
    // One 32 KB counter page is the largest block a touch may ask for;
    // a table indexed by id or index would need gigabytes.
    g_largest_alloc = 0;
    g_alloc_limit = 64 * 1024;
    for (const auto &[id, index] : points) {
        dense.touchPoint(id, index);
        ref.touchPoint(id, index);
    }
    dense.touchNode(kMax, kMax);
    ref.touchNode(kMax, kMax);
    dense.touchNode(kMax, kMax);
    ref.touchNode(kMax, kMax);
    g_alloc_limit = 0;
    EXPECT_LE(g_largest_alloc, 64u * 1024);

    EXPECT_EQ(dense.pointReuseCounts(kMax),
              (std::vector<std::uint64_t>{1, 3})); // index 0, then kMax
    EXPECT_EQ(dense.pointReuseCounts(0), (std::vector<std::uint64_t>{1}));
    EXPECT_EQ(dense.distinctPoints(), ref.distinctPoints());
    EXPECT_EQ(dense.distinctNodes(), 1u);
    EXPECT_EQ(dense.usefulBytes(), ref.usefulBytes());
    expectSameStats(dense_cache.stats(), ref_cache.stats(), 0);
}

} // namespace
} // namespace sov
