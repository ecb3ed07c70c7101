#include <gtest/gtest.h>

#include "core/stats.h"

namespace sov {
namespace {

TEST(RunningStats, Basic)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.13809, 1e-4); // sample stddev
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential)
{
    RunningStats a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double x = i * 0.7 - 3.0;
        a.add(x);
        all.add(x);
    }
    for (int i = 0; i < 73; ++i) {
        const double x = i * -0.2 + 10.0;
        b.add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty)
{
    RunningStats a, empty;
    a.add(1.0);
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(PercentileBuffer, KnownPercentiles)
{
    PercentileBuffer p;
    for (int i = 1; i <= 100; ++i)
        p.add(i);
    EXPECT_DOUBLE_EQ(p.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(p.percentile(100.0), 100.0);
    EXPECT_NEAR(p.percentile(50.0), 50.5, 1e-9);
    EXPECT_NEAR(p.percentile(99.0), 99.01, 1e-9);
    EXPECT_DOUBLE_EQ(p.mean(), 50.5);
}

TEST(PercentileBuffer, SingleSample)
{
    PercentileBuffer p;
    p.add(42.0);
    EXPECT_EQ(p.percentile(0.0), 42.0);
    EXPECT_EQ(p.percentile(50.0), 42.0);
    EXPECT_EQ(p.percentile(100.0), 42.0);
}

TEST(PercentileBuffer, AddAfterQueryResorts)
{
    PercentileBuffer p;
    p.add(10.0);
    p.add(20.0);
    EXPECT_EQ(p.percentile(100.0), 20.0);
    p.add(5.0);
    EXPECT_EQ(p.percentile(0.0), 5.0);
}

TEST(Histogram, BinningAndEdges)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(9.99);
    h.add(5.0);  // exactly on a bin edge -> bin 5
    h.add(-3.0); // clamps to first bin
    h.add(42.0); // clamps to last bin
    EXPECT_EQ(h.totalCount(), 5u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(5), 1u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_DOUBLE_EQ(h.binLow(9), 9.0);
}

TEST(Histogram, WeightedAdd)
{
    Histogram h(0.0, 4.0, 4);
    h.add(1.5, 10);
    EXPECT_EQ(h.binCount(1), 10u);
    EXPECT_EQ(h.totalCount(), 10u);
}

TEST(Histogram, ToStringContainsAllBins)
{
    Histogram h(0.0, 2.0, 2);
    h.add(0.1);
    const std::string s = h.toString();
    EXPECT_NE(s.find("0..1"), std::string::npos);
    EXPECT_NE(s.find("1..2"), std::string::npos);
}

TEST(QuantileDigest, EmptyDigestReturnsZero)
{
    QuantileDigest d;
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.quantile(0.5), 0.0);
}

TEST(QuantileDigest, QuantilesWithinRelativeAccuracy)
{
    const double alpha = 0.01;
    QuantileDigest d(alpha);
    // 1..10000 uniformly: quantile q should be ~q*10000.
    for (int i = 1; i <= 10000; ++i)
        d.add(static_cast<double>(i));
    EXPECT_EQ(d.count(), 10000u);
    for (double q : {0.01, 0.1, 0.5, 0.9, 0.99, 0.999}) {
        const double expect = q * 10000.0;
        const double got = d.quantile(q);
        // Bucketing adds one bucket of slack on top of alpha.
        EXPECT_NEAR(got, expect, expect * (3.0 * alpha) + 1.0)
            << "q=" << q;
    }
    EXPECT_LE(d.quantile(0.0), d.quantile(1.0));
}

TEST(QuantileDigest, ZeroAndNegativeSamplesLandInZeroBucket)
{
    QuantileDigest d;
    d.add(0.0);
    d.add(-5.0);
    d.add(100.0);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_EQ(d.quantile(0.0), 0.0);
    EXPECT_EQ(d.quantile(0.5), 0.0);
    EXPECT_NEAR(d.quantile(1.0), 100.0, 100.0 * 0.03);
}

TEST(QuantileDigest, MergeMatchesCombinedAdds)
{
    QuantileDigest a, b, all;
    for (int i = 1; i <= 500; ++i) {
        a.add(i * 0.5);
        all.add(i * 0.5);
    }
    for (int i = 1; i <= 700; ++i) {
        b.add(i * 2.0);
        all.add(i * 2.0);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    // Integer bucket counts: the merged state is exactly the combined
    // state, not just approximately.
    ASSERT_EQ(a.buckets().size(), all.buckets().size());
    EXPECT_TRUE(a.buckets() == all.buckets());
    for (double q : {0.1, 0.5, 0.99})
        EXPECT_DOUBLE_EQ(a.quantile(q), all.quantile(q));
}

TEST(QuantileDigest, MergeIsOrderIndependent)
{
    QuantileDigest parts[3];
    for (int p = 0; p < 3; ++p)
        for (int i = 1; i <= 200; ++i)
            parts[p].add(static_cast<double>(i * (p + 1)));

    QuantileDigest fwd, rev;
    for (int p = 0; p < 3; ++p)
        fwd.merge(parts[p]);
    for (int p = 2; p >= 0; --p)
        rev.merge(parts[p]);

    EXPECT_TRUE(fwd.buckets() == rev.buckets());
    EXPECT_EQ(fwd.count(), rev.count());
    for (double q : {0.05, 0.5, 0.95})
        EXPECT_DOUBLE_EQ(fwd.quantile(q), rev.quantile(q));
}

TEST(QuantileDigest, WeightedAddEqualsRepeatedAdd)
{
    QuantileDigest w, r;
    w.add(42.0, 10);
    for (int i = 0; i < 10; ++i)
        r.add(42.0);
    EXPECT_TRUE(w.buckets() == r.buckets());
    EXPECT_DOUBLE_EQ(w.quantile(0.5), r.quantile(0.5));
}

} // namespace
} // namespace sov
