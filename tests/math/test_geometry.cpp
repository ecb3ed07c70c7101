#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "core/rng.h"
#include "geometry_oracle.h"
#include "math/geometry.h"

namespace sov {
namespace {

TEST(WrapAngle, NormalizesIntoHalfOpenRange)
{
    EXPECT_NEAR(wrapAngle(0.0), 0.0, 1e-15);
    EXPECT_NEAR(wrapAngle(3.0 * M_PI), M_PI, 1e-12);
    EXPECT_NEAR(wrapAngle(-3.0 * M_PI), M_PI, 1e-12);
    EXPECT_NEAR(wrapAngle(2.0 * M_PI + 0.1), 0.1, 1e-12);
    EXPECT_NEAR(wrapAngle(-0.1), -0.1, 1e-12);
}

TEST(Pose2, TransformRoundTrip)
{
    const Pose2 p{Vec2(3.0, -1.0), M_PI / 3.0};
    const Vec2 local(2.0, 0.5);
    const Vec2 world = p.transform(local);
    const Vec2 back = p.inverseTransform(world);
    EXPECT_NEAR(back.x(), local.x(), 1e-12);
    EXPECT_NEAR(back.y(), local.y(), 1e-12);
}

TEST(Segment2, ClosestPointAndDistance)
{
    const Segment2 s{Vec2(0.0, 0.0), Vec2(10.0, 0.0)};
    EXPECT_NEAR(s.distanceTo(Vec2(5.0, 3.0)), 3.0, 1e-12);
    EXPECT_NEAR(s.distanceTo(Vec2(-4.0, 3.0)), 5.0, 1e-12); // clamps to a
    EXPECT_NEAR(s.distanceTo(Vec2(13.0, 4.0)), 5.0, 1e-12); // clamps to b
    const Vec2 cp = s.closestPoint(Vec2(7.0, -2.0));
    EXPECT_NEAR(cp.x(), 7.0, 1e-12);
    EXPECT_NEAR(cp.y(), 0.0, 1e-12);
}

TEST(Segment2, Intersection)
{
    const Segment2 a{Vec2(0, 0), Vec2(2, 2)};
    const Segment2 b{Vec2(0, 2), Vec2(2, 0)};
    const auto hit = a.intersect(b);
    ASSERT_TRUE(hit.has_value());
    EXPECT_NEAR(hit->x(), 1.0, 1e-12);
    EXPECT_NEAR(hit->y(), 1.0, 1e-12);

    const Segment2 c{Vec2(0, 3), Vec2(2, 3)};
    EXPECT_FALSE(a.intersect(c).has_value());

    const Segment2 par{Vec2(0, 1), Vec2(2, 3)};
    EXPECT_FALSE(a.intersect(par).has_value()); // parallel
}

TEST(Aabb2, ContainsOverlapsInflated)
{
    const Aabb2 box{Vec2(0, 0), Vec2(2, 2)};
    EXPECT_TRUE(box.contains(Vec2(1, 1)));
    EXPECT_TRUE(box.contains(Vec2(0, 0))); // boundary inclusive
    EXPECT_FALSE(box.contains(Vec2(3, 1)));
    EXPECT_TRUE(box.overlaps(Aabb2{Vec2(1, 1), Vec2(3, 3)}));
    EXPECT_FALSE(box.overlaps(Aabb2{Vec2(3, 3), Vec2(4, 4)}));
}

TEST(OrientedBox2, OverlapAxisAligned)
{
    const OrientedBox2 a{Pose2{Vec2(0, 0), 0.0}, 1.0, 0.5};
    const OrientedBox2 b{Pose2{Vec2(1.5, 0), 0.0}, 1.0, 0.5};
    const OrientedBox2 c{Pose2{Vec2(3.0, 0), 0.0}, 1.0, 0.5};
    EXPECT_TRUE(a.overlaps(b));
    EXPECT_FALSE(a.overlaps(c));
}

TEST(OrientedBox2, OverlapRotatedRequiresSat)
{
    // Diagonal box near the corner of an axis-aligned one: AABB overlap
    // but SAT separation.
    const OrientedBox2 a{Pose2{Vec2(0, 0), 0.0}, 1.0, 1.0};
    const OrientedBox2 b{Pose2{Vec2(2.4, 2.4), M_PI / 4.0}, 1.4, 0.2};
    EXPECT_FALSE(a.overlaps(b));
    const OrientedBox2 c{Pose2{Vec2(1.2, 1.2), M_PI / 4.0}, 1.4, 0.4};
    EXPECT_TRUE(a.overlaps(c));
}

TEST(OrientedBox2, ContainsPoint)
{
    const OrientedBox2 box{Pose2{Vec2(0, 0), M_PI / 2.0}, 2.0, 1.0};
    EXPECT_TRUE(box.contains(Vec2(0.5, 1.5)));  // rotated frame
    EXPECT_FALSE(box.contains(Vec2(1.5, 0.5)));
}

TEST(Polyline2, LengthAndSample)
{
    Polyline2 line({Vec2(0, 0), Vec2(3, 0), Vec2(3, 4)});
    EXPECT_DOUBLE_EQ(line.length(), 7.0);
    const Vec2 p = line.sample(3.0);
    EXPECT_NEAR(p.x(), 3.0, 1e-12);
    EXPECT_NEAR(p.y(), 0.0, 1e-12);
    const Vec2 q = line.sample(5.0);
    EXPECT_NEAR(q.x(), 3.0, 1e-12);
    EXPECT_NEAR(q.y(), 2.0, 1e-12);
    // Clamping.
    EXPECT_EQ(line.sample(-1.0), Vec2(0.0, 0.0));
    EXPECT_EQ(line.sample(100.0), Vec2(3.0, 4.0));
}

TEST(Polyline2, HeadingAt)
{
    Polyline2 line({Vec2(0, 0), Vec2(3, 0), Vec2(3, 4)});
    EXPECT_NEAR(line.headingAt(1.0), 0.0, 1e-12);
    EXPECT_NEAR(line.headingAt(5.0), M_PI / 2.0, 1e-12);
}

TEST(Polyline2, ProjectSignedOffset)
{
    Polyline2 line({Vec2(0, 0), Vec2(10, 0)});
    const auto [s_left, off_left] = line.project(Vec2(4.0, 2.0));
    EXPECT_NEAR(s_left, 4.0, 1e-12);
    EXPECT_NEAR(off_left, 2.0, 1e-12); // left of travel is positive
    const auto [s_right, off_right] = line.project(Vec2(6.0, -1.0));
    EXPECT_NEAR(s_right, 6.0, 1e-12);
    EXPECT_NEAR(off_right, -1.0, 1e-12);
}

TEST(OrientedBox2, DistanceToDisjointAndOverlapping)
{
    const OrientedBox2 a{Pose2{Vec2(0, 0), 0.0}, 1.0, 1.0};
    const OrientedBox2 b{Pose2{Vec2(5.0, 0), 0.0}, 1.0, 1.0};
    EXPECT_NEAR(a.distanceTo(b), 3.0, 1e-12); // face to face
    EXPECT_NEAR(b.distanceTo(a), 3.0, 1e-12); // symmetric
    const OrientedBox2 c{Pose2{Vec2(1.5, 0), 0.0}, 1.0, 1.0};
    EXPECT_DOUBLE_EQ(a.distanceTo(c), 0.0); // overlapping
    // Diagonal separation: nearest corners.
    const OrientedBox2 d{Pose2{Vec2(4.0, 4.0), 0.0}, 1.0, 1.0};
    EXPECT_NEAR(a.distanceTo(d), std::sqrt(8.0), 1e-12);
}

/** A random box in the fleet's coordinate range; every tenth one has
 *  a zero half-length, half-width or both. */
OrientedBox2
randomBox(Rng &rng)
{
    OrientedBox2 box{Pose2{Vec2(rng.uniform(-300.0, 300.0),
                                rng.uniform(-300.0, 300.0)),
                           rng.uniform(-4.0, 4.0)},
                     rng.uniform(0.0, 3.0), rng.uniform(0.0, 1.5)};
    if (rng.bernoulli(0.1)) {
        const auto which = rng.uniformInt(0, 2);
        if (which != 1)
            box.half_length = 0.0;
        if (which != 0)
            box.half_width = 0.0;
    }
    return box;
}

/**
 * Place @p b against @p a in one of the shapes the rejections must not
 * get wrong: overlapping, face-touching, nested, or with the centre
 * distance a hair either side of the sum of the circumradii.
 */
void
placeAgainst(const OrientedBox2 &a, OrientedBox2 &b, Rng &rng)
{
    const double angle = rng.uniform(-M_PI, M_PI);
    const Vec2 dir(std::cos(angle), std::sin(angle));
    const double reach = a.circumradius() + b.circumradius();
    switch (rng.uniformInt(0, 5)) {
      case 0: // overlapping or near: centres well inside the reach
        b.pose.position = a.pose.position + dir * rng.uniform(0.0, reach);
        break;
      case 1: { // touching faces: same heading, edge on edge
        b.pose.heading = a.pose.heading +
            M_PI / 2.0 * static_cast<double>(rng.uniformInt(0, 3));
        const double along = a.half_length + (rng.bernoulli(0.5)
                                                  ? b.half_length
                                                  : b.half_width);
        b.pose.position = a.pose.transform(
            Vec2(along, rng.uniform(-a.half_width, a.half_width)));
        break;
      }
      case 2: // nested: a smaller box at a nearby centre
        b.half_length = a.half_length * rng.uniform(0.0, 0.5);
        b.half_width = a.half_width * rng.uniform(0.0, 0.5);
        b.pose.position = a.pose.transform(
            Vec2(rng.uniform(-0.4, 0.4) * a.half_length,
                 rng.uniform(-0.4, 0.4) * a.half_width));
        break;
      case 3: // centre distance right at the circumcircle bound
        b.pose.position = a.pose.position +
            dir * (reach * (1.0 + rng.uniform(-1e-9, 1e-9)) +
                   rng.uniform(-2e-6, 2e-6));
        break;
      case 4: // just outside the bound, within a few slacks
        b.pose.position = a.pose.position +
            dir * (reach + rng.uniform(0.0, 1e-5));
        break;
      default: // anywhere within a fleet-scale distance
        b.pose.position = a.pose.position + dir * rng.uniform(0.0, 60.0);
        break;
    }
}

TEST(OrientedBox2, CornersMatchPerCornerTransformBitwise)
{
    Rng rng(11);
    for (int i = 0; i < 100000; ++i) {
        const OrientedBox2 box = randomBox(rng);
        const auto got = box.corners();
        const auto want = oracle::corners(box);
        for (std::size_t k = 0; k < 4; ++k) {
            ASSERT_EQ(oracle::bits(got[k].x()), oracle::bits(want[k].x()))
                << "case " << i << " corner " << k;
            ASSERT_EQ(oracle::bits(got[k].y()), oracle::bits(want[k].y()))
                << "case " << i << " corner " << k;
        }
    }
}

TEST(OrientedBox2, OverlapAndDistanceMatchAllocatingOracleBitwise)
{
    Rng rng(12);
    int overlapping = 0, near_bound = 0;
    for (int i = 0; i < 100000; ++i) {
        const OrientedBox2 a = randomBox(rng);
        OrientedBox2 b = randomBox(rng);
        placeAgainst(a, b, rng);
        const bool want_overlap = oracle::overlaps(a, b);
        ASSERT_EQ(a.overlaps(b), want_overlap) << "case " << i;
        ASSERT_EQ(b.overlaps(a), oracle::overlaps(b, a)) << "case " << i;
        ASSERT_EQ(oracle::bits(a.distanceTo(b)),
                  oracle::bits(oracle::distanceTo(a, b)))
            << "case " << i;
        ASSERT_EQ(oracle::bits(b.distanceTo(a)),
                  oracle::bits(oracle::distanceTo(b, a)))
            << "case " << i;
        overlapping += want_overlap;
        const double reach = a.circumradius() + b.circumradius();
        near_bound += std::fabs(a.pose.position.distanceTo(b.pose.position) -
                                reach) < 1e-5;
    }
    // The generator really exercised both sides of the rejection.
    EXPECT_GT(overlapping, 20000);
    EXPECT_GT(near_bound, 20000);
}

/** A heading of k pi/2, half the time nudged one ulp either way. */
double
quarterTurn(Rng &rng, double base)
{
    const double h =
        base + M_PI / 2.0 * static_cast<double>(rng.uniformInt(0, 3));
    switch (rng.uniformInt(0, 3)) {
      case 0: return std::nextafter(h, 10.0);
      case 1: return std::nextafter(h, -10.0);
      default: return h;
    }
}

/**
 * Box @p b facing one side of @p a across @p gap, in the shapes that
 * stress the pruned gap: parallel facing sides (two or more corners
 * tie), headings of k pi/2 +- 1 ulp, or a random heading with one
 * vertex nearest. Half the pairs sit up to 1e4 m from the origin.
 */
std::pair<OrientedBox2, OrientedBox2>
facingPair(Rng &rng, double gap)
{
    const double reach = rng.bernoulli(0.5) ? 1e4 : 300.0;
    OrientedBox2 a{Pose2{Vec2(rng.uniform(-reach, reach),
                              rng.uniform(-reach, reach)),
                         0.0},
                   rng.uniform(0.05, 3.0), rng.uniform(0.05, 1.5)};
    OrientedBox2 b{Pose2{}, rng.uniform(0.05, 3.0), rng.uniform(0.05, 1.5)};
    const bool parallel = rng.uniformInt(0, 3) != 0;
    a.pose.heading = quarterTurn(rng, 0.0);
    b.pose.heading = parallel ? quarterTurn(rng, a.pose.heading)
                              : rng.uniform(-M_PI, M_PI);
    // b's half extents along and across a's heading.
    const double turn = b.pose.heading - a.pose.heading;
    const double ct = std::fabs(std::cos(turn)), st = std::fabs(std::sin(turn));
    const double b_along = ct * b.half_length + st * b.half_width;
    const double b_across = st * b.half_length + ct * b.half_width;
    // Which side of a: +x, +y, -x or -y of its frame.
    const auto side = rng.uniformInt(0, 3);
    const double sign = side < 2 ? 1.0 : -1.0;
    const bool on_x = side % 2 == 0;
    const double a_normal = on_x ? a.half_length : a.half_width;
    const double a_side = on_x ? a.half_width : a.half_length;
    const double b_normal = on_x ? b_along : b_across;
    const double b_side = on_x ? b_across : b_along;
    double offset = 0.0; // centred: the facing corners tie pairwise
    switch (rng.uniformInt(0, 3)) {
      case 0: break;
      case 1: // flush at a corner: corner meets corner
        offset = (rng.bernoulli(0.5) ? 1.0 : -1.0) * (a_side + b_side);
        break;
      default:
        offset = rng.uniform(-1.2, 1.2) * (a_side + b_side);
        break;
    }
    const double normal = sign * (a_normal + gap + b_normal);
    b.pose.position = a.pose.transform(on_x ? Vec2(normal, offset)
                                            : Vec2(offset, normal));
    return {a, b};
}

TEST(BoxGap, PrunedGapMatchesAllPairsOracleBitwise)
{
    // The pruned gap against the 32-pair oracle, bit for bit, on
    // facing boxes from touching (gap 0) through 1e-9 m up to 10 m.
    Rng rng(16);
    int separated = 0, tiny = 0;
    for (int i = 0; i < 100000; ++i) {
        const double gap = rng.bernoulli(0.1)
            ? 0.0
            : std::pow(10.0, rng.uniform(-9.0, 1.0));
        const auto [a, b] = facingPair(rng, gap);
        const double want = oracle::distanceTo(a, b);
        ASSERT_EQ(oracle::bits(a.distanceTo(b)), oracle::bits(want))
            << "case " << i;
        ASSERT_EQ(oracle::bits(boxGap(BoxFrame::of(b), BoxFrame::of(a))),
                  oracle::bits(oracle::distanceTo(b, a)))
            << "case " << i;
        separated += want > 0.0;
        tiny += want > 0.0 && want < 1e-6;
    }
    // Most pairs are separated, and thousands by under a micron.
    EXPECT_GT(separated, 70000);
    EXPECT_GT(tiny, 10000);
}

TEST(BoxGap, FrameMatchesOracleCornersAndContains)
{
    Rng rng(17);
    for (int i = 0; i < 1000; ++i) {
        const OrientedBox2 box = randomBox(rng);
        const BoxFrame fresh = BoxFrame::of(box);
        const std::vector<Vec2> want = oracle::corners(box);
        for (std::size_t k = 0; k < 4; ++k) {
            ASSERT_EQ(oracle::bits(fresh.corners[k].x()),
                      oracle::bits(want[k].x()));
            ASSERT_EQ(oracle::bits(fresh.corners[k].y()),
                      oracle::bits(want[k].y()));
        }
        ASSERT_EQ(oracle::bits(fresh.radius), oracle::bits(box.circumradius()));
        // contains() on the frame is the inverse-transform test.
        const Vec2 p = box.pose.position +
            Vec2(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0));
        ASSERT_EQ(fresh.contains(p), oracle::contains(box, p));
        ASSERT_EQ(box.contains(p), oracle::contains(box, p));
    }
}

TEST(OrientedBox2, DiscsApartIsConservative)
{
    // Tangent discs are not apart; only a gap beyond the slack is.
    EXPECT_FALSE(discsApart(Vec2(0, 0), 1.0, Vec2(3, 0), 2.0));
    EXPECT_FALSE(discsApart(Vec2(0, 0), 1.0, Vec2(3.0 + 5e-7, 0), 2.0));
    EXPECT_TRUE(discsApart(Vec2(0, 0), 1.0, Vec2(3.0 + 1e-5, 0), 2.0));
    // The slack grows with the coordinate magnitude.
    EXPECT_FALSE(discsApart(Vec2(1e6, 0), 1.0, Vec2(1e6 + 3.0 + 1e-5, 0),
                            2.0));
    EXPECT_TRUE(discsApart(Vec2(1e6, 0), 1.0, Vec2(1e6 + 3.01, 0), 2.0));
}

TEST(Polyline2, AppendExtends)
{
    Polyline2 line;
    line.append(Vec2(0, 0));
    line.append(Vec2(1, 0));
    line.append(Vec2(1, 1));
    EXPECT_DOUBLE_EQ(line.length(), 2.0);
    EXPECT_EQ(line.size(), 3u);
}

} // namespace
} // namespace sov
