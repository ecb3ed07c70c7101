/**
 * @file
 * Bitwise oracle for WorldSnapshot::raycast: neither the circumcircle
 * rejection nor Ray2::hit's same-side edge skip may change a result.
 * The reference is the raycast as it stood before both, on the
 * allocating corners.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "../math/geometry_oracle.h"
#include "raycast_oracle.h"
#include "core/rng.h"
#include "world/world.h"

namespace sov {
namespace {

std::vector<Obstacle>
randomObstacles(Rng &rng, const Vec2 &around)
{
    std::vector<Obstacle> rows(
        static_cast<std::size_t>(rng.uniformInt(1, 12)));
    for (std::size_t i = 0; i < rows.size(); ++i) {
        Obstacle &o = rows[i];
        o.id = static_cast<ObstacleId>(i);
        o.footprint = OrientedBox2{
            Pose2{around + Vec2(rng.uniform(-70.0, 70.0),
                                rng.uniform(-70.0, 70.0)),
                  rng.uniform(-M_PI, M_PI)},
            rng.uniform(0.0, 2.5), rng.uniform(0.0, 1.2)};
        if (rng.bernoulli(0.7))
            o.velocity = Vec2(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0));
    }
    return rows;
}

TEST(RaycastOracle, CircumcircleRejectionIsBitIdentical)
{
    Rng rng(21);
    const LaneMap map;
    const std::vector<Landmark> landmarks;
    int hits = 0, inside = 0;
    std::vector<Obstacle> rows;
    Vec2 around;
    Timestamp t;
    for (int i = 0; i < 100000; ++i) {
        if (i % 16 == 0) {
            around = Vec2(rng.uniform(-500.0, 500.0),
                          rng.uniform(-500.0, 500.0));
            rows = randomObstacles(rng, around);
            t = Timestamp::seconds(rng.uniform(0.0, 5.0));
        }
        const WorldSnapshot snap(map, rows, landmarks, t);
        const double angle = rng.uniform(-M_PI, M_PI);
        Vec2 dir(std::cos(angle), std::sin(angle));
        double range = rng.uniform(0.5, 80.0);
        Vec2 origin = around + Vec2(rng.uniform(-60.0, 60.0),
                                    rng.uniform(-60.0, 60.0));
        const OrientedBox2 box =
            rows[static_cast<std::size_t>(rng.uniformInt(
                     0, static_cast<std::int64_t>(rows.size()) - 1))]
                .footprintAt(t);
        const auto corners = box.corners();
        switch (rng.uniformInt(0, 8)) {
          case 0: // starts inside a box
            origin = box.pose.transform(
                Vec2(rng.uniform(-1.0, 1.0) * box.half_length,
                     rng.uniform(-1.0, 1.0) * box.half_width));
            break;
          case 1: { // starts on an edge
            const auto k = static_cast<std::size_t>(rng.uniformInt(0, 3));
            origin = corners[k] +
                (corners[(k + 1) % 4] - corners[k]) * rng.uniform();
            break;
          }
          case 2: { // tangent to the circumcircle, either side of it
            const Vec2 normal(-dir.y(), dir.x());
            const double miss = box.circumradius() *
                    (1.0 + rng.uniform(-1e-9, 1e-9)) +
                rng.uniform(-2e-6, 2e-6);
            origin = box.pose.position + normal * miss -
                dir * rng.uniform(0.0, range);
            break;
          }
          case 3: // ray ends right at the circumcircle
            origin = box.pose.position - dir * (range + box.circumradius() +
                                                rng.uniform(-2e-6, 2e-6));
            break;
          case 4: // degenerate direction
            dir = Vec2(0.0, 0.0);
            break;
          case 6: { // through a corner, within a few um either side
            const auto k = static_cast<std::size_t>(rng.uniformInt(0, 3));
            const Vec2 normal(-dir.y(), dir.x());
            origin = corners[k] - dir * rng.uniform(0.0, range) +
                normal * (rng.bernoulli(0.5) ? 0.0
                                             : rng.uniform(-4e-6, 4e-6));
            break;
          }
          case 7: { // along an edge's line, within a few um of it
            const auto k = static_cast<std::size_t>(rng.uniformInt(0, 3));
            const Vec2 edge = corners[(k + 1) % 4] - corners[k];
            if (edge.norm() == 0.0)
                break;
            dir = edge.normalized() * (rng.bernoulli(0.5) ? 1.0 : -1.0);
            const Vec2 normal(-dir.y(), dir.x());
            origin = corners[k] - dir * rng.uniform(0.0, 5.0) +
                normal * (rng.bernoulli(0.5) ? 0.0
                                             : rng.uniform(-4e-6, 4e-6));
            break;
          }
          case 5: // aimed at the box from up to 90 m away
            origin = box.pose.position - dir * rng.uniform(0.0, 90.0);
            range = rng.uniform(0.5, 90.0);
            break;
          default: // anywhere
            break;
        }
        const auto got = snap.raycast(origin, dir, range, t);
        const auto want = oracle::raycast(rows, origin, dir, range, t);
        ASSERT_EQ(got.has_value(), want.has_value()) << "case " << i;
        if (want) {
            ASSERT_EQ(oracle::bits(*got), oracle::bits(*want))
                << "case " << i;
            ++hits;
            inside += *want == 0.0;
        }
    }
    // Both outcomes, and the inside-a-box early return, were exercised.
    EXPECT_GT(hits, 25000);
    EXPECT_LT(hits, 90000);
    EXPECT_GT(inside, 5000);
}

} // namespace
} // namespace sov
