/**
 * @file
 * Bitwise oracle for RadarModel::nearestInPath: the one corridor
 * rejection for all three rays and the frames shared between them must
 * never change a result. The reference is three plain raycasts across
 * the corridor, on the pre-rejection raycast; the prepared-table
 * overload must agree with both.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "../world/raycast_oracle.h"
#include "core/rng.h"
#include "sensors/radar.h"

namespace sov {
namespace {

/** nearestInPath as it stood: one full raycast per corridor ray. */
std::optional<double>
oracleNearestInPath(const std::vector<Obstacle> &rows, const Pose2 &body,
                    double half_width, double max_range, Timestamp t)
{
    const Vec2 dir = body.direction();
    const Vec2 normal(-dir.y(), dir.x());
    std::optional<double> best;
    for (const double lateral : {-half_width, 0.0, half_width}) {
        const auto hit = oracle::raycast(rows, body.position + normal * lateral,
                                         dir, max_range, t);
        if (hit && (!best || *hit < *best))
            best = hit;
    }
    return best;
}

/** Move @p row so that its footprint is centred on @p at at time @p t. */
void
centreAt(Obstacle &row, const Vec2 &at, Timestamp t)
{
    row.footprint.pose.position = at - row.velocity * t.toSeconds();
}

TEST(RadarOracle, CorridorRejectionMatchesThreeOracleRaycastsBitwise)
{
    Rng rng(23);
    const RadarModel radar(RadarConfig{}, Rng(1));
    const double range = radar.config().max_range;
    const LaneMap map;
    const std::vector<Landmark> landmarks;
    std::vector<Obstacle> rows;
    std::vector<BoxFrame> frames;
    Vec2 around;
    Timestamp t;
    int hits = 0, inside = 0, straddling = 0;
    for (int i = 0; i < 100000; ++i) {
        if (i % 16 == 0) {
            const double reach = rng.bernoulli(0.5) ? 1e4 : 500.0;
            around = Vec2(rng.uniform(-reach, reach),
                          rng.uniform(-reach, reach));
            t = Timestamp::seconds(rng.uniform(0.0, 5.0));
            rows.assign(static_cast<std::size_t>(rng.uniformInt(1, 12)),
                        Obstacle{});
            for (std::size_t k = 0; k < rows.size(); ++k) {
                Obstacle &o = rows[k];
                o.id = static_cast<ObstacleId>(k);
                o.footprint = OrientedBox2{
                    Pose2{Vec2(), rng.uniform(-M_PI, M_PI)},
                    rng.uniform(0.0, 2.5), rng.uniform(0.0, 1.2)};
                if (rng.bernoulli(0.7))
                    o.velocity = Vec2(rng.uniform(-3.0, 3.0),
                                      rng.uniform(-3.0, 3.0));
                centreAt(o, around + Vec2(rng.uniform(-70.0, 70.0),
                                          rng.uniform(-70.0, 70.0)),
                         t);
            }
        }
        const double heading = rng.bernoulli(0.2)
            ? M_PI / 2.0 * static_cast<double>(rng.uniformInt(-2, 2))
            : rng.uniform(-M_PI, M_PI);
        Pose2 body{around + Vec2(rng.uniform(-40.0, 40.0),
                                 rng.uniform(-40.0, 40.0)),
                   heading};
        double w = 0.8;
        switch (rng.uniformInt(0, 3)) {
          case 0: w = rng.uniform(0.0, 2.5); break;
          case 1: w = -rng.uniform(0.0, 2.5); break;
          default: break;
        }
        const Vec2 dir = body.direction();
        const Vec2 normal(-dir.y(), dir.x());
        Obstacle &row = rows[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(rows.size()) - 1))];
        const double r = row.footprint.circumradius();
        const double side = rng.bernoulli(0.5) ? 1.0 : -1.0;
        switch (rng.uniformInt(0, 5)) {
          case 0: { // the body starts inside a box
            const OrientedBox2 box = row.footprintAt(t);
            body.position = box.pose.transform(
                Vec2(rng.uniform(-1.0, 1.0) * box.half_length,
                     rng.uniform(-1.0, 1.0) * box.half_width));
            break;
          }
          case 1: // a box straddling a side ray
            centreAt(row,
                     body.position + dir * rng.uniform(-2.0, range + 2.0) +
                         normal * (side * w + rng.uniform(-0.5, 0.5) * r),
                     t);
            ++straddling;
            break;
          case 2: // circumcircle a hair either side of the widened bound
            centreAt(row,
                     body.position + dir * rng.uniform(0.0, range) +
                         normal * side *
                             (std::fabs(w) + r + rng.uniform(-4e-6, 4e-6)),
                     t);
            break;
          case 3: // just behind the origin or beyond the range
            centreAt(row,
                     body.position +
                         dir * (rng.bernoulli(0.5)
                                    ? -(r + rng.uniform(-4e-6, 4e-6))
                                    : range + r + rng.uniform(-4e-6, 4e-6)) +
                         normal * rng.uniform(-1.0, 1.0) * std::fabs(w),
                     t);
            break;
          default: // wherever the world put it
            break;
        }
        const WorldSnapshot snap(map, rows, landmarks, t);
        frames.clear();
        for (const Obstacle &o : rows)
            frames.push_back(BoxFrame::of(o.footprintAt(t)));

        const auto want = oracleNearestInPath(rows, body, w, range, t);
        const auto got = radar.nearestInPath(snap, body, w, t);
        const auto got_table = radar.nearestInPath(frames, body, w, t);
        ASSERT_EQ(got.has_value(), want.has_value()) << "case " << i;
        ASSERT_EQ(got_table.has_value(), want.has_value()) << "case " << i;
        if (want) {
            ASSERT_EQ(oracle::bits(*got), oracle::bits(*want))
                << "case " << i;
            ASSERT_EQ(oracle::bits(*got_table), oracle::bits(*want))
                << "case " << i;
            ++hits;
            inside += *want == 0.0;
        }
    }
    // Hits, misses, inside-a-box starts and straddled side rays all ran.
    EXPECT_GT(hits, 30000);
    EXPECT_LT(hits, 90000);
    EXPECT_GT(inside, 10000);
    EXPECT_GT(straddling, 10000);
}

} // namespace
} // namespace sov
