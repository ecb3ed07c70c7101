/**
 * @file
 * Bitwise oracle for firstCollision: the per-prediction disc bound and
 * the circumcircle rejection in overlaps() must never change a result.
 * The reference is firstCollision as it stood before them, on the
 * allocating SAT.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "../math/geometry_oracle.h"
#include "core/rng.h"
#include "planning/collision.h"

namespace sov {
namespace {

/** The pre-rejection sweep: nearest state by time, then a full SAT. */
std::optional<CollisionInfo>
oracleFirstCollision(const Polyline2 &path, double start_s, double speed,
                     const std::vector<ObjectPrediction> &predictions,
                     const EgoFootprint &ego, double max_lookahead)
{
    if (path.size() < 2 || speed <= 0.0)
        return std::nullopt;

    const double step = 0.5; // meters of path per sweep sample
    const double end_s =
        std::min(start_s + max_lookahead, path.length());

    for (double s = start_s; s <= end_s; s += step) {
        const double t = (s - start_s) / speed; // seconds from now
        const OrientedBox2 ego_box{
            Pose2{path.sample(s), path.headingAt(s)},
            ego.half_length, ego.half_width};

        for (const auto &pred : predictions) {
            const PredictedState *best = nullptr;
            double best_dt = 1e18;
            for (const auto &state : pred.states) {
                const double dt = std::fabs(
                    (state.time - pred.states.front().time).toSeconds() -
                    t);
                if (dt < best_dt) {
                    best_dt = dt;
                    best = &state;
                }
            }
            if (!best || best_dt > 0.5)
                continue;
            if (oracle::overlaps(ego_box, best->footprint)) {
                return CollisionInfo{s - start_s, t, pred.track_id};
            }
        }
    }
    return std::nullopt;
}

Polyline2
randomPath(Rng &rng)
{
    std::vector<Vec2> points;
    Vec2 p(rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0));
    double heading = rng.uniform(-M_PI, M_PI);
    const auto n = rng.uniformInt(1, 5);
    points.push_back(p);
    for (std::int64_t i = 0; i < n; ++i) {
        heading += rng.uniform(-0.8, 0.8);
        p += Vec2(std::cos(heading), std::sin(heading)) *
            rng.uniform(0.0, 8.0);
        points.push_back(p);
    }
    return Polyline2(std::move(points));
}

/**
 * Predictions clustered around the path: irregular state times (gaps
 * beyond the 0.5 s match window, duplicates, out-of-order entries),
 * zero-extent footprints, and the odd empty prediction.
 */
std::vector<ObjectPrediction>
randomPredictions(Rng &rng, const Polyline2 &path, Timestamp now)
{
    std::vector<ObjectPrediction> preds(
        static_cast<std::size_t>(rng.uniformInt(0, 3)));
    for (std::size_t i = 0; i < preds.size(); ++i) {
        ObjectPrediction &pred = preds[i];
        pred.track_id = static_cast<std::uint32_t>(i + 1);
        if (rng.bernoulli(0.05))
            continue; // no states at all
        Vec2 c = path.sample(rng.uniform(0.0, path.length())) +
            Vec2(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0));
        const Vec2 v(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0));
        const double heading = rng.uniform(-M_PI, M_PI);
        const double hl = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.0, 1.0);
        const double hw = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.0, 1.0);
        double dt = 0.0;
        const auto n = rng.uniformInt(1, 6);
        for (std::int64_t k = 0; k < n; ++k) {
            PredictedState state;
            state.time = now + Duration::seconds(dt);
            state.footprint = OrientedBox2{Pose2{c + v * dt, heading}, hl, hw};
            pred.states.push_back(state);
            // Mostly forward steps, some past the match window, some
            // repeats and some steps back in time.
            dt += rng.bernoulli(0.2) ? rng.uniform(-0.6, 2.0)
                                     : rng.uniform(0.0, 0.4);
        }
    }
    return preds;
}

TEST(CollisionOracle, RejectionsAreBitIdentical)
{
    Rng rng(31);
    int collisions = 0;
    for (int i = 0; i < 100000; ++i) {
        const Polyline2 path = randomPath(rng);
        const Timestamp now = Timestamp::seconds(rng.uniform(0.0, 100.0));
        const auto preds = randomPredictions(rng, path, now);
        EgoFootprint ego;
        if (rng.bernoulli(0.3)) {
            ego.half_length = rng.uniform(0.0, 2.0);
            ego.half_width = rng.uniform(0.0, 1.0);
        }
        const double start_s = rng.uniform(-1.0, path.length());
        const double speed =
            rng.bernoulli(0.05) ? 0.0 : rng.uniform(0.5, 8.0);
        const double lookahead = rng.uniform(0.0, 12.0);
        const auto got =
            firstCollision(path, start_s, speed, preds, ego, lookahead);
        const auto want = oracleFirstCollision(path, start_s, speed, preds,
                                               ego, lookahead);
        ASSERT_EQ(got.has_value(), want.has_value()) << "case " << i;
        if (want) {
            ASSERT_EQ(oracle::bits(got->arc_length),
                      oracle::bits(want->arc_length))
                << "case " << i;
            ASSERT_EQ(oracle::bits(got->time_to_impact),
                      oracle::bits(want->time_to_impact))
                << "case " << i;
            ASSERT_EQ(got->track_id, want->track_id) << "case " << i;
            ++collisions;
        }
    }
    EXPECT_GT(collisions, 10000);
    EXPECT_LT(collisions, 90000);
}

} // namespace
} // namespace sov
