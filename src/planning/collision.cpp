#include "planning/collision.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace sov {

namespace {

/** One prediction, prepared once per query: each state's time offset
 *  from the first (the nearest-time search key) and a disc enclosing
 *  every state's footprint. */
struct PreparedPrediction
{
    std::size_t first = 0; //!< index of the first offset
    Vec2 center;
    double radius = 0.0;
};

} // namespace

std::optional<CollisionInfo>
firstCollision(const Polyline2 &path, double start_s, double speed,
               const std::vector<ObjectPrediction> &predictions,
               const EgoFootprint &ego, double max_lookahead)
{
    if (path.size() < 2 || speed <= 0.0)
        return std::nullopt;

    std::vector<double> offsets;
    std::vector<PreparedPrediction> prepared(predictions.size());
    for (std::size_t p = 0; p < predictions.size(); ++p) {
        const auto &states = predictions[p].states;
        PreparedPrediction &prep = prepared[p];
        prep.first = offsets.size();
        if (states.empty())
            continue;
        Vec2 lo = states.front().footprint.pose.position, hi = lo;
        for (const auto &state : states) {
            offsets.push_back(
                (state.time - states.front().time).toSeconds());
            const Vec2 &c = state.footprint.pose.position;
            lo = Vec2(std::min(lo.x(), c.x()), std::min(lo.y(), c.y()));
            hi = Vec2(std::max(hi.x(), c.x()), std::max(hi.y(), c.y()));
        }
        prep.center = (lo + hi) * 0.5;
        for (const auto &state : states) {
            prep.radius = std::max(
                prep.radius,
                state.footprint.pose.position.distanceTo(prep.center) +
                    state.footprint.circumradius());
        }
    }

    const double step = 0.5; // meters of path per sweep sample
    const double end_s =
        std::min(start_s + max_lookahead, path.length());
    const double ego_radius =
        OrientedBox2{Pose2{}, ego.half_length, ego.half_width}
            .circumradius();

    for (double s = start_s; s <= end_s; s += step) {
        const double t = (s - start_s) / speed; // seconds from now
        const Vec2 at = path.sample(s);
        std::optional<OrientedBox2> ego_box; // built on first use

        for (std::size_t p = 0; p < predictions.size(); ++p) {
            const PreparedPrediction &prep = prepared[p];
            // No state's footprint can reach the ego here, so no
            // choice of nearest state can overlap it.
            if (discsApart(at, ego_radius, prep.center, prep.radius))
                continue;
            // Find the predicted state nearest in time.
            const auto &states = predictions[p].states;
            const PredictedState *best = nullptr;
            double best_dt = 1e18;
            for (std::size_t k = 0; k < states.size(); ++k) {
                const double dt = std::fabs(offsets[prep.first + k] - t);
                if (dt < best_dt) {
                    best_dt = dt;
                    best = &states[k];
                }
            }
            if (!best || best_dt > 0.5)
                continue; // object prediction doesn't cover this time
            if (!ego_box) {
                ego_box = OrientedBox2{Pose2{at, path.headingAt(s)},
                                       ego.half_length, ego.half_width};
            }
            if (ego_box->overlaps(best->footprint)) {
                return CollisionInfo{s - start_s, t,
                                     predictions[p].track_id};
            }
        }
    }
    return std::nullopt;
}

} // namespace sov
