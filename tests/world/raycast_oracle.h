/**
 * @file
 * Test-only reference copy of WorldSnapshot::raycast as it stood
 * before any rejection: every edge of every obstacle, on the
 * allocating corners. Shared by the raycast and radar oracle tests.
 */
#pragma once

#include <optional>
#include <vector>

#include "../math/geometry_oracle.h"
#include "world/obstacle.h"

namespace sov::oracle {

/** The pre-rejection raycast: every edge of every obstacle. */
inline std::optional<double>
raycast(const std::vector<Obstacle> &obstacles, const Vec2 &origin,
        const Vec2 &direction, double max_range, Timestamp t)
{
    if (direction.squaredNorm() == 0.0)
        return std::nullopt;
    const Vec2 dir = direction.normalized();
    const Segment2 ray{origin, origin + dir * max_range};
    std::optional<double> best;
    for (const auto &obs : obstacles) {
        const OrientedBox2 box = obs.footprintAt(t);
        if (contains(box, origin)) {
            return 0.0;
        }
        const auto cs = corners(box);
        for (std::size_t i = 0; i < 4; ++i) {
            const Segment2 edge{cs[i], cs[(i + 1) % 4]};
            if (const auto hit = ray.intersect(edge)) {
                const double d = origin.distanceTo(*hit);
                if (!best || d < *best)
                    best = d;
            }
        }
    }
    return best;
}

} // namespace sov::oracle
