/**
 * @file
 * Test-only reference copies of the allocating box geometry that
 * math/geometry.cpp used to ship: corners as a heap vector with one
 * sin/cos pair per corner, a SAT that rebuilds both boxes' corners,
 * and a box-box distance that rebuilds them again. The production
 * code must match these bit for bit; the bitwise oracle tests in
 * tests/{math,world,planning} compare the two with exact equality.
 */
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "math/geometry.h"

namespace sov::oracle {

inline std::vector<Vec2>
corners(const OrientedBox2 &box)
{
    return {
        box.pose.transform(Vec2(box.half_length, box.half_width)),
        box.pose.transform(Vec2(-box.half_length, box.half_width)),
        box.pose.transform(Vec2(-box.half_length, -box.half_width)),
        box.pose.transform(Vec2(box.half_length, -box.half_width)),
    };
}

/** Project corners of both boxes onto @p axis; true if ranges overlap. */
inline bool
axisOverlap(const Vec2 &axis, const std::vector<Vec2> &ca,
            const std::vector<Vec2> &cb)
{
    auto range = [&axis](const std::vector<Vec2> &cs) {
        double lo = cs[0].dot(axis), hi = lo;
        for (std::size_t i = 1; i < cs.size(); ++i) {
            const double v = cs[i].dot(axis);
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        return std::pair<double, double>(lo, hi);
    };
    const auto [alo, ahi] = range(ca);
    const auto [blo, bhi] = range(cb);
    return alo <= bhi && ahi >= blo;
}

inline bool
overlaps(const OrientedBox2 &a, const OrientedBox2 &o)
{
    const auto ca = corners(a);
    const auto cb = corners(o);
    const Vec2 axes[4] = {
        a.pose.direction(),
        Vec2(-a.pose.direction().y(), a.pose.direction().x()),
        o.pose.direction(),
        Vec2(-o.pose.direction().y(), o.pose.direction().x()),
    };
    for (const auto &axis : axes) {
        if (!axisOverlap(axis, ca, cb))
            return false;
    }
    return true;
}

inline double
distanceTo(const OrientedBox2 &a, const OrientedBox2 &o)
{
    if (overlaps(a, o))
        return 0.0;
    const auto ca = corners(a);
    const auto cb = corners(o);
    double best = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < 4; ++i) {
        const Segment2 ea{ca[i], ca[(i + 1) % 4]};
        const Segment2 eb{cb[i], cb[(i + 1) % 4]};
        for (std::size_t j = 0; j < 4; ++j) {
            best = std::min(best, ea.distanceTo(cb[j]));
            best = std::min(best, eb.distanceTo(ca[j]));
        }
    }
    return best;
}

/** The containment test as it stood: the point in the box's frame
 *  from Pose2::inverseTransform. */
inline bool
contains(const OrientedBox2 &box, const Vec2 &p)
{
    const Vec2 local = box.pose.inverseTransform(p);
    return std::fabs(local.x()) <= box.half_length &&
           std::fabs(local.y()) <= box.half_width;
}

/** Bit pattern of a double: exact equality that also tells -0 from +0. */
inline std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

} // namespace sov::oracle
