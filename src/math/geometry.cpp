#include "math/geometry.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sov {

double
wrapAngle(double radians)
{
    double a = std::fmod(radians + M_PI, 2.0 * M_PI);
    if (a <= 0.0)
        a += 2.0 * M_PI;
    return a - M_PI;
}

Vec2
Pose2::transform(const Vec2 &local) const
{
    const double c = std::cos(heading), s = std::sin(heading);
    return Vec2(position.x() + c * local.x() - s * local.y(),
                position.y() + s * local.x() + c * local.y());
}

Vec2
Pose2::inverseTransform(const Vec2 &world) const
{
    const double c = std::cos(heading), s = std::sin(heading);
    const Vec2 d = world - position;
    return Vec2(c * d.x() + s * d.y(), -s * d.x() + c * d.y());
}

Vec2
Pose2::direction() const
{
    return Vec2(std::cos(heading), std::sin(heading));
}

Vec2
Segment2::closestPoint(const Vec2 &p) const
{
    const Vec2 ab = b - a;
    const double len2 = ab.squaredNorm();
    if (len2 < 1e-18)
        return a;
    double t = (p - a).dot(ab) / len2;
    t = std::clamp(t, 0.0, 1.0);
    return a + ab * t;
}

double
Segment2::distanceTo(const Vec2 &p) const
{
    return p.distanceTo(closestPoint(p));
}

std::optional<Vec2>
Segment2::intersect(const Segment2 &o) const
{
    const Vec2 r = b - a;
    const Vec2 s = o.b - o.a;
    const double denom = r.x() * s.y() - r.y() * s.x();
    if (std::fabs(denom) < 1e-14)
        return std::nullopt; // parallel (collinear overlap not reported)
    const Vec2 qp = o.a - a;
    const double t = (qp.x() * s.y() - qp.y() * s.x()) / denom;
    const double u = (qp.x() * r.y() - qp.y() * r.x()) / denom;
    if (t < 0.0 || t > 1.0 || u < 0.0 || u > 1.0)
        return std::nullopt;
    return a + r * t;
}

bool
Aabb2::contains(const Vec2 &p) const
{
    return p.x() >= lo.x() && p.x() <= hi.x() &&
           p.y() >= lo.y() && p.y() <= hi.y();
}

bool
Aabb2::overlaps(const Aabb2 &o) const
{
    return lo.x() <= o.hi.x() && hi.x() >= o.lo.x() &&
           lo.y() <= o.hi.y() && hi.y() >= o.lo.y();
}

BoxFrame
BoxFrame::of(const OrientedBox2 &box)
{
    // Pose2::transform's and Pose2::direction's arithmetic, sharing the
    // one cos/sin pair across all four corners and both axes.
    const double c = std::cos(box.pose.heading);
    const double s = std::sin(box.pose.heading);
    const Vec2 &p = box.pose.position;
    const auto at = [&](double lx, double ly) {
        return Vec2(p.x() + c * lx - s * ly, p.y() + s * lx + c * ly);
    };
    const double l = box.half_length, w = box.half_width;
    return BoxFrame{p,
                    l,
                    w,
                    box.circumradius(),
                    {at(l, w), at(-l, w), at(-l, -w), at(l, -w)},
                    Vec2(c, s),
                    Vec2(-s, c)};
}

bool
BoxFrame::contains(const Vec2 &p) const
{
    // Pose2::inverseTransform's arithmetic.
    const double c = axis.x(), s = axis.y();
    const Vec2 d = p - center;
    const Vec2 local(c * d.x() + s * d.y(), -s * d.x() + c * d.y());
    return std::fabs(local.x()) <= half_length &&
           std::fabs(local.y()) <= half_width;
}

namespace {

/** Project both boxes' corners onto @p axis; true if ranges overlap. */
bool
axisOverlap(const Vec2 &axis, const std::array<Vec2, 4> &ca,
            const std::array<Vec2, 4> &cb)
{
    auto range = [&axis](const std::array<Vec2, 4> &cs) {
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

bool
satOverlap(const BoxFrame &a, const BoxFrame &b)
{
    for (const Vec2 &axis : {a.axis, a.normal, b.axis, b.normal}) {
        if (!axisOverlap(axis, a.corners, b.corners))
            return false;
    }
    return true;
}

/** Squared distance from @p p to the edge from @p a along @p ab
 *  (Segment2::closestPoint's arithmetic, with ab and |ab|^2 hoisted). */
double
edgeDistance2(const Vec2 &a, const Vec2 &ab, double len2, const Vec2 &p)
{
    Vec2 cp = a;
    if (!(len2 < 1e-18)) {
        const double t = std::clamp((p - a).dot(ab) / len2, 0.0, 1.0);
        cp = a + ab * t;
    }
    return (p - cp).squaredNorm();
}

/**
 * A corner of one box in the other box's frame: its local coordinates
 * and how far beyond the other box's extents it lies on each axis.
 * The pruning pass reads the other box's rectangle from these instead
 * of its float edges. No member initializers: localCorner() sets every
 * field, and zeroing boxGap()'s eight entries first cost about a third
 * of each call.
 */
struct LocalCorner
{
    double x;
    double y;
    double out_x; //!< max(|x| - |half_length|, 0)
    double out_y; //!< max(|y| - |half_width|, 0)
    double near2; //!< squared distance to the rectangle (0 inside)
};

inline LocalCorner
localCorner(const BoxFrame &box, const Vec2 &p)
{
    LocalCorner lc;
    const Vec2 d = p - box.center;
    lc.x = d.dot(box.axis);
    lc.y = d.dot(box.normal);
    lc.out_x = std::max(std::fabs(lc.x) - std::fabs(box.half_length), 0.0);
    lc.out_y = std::max(std::fabs(lc.y) - std::fabs(box.half_width), 0.0);
    lc.near2 = lc.out_x * lc.out_x + lc.out_y * lc.out_y;
    return lc;
}

/**
 * Fold into @p best the squared distance from corner @p p (at @p lc in
 * @p box's frame) to each edge of @p box whose local estimate is within
 * @p keep2. Edge j runs from corner j to corner j + 1: along y = +w,
 * x = -l, y = -w and x = +l of the box's frame.
 */
inline void
foldCorner(const Vec2 &p, const LocalCorner &lc, const BoxFrame &box,
           double keep2, double &best)
{
    const double l = box.half_length, w = box.half_width;
    const double ox2 = lc.out_x * lc.out_x, oy2 = lc.out_y * lc.out_y;
    const double estimate[4] = {
        ox2 + (lc.y - w) * (lc.y - w),
        (lc.x + l) * (lc.x + l) + oy2,
        ox2 + (lc.y + w) * (lc.y + w),
        (lc.x - l) * (lc.x - l) + oy2,
    };
    for (std::size_t j = 0; j < 4; ++j) {
        if (!(estimate[j] <= keep2))
            continue;
        const Vec2 &a = box.corners[j];
        const Vec2 ab = box.corners[(j + 1) % 4] - a;
        best = std::min(best, edgeDistance2(a, ab, ab.squaredNorm(), p));
    }
}

} // namespace

double
boxGap(const BoxFrame &a, const BoxFrame &b)
{
    if (!discsApart(a.center, a.radius, b.center, b.radius) &&
        satOverlap(a, b))
        return 0.0;
    // The gap is the minimum over the 32 corner-to-edge distances
    // (every corner of each box against every edge of the other), as a
    // minimum over squared distances with one sqrt at the end: sqrt is
    // monotone and correctly rounded, so that equals the minimum of
    // the 32 distances bit for bit. Each pair's distance is estimated
    // in the edge owner's frame, against its exact rectangle, to within
    // rounding. A pair whose estimate exceeds the least corner
    // estimate by more than circleSlack() cannot hold the minimum, so
    // only the others run the float edge distance (DESIGN.md "Box
    // geometry").
    std::array<LocalCorner, 8> local;
    double least = std::numeric_limits<double>::max();
    for (std::size_t k = 0; k < 4; ++k) {
        local[k] = localCorner(b, a.corners[k]);
        local[k + 4] = localCorner(a, b.corners[k]);
        least = std::min({least, local[k].near2, local[k + 4].near2});
    }
    const double scale =
        std::max({std::fabs(a.center.x()), std::fabs(a.center.y()),
                  std::fabs(b.center.x()), std::fabs(b.center.y())}) +
        a.radius + b.radius;
    const double keep = std::sqrt(least) + circleSlack(scale);
    const double keep2 = keep * keep;
    double best = std::numeric_limits<double>::max();
    for (std::size_t k = 0; k < 4; ++k) {
        if (local[k].near2 <= keep2)
            foldCorner(a.corners[k], local[k], b, keep2, best);
        if (local[k + 4].near2 <= keep2)
            foldCorner(b.corners[k], local[k + 4], a, keep2, best);
    }
    return std::sqrt(best);
}

Ray2::Ray2(const Vec2 &origin, const Vec2 &unit_direction, double max_range)
    : origin(origin),
      segment{origin, origin + unit_direction * max_range},
      scale(std::max(std::fabs(origin.x()), std::fabs(origin.y())) +
            max_range)
{
}

bool
Ray2::clears(const Vec2 &c, double r) const
{
    const double s =
        std::max({scale, std::fabs(c.x()), std::fabs(c.y())}) + r;
    return segment.distanceTo(c) > r + circleSlack(s);
}

std::optional<double>
Ray2::hit(const BoxFrame &box) const
{
    // Each corner's side of the ray's line: Segment2::intersect's
    // numerator for the edge that starts there, bit for bit. An edge
    // whose two ends lie on one side, both beyond the slack, has its
    // edge parameter outside [0, 1] in floating point too, so its
    // intersect would miss (DESIGN.md "Box geometry").
    const Vec2 r = segment.b - segment.a;
    std::array<double, 4> side;
    for (std::size_t k = 0; k < 4; ++k) {
        const Vec2 q = box.corners[k] - segment.a;
        side[k] = q.x() * r.y() - q.y() * r.x();
    }
    const double s = std::max({scale, std::fabs(box.center.x()),
                               std::fabs(box.center.y())}) +
        box.radius;
    const double clear =
        (std::fabs(r.x()) + std::fabs(r.y())) * circleSlack(s);
    const auto apart = [&](std::size_t i, std::size_t j) {
        return (side[i] > clear && side[j] > clear) ||
            (side[i] < -clear && side[j] < -clear);
    };
    // A box wholly on one side holds no point of the line.
    if (apart(0, 1) && apart(2, 3) && apart(0, 2))
        return std::nullopt;
    // A ray starting inside a box hits at distance 0.
    if (box.contains(origin))
        return 0.0;
    std::optional<double> best;
    for (std::size_t i = 0; i < 4; ++i) {
        if (apart(i, (i + 1) % 4))
            continue;
        const Segment2 edge{box.corners[i], box.corners[(i + 1) % 4]};
        if (const auto at = segment.intersect(edge)) {
            const double d = origin.distanceTo(*at);
            if (!best || d < *best)
                best = d;
        }
    }
    return best;
}

std::array<Vec2, 4>
OrientedBox2::corners() const
{
    return BoxFrame::of(*this).corners;
}

bool
OrientedBox2::overlaps(const OrientedBox2 &o) const
{
    return !discsApart(pose.position, circumradius(), o.pose.position,
                       o.circumradius()) &&
           satOverlap(BoxFrame::of(*this), BoxFrame::of(o));
}

double
OrientedBox2::distanceTo(const OrientedBox2 &o) const
{
    return boxGap(BoxFrame::of(*this), BoxFrame::of(o));
}

bool
OrientedBox2::contains(const Vec2 &p) const
{
    return BoxFrame::of(*this).contains(p);
}

Polyline2::Polyline2(std::vector<Vec2> points) : points_(std::move(points))
{
    cumlen_.reserve(points_.size());
    double s = 0.0;
    for (std::size_t i = 0; i < points_.size(); ++i) {
        if (i > 0)
            s += points_[i].distanceTo(points_[i - 1]);
        cumlen_.push_back(s);
    }
}

double
Polyline2::length() const
{
    return cumlen_.empty() ? 0.0 : cumlen_.back();
}

void
Polyline2::append(const Vec2 &p)
{
    double s = 0.0;
    if (!points_.empty())
        s = cumlen_.back() + p.distanceTo(points_.back());
    points_.push_back(p);
    cumlen_.push_back(s);
}

Vec2
Polyline2::sample(double s) const
{
    SOV_ASSERT(!points_.empty());
    if (points_.size() == 1 || s <= 0.0)
        return points_.front();
    if (s >= length())
        return points_.back();
    // Binary search the segment containing arc length s.
    const auto it = std::upper_bound(cumlen_.begin(), cumlen_.end(), s);
    const std::size_t i = static_cast<std::size_t>(it - cumlen_.begin());
    const double seg_start = cumlen_[i - 1];
    const double seg_len = cumlen_[i] - seg_start;
    const double t = seg_len > 0.0 ? (s - seg_start) / seg_len : 0.0;
    return points_[i - 1] + (points_[i] - points_[i - 1]) * t;
}

double
Polyline2::headingAt(double s) const
{
    SOV_ASSERT(points_.size() >= 2);
    const double clamped = std::clamp(s, 0.0, length());
    auto it = std::upper_bound(cumlen_.begin(), cumlen_.end(), clamped);
    std::size_t i = static_cast<std::size_t>(it - cumlen_.begin());
    if (i >= points_.size())
        i = points_.size() - 1;
    if (i == 0)
        i = 1;
    const Vec2 d = points_[i] - points_[i - 1];
    return std::atan2(d.y(), d.x());
}

std::pair<double, double>
Polyline2::project(const Vec2 &p) const
{
    SOV_ASSERT(points_.size() >= 2);
    double best_dist2 = std::numeric_limits<double>::max();
    double best_s = 0.0;
    double best_side = 0.0;
    for (std::size_t i = 1; i < points_.size(); ++i) {
        const Segment2 seg{points_[i - 1], points_[i]};
        const Vec2 cp = seg.closestPoint(p);
        const double d2 = (p - cp).squaredNorm();
        if (d2 < best_dist2) {
            best_dist2 = d2;
            best_s = cumlen_[i - 1] + cp.distanceTo(points_[i - 1]);
            const Vec2 dir = points_[i] - points_[i - 1];
            const Vec2 off = p - cp;
            // Positive lateral offset = left of travel direction.
            best_side = dir.x() * off.y() - dir.y() * off.x() >= 0.0
                ? std::sqrt(d2) : -std::sqrt(d2);
        }
    }
    return {best_s, best_side};
}

} // namespace sov
