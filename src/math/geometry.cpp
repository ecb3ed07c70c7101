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

Pose2
Pose2::compose(const Pose2 &other) const
{
    return Pose2{transform(other.position),
                 wrapAngle(heading + other.heading)};
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

Aabb2
Aabb2::inflated(double margin) const
{
    return Aabb2{Vec2(lo.x() - margin, lo.y() - margin),
                 Vec2(hi.x() + margin, hi.y() + margin)};
}

namespace {

/** A box's corners and SAT axes, from one sin/cos pair. */
struct BoxFrame
{
    std::array<Vec2, 4> corners; //!< CCW, as OrientedBox2::corners()
    Vec2 axis;                   //!< unit heading
    Vec2 normal;                 //!< axis turned +90 degrees
};

/** Pose2::transform's and Pose2::direction's arithmetic, sharing the
 *  one cos/sin pair across all four corners and both axes. */
BoxFrame
frameOf(const OrientedBox2 &box)
{
    const double c = std::cos(box.pose.heading);
    const double s = std::sin(box.pose.heading);
    const Vec2 &p = box.pose.position;
    const auto at = [&](double lx, double ly) {
        return Vec2(p.x() + c * lx - s * ly, p.y() + s * lx + c * ly);
    };
    const double l = box.half_length, w = box.half_width;
    return BoxFrame{{at(l, w), at(-l, w), at(-l, -w), at(l, -w)},
                    Vec2(c, s), Vec2(-s, c)};
}

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

bool
circlesApart(const OrientedBox2 &a, const OrientedBox2 &b)
{
    return discsApart(a.pose.position, a.circumradius(), b.pose.position,
                      b.circumradius());
}

} // namespace

std::array<Vec2, 4>
OrientedBox2::corners() const
{
    return frameOf(*this).corners;
}

bool
OrientedBox2::overlaps(const OrientedBox2 &o) const
{
    return !circlesApart(*this, o) && satOverlap(frameOf(*this), frameOf(o));
}

double
OrientedBox2::distanceTo(const OrientedBox2 &o) const
{
    const BoxFrame a = frameOf(*this);
    const BoxFrame b = frameOf(o);
    if (!circlesApart(*this, o) && satOverlap(a, b))
        return 0.0;
    // Every corner of each box against every edge of the other. The
    // minimum is taken over squared distances with one sqrt at the
    // end: sqrt is monotone and correctly rounded, so this equals the
    // minimum of the 32 distances bit for bit.
    double best = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < 4; ++i) {
        const Vec2 &a0 = a.corners[i];
        const Vec2 &b0 = b.corners[i];
        const Vec2 ea = a.corners[(i + 1) % 4] - a0;
        const Vec2 eb = b.corners[(i + 1) % 4] - b0;
        const double la = ea.squaredNorm(), lb = eb.squaredNorm();
        for (std::size_t j = 0; j < 4; ++j) {
            best = std::min(best, edgeDistance2(a0, ea, la, b.corners[j]));
            best = std::min(best, edgeDistance2(b0, eb, lb, a.corners[j]));
        }
    }
    return std::sqrt(best);
}

bool
OrientedBox2::contains(const Vec2 &p) const
{
    const Vec2 local = pose.inverseTransform(p);
    return std::fabs(local.x()) <= half_length &&
           std::fabs(local.y()) <= half_width;
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
