/**
 * @file
 * 2-D planar geometry: poses, segments, and intersection/projection
 * helpers used by the lane map, planner, and collision checker.
 */
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <vector>

#include "math/vec.h"

namespace sov {

/** Normalize an angle to (-pi, pi]. */
double wrapAngle(double radians);

/** Planar rigid-body pose: position plus heading. */
struct Pose2
{
    Vec2 position{0.0, 0.0};
    double heading = 0.0; //!< radians, CCW from +x

    /** Map a point from this pose's local frame to the world frame. */
    Vec2 transform(const Vec2 &local) const;

    /** Map a world-frame point into this pose's local frame. */
    Vec2 inverseTransform(const Vec2 &world) const;

    /** Unit heading vector. */
    Vec2 direction() const;
};

/** A 2-D line segment. */
struct Segment2
{
    Vec2 a;
    Vec2 b;

    double length() const { return a.distanceTo(b); }

    /** Closest point on the segment to @p p. */
    Vec2 closestPoint(const Vec2 &p) const;

    /** Distance from @p p to the segment. */
    double distanceTo(const Vec2 &p) const;

    /** Intersection point with another segment, if any. */
    std::optional<Vec2> intersect(const Segment2 &o) const;
};

/** Axis-aligned bounding box. */
struct Aabb2
{
    Vec2 lo;
    Vec2 hi;

    bool contains(const Vec2 &p) const;
    bool overlaps(const Aabb2 &o) const;
};

/**
 * Room left on every circumcircle rejection (box-box, ray-box and
 * prediction bounds). Each rejection stands in for exact SAT / edge
 * arithmetic, so a bound that holds in real arithmetic is only acted
 * on with this margin to spare: 1 um plus 1e-9 of @p scale, the
 * largest coordinate magnitude involved, far above the rounding of
 * the corner and projection arithmetic it replaces.
 */
inline double
circleSlack(double scale)
{
    return 1e-6 + 1e-9 * scale;
}

/**
 * True when the discs (@p a, @p ra) and (@p b, @p rb), each widened by
 * circleSlack(), are disjoint: anything inside the one provably stays
 * clear of anything inside the other.
 */
inline bool
discsApart(const Vec2 &a, double ra, const Vec2 &b, double rb)
{
    const double reach = ra + rb;
    const double scale = std::max({std::fabs(a.x()), std::fabs(a.y()),
                                   std::fabs(b.x()), std::fabs(b.y())}) +
        reach;
    const double limit = reach + circleSlack(scale);
    return (a - b).squaredNorm() > limit * limit;
}

/** Oriented rectangle (vehicle/obstacle footprint). */
struct OrientedBox2
{
    Pose2 pose;          //!< center + heading
    double half_length;  //!< along heading
    double half_width;   //!< across heading

    /** The four corners, CCW, from one sin/cos pair. */
    std::array<Vec2, 4> corners() const;

    /** Radius of the circle through the corners (centred on pose). */
    double circumradius() const
    {
        return std::sqrt(half_length * half_length +
                         half_width * half_width);
    }

    /** Separating-axis overlap test against another box; boxes whose
     *  circumcircles are discsApart() skip the SAT. */
    bool overlaps(const OrientedBox2 &o) const;

    /** Containment test for a point. */
    bool contains(const Vec2 &p) const;

    /** Euclidean clearance to another box; 0 when they overlap
     *  (boxGap() on both boxes' frames). */
    double distanceTo(const OrientedBox2 &o) const;
};

/**
 * A box prepared for repeated gap, overlap and ray queries: the
 * centre, extents and circumradius the rejections read, plus the
 * corners and SAT axes from one cos/sin pair. A caller that queries
 * one box many times at one instant (the closed loop's gap monitor
 * and radar) builds its frame once and shares it.
 */
struct BoxFrame
{
    Vec2 center;
    double half_length = 0.0;
    double half_width = 0.0;
    double radius = 0.0;         //!< OrientedBox2::circumradius()
    std::array<Vec2, 4> corners; //!< CCW, as OrientedBox2::corners()
    Vec2 axis;                   //!< unit heading (cos, sin)
    Vec2 normal;                 //!< axis turned +90 degrees

    /** The frame of @p box. */
    static BoxFrame of(const OrientedBox2 &box);

    /** OrientedBox2::contains, on the prepared axes. */
    bool contains(const Vec2 &p) const;
};

/**
 * Clearance between two prepared boxes; 0 when they overlap. The one
 * box-gap routine: the minimum over corner-to-edge squared distances
 * and one sqrt, evaluated only for the corners that can hold the
 * minimum (DESIGN.md "Box geometry").
 */
double boxGap(const BoxFrame &a, const BoxFrame &b);

/**
 * A ray prepared for repeated box tests: the segment from @p origin
 * along a unit direction out to the range, and the coordinate scale
 * its circumcircle rejection allows for. The one ray-vs-box routine
 * behind WorldSnapshot::raycast and the radar corridor.
 */
struct Ray2
{
    Ray2(const Vec2 &origin, const Vec2 &unit_direction,
         double max_range);

    Vec2 origin;
    Segment2 segment;
    double scale; //!< largest |coordinate| of the origin, plus the range

    /** True when the disc (@p c, @p r), widened by circleSlack(),
     *  stays clear of the segment: no box inside it can contain the
     *  origin or cross the ray. */
    bool clears(const Vec2 &c, double r) const;

    /** Distance along the ray to @p box: 0 when the origin lies inside
     *  it, else the nearest edge crossing; nullopt when it misses. */
    std::optional<double> hit(const BoxFrame &box) const;
};

/**
 * Arc-length parameterized polyline; the backbone of lane center-lines
 * and planned paths.
 */
class Polyline2
{
  public:
    Polyline2() = default;
    explicit Polyline2(std::vector<Vec2> points);

    const std::vector<Vec2> &points() const { return points_; }
    std::size_t size() const { return points_.size(); }
    bool empty() const { return points_.empty(); }

    /** Total arc length. */
    double length() const;

    /** Point at arc length s (clamped to [0, length]). */
    Vec2 sample(double s) const;

    /** Tangent heading (radians) at arc length s. */
    double headingAt(double s) const;

    /**
     * Project a point onto the polyline.
     * @return (arc length of the projection, signed lateral offset);
     *         positive offset is to the left of travel direction.
     */
    std::pair<double, double> project(const Vec2 &p) const;

    /** Append a point, extending the cumulative length table. */
    void append(const Vec2 &p);

  private:
    std::vector<Vec2> points_;
    std::vector<double> cumlen_; //!< cumulative arc length at each vertex
};

} // namespace sov
