#include "sensors/radar.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/logging.h"

namespace sov {

std::vector<RadarDetection>
RadarModel::scan(const WorldSnapshot &world, const Pose2 &body,
                 const Vec2 &ego_velocity, Timestamp t)
{
    std::vector<RadarDetection> detections;
    if (dropout_filter_ && dropout_filter_(t))
        return detections;
    const double boresight = body.heading + config_.mount_yaw;

    for (const auto &obs : world.obstacles()) {
        const Vec2 rel = obs.positionAt(t) - body.position;
        const double range = rel.norm();
        if (range < 0.3 || range > config_.max_range)
            continue;
        const double bearing =
            wrapAngle(std::atan2(rel.y(), rel.x()) - boresight);
        if (std::fabs(bearing) > config_.fov / 2.0)
            continue;
        if (!rng_.bernoulli(config_.detection_probability))
            continue;

        // Radial velocity of the target relative to the ego vehicle.
        const Vec2 rel_vel = obs.velocity - ego_velocity;
        const Vec2 los = rel / range;
        const double vr = rel_vel.dot(los);

        RadarDetection det;
        det.trigger_time = t;
        det.range = range + rng_.gaussian(0.0, config_.range_noise);
        det.azimuth = bearing + rng_.gaussian(0.0, config_.azimuth_noise);
        det.radial_velocity =
            vr + rng_.gaussian(0.0, config_.velocity_noise);
        det.truth_id = obs.id;
        detections.push_back(det);
    }
    return detections;
}

namespace {

/** The three rays across the corridor (left, centre, right) along
 *  @p dir, the body's heading vector. */
std::array<Ray2, 3>
corridorRays(const Pose2 &body, const Vec2 &dir, double half_width,
             double max_range)
{
    SOV_ASSERT(max_range > 0.0);
    const Vec2 normal(-dir.y(), dir.x());
    const Vec2 unit = dir.normalized();
    const auto ray = [&](double lateral) {
        return Ray2(body.position + normal * lateral, unit, max_range);
    };
    return {ray(-half_width), ray(0.0), ray(half_width)};
}

/**
 * The radar's three parallel rays across the corridor, prepared once
 * per scan, with the one rejection that bounds all three: an obstacle
 * whose circumcircle, widened by the half-width, clears the centre ray
 * clears both side rays too (each is the centre ray shifted by at most
 * the half-width).
 */
class Corridor
{
  public:
    Corridor(const Pose2 &body, double half_width, double max_range)
        : Corridor(body, body.direction(), half_width, max_range)
    {
    }

    /**
     * True when the disc (@p c, @p r) clears every ray. The centre
     * ray's distance to @p c is at least the largest of its offset
     * across the ray, before the origin and beyond the end; that bound
     * must exceed r + |half_width| + 2 circleSlack(). One slack is the
     * margin Ray2::clears needs to prove that a ray misses the disc,
     * the other covers the rounding of the shifted origins and of this
     * bound (DESIGN.md "Box geometry").
     */
    bool
    clears(const Vec2 &c, double r) const
    {
        const Vec2 d = c - rays_[1].origin;
        const double along = d.dot(unit_);
        const double across =
            std::fabs(d.x() * unit_.y() - d.y() * unit_.x());
        const double s =
            std::max({scale_, std::fabs(c.x()), std::fabs(c.y())}) + r;
        return std::max({across, -along, along - range_}) >
            r + reach_ + 2.0 * circleSlack(s);
    }

    /** Fold @p box's hits on the three rays into @p best. Ray2::hit
     *  rejects a box off one side of a ray's line by itself, cheaper
     *  than Ray2::clears would. */
    void
    hit(const BoxFrame &box, std::optional<double> &best) const
    {
        for (const auto &ray : rays_) {
            const auto d = ray.hit(box);
            if (d && (!best || *d < *best))
                best = d;
        }
    }

  private:
    Corridor(const Pose2 &body, const Vec2 &dir, double half_width,
             double max_range)
        : rays_(corridorRays(body, dir, half_width, max_range)),
          unit_(dir.normalized()), range_(max_range),
          reach_(std::fabs(half_width)), scale_(rays_[1].scale + reach_)
    {
    }

    std::array<Ray2, 3> rays_;
    Vec2 unit_;
    double range_;
    double reach_;
    double scale_;
};

} // namespace

std::optional<double>
RadarModel::nearestInPath(const WorldSnapshot &world, const Pose2 &body,
                          double corridor_half_width, Timestamp t) const
{
    if (dropout_filter_ && dropout_filter_(t))
        return std::nullopt;
    const Corridor corridor(body, corridor_half_width, config_.max_range);
    std::optional<double> best;
    for (const Obstacle &obs : world.obstacles()) {
        const OrientedBox2 box = obs.footprintAt(t);
        if (corridor.clears(box.pose.position, box.circumradius()))
            continue;
        corridor.hit(BoxFrame::of(box), best);
    }
    return best;
}

std::optional<double>
RadarModel::nearestInPath(std::span<const BoxFrame> obstacles,
                          const Pose2 &body, double corridor_half_width,
                          Timestamp t) const
{
    if (dropout_filter_ && dropout_filter_(t))
        return std::nullopt;
    const Corridor corridor(body, corridor_half_width, config_.max_range);
    std::optional<double> best;
    for (const BoxFrame &box : obstacles) {
        if (!corridor.clears(box.center, box.radius))
            corridor.hit(box, best);
    }
    return best;
}

} // namespace sov
