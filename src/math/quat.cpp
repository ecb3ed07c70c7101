#include "math/quat.h"

#include <cmath>

namespace sov {

Quat
Quat::fromAxisAngle(const Vec3 &rotation_vector)
{
    const double angle = rotation_vector.norm();
    if (angle < 1e-12)
        return Quat(1.0, 0.5 * rotation_vector.x(),
                    0.5 * rotation_vector.y(), 0.5 * rotation_vector.z())
            .normalized();
    const Vec3 axis = rotation_vector / angle;
    const double half = 0.5 * angle;
    const double s = std::sin(half);
    return Quat(std::cos(half), axis.x() * s, axis.y() * s, axis.z() * s);
}

Quat
Quat::fromYaw(double yaw_radians)
{
    return fromAxisAngle(Vec3(0.0, 0.0, yaw_radians));
}

Quat
Quat::operator*(const Quat &o) const
{
    return Quat(
        w_ * o.w_ - x_ * o.x_ - y_ * o.y_ - z_ * o.z_,
        w_ * o.x_ + x_ * o.w_ + y_ * o.z_ - z_ * o.y_,
        w_ * o.y_ - x_ * o.z_ + y_ * o.w_ + z_ * o.x_,
        w_ * o.z_ + x_ * o.y_ - y_ * o.x_ + z_ * o.w_);
}

double
Quat::norm() const
{
    return std::sqrt(w_ * w_ + x_ * x_ + y_ * y_ + z_ * z_);
}

Quat
Quat::normalized() const
{
    const double n = norm();
    SOV_ASSERT(n > 0.0);
    return Quat(w_ / n, x_ / n, y_ / n, z_ / n);
}

Vec3
Quat::rotate(const Vec3 &v) const
{
    // v' = v + 2*q_vec x (q_vec x v + w*v)
    const Vec3 qv(x_, y_, z_);
    const Vec3 t = qv.cross(v) * 2.0;
    return v + t * w_ + qv.cross(t);
}

double
Quat::yaw() const
{
    return std::atan2(2.0 * (w_ * z_ + x_ * y_),
                      1.0 - 2.0 * (y_ * y_ + z_ * z_));
}

Vec3
Quat::toRotationVector() const
{
    Quat q = *this;
    if (q.w_ < 0.0)
        q = Quat(-q.w_, -q.x_, -q.y_, -q.z_);
    const Vec3 qv(q.x_, q.y_, q.z_);
    const double sin_half = qv.norm();
    if (sin_half < 1e-12)
        return qv * 2.0;
    const double angle = 2.0 * std::atan2(sin_half, q.w_);
    return qv * (angle / sin_half);
}

double
Quat::angularDistance(const Quat &o) const
{
    return (conjugate() * o).toRotationVector().norm();
}

} // namespace sov
