/**
 * @file
 * Unit quaternion / SO(3) utilities for the IMU integration inside the
 * VIO estimator (Sec. IV, Table III: VIO localization).
 */
#pragma once

#include "math/vec.h"

namespace sov {

/** Unit quaternion representing a 3-D rotation (Hamilton convention). */
class Quat
{
  public:
    /** Identity rotation. */
    constexpr Quat() : w_(1.0), x_(0.0), y_(0.0), z_(0.0) {}

    constexpr Quat(double w, double x, double y, double z)
        : w_(w), x_(x), y_(y), z_(z) {}

    static Quat identity() { return Quat(); }

    /** Axis-angle exponential map: rotation of |w| radians about w/|w|. */
    static Quat fromAxisAngle(const Vec3 &rotation_vector);

    /** Rotation about Z (vehicle yaw, ENU convention). */
    static Quat fromYaw(double yaw_radians);

    double w() const { return w_; }
    double x() const { return x_; }
    double y() const { return y_; }
    double z() const { return z_; }

    /** Hamilton product: (this) then rotate-by... composition q1*q2. */
    Quat operator*(const Quat &o) const;

    Quat conjugate() const { return Quat(w_, -x_, -y_, -z_); }

    double norm() const;

    /** Return the nearest unit quaternion. */
    Quat normalized() const;

    /** Rotate a vector by this quaternion. */
    Vec3 rotate(const Vec3 &v) const;

    /** Yaw (rotation about Z) extracted from this rotation. */
    double yaw() const;

    /** Logarithmic map: rotation vector (axis * angle). */
    Vec3 toRotationVector() const;

    /** Angular distance to another rotation, in radians. */
    double angularDistance(const Quat &o) const;

  private:
    double w_, x_, y_, z_;
};

} // namespace sov
