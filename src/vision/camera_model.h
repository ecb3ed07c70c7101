/**
 * @file
 * Pinhole camera geometry shared by the renderer, stereo matcher, and
 * VIO measurement model.
 *
 * Frames: the *vehicle body* frame is x-forward / y-left / z-up; the
 * *camera* frame is the usual optical convention z-forward / x-right /
 * y-down. A camera is mounted on the body with an extrinsic offset.
 */
#pragma once

#include <optional>

#include "math/geometry.h"
#include "math/quat.h"
#include "math/vec.h"

namespace sov {

/** Pinhole intrinsics (no distortion; our synthetic optics are ideal). */
struct CameraIntrinsics
{
    double fx = 270.0;
    double fy = 270.0;
    double cx = 160.0;
    double cy = 120.0;
    std::size_t width = 320;
    std::size_t height = 240;
};

/** A pixel observation. */
struct Pixel
{
    double u = 0.0;
    double v = 0.0;
};

/** Pose of a camera in the world. */
struct CameraPose
{
    Vec3 position;    //!< optical center in world frame
    Quat world_from_camera; //!< rotates camera-frame vectors into world
};

/** Pinhole camera with body-mounted extrinsics. */
class CameraModel
{
  public:
    CameraModel() = default;
    CameraModel(const CameraIntrinsics &intrinsics,
                const Vec3 &mount_offset, double mount_yaw = 0.0)
        : intrinsics_(intrinsics), mount_offset_(mount_offset),
          mount_yaw_(mount_yaw) {}

    const CameraIntrinsics &intrinsics() const { return intrinsics_; }

    /**
     * World-frame camera pose when the vehicle body is at @p body
     * (planar pose, camera mounted at mount_offset in body frame,
     * looking along body +x rotated by mount_yaw).
     */
    CameraPose poseAt(const Pose2 &body, double mount_height = 1.5) const;

    /**
     * Project a world point.
     * @return Pixel if the point is in front of the camera and inside
     *         the image, plus its depth (z in camera frame).
     */
    std::optional<std::pair<Pixel, double>>
    project(const CameraPose &pose, const Vec3 &world_point) const;

    /** Back-project pixel at depth z into the world frame. */
    Vec3 backproject(const CameraPose &pose, const Pixel &px,
                     double depth) const;

    /** Unit ray direction (world frame) through a pixel. */
    Vec3 rayDirection(const CameraPose &pose, const Pixel &px) const;

  private:
    CameraIntrinsics intrinsics_;
    Vec3 mount_offset_{0.0, 0.0, 0.0};
    double mount_yaw_ = 0.0;
};

/** A stereo pair: two identical cameras separated by a baseline. */
struct StereoRig
{
    CameraModel left;
    CameraModel right;
    double baseline = 0.5; //!< meters

    /**
     * Build a forward-facing rig centered on the body x-axis.
     * Left camera at +baseline/2 on body y (left), right at -baseline/2.
     */
    static StereoRig forwardFacing(const CameraIntrinsics &intrinsics,
                                   double baseline,
                                   double forward_offset = 1.0);

    /** Depth implied by a disparity (left.u - right.u). */
    double
    depthFromDisparity(double disparity) const
    {
        return disparity > 1e-9
            ? left.intrinsics().fx * baseline / disparity : 1e9;
    }
};

} // namespace sov
