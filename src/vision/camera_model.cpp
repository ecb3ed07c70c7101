#include "vision/camera_model.h"

#include <cmath>

#include "core/logging.h"
#include "math/matrix.h"

namespace sov {

CameraPose
CameraModel::poseAt(const Pose2 &body, double mount_height) const
{
    CameraPose pose;
    const Vec2 offset2 =
        body.transform(Vec2(mount_offset_.x(), mount_offset_.y()));
    pose.position = Vec3(offset2.x(), offset2.y(),
                         mount_height + mount_offset_.z());

    // Body-to-world yaw plus the mount yaw gives the optical axis
    // direction in the world; then map optical axes (z-forward,
    // x-right, y-down) onto world axes.
    const double yaw = body.heading + mount_yaw_;
    // Columns: camera x (right) = world -left = (sin, -cos, 0);
    // camera y (down) = (0, 0, -1); camera z (forward) = (cos, sin, 0).
    const double c = std::cos(yaw), s = std::sin(yaw);
    const Matrix r{{s, 0.0, c},
                   {-c, 0.0, s},
                   {0.0, -1.0, 0.0}};
    // Convert the rotation matrix to a quaternion via the yaw/roll
    // composition that generates it: R = Rz(yaw) * (axes permutation).
    // The fixed permutation maps camera axes to the body convention:
    // it equals Rz(-90deg about camera z?) — simplest: build from the
    // matrix directly.
    // Quaternion from rotation matrix (Shepperd's method, w-major).
    const double trace = r(0, 0) + r(1, 1) + r(2, 2);
    Quat q;
    if (trace > 0.0) {
        const double s4 = 2.0 * std::sqrt(1.0 + trace);
        q = Quat(0.25 * s4, (r(2, 1) - r(1, 2)) / s4,
                 (r(0, 2) - r(2, 0)) / s4, (r(1, 0) - r(0, 1)) / s4);
    } else if (r(0, 0) > r(1, 1) && r(0, 0) > r(2, 2)) {
        const double s4 = 2.0 * std::sqrt(1.0 + r(0, 0) - r(1, 1) - r(2, 2));
        q = Quat((r(2, 1) - r(1, 2)) / s4, 0.25 * s4,
                 (r(0, 1) + r(1, 0)) / s4, (r(0, 2) + r(2, 0)) / s4);
    } else if (r(1, 1) > r(2, 2)) {
        const double s4 = 2.0 * std::sqrt(1.0 + r(1, 1) - r(0, 0) - r(2, 2));
        q = Quat((r(0, 2) - r(2, 0)) / s4, (r(0, 1) + r(1, 0)) / s4,
                 0.25 * s4, (r(1, 2) + r(2, 1)) / s4);
    } else {
        const double s4 = 2.0 * std::sqrt(1.0 + r(2, 2) - r(0, 0) - r(1, 1));
        q = Quat((r(1, 0) - r(0, 1)) / s4, (r(0, 2) + r(2, 0)) / s4,
                 (r(1, 2) + r(2, 1)) / s4, 0.25 * s4);
    }
    pose.world_from_camera = q.normalized();
    return pose;
}

std::optional<std::pair<Pixel, double>>
CameraModel::project(const CameraPose &pose, const Vec3 &world_point) const
{
    const Vec3 cam = pose.world_from_camera.conjugate().rotate(
        world_point - pose.position);
    if (cam.z() <= 0.05)
        return std::nullopt; // behind or too close to the lens
    Pixel px;
    px.u = intrinsics_.fx * cam.x() / cam.z() + intrinsics_.cx;
    px.v = intrinsics_.fy * cam.y() / cam.z() + intrinsics_.cy;
    if (px.u < 0.0 || px.u >= static_cast<double>(intrinsics_.width) ||
        px.v < 0.0 || px.v >= static_cast<double>(intrinsics_.height)) {
        return std::nullopt;
    }
    return std::make_pair(px, cam.z());
}

Vec3
CameraModel::backproject(const CameraPose &pose, const Pixel &px,
                         double depth) const
{
    SOV_ASSERT(depth > 0.0);
    const Vec3 cam((px.u - intrinsics_.cx) / intrinsics_.fx * depth,
                   (px.v - intrinsics_.cy) / intrinsics_.fy * depth,
                   depth);
    return pose.world_from_camera.rotate(cam) + pose.position;
}

Vec3
CameraModel::rayDirection(const CameraPose &pose, const Pixel &px) const
{
    const Vec3 cam((px.u - intrinsics_.cx) / intrinsics_.fx,
                   (px.v - intrinsics_.cy) / intrinsics_.fy, 1.0);
    return pose.world_from_camera.rotate(cam).normalized();
}

StereoRig
StereoRig::forwardFacing(const CameraIntrinsics &intrinsics,
                         double baseline, double forward_offset)
{
    StereoRig rig;
    rig.baseline = baseline;
    rig.left = CameraModel(intrinsics,
                           Vec3(forward_offset, baseline / 2.0, 0.0));
    rig.right = CameraModel(intrinsics,
                            Vec3(forward_offset, -baseline / 2.0, 0.0));
    return rig;
}

} // namespace sov
