#include <gtest/gtest.h>

#include <cmath>

#include "vision/camera_model.h"

namespace sov {
namespace {

TEST(CameraModel, ForwardPointProjectsToPrincipalPoint)
{
    const CameraModel cam(CameraIntrinsics{}, Vec3(0, 0, 0));
    const CameraPose pose = cam.poseAt(Pose2{Vec2(0, 0), 0.0}, 1.5);
    // A point straight ahead at camera height.
    const auto proj = cam.project(pose, Vec3(10.0, 0.0, 1.5));
    ASSERT_TRUE(proj.has_value());
    EXPECT_NEAR(proj->first.u, 160.0, 1e-9);
    EXPECT_NEAR(proj->first.v, 120.0, 1e-9);
    EXPECT_NEAR(proj->second, 10.0, 1e-9);
}

TEST(CameraModel, LeftOfVehicleProjectsLeftInImage)
{
    const CameraModel cam(CameraIntrinsics{}, Vec3(0, 0, 0));
    const CameraPose pose = cam.poseAt(Pose2{Vec2(0, 0), 0.0}, 1.5);
    // World +y is vehicle-left; should appear at u < cx.
    const auto proj = cam.project(pose, Vec3(10.0, 2.0, 1.5));
    ASSERT_TRUE(proj.has_value());
    EXPECT_LT(proj->first.u, 160.0);
}

TEST(CameraModel, AbovePointProjectsUp)
{
    const CameraModel cam(CameraIntrinsics{}, Vec3(0, 0, 0));
    const CameraPose pose = cam.poseAt(Pose2{Vec2(0, 0), 0.0}, 1.5);
    // Higher than the camera -> v < cy (image y is down).
    const auto proj = cam.project(pose, Vec3(10.0, 0.0, 3.0));
    ASSERT_TRUE(proj.has_value());
    EXPECT_LT(proj->first.v, 120.0);
}

TEST(CameraModel, BehindCameraRejected)
{
    const CameraModel cam(CameraIntrinsics{}, Vec3(0, 0, 0));
    const CameraPose pose = cam.poseAt(Pose2{Vec2(0, 0), 0.0}, 1.5);
    EXPECT_FALSE(cam.project(pose, Vec3(-5.0, 0.0, 1.5)).has_value());
}

TEST(CameraModel, OutOfImageRejected)
{
    const CameraModel cam(CameraIntrinsics{}, Vec3(0, 0, 0));
    const CameraPose pose = cam.poseAt(Pose2{Vec2(0, 0), 0.0}, 1.5);
    // Far to the side at close range.
    EXPECT_FALSE(cam.project(pose, Vec3(1.0, 5.0, 1.5)).has_value());
}

TEST(CameraModel, BackprojectRoundTrip)
{
    const CameraModel cam(CameraIntrinsics{}, Vec3(0.5, 0.2, 0.0));
    const CameraPose pose =
        cam.poseAt(Pose2{Vec2(3.0, -2.0), 0.7}, 1.5);
    const Vec3 world(15.0, 3.0, 1.0);
    const auto proj = cam.project(pose, world);
    ASSERT_TRUE(proj.has_value());
    const Vec3 back = cam.backproject(pose, proj->first, proj->second);
    EXPECT_NEAR(back.x(), world.x(), 1e-9);
    EXPECT_NEAR(back.y(), world.y(), 1e-9);
    EXPECT_NEAR(back.z(), world.z(), 1e-9);
}

TEST(CameraModel, VehicleYawRotatesView)
{
    const CameraModel cam(CameraIntrinsics{}, Vec3(0, 0, 0));
    // Vehicle facing +y; a point along +y is straight ahead.
    const CameraPose pose =
        cam.poseAt(Pose2{Vec2(0, 0), M_PI / 2.0}, 1.5);
    const auto proj = cam.project(pose, Vec3(0.0, 10.0, 1.5));
    ASSERT_TRUE(proj.has_value());
    EXPECT_NEAR(proj->first.u, 160.0, 1e-9);
}

TEST(CameraModel, RayDirectionMatchesProjection)
{
    const CameraModel cam(CameraIntrinsics{}, Vec3(0, 0, 0));
    const CameraPose pose = cam.poseAt(Pose2{Vec2(0, 0), 0.3}, 1.5);
    const Vec3 world(12.0, 5.0, 2.0);
    const auto proj = cam.project(pose, world);
    ASSERT_TRUE(proj.has_value());
    const Vec3 ray = cam.rayDirection(pose, proj->first);
    const Vec3 expected = (world - pose.position).normalized();
    EXPECT_NEAR(ray.dot(expected), 1.0, 1e-9);
}

TEST(StereoRig, GeometryAndDisparity)
{
    const StereoRig rig =
        StereoRig::forwardFacing(CameraIntrinsics{}, 0.5, 1.0);
    // Same world point seen by both cameras: left.u > right.u by f*B/Z.
    const Pose2 body{Vec2(0, 0), 0.0};
    const CameraPose lp = rig.left.poseAt(body, 1.5);
    const CameraPose rp = rig.right.poseAt(body, 1.5);
    const Vec3 point(21.0, 0.0, 1.5); // 20 m ahead of the cameras
    const auto lproj = rig.left.project(lp, point);
    const auto rproj = rig.right.project(rp, point);
    ASSERT_TRUE(lproj && rproj);
    const double disparity = lproj->first.u - rproj->first.u;
    EXPECT_NEAR(rig.depthFromDisparity(disparity), 20.0, 1e-9);
    // Same scanline (rectified).
    EXPECT_NEAR(lproj->first.v, rproj->first.v, 1e-9);
}

TEST(StereoRig, DisparityDepthInverse)
{
    const StereoRig rig =
        StereoRig::forwardFacing(CameraIntrinsics{}, 0.5);
    const double fb = rig.left.intrinsics().fx * rig.baseline;
    for (double z : {5.0, 10.0, 20.0, 40.0})
        EXPECT_NEAR(rig.depthFromDisparity(fb / z), z, 1e-9);
    // Zero disparity maps to "infinity".
    EXPECT_GT(rig.depthFromDisparity(0.0), 1e8);
}

} // namespace
} // namespace sov
