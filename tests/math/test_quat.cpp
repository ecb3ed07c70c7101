#include <gtest/gtest.h>

#include <cmath>

#include "math/quat.h"

namespace sov {
namespace {

TEST(Quat, IdentityRotatesNothing)
{
    const Quat q = Quat::identity();
    const Vec3 v(1.0, -2.0, 3.0);
    const Vec3 r = q.rotate(v);
    EXPECT_NEAR(r.x(), v.x(), 1e-15);
    EXPECT_NEAR(r.y(), v.y(), 1e-15);
    EXPECT_NEAR(r.z(), v.z(), 1e-15);
}

TEST(Quat, YawRotation)
{
    const Quat q = Quat::fromYaw(M_PI / 2.0);
    const Vec3 r = q.rotate(Vec3(1.0, 0.0, 0.0));
    EXPECT_NEAR(r.x(), 0.0, 1e-12);
    EXPECT_NEAR(r.y(), 1.0, 1e-12);
    EXPECT_NEAR(r.z(), 0.0, 1e-12);
    EXPECT_NEAR(q.yaw(), M_PI / 2.0, 1e-12);
}

TEST(Quat, CompositionMatchesSequentialRotation)
{
    const Quat q1 = Quat::fromAxisAngle(Vec3(0.3, -0.2, 0.5));
    const Quat q2 = Quat::fromAxisAngle(Vec3(-0.1, 0.4, 0.2));
    const Vec3 v(1.0, 2.0, 3.0);
    const Vec3 a = (q1 * q2).rotate(v);
    const Vec3 b = q1.rotate(q2.rotate(v));
    EXPECT_NEAR(a.x(), b.x(), 1e-12);
    EXPECT_NEAR(a.y(), b.y(), 1e-12);
    EXPECT_NEAR(a.z(), b.z(), 1e-12);
}

TEST(Quat, ConjugateInverts)
{
    const Quat q = Quat::fromAxisAngle(Vec3(0.7, 0.1, -0.4));
    const Vec3 v(0.5, -1.5, 2.0);
    const Vec3 r = q.conjugate().rotate(q.rotate(v));
    EXPECT_NEAR(r.x(), v.x(), 1e-12);
    EXPECT_NEAR(r.y(), v.y(), 1e-12);
    EXPECT_NEAR(r.z(), v.z(), 1e-12);
}

TEST(Quat, ExpLogRoundTrip)
{
    const Vec3 w(0.1, -0.7, 0.3);
    const Vec3 back = Quat::fromAxisAngle(w).toRotationVector();
    EXPECT_NEAR(back.x(), w.x(), 1e-12);
    EXPECT_NEAR(back.y(), w.y(), 1e-12);
    EXPECT_NEAR(back.z(), w.z(), 1e-12);
}

TEST(Quat, SmallAngleStability)
{
    const Vec3 w(1e-14, 0.0, 0.0);
    const Quat q = Quat::fromAxisAngle(w);
    EXPECT_NEAR(q.norm(), 1.0, 1e-12);
    EXPECT_NEAR(q.toRotationVector().norm(), w.norm(), 1e-12);
}

TEST(Quat, AngularDistance)
{
    const Quat a = Quat::fromYaw(0.2);
    const Quat b = Quat::fromYaw(0.5);
    EXPECT_NEAR(a.angularDistance(b), 0.3, 1e-12);
    EXPECT_NEAR(a.angularDistance(a), 0.0, 1e-12);
}

TEST(Quat, NormalizedRestoresUnitNorm)
{
    Quat q(2.0, 0.0, 0.0, 0.0);
    EXPECT_NEAR(q.normalized().norm(), 1.0, 1e-15);
    EXPECT_NEAR(q.normalized().w(), 1.0, 1e-15);
}

} // namespace
} // namespace sov
