#include <gtest/gtest.h>

#include "reactive_cycle.h"

namespace sov {
namespace {

/** Wall whose near face (toward -x) sits at @p face_x. */
World
worldWithWallFaceAt(double face_x)
{
    World world;
    Obstacle wall;
    wall.footprint =
        OrientedBox2{Pose2{Vec2(face_x + 1.0, 0.0), 0.0}, 1.0, 2.0};
    world.addObstacle(wall);
    return world;
}

struct Rig
{
    Simulator sim;
    VehicleDynamics car;
    Ecu ecu{sim, car};
    RadarModel radar{RadarConfig{}, Rng(1)};
    ReactivePath reactive{sim, ecu, radar};
};

TEST(ReactiveTrigger, FiresJustInsideThresholdNotJustOutside)
{
    // The trigger threshold is exact: the radar corridor raycast is
    // noise-free, so a face 1 cm beyond the trigger distance must not
    // fire and a face 1 cm inside must.
    const double speed = 5.6;
    {
        Rig rig;
        const double trigger = rig.reactive.triggerDistance(speed, 4.0);
        World world = worldWithWallFaceAt(trigger + 0.01);
        reactiveCycle(rig.reactive, world, Pose2{Vec2(0, 0), 0.0}, speed,
                      Timestamp::origin());
        rig.sim.run();
        EXPECT_EQ(rig.reactive.triggerCount(), 0u);
        EXPECT_FALSE(rig.ecu.emergencyLatched());
    }
    {
        Rig rig;
        const double trigger = rig.reactive.triggerDistance(speed, 4.0);
        World world = worldWithWallFaceAt(trigger - 0.01);
        reactiveCycle(rig.reactive, world, Pose2{Vec2(0, 0), 0.0}, speed,
                      Timestamp::origin());
        rig.sim.run();
        EXPECT_EQ(rig.reactive.triggerCount(), 1u);
        EXPECT_TRUE(rig.ecu.emergencyLatched());
    }
}

TEST(ReactiveTrigger, ThresholdSitsAtThePaperBoundary)
{
    // Sec. IV: reacting at ~4.1 m from the front sensor against the
    // ~4 m braking-distance floor. The trigger decomposes into
    // reaction distance + braking distance + margin + front overhang.
    Rig rig;
    const double trigger = rig.reactive.triggerDistance(5.6, 4.0);
    const double reaction = 5.6 * 0.030; // 11 ms path + 19 ms T_mech
    const double braking = 5.6 * 5.6 / (2.0 * 4.0);
    EXPECT_NEAR(trigger, reaction + braking + 0.15 + 1.3, 1e-9);
    EXPECT_NEAR(braking, 3.92, 1e-9); // the "4 m" physical floor
    // Seen from the front bumper: inside [4.0, 4.4] m, the paper's
    // "react to objects 4.1 m away" envelope.
    const double from_bumper = trigger - 1.3;
    EXPECT_GT(from_bumper, 4.0);
    EXPECT_LT(from_bumper, 4.4);
}

TEST(ReactiveRelease, HoldsWhileObstacleInsideReleaseDistance)
{
    // Hysteresis: a stopped vehicle with the path blocked closer than
    // release_distance keeps the brake latched, even though the
    // obstacle is outside the (speed 0) trigger distance.
    Rig rig;
    rig.ecu.emergencyBrake();
    rig.sim.run();
    ASSERT_TRUE(rig.ecu.emergencyLatched());

    World world = worldWithWallFaceAt(5.0); // < release_distance 6.0
    reactiveCycle(rig.reactive, world, Pose2{Vec2(0, 0), 0.0}, 0.0,
                  Timestamp::origin());
    rig.sim.run();
    EXPECT_TRUE(rig.ecu.emergencyLatched());
}

TEST(ReactiveRelease, ReleasesOnceObstacleBeyondReleaseDistance)
{
    Rig rig;
    rig.ecu.emergencyBrake();
    rig.sim.run();

    World world = worldWithWallFaceAt(7.0); // > release_distance 6.0
    reactiveCycle(rig.reactive, world, Pose2{Vec2(0, 0), 0.0}, 0.0,
                  Timestamp::origin());
    rig.sim.run();
    EXPECT_FALSE(rig.ecu.emergencyLatched());
}

TEST(ReactiveRelease, ReleasesWhenPathCompletelyClear)
{
    Rig rig;
    rig.ecu.emergencyBrake();
    rig.sim.run();

    World empty;
    reactiveCycle(rig.reactive, empty, Pose2{Vec2(0, 0), 0.0}, 0.0,
                  Timestamp::origin());
    rig.sim.run();
    EXPECT_FALSE(rig.ecu.emergencyLatched());
}

TEST(ReactiveRelease, NeverReleasesWhileStillMoving)
{
    // The release gate requires the vehicle to have stopped; a clear
    // path alone is not enough while the vehicle still moves.
    Rig rig;
    rig.ecu.emergencyBrake();
    rig.sim.run();

    World empty;
    reactiveCycle(rig.reactive, empty, Pose2{Vec2(0, 0), 0.0}, 2.0,
                  Timestamp::origin());
    rig.sim.run();
    EXPECT_TRUE(rig.ecu.emergencyLatched());
}

TEST(ReactiveRelease, BoundaryIsExclusiveAtReleaseDistance)
{
    // Release requires distance strictly greater than release_distance.
    Rig rig;
    rig.ecu.emergencyBrake();
    rig.sim.run();

    World world = worldWithWallFaceAt(6.0);
    reactiveCycle(rig.reactive, world, Pose2{Vec2(0, 0), 0.0}, 0.0,
                  Timestamp::origin());
    rig.sim.run();
    EXPECT_TRUE(rig.ecu.emergencyLatched());
}

} // namespace
} // namespace sov
