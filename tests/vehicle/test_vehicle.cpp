#include <gtest/gtest.h>

#include <cmath>

#include "vehicle/can_bus.h"
#include "vehicle/dynamics.h"
#include "vehicle/ecu.h"
#include "vehicle/reactive.h"

#include "reactive_cycle.h"

namespace sov {
namespace {

TEST(Dynamics, BrakingDistanceMatchesTheory)
{
    // Sec. III-A: v = 5.6 m/s, a = 4 m/s^2 -> ~4 m braking distance.
    VehicleDynamics car;
    car.setSpeed(5.6);
    EXPECT_NEAR(car.brakingDistance(5.6), 3.92, 1e-9);

    ActuatorState brake;
    brake.emergency_brake = true;
    car.applyActuator(brake);
    for (int i = 0; i < 500; ++i)
        car.step(Duration::millisF(5.0));
    EXPECT_TRUE(car.stopped());
    EXPECT_NEAR(car.odometer(), 3.92, 0.02);
}

TEST(Dynamics, SpeedCapEnforced)
{
    VehicleDynamics car;
    ActuatorState full;
    full.acceleration = 1.5;
    car.applyActuator(full);
    for (int i = 0; i < 4000; ++i)
        car.step(Duration::millisF(10.0));
    EXPECT_NEAR(car.speed(), 8.94, 1e-9); // 20 mph cap
}

TEST(Dynamics, CurvatureTurnsHeading)
{
    VehicleDynamics car;
    car.setSpeed(5.0);
    ActuatorState steer;
    steer.curvature = 0.1; // 10 m radius
    car.applyActuator(steer);
    for (int i = 0; i < 100; ++i)
        car.step(Duration::millisF(10.0));
    // After 5 m of arc: heading = curvature * distance = 0.5 rad.
    EXPECT_NEAR(car.pose().heading, 0.1 * car.odometer(), 1e-9);
}

TEST(Dynamics, CommandsClampedToLimits)
{
    VehicleDynamics car;
    ActuatorState crazy;
    crazy.acceleration = 100.0;
    crazy.curvature = 5.0;
    car.applyActuator(crazy);
    car.setSpeed(1.0);
    car.step(Duration::millisF(100.0));
    // Accel clamped to 1.5 -> speed 1.15 after 0.1 s.
    EXPECT_NEAR(car.speed(), 1.15, 1e-9);
}

TEST(CanBus, DeliversAfterLatency)
{
    Simulator sim;
    VehicleDynamics car;
    CanBus bus(sim);
    Timestamp delivered;
    bus.connect([&](const ControlCommand &) { delivered = sim.now(); });

    ControlCommand cmd;
    sim.schedule(Duration::millisF(5.0), [&] { bus.transmit(cmd); });
    sim.run();
    EXPECT_DOUBLE_EQ(delivered.toMillis(), 6.0); // 5 + 1 ms CAN
    EXPECT_EQ(bus.framesSent(), 1u);
}

TEST(Ecu, AppliesCommandAfterMechanicalLatency)
{
    Simulator sim;
    VehicleDynamics car;
    car.setSpeed(5.0);
    Ecu ecu(sim, car);

    ControlCommand cmd;
    cmd.acceleration = -2.0;
    ecu.onCommand(cmd);
    // Before T_mech the actuator is untouched.
    sim.runUntil(Timestamp::millisF(18.0));
    car.step(Duration::zero());
    const double v_before = car.speed();
    EXPECT_DOUBLE_EQ(v_before, 5.0);
    sim.runUntil(Timestamp::millisF(25.0));
    car.step(Duration::millisF(100.0));
    EXPECT_NEAR(car.speed(), 4.8, 1e-9);
}

TEST(Ecu, EmergencyOverridesProactive)
{
    Simulator sim;
    VehicleDynamics car;
    car.setSpeed(5.0);
    Ecu ecu(sim, car);

    ecu.emergencyBrake();
    // A later proactive command must NOT override the latched brake.
    ControlCommand cmd;
    cmd.acceleration = 1.0;
    sim.schedule(Duration::millisF(5.0), [&] { ecu.onCommand(cmd); });
    sim.run();
    EXPECT_TRUE(ecu.emergencyLatched());
    for (int i = 0; i < 300; ++i)
        car.step(Duration::millisF(10.0));
    EXPECT_TRUE(car.stopped());
}

TEST(Ecu, ReleaseRestoresControl)
{
    Simulator sim;
    VehicleDynamics car;
    Ecu ecu(sim, car);
    ecu.emergencyBrake();
    sim.run();
    ecu.releaseEmergencyBrake();
    EXPECT_FALSE(ecu.emergencyLatched());
    ControlCommand cmd;
    cmd.acceleration = 1.0;
    ecu.onCommand(cmd);
    sim.run();
    car.step(Duration::millisF(1000.0));
    EXPECT_GT(car.speed(), 0.5);
}

TEST(Reactive, StopsBeforeObstacleAt41Meters)
{
    // Sec. IV: the reactive path "let the vehicle react to objects
    // 4.1 m away". Obstacle face 4.2 m ahead of the front bumper
    // (5.5 m from the vehicle reference point), vehicle at 5.6 m/s.
    Simulator sim;
    VehicleDynamics car;
    car.setSpeed(5.6);
    Ecu ecu(sim, car);
    RadarModel radar(RadarConfig{}, Rng(1));
    ReactivePath reactive(sim, ecu, radar);

    World world;
    Obstacle wall;
    wall.footprint =
        OrientedBox2{Pose2{Vec2(6.5, 0.0), 0.0}, 1.0, 2.0};
    world.addObstacle(wall);

    // Drive physics + reactive checks in lockstep; the front bumper
    // is 1.3 m ahead of the reference point.
    double crash_gap = 1e18;
    sim.schedulePeriodic(Duration::millisF(5.0), Duration::zero(), [&] {
        reactiveCycle(reactive, world, car.pose(), car.speed(), sim.now());
        car.step(Duration::millisF(5.0));
        crash_gap = std::min(crash_gap,
                             5.5 - (car.pose().position.x() + 1.3));
        if (car.stopped() && car.odometer() > 0.1)
            sim.stop();
    });
    sim.runUntil(Timestamp::seconds(10.0));

    EXPECT_TRUE(car.stopped());
    EXPECT_GE(crash_gap, 0.0); // never touched the wall
    EXPECT_GE(reactive.triggerCount(), 1u);
}

TEST(Reactive, TriggerDistanceFormula)
{
    Simulator sim;
    VehicleDynamics car;
    Ecu ecu(sim, car);
    RadarModel radar(RadarConfig{}, Rng(2));
    ReactivePath reactive(sim, ecu, radar);
    // 30 ms reaction (11 ms path + 19 ms mech) at 5.6 m/s plus 3.92 m
    // braking plus clearance plus the 1.3 m front overhang = ~5.54 m
    // center-to-obstacle (~4.2 m from the front sensor, Sec. IV).
    EXPECT_NEAR(reactive.triggerDistance(5.6, 4.0), 5.54, 0.05);
}

TEST(Reactive, NoTriggerWhenFarAway)
{
    Simulator sim;
    VehicleDynamics car;
    car.setSpeed(5.6);
    Ecu ecu(sim, car);
    RadarModel radar(RadarConfig{}, Rng(3));
    ReactivePath reactive(sim, ecu, radar);
    World world;
    Obstacle wall;
    wall.footprint =
        OrientedBox2{Pose2{Vec2(30.0, 0.0), 0.0}, 1.0, 2.0};
    world.addObstacle(wall);
    reactiveCycle(reactive, world, Pose2{Vec2(0, 0), 0.0}, 5.6,
                  Timestamp::origin());
    sim.run();
    EXPECT_EQ(reactive.triggerCount(), 0u);
    EXPECT_FALSE(ecu.emergencyLatched());
}

} // namespace
} // namespace sov
