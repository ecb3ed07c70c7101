/**
 * @file
 * PreparedObstacles, the closed loop's per-step obstacle table: its
 * frames, rebuilt in place each step, must give the gap monitor
 * exactly what a fresh OrientedBox2::distanceTo gives, across the tick
 * boundaries where behavioural agents republish their rows.
 */
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "../math/geometry_oracle.h"
#include "core/rng.h"
#include "world/agent.h"
#include "world/world.h"

namespace sov {
namespace {

Obstacle
spawnBox(double x, double y, ObjectClass cls, double heading = 0.0)
{
    Obstacle o;
    o.cls = cls;
    o.footprint = OrientedBox2{Pose2{Vec2(x, y), heading}, 0.3, 0.3};
    if (cls == ObjectClass::Car)
        o.footprint = OrientedBox2{Pose2{Vec2(x, y), heading}, 2.3, 0.9};
    return o;
}

TEST(PreparedObstacles, GapsMatchDistanceToAcrossTicks)
{
    Rng rng(31);
    World world;
    for (int i = 0; i < 4; ++i) {
        world.spawnAgent(std::make_unique<PedestrianAgent>(
            spawnBox(15.0 + 12.0 * i, i % 2 ? -4.0 : 4.0,
                     ObjectClass::Pedestrian),
            PedestrianAgent::Params{}, rng.fork("ped")));
        world.spawnAgent(std::make_unique<CyclistAgent>(
            spawnBox(10.0 + 15.0 * i, 0.8, ObjectClass::Bicycle),
            CyclistAgent::Params{}, rng.fork("cyc")));
        VehicleAgent::Params veh;
        veh.cut_in = i % 2 == 0;
        veh.cut_in_x = 20.0 + 10.0 * i;
        world.spawnAgent(std::make_unique<VehicleAgent>(
            spawnBox(5.0 + 20.0 * i, 3.5, ObjectClass::Car), veh,
            rng.fork("veh")));
    }
    Obstacle cv = spawnBox(60.0, -1.0, ObjectClass::Car, 2.5);
    cv.velocity = Vec2(-2.0, 0.1);
    world.addObstacle(cv);

    PreparedObstacles table;
    int checked = 0, republished = 0;
    std::vector<Vec2> prev_velocity;
    for (int k = 0; k < 3000; ++k) {
        const Timestamp t = Timestamp::seconds(k / 200.0);
        const Pose2 ego{Vec2(4.0 * t.toSeconds(), 0.3 * std::sin(k / 50.0)),
                        0.05 * std::sin(k / 80.0)};
        if (k == 1500) // the table grows mid-run
            world.addObstacle(spawnBox(80.0, 2.0, ObjectClass::Static, 1.0));
        world.advanceTo(t, ego, 4.0);
        const std::vector<Obstacle> &rows = world.obstacles();
        table.prepare(rows, t);
        ASSERT_EQ(table.frames().size(), rows.size());
        const OrientedBox2 ego_box{ego, 1.3, 0.7};
        const BoxFrame ego_frame = BoxFrame::of(ego_box);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const OrientedBox2 box = rows[i].footprintAt(t);
            const BoxFrame &frame = table.frames()[i];
            const BoxFrame fresh = BoxFrame::of(box);
            for (std::size_t c = 0; c < 4; ++c) {
                ASSERT_EQ(oracle::bits(frame.corners[c].x()),
                          oracle::bits(fresh.corners[c].x()));
                ASSERT_EQ(oracle::bits(frame.corners[c].y()),
                          oracle::bits(fresh.corners[c].y()));
            }
            const double want = ego_box.distanceTo(box);
            ASSERT_EQ(oracle::bits(boxGap(ego_frame, frame)),
                      oracle::bits(want))
                << "step " << k << " row " << i;
            ASSERT_EQ(oracle::bits(want),
                      oracle::bits(oracle::distanceTo(ego_box, box)))
                << "step " << k << " row " << i;
            ++checked;
            if (i < prev_velocity.size() &&
                !(prev_velocity[i] == rows[i].velocity))
                ++republished;
        }
        prev_velocity.clear();
        for (const Obstacle &row : rows)
            prev_velocity.push_back(row.velocity);
    }
    EXPECT_GT(checked, 30000);
    // Agents really changed their rows at tick boundaries.
    EXPECT_GT(republished, 20);
}

TEST(PreparedObstacles, TurningAndReorderedRowsMatchFreshFrames)
{
    // Rows whose headings change between prepares, rows that swap
    // places and a table that grows and shrinks: every frame must be
    // the fresh frame of its row at the prepare time.
    Rng rng(32);
    PreparedObstacles table;
    std::vector<Obstacle> rows;
    for (int k = 0; k < 2000; ++k) {
        if (k % 50 == 0)
            rows.resize(static_cast<std::size_t>(rng.uniformInt(0, 9)));
        for (Obstacle &row : rows) {
            if (rng.bernoulli(0.3)) {
                row.footprint = OrientedBox2{
                    Pose2{Vec2(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4)),
                          rng.bernoulli(0.2) ? -0.0
                                             : rng.uniform(-4.0, 4.0)},
                    rng.uniform(0.0, 2.5), rng.uniform(0.0, 1.2)};
                row.velocity = Vec2(rng.uniform(-3.0, 3.0),
                                    rng.uniform(-3.0, 3.0));
            }
        }
        if (rows.size() > 1 && rng.bernoulli(0.3))
            std::swap(rows.front(), rows.back());
        const Timestamp t = Timestamp::seconds(k / 200.0);
        table.prepare(rows, t);
        ASSERT_EQ(table.frames().size(), rows.size());
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const BoxFrame fresh = BoxFrame::of(rows[i].footprintAt(t));
            const BoxFrame &frame = table.frames()[i];
            ASSERT_EQ(oracle::bits(frame.axis.x()), oracle::bits(fresh.axis.x()));
            ASSERT_EQ(oracle::bits(frame.axis.y()), oracle::bits(fresh.axis.y()));
            for (std::size_t c = 0; c < 4; ++c) {
                ASSERT_EQ(oracle::bits(frame.corners[c].x()),
                          oracle::bits(fresh.corners[c].x()));
                ASSERT_EQ(oracle::bits(frame.corners[c].y()),
                          oracle::bits(fresh.corners[c].y()));
            }
        }
    }
}

} // namespace
} // namespace sov
