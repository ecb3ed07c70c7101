/**
 * @file
 * One reactive-path cycle as the closed loop's physics step runs it:
 * the world's obstacles prepared at the cycle's instant, then
 * ReactivePath::evaluate over that table.
 */
#pragma once

#include <optional>

#include "vehicle/reactive.h"
#include "world/world.h"

namespace sov {

inline std::optional<double>
reactiveCycle(ReactivePath &reactive, const World &world, const Pose2 &body,
              double speed, Timestamp t)
{
    PreparedObstacles prepared;
    prepared.prepare(world.obstacles(), t);
    return reactive.evaluate(prepared.frames(), body, speed, t);
}

} // namespace sov
