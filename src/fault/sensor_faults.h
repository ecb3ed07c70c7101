/**
 * @file
 * Sensor-side fault evaluation: folds every channel of a FaultPlan
 * aimed at one sensor into a per-sample disposition (drop it, freeze
 * it, delay it, corrupt it). Consumers keep their own last-good state
 * for Freeze; the hub only decides.
 *
 * The radar model additionally exposes a dropout filter hook
 * (sensors/radar.h) for code paths that talk to the sensor object
 * directly; makeDropoutFilter() adapts a channel to that hook.
 */
#pragma once

#include <functional>

#include "fault/fault_plan.h"

namespace sov::fault {

/** What to do with one sensor sample. */
struct SensorDisposition
{
    bool drop = false;   //!< the sample never arrives
    bool freeze = false; //!< deliver the previous good sample again
    Duration extra_latency = Duration::zero();
    /** Channel to draw corruption noise from; nullptr = clean. */
    FaultChannel *corruption = nullptr;

    bool
    any() const
    {
        return drop || freeze || extra_latency > Duration::zero() ||
            corruption != nullptr;
    }
};

/** Per-sensor view over a FaultPlan. */
class SensorFaultHub
{
  public:
    /** @param plan May be nullptr (fault-free: every disposition is
     *  clean and nothing ever draws). Not owned. */
    explicit SensorFaultHub(FaultPlan *plan = nullptr) : plan_(plan) {}

    /**
     * Evaluate all channels targeting @p sensor for one sample at
     * @p t. Dropout wins over Freeze when both fire.
     */
    SensorDisposition evaluate(FaultTarget sensor, Timestamp t);

    bool active() const { return plan_ != nullptr && !plan_->empty(); }

  private:
    FaultPlan *plan_;
};

/** Adapt @p channel to the sensors' dropout-filter hook. The channel
 *  must outlive the filter. */
std::function<bool(Timestamp)> makeDropoutFilter(FaultChannel *channel);

} // namespace sov::fault
