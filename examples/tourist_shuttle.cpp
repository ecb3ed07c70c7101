/**
 * @file
 * Deployment economics of a tourist-site shuttle (the Japan site of
 * Secs. II-A / III-B / III-C): energy budget, driving time per
 * charge, revenue sensitivity to extra compute, sensor bill of
 * materials, and per-trip cost — the whole Sec. III constraint
 * analysis applied to one concrete deployment.
 *
 * Run: ./tourist_shuttle [shift_hours=10] [trips_per_day=100]
 */
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/cost_model.h"
#include "analysis/energy_model.h"
#include "analysis/latency_model.h"
#include "analysis/power_budget.h"
#include "core/config.h"

using namespace sov;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const double shift = cfg.getDouble("shift_hours", 10.0);
    const double trips = cfg.getDouble("trips_per_day", 100.0);

    const std::vector<std::string> unread = cfg.unreadKeys();
    if (!unread.empty()) {
        std::fprintf(stderr,
                     "tourist_shuttle: unknown argument '%s'\n"
                     "usage: tourist_shuttle [shift_hours=10] "
                     "[trips_per_day=100]\n",
                     unread.front().c_str());
        return 2;
    }

    std::printf("=== Tourist-site shuttle: one deployment, all "
                "constraints ===\n\n");

    // ------------------------------------------------ energy budget
    const EnergyModelParams energy;
    const Power p_ad = Power::watts(175); // Table I operating total
    std::printf("battery %.0f kWh; vehicle %.0f W; AD system %.0f W\n",
                energy.battery.toKilowattHours(),
                energy.vehicle_power.toWatts(), p_ad.toWatts());
    std::printf("driving per charge: %.1f h without AD, %.1f h with "
                "AD\n\n",
                drivingHours(energy, Power::zero()),
                drivingHours(energy, p_ad));

    // ------------------------------------- upgrade decision support
    std::printf("considering hardware changes (shift = %.0f h):\n",
                shift);
    struct Change
    {
        const char *what;
        double extra_watts;
    };
    for (const Change &c :
         {Change{"+1 on-vehicle server, idle", 31.0},
          Change{"+1 on-vehicle server, full load", 118.0},
          Change{"switch to LiDAR suite", 92.0 - 1.0}}) {
        const double loss = revenueLossFraction(
            energy, p_ad, p_ad + Power::watts(c.extra_watts), shift);
        std::printf("  %-34s -> %.1f%% of daily revenue\n", c.what,
                    100.0 * loss);
    }

    // -------------------------------------------------- safety recap
    const LatencyModelParams latency;
    std::printf("\nsafety envelope at %.1f m/s: braking %.1f m; "
                "proactive (164 ms) needs %.1f m;\nreactive (30 ms) "
                "needs %.1f m\n",
                latency.speed.toMetersPerSecond(),
                brakingDistance(latency),
                minimumAvoidableDistance(latency,
                                         Duration::millisF(164.0)),
                brakingDistance(latency) +
                    0.03 * latency.speed.toMetersPerSecond());

    // ------------------------------------------------ cost per trip
    TcoParams tco;
    tco.trips_per_day = trips;
    std::printf("\nsensor BOM: $%.0f (camera-based; LiDAR suite would "
                "be $%.0f)\n",
                CostBreakdown::paperSensorSuite().total().toDollars(),
                CostBreakdown::lidarSensorSuite().total().toDollars());
    std::printf("TCO: $%.0f/year -> $%.2f per trip at %.0f trips/day "
                "(site charges $1)\n",
                tcoPerYear(tco).toDollars(),
                costPerTrip(tco).toDollars(), trips);

    const double margin =
        1.0 - costPerTrip(tco).toDollars();
    std::printf("margin per $1 trip: $%.2f  %s\n", margin,
                margin > 0 ? "(viable)" : "(loss-making!)");
    return 0;
}
