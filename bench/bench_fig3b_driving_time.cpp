/**
 * @file
 * Reproduces Fig. 3b: driving time lost as the autonomous-driving
 * power P_AD grows (Eq. 2), with the paper's four marked operating
 * points: the current system, current + LiDAR suite, +1 idle server,
 * +1 fully loaded server.
 */
#include <cstdio>

#include "analysis/energy_model.h"
#include "analysis/power_budget.h"
#include "core/config.h"
#include "harness.h"

using namespace sov;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const EnergyModelParams params;

    bench::BenchReport report("fig3b_driving_time");
    report.meta("battery_kwh", params.battery.toKilowattHours());
    report.meta("vehicle_power_w", params.vehicle_power.toWatts());

    std::printf("=== Fig. 3b / Eq. 2: driving time vs P_AD ===\n");
    std::printf("battery %.1f kWh, vehicle %.0f W\n\n",
                params.battery.toKilowattHours(),
                params.vehicle_power.toWatts());

    std::printf("%-12s %-16s %-18s\n", "P_AD (kW)", "driving (h)",
                "reduced (h)");
    double prev_hours = 1e30;
    bool hours_decreasing = true;
    for (double kw = 0.15; kw <= 0.351; kw += 0.02) {
        const Power p = Power::kilowatts(kw);
        const double hours = drivingHours(params, p);
        std::printf("%-12.2f %-16.2f %-18.2f\n", kw, hours,
                    drivingTimeReduction(params, p));
        report.addRow("sweep")
            .set("p_ad_kw", kw)
            .set("driving_h", hours)
            .set("reduced_h", drivingTimeReduction(params, p));
        if (hours >= prev_hours)
            hours_decreasing = false;
        prev_hours = hours;
    }

    struct Marker
    {
        const char *name;
        double watts;
    };
    const Power current = Power::watts(175);
    const Marker markers[] = {
        {"current system", 175.0},
        {"use LiDAR (+92 W)",
         175.0 + PowerBudget::lidarSuite().total().toWatts()},
        {"+1 server idle (+31 W)", 175.0 + 31.0},
        {"+1 server full load (+118 W)", 175.0 + 118.0},
    };
    std::printf("\n=== Operating points (paper's annotations) ===\n");
    for (const auto &m : markers) {
        const Power p = Power::watts(m.watts);
        std::printf("%-30s P_AD=%.0f W  driving=%.2f h  "
                    "vs current: %+.2f h\n",
                    m.name, m.watts, drivingHours(params, p),
                    drivingHours(params, p) -
                        drivingHours(params, current));
        report.addRow("operating_points")
            .set("name", m.name)
            .set("p_ad_w", m.watts)
            .set("driving_h", drivingHours(params, p))
            .set("delta_h", drivingHours(params, p) -
                                drivingHours(params, current));
    }
    const double revenue_loss = 100.0 * revenueLossFraction(
        params, current, Power::watts(175 + 31), 10.0);
    std::printf("\n+1 idle server over a 10 h shift: %.1f%% revenue "
                "loss (paper: ~3%%)\n", revenue_loss);

    report.meta("idle_server_revenue_loss_percent", revenue_loss);
    report.gate("driving_time_shrinks_with_p_ad", hours_decreasing,
                "Eq. 2: more compute power must cost driving time");
    return report.write(cfg);
}
