/**
 * @file
 * Reproduces Table I: the power breakdown of the vehicle's autonomous
 * driving components, with the LiDAR comparison rows.
 */
#include <cstdio>

#include "analysis/energy_model.h"
#include "analysis/power_budget.h"
#include "core/config.h"
#include "harness.h"

using namespace sov;

namespace {

void
printBudget(const char *title, const PowerBudget &budget,
            bench::BenchReport &report, const char *table)
{
    std::printf("--- %s ---\n", title);
    for (const auto &c : budget.components()) {
        std::printf("  %-36s x%-2u %7.1f W\n", c.name.c_str(),
                    c.quantity, c.total().toWatts());
        report.addRow(table)
            .set("name", c.name)
            .set("quantity", c.quantity)
            .set("watts", c.total().toWatts());
    }
    std::printf("  %-40s %7.1f W\n\n", "TOTAL",
                budget.total().toWatts());
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    bench::BenchReport report("table1_power");

    std::printf("=== Table I: power breakdown ===\n\n");
    printBudget("Our vehicle (operating, dynamic server)",
                PowerBudget::paperVehicle(), report, "operating");
    printBudget("Our vehicle (server idle)",
                PowerBudget::paperVehicleIdleServer(), report, "idle");
    printBudget("LiDAR suite (not used by us; Waymo-style)",
                PowerBudget::lidarSuite(), report, "lidar_suite");

    const double operating_w = PowerBudget::paperVehicle().total().toWatts();
    const EnergyModelParams energy;
    std::printf("Paper's measured operating total P_AD: 175 W\n");
    std::printf("Driving time at P_AD=175 W: %.2f h "
                "(paper: 10 h -> 7.7 h)\n",
                drivingHours(energy, Power::watts(175)));
    std::printf("Thermal: operating totals stay well under 200 W "
                "(Sec. III-B)\n");

    report.meta("operating_total_w", operating_w);
    report.meta("idle_total_w",
                PowerBudget::paperVehicleIdleServer().total().toWatts());
    report.meta("lidar_suite_w",
                PowerBudget::lidarSuite().total().toWatts());
    report.meta("driving_hours_at_175w",
                drivingHours(energy, Power::watts(175)));
    report.gate("idle_server_saves_power",
                PowerBudget::paperVehicleIdleServer().total().toWatts() <
                    operating_w,
                "idling the server must cut the AD power draw");
    report.gate("driving_hours_match_paper",
                drivingHours(energy, Power::watts(175)) > 7.0 &&
                    drivingHours(energy, Power::watts(175)) < 8.5,
                "paper: 10 h baseline shrinks to ~7.7 h at 175 W");
    return report.write(cfg);
}
