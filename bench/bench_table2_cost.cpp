/**
 * @file
 * Reproduces Table II: the cost breakdown of the camera-based vehicle
 * vs a LiDAR-based one, plus the Sec. VII TCO-style per-trip model.
 */
#include <cstdio>

#include "analysis/cost_model.h"
#include "core/config.h"
#include "harness.h"

using namespace sov;

namespace {

void
printBreakdown(const char *title, const CostBreakdown &breakdown,
               bench::BenchReport &report, const char *table)
{
    std::printf("--- %s ---\n", title);
    for (const auto &c : breakdown.components()) {
        std::printf("  %-28s x%-2u $%10.0f\n", c.name.c_str(),
                    c.quantity, c.total().toDollars());
        report.addRow(table)
            .set("name", c.name)
            .set("quantity", c.quantity)
            .set("dollars", c.total().toDollars());
    }
    std::printf("  %-32s $%10.0f\n\n", "SENSOR TOTAL",
                breakdown.total().toDollars());
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    bench::BenchReport report("table2_cost");

    std::printf("=== Table II: cost breakdown ===\n\n");
    printBreakdown("Our vehicle (camera-based)",
                   CostBreakdown::paperSensorSuite(), report, "camera");
    printBreakdown("LiDAR-based vehicle (e.g. Waymo)",
                   CostBreakdown::lidarSensorSuite(), report, "lidar");

    const double camera_total =
        CostBreakdown::paperSensorSuite().total().toDollars();
    const double lidar_total =
        CostBreakdown::lidarSensorSuite().total().toDollars();
    std::printf("Retail price (ours): $70,000; LiDAR-based estimated "
                "> $300,000 (paper)\n");
    std::printf("LiDAR sensors alone ($%.0f) exceed our whole "
                "vehicle's price\n\n", lidar_total);

    const TcoParams tco;
    std::printf("=== Sec. VII: TCO-style operating model ===\n");
    std::printf("vehicle $%.0f amortized over %.0f years + cloud "
                "$%.0f/y + maintenance $%.0f/y\n",
                tco.vehicle_price.toDollars(), tco.amortization_years,
                tco.cloud_service_per_year.toDollars(),
                tco.maintenance_per_year.toDollars());
    std::printf("TCO per year : $%.0f\n", tcoPerYear(tco).toDollars());
    std::printf("cost per trip: $%.2f at %.0f trips/day "
                "(site charges $1/trip)\n",
                costPerTrip(tco).toDollars(), tco.trips_per_day);

    report.meta("camera_sensor_total_usd", camera_total);
    report.meta("lidar_sensor_total_usd", lidar_total);
    report.meta("tco_per_year_usd", tcoPerYear(tco).toDollars());
    report.meta("cost_per_trip_usd", costPerTrip(tco).toDollars());
    report.gate("lidar_sensors_exceed_vehicle_price",
                lidar_total > tco.vehicle_price.toDollars(),
                "Table II headline: LiDAR alone outprices the vehicle");
    return report.write(cfg);
}
