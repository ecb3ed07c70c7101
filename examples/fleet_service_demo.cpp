/**
 * @file
 * Fleet-as-a-service demo: a two-tenant scenario service end to end.
 *
 * Provisions a ScenarioService with a weight-3 "gold" tenant and a
 * weight-1 "standard" tenant, exposes it on an ephemeral loopback TCP
 * port (try `tools/serve_client.py --tcp 127.0.0.1:<port> repl` while
 * it runs), then drives the in-process API:
 *
 *   1. both tenants submit the same catalog set concurrently and the
 *      DRR scheduler shares the workers ~3:1 while both are backlogged;
 *   2. completed rows are streamed with fetchRows() as shards finish;
 *   3. a bit-identical resubmission replays entirely from the
 *      fingerprint-keyed result cache.
 *
 * Run: ./fleet_service_demo [horizon=3] [seeds=4] [linger=0]
 *      (linger=N keeps the socket open N extra seconds for poking at
 *      it with the client.)
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/logging.h"
#include "serve/socket_server.h"

using namespace sov;
using namespace sov::serve;

namespace {

TenantConfig
tenant(const char *name, std::uint32_t weight)
{
    TenantConfig config;
    config.name = name;
    config.rate_scenarios_per_s = 500.0;
    config.burst_scenarios = 1000.0;
    config.max_queued_scenarios = 10000;
    config.weight = weight;
    return config;
}

JobId
submitSet(ScenarioService &service, const ScenarioCatalog &catalog,
          const char *who, const char *set, const CatalogParams &params)
{
    JobRequest request;
    request.tenant = who;
    request.label = set;
    auto scenarios = catalog.build(set, params);
    SOV_ASSERT(scenarios.has_value());
    request.scenarios = std::move(*scenarios);
    const SubmitResult result = service.submit(std::move(request));
    SOV_ASSERT(result.admitted);
    std::printf("%-8s submitted %-12s -> job %llu\n", who, set,
                static_cast<unsigned long long>(result.id));
    return result.id;
}

void
printSnapshot(const char *tag, const JobSnapshot &snapshot)
{
    std::printf("%-8s job %llu %-9s %zu/%zu rows  cache_hits=%zu  "
                "ttfr=%.2f ms  wall=%.1f ms  fingerprint=%016llx\n",
                tag, static_cast<unsigned long long>(snapshot.id),
                toString(snapshot.state), snapshot.completed,
                snapshot.total, snapshot.cache_hits, snapshot.ttfr_ms,
                snapshot.wall_ms,
                static_cast<unsigned long long>(snapshot.fingerprint));
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    CatalogParams params;
    params.horizon_s = cfg.getDouble("horizon", 3.0);
    params.seeds = static_cast<std::size_t>(cfg.getInt("seeds", 4));
    const double linger = cfg.getDouble("linger", 0.0);

    const std::vector<std::string> unread = cfg.unreadKeys();
    if (!unread.empty()) {
        std::fprintf(stderr,
                     "fleet_service_demo: unknown argument '%s'\n"
                     "usage: fleet_service_demo [horizon=3] [seeds=4] "
                     "[linger=0]\n",
                     unread.front().c_str());
        return 2;
    }

    ServiceConfig provisioning;
    provisioning.master_seed = 2026;
    provisioning.tenants = {tenant("gold", 3), tenant("standard", 1)};
    ScenarioService service(provisioning);
    const ScenarioCatalog catalog = ScenarioCatalog::standard();

    SocketServerConfig transport;
    transport.tcp_port = 0; // ephemeral loopback port
    SocketServer server(service, catalog, transport);
    SOV_ASSERT(server.start());
    std::printf("serving on 127.0.0.1:%d  (%zu workers)\n"
                "  tools/serve_client.py --tcp 127.0.0.1:%d catalog\n\n",
                server.tcpPort(), service.workers(), server.tcpPort());

    // 1. Contended submission: both tenants queue the same set; the
    //    DRR scheduler grants gold ~3 shards per standard shard while
    //    both backlogs are non-empty.
    const JobId gold = submitSet(service, catalog, "gold",
                                 "sudden_wall", params);
    const JobId standard = submitSet(service, catalog, "standard",
                                     "sudden_wall", params);

    // 2. Stream gold's rows as they land (exactly-once, completion
    //    order) instead of blocking for the full report.
    std::size_t next = 0;
    while (true) {
        for (const auto &row : service.fetchRows(gold, next)) {
            std::printf("  row %-3zu %-28s collided=%d availability=%.3f\n",
                        next++, row.name.c_str(), row.collided ? 1 : 0,
                        row.availability);
        }
        const auto snapshot = service.status(gold);
        if (!snapshot || isTerminal(snapshot->state))
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    printSnapshot("gold", *service.wait(gold));
    printSnapshot("standard", *service.wait(standard));

    // 3. Bit-identical resubmission: every shard short-circuits
    //    through the result cache, and the report fingerprint matches
    //    the cold run exactly.
    const JobId replay = submitSet(service, catalog, "gold",
                                   "sudden_wall", params);
    const JobSnapshot warm = *service.wait(replay);
    printSnapshot("replay", warm);
    SOV_ASSERT(warm.cache_hits == warm.total);
    SOV_ASSERT(warm.fingerprint == service.wait(gold)->fingerprint);
    std::printf("replay served %zu/%zu rows from cache, "
                "fingerprint identical\n", warm.cache_hits, warm.total);

    if (linger > 0.0) {
        std::printf("lingering %.0f s for socket clients...\n", linger);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(linger));
    }
    server.stop();
    return 0;
}
