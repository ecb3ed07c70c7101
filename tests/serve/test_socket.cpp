#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/socket_server.h"

namespace sov::serve {
namespace {

ServiceConfig
serviceConfig()
{
    TenantConfig t;
    t.name = "acme";
    t.rate_scenarios_per_s = 1e6;
    t.burst_scenarios = 1e6;
    t.max_queued_scenarios = 1000000;
    ServiceConfig config;
    config.workers = 2;
    config.master_seed = 7;
    config.tenants = {t};
    return config;
}

/** Run one line through the protocol engine, expect @p n responses. */
std::vector<std::string>
roundTrip(SocketServer &server, const std::string &line,
          bool expect_keep = true)
{
    std::vector<std::string> out;
    EXPECT_EQ(server.handleLine(line, out), expect_keep) << line;
    EXPECT_FALSE(out.empty()) << line;
    return out;
}

TEST(SocketServer, SubmitStatusWaitRowsFlow)
{
    ScenarioService service(serviceConfig());
    SocketServer server(service, ScenarioCatalog::standard(),
                        SocketServerConfig{}); // no listeners needed

    // SUBMIT with a short horizon so the sim is milliseconds.
    const auto submit = roundTrip(
        server, "SUBMIT acme open_road horizon_s=2 label=itest");
    ASSERT_EQ(submit.size(), 1u);
    ASSERT_EQ(submit[0].rfind("OK job=", 0), 0u) << submit[0];
    const JobId id = std::stoull(submit[0].substr(7));

    const auto wait =
        roundTrip(server, "WAIT " + std::to_string(id) + " timeout_s=25");
    ASSERT_EQ(wait.size(), 1u);
    EXPECT_NE(wait[0].find("state=completed"), std::string::npos)
        << wait[0];
    EXPECT_NE(wait[0].find("label=itest"), std::string::npos);

    const auto status = roundTrip(server, "STATUS " + std::to_string(id));
    EXPECT_NE(status[0].find("state=completed"), std::string::npos);

    const auto rows =
        roundTrip(server, "ROWS " + std::to_string(id) + " from=0");
    ASSERT_GE(rows.size(), 2u); // >= 1 ROW line + terminal OK
    EXPECT_EQ(rows[0].rfind("ROW ", 0), 0u);
    EXPECT_EQ(rows.back().rfind("OK rows=", 0), 0u);

    // Incremental fetch from the end is empty but still OK.
    const auto tail = roundTrip(
        server, "ROWS " + std::to_string(id) + " from=1000");
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_EQ(tail[0].rfind("OK rows=0", 0), 0u);
}

TEST(SocketServer, CancelAndStatsThroughProtocol)
{
    ScenarioService service(serviceConfig());
    SocketServer server(service, ScenarioCatalog::standard(),
                        SocketServerConfig{});

    const auto submit = roundTrip(
        server, "SUBMIT acme sudden_wall horizon_s=2 seeds=4");
    ASSERT_EQ(submit[0].rfind("OK job=", 0), 0u) << submit[0];
    const JobId id = std::stoull(submit[0].substr(7));

    const auto cancel = roundTrip(server, "CANCEL " + std::to_string(id));
    EXPECT_EQ(cancel[0], "OK cancelled=1");
    const auto wait =
        roundTrip(server, "WAIT " + std::to_string(id) + " timeout_s=25");
    EXPECT_NE(wait[0].find("state=cancelled"), std::string::npos);

    const auto stats = roundTrip(server, "STATS");
    EXPECT_NE(stats[0].find("admitted=1"), std::string::npos)
        << stats[0];
    EXPECT_NE(stats[0].find("cancelled=1"), std::string::npos);
}

TEST(SocketServer, ProtocolErrorsAreErrLines)
{
    ScenarioService service(serviceConfig());
    SocketServer server(service, ScenarioCatalog::standard(),
                        SocketServerConfig{});

    EXPECT_EQ(roundTrip(server, "SUBMIT acme no_such_set")[0].rfind(
                  "ERR unknown_set", 0),
              0u);
    EXPECT_EQ(roundTrip(server, "SUBMIT ghost open_road")[0].rfind(
                  "ERR unknown_tenant", 0),
              0u);
    EXPECT_EQ(roundTrip(server, "STATUS 424242")[0].rfind(
                  "ERR unknown_job", 0),
              0u);
    EXPECT_EQ(roundTrip(server, "FROBNICATE")[0].rfind("ERR bad_request",
                                                       0),
              0u);
    EXPECT_EQ(roundTrip(server, "PING")[0], "OK pong");
    EXPECT_EQ(roundTrip(server, "QUIT", /*expect_keep=*/false)[0],
              "OK bye");
}

TEST(SocketServer, ThrowingRequestIsErrInternalNotTerminate)
{
    // A catalog builder that throws something other than BadParam:
    // the request is answered "ERR internal", the connection stays
    // usable, and nothing reaches std::terminate.
    ScenarioService service(serviceConfig());
    ScenarioCatalog catalog = ScenarioCatalog::standard();
    catalog.add("boom", "always throws",
                [](const CatalogParams &) -> std::vector<fleet::ScenarioSpec> {
                    throw std::runtime_error("builder failed");
                });
    SocketServer server(service, std::move(catalog), SocketServerConfig{});

    const auto reply = roundTrip(server, "SUBMIT acme boom");
    ASSERT_EQ(reply.size(), 1u);
    EXPECT_EQ(reply[0], "ERR internal builder failed");
    EXPECT_EQ(roundTrip(server, "PING")[0], "OK pong");
}

TEST(SocketServer, NegativeAndOversizedCountsAreBadParams)
{
    // Default provisioning: at most 1000 queued scenarios.
    TenantConfig t0;
    t0.name = "t0";
    ServiceConfig config;
    config.workers = 1;
    config.tenants = {t0};
    ScenarioService service(config);
    SocketServer server(service, ScenarioCatalog::standard(),
                        SocketServerConfig{});

    // "-1" used to wrap to 2^64 - 1 and abort the service in the
    // catalog build; 1e8 seeds used to exhaust memory there.
    EXPECT_EQ(roundTrip(server, "SUBMIT t0 scenario_fuzz seeds=-1")[0],
              "ERR bad_param seeds");
    EXPECT_EQ(roundTrip(server, "SUBMIT t0 scenario_fuzz seeds=100000000")[0],
              "ERR bad_param seeds");
    EXPECT_EQ(roundTrip(server, "SUBMIT t0 scenario_fuzz "
                                "seeds=99999999999999999999999")[0],
              "ERR bad_param seeds");
    EXPECT_EQ(roundTrip(server, "SUBMIT t0 open_road seed=-7")[0],
              "ERR bad_param seed");
    // The cap is the tenant's backlog, not a fixed constant.
    EXPECT_EQ(roundTrip(server, "SUBMIT t0 scenario_fuzz seeds=1001")[0],
              "ERR bad_param seeds");
    // Horizons must be finite, positive and capped; deadlines finite
    // and capped (inf or 1e300 used to overflow the steady_clock
    // conversion).
    for (const char *h : {"nan", "inf", "-1", "0", "abc", "1e9"})
        EXPECT_EQ(roundTrip(server, std::string("SUBMIT t0 open_road "
                                                "horizon_s=") +
                                        h)[0],
                  "ERR bad_param horizon_s")
            << h;
    for (const char *d : {"inf", "1e300", "nan"})
        EXPECT_EQ(roundTrip(server, std::string("SUBMIT t0 open_road "
                                                "deadline_s=") +
                                        d)[0],
                  "ERR bad_param deadline_s")
            << d;

    // The service is still up and still admits a sane job.
    EXPECT_EQ(roundTrip(server, "PING")[0], "OK pong");
    const auto ok =
        roundTrip(server, "SUBMIT t0 scenario_fuzz seeds=2 horizon_s=1");
    ASSERT_EQ(ok[0].rfind("OK job=", 0), 0u) << ok[0];
    EXPECT_NE(ok[0].find("scenarios=2"), std::string::npos) << ok[0];
    const std::string id = ok[0].substr(7, ok[0].find(' ') - 7);
    EXPECT_EQ(roundTrip(server, "ROWS " + id + " from=-1")[0],
              "ERR bad_param from");
    for (const char *t : {"nan", "inf", "1e300"})
        EXPECT_EQ(roundTrip(server, "WAIT " + id + " timeout_s=" + t)[0],
                  "ERR bad_param timeout_s")
            << t;
    // serve_client's long wait still fits under the cap; the job is
    // already done or finishes within the 1 s horizon.
    EXPECT_EQ(
        roundTrip(server, "WAIT " + id + " timeout_s=86400")[0].rfind(
            "OK ", 0),
        0u);
    // Nothing rejected above reached admission.
    EXPECT_NE(roundTrip(server, "STATS")[0].find("submitted=1 "),
              std::string::npos);
}

TEST(SocketServer, CatalogListsEveryStandardSet)
{
    ScenarioService service(serviceConfig());
    SocketServer server(service, ScenarioCatalog::standard(),
                        SocketServerConfig{});
    const auto out = roundTrip(server, "CATALOG");
    ASSERT_GE(out.size(), 2u);
    EXPECT_EQ(out.back().rfind("OK sets=", 0), 0u);
    bool saw_fault_matrix = false;
    for (const std::string &line : out)
        if (line.rfind("SET fault_matrix ", 0) == 0)
            saw_fault_matrix = true;
    EXPECT_TRUE(saw_fault_matrix);
}

TEST(SocketServer, TcpRoundTripOverEphemeralPort)
{
    ScenarioService service(serviceConfig());
    SocketServerConfig transport;
    transport.tcp_port = 0; // ephemeral
    SocketServer server(service, ScenarioCatalog::standard(), transport);
    ASSERT_TRUE(server.start());
    ASSERT_GT(server.tcpPort(), 0);

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(server.tcpPort()));
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);

    const std::string request = "PING\nQUIT\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::string reply;
    char buf[256];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            break; // server closed after QUIT
        reply.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_EQ(reply, "OK pong\nOK bye\n");
    server.stop();
}

/** Connect to the Unix socket at @p path; -1 on failure. */
int
connectUnix(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Send @p data on @p fd, then read until the server closes. */
std::string
exchange(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            break;
        off += static_cast<std::size_t>(n);
    }
    std::string reply;
    char buf[256];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            break;
        reply.append(buf, static_cast<std::size_t>(n));
    }
    return reply;
}

TEST(SocketServer, OverlongLineIsRefusedOverUnixSocket)
{
    ScenarioService service(serviceConfig());
    SocketServerConfig transport;
    transport.unix_path = ::testing::TempDir() + "sov_line_limit_" +
        std::to_string(::getpid()) + ".sock";
    SocketServer server(service, ScenarioCatalog::standard(), transport);
    ASSERT_TRUE(server.start());

    // An unterminated line one byte over the limit, and a terminated
    // one: each is refused and its connection closed.
    for (const std::string &line :
         {std::string(kMaxLineBytes + 1, 'A'),
          std::string(kMaxLineBytes + 1, 'A') + "\n"}) {
        const int fd = connectUnix(transport.unix_path);
        ASSERT_GE(fd, 0);
        EXPECT_EQ(exchange(fd, line), "ERR line_too_long\n");
        ::close(fd);
    }

    // A fresh connection is served as usual.
    const int fd = connectUnix(transport.unix_path);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(exchange(fd, "PING\nQUIT\n"), "OK pong\nOK bye\n");
    ::close(fd);
    server.stop();
}

} // namespace
} // namespace sov::serve
