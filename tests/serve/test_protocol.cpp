#include <gtest/gtest.h>

#include "serve/line_protocol.h"

namespace sov::serve {
namespace {

TEST(LineProtocol, ParsesSubmitWithOptions)
{
    const Request r = parseRequest(
        "SUBMIT acme sudden_wall seed=7 seeds=3 horizon_s=2.5 "
        "deadline_s=10 label=nightly");
    ASSERT_EQ(r.verb, Verb::Submit);
    EXPECT_EQ(r.tenant, "acme");
    EXPECT_EQ(r.set, "sudden_wall");
    EXPECT_EQ(paramU64(r, "seed", 1), 7u);
    EXPECT_EQ(paramU64(r, "seeds", 1), 3u);
    EXPECT_DOUBLE_EQ(paramDouble(r, "horizon_s", 0.0), 2.5);
    EXPECT_DOUBLE_EQ(paramDouble(r, "deadline_s", -1.0), 10.0);
    EXPECT_EQ(r.params.at("label"), "nightly");
}

TEST(LineProtocol, SubmitWithoutSetIsInvalid)
{
    const Request r = parseRequest("SUBMIT acme");
    EXPECT_EQ(r.verb, Verb::Invalid);
    EXPECT_FALSE(r.error.empty());
}

TEST(LineProtocol, ParsesJobVerbs)
{
    EXPECT_EQ(parseRequest("STATUS 12").verb, Verb::Status);
    EXPECT_EQ(parseRequest("STATUS 12").job, 12u);
    EXPECT_EQ(parseRequest("CANCEL 3").verb, Verb::Cancel);
    EXPECT_EQ(parseRequest("WAIT 4 timeout_s=1.5").verb, Verb::Wait);
    const Request rows = parseRequest("ROWS 5 from=10");
    EXPECT_EQ(rows.verb, Verb::Rows);
    EXPECT_EQ(rows.job, 5u);
    EXPECT_EQ(paramU64(rows, "from", 0), 10u);
}

TEST(LineProtocol, RejectsBadJobIds)
{
    EXPECT_EQ(parseRequest("STATUS").verb, Verb::Invalid);
    EXPECT_EQ(parseRequest("STATUS abc").verb, Verb::Invalid);
    EXPECT_EQ(parseRequest("STATUS 0").verb, Verb::Invalid);
    EXPECT_EQ(parseRequest("STATUS 12x").verb, Verb::Invalid);
}

TEST(LineProtocol, ParsesBareVerbsAndRejectsTrailingArgs)
{
    EXPECT_EQ(parseRequest("PING").verb, Verb::Ping);
    EXPECT_EQ(parseRequest("QUIT").verb, Verb::Quit);
    EXPECT_EQ(parseRequest("STATS").verb, Verb::Stats);
    EXPECT_EQ(parseRequest("CATALOG").verb, Verb::Catalog);
    EXPECT_EQ(parseRequest("PING now").verb, Verb::Invalid);
}

TEST(LineProtocol, UnknownVerbAndMalformedOptionsAreInvalid)
{
    EXPECT_EQ(parseRequest("").verb, Verb::Invalid);
    EXPECT_EQ(parseRequest("FROB 1").verb, Verb::Invalid);
    EXPECT_EQ(parseRequest("SUBMIT acme set junk").verb, Verb::Invalid);
    EXPECT_EQ(parseRequest("SUBMIT acme set =5").verb, Verb::Invalid);
}

TEST(LineProtocol, ParamHelpersFallBackOnMissingOrMalformed)
{
    const Request r = parseRequest("SUBMIT t s seed=notanum");
    ASSERT_EQ(r.verb, Verb::Submit);
    EXPECT_EQ(paramU64(r, "seed", 77), 77u);
    EXPECT_DOUBLE_EQ(paramDouble(r, "absent", 3.0), 3.0);
    EXPECT_EQ(paramU64(r, "absent", 5), 5u);
}

TEST(LineProtocol, ParamDoubleRejectsMalformedAndNonFinite)
{
    const Request r = parseRequest(
        "SUBMIT t s x=1.5.2 a=abc n=nan i=inf m=-inf big=1e999 "
        "empty= ok=-2.5 huge=1e300");
    ASSERT_EQ(r.verb, Verb::Submit);
    for (const char *key : {"x", "a", "n", "i", "m", "big", "empty"})
        EXPECT_THROW(paramDouble(r, key, 1.0), BadParam) << key;
    // Range is the caller's business: finite numbers parse as-is.
    EXPECT_DOUBLE_EQ(paramDouble(r, "ok", 1.0), -2.5);
    EXPECT_DOUBLE_EQ(paramDouble(r, "huge", 1.0), 1e300);
}

TEST(LineProtocol, ParamU64RejectsNegativeAndOutOfRange)
{
    const Request r = parseRequest(
        "SUBMIT t s seeds=-1 seed=-0 from=18446744073709551616 "
        "max=18446744073709551615 empty=");
    ASSERT_EQ(r.verb, Verb::Submit);
    EXPECT_THROW(paramU64(r, "seeds", 1), BadParam);
    EXPECT_THROW(paramU64(r, "seed", 1), BadParam);
    EXPECT_THROW(paramU64(r, "from", 0), BadParam);
    EXPECT_EQ(paramU64(r, "max", 0), 18446744073709551615ull);
    EXPECT_EQ(paramU64(r, "empty", 4), 4u); // malformed still falls back
    try {
        paramU64(r, "seeds", 1);
    } catch (const BadParam &e) {
        EXPECT_STREQ(e.what(), "seeds");
    }
}

TEST(LineProtocol, FormatSnapshotCarriesEveryField)
{
    JobSnapshot s;
    s.id = 42;
    s.tenant = "acme";
    s.label = "nightly";
    s.state = JobState::Running;
    s.total = 10;
    s.completed = 4;
    s.cache_hits = 2;
    s.ttfr_ms = 1.5;
    s.fingerprint = 0xdeadbeefULL;
    const std::string line = formatSnapshot(s);
    EXPECT_NE(line.find("job=42"), std::string::npos);
    EXPECT_NE(line.find("tenant=acme"), std::string::npos);
    EXPECT_NE(line.find("state=running"), std::string::npos);
    EXPECT_NE(line.find("total=10"), std::string::npos);
    EXPECT_NE(line.find("completed=4"), std::string::npos);
    EXPECT_NE(line.find("cache_hits=2"), std::string::npos);
    EXPECT_NE(line.find("fingerprint=00000000deadbeef"),
              std::string::npos);
    EXPECT_NE(line.find("label=nightly"), std::string::npos);
}

TEST(LineProtocol, FormatRowIsAStreamLine)
{
    fleet::ScenarioOutcome row;
    row.name = "open_road/none/bare#s1";
    row.index = 3;
    row.seed = 1;
    row.collided = false;
    row.stopped = true;
    const std::string line = formatRow(9, 3, row);
    EXPECT_EQ(line.rfind("ROW 9 3 ", 0), 0u);
    EXPECT_NE(line.find("name=open_road/none/bare#s1"),
              std::string::npos);
    EXPECT_NE(line.find("collided=0"), std::string::npos);
    EXPECT_NE(line.find("stopped=1"), std::string::npos);
}

} // namespace
} // namespace sov::serve
