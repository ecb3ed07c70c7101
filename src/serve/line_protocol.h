/**
 * @file
 * Line protocol of the socket front end.
 *
 * One request per line, whitespace-separated tokens, key=value
 * options; one response per line except ROWS/CATALOG, which stream
 * prefixed lines and end with a terminal OK. Grammar (DESIGN.md has
 * the full version):
 *
 *   request  := SUBMIT <tenant> <set> [seed=N] [seeds=N]
 *                      [horizon_s=X] [deadline_s=X] [label=S]
 *             | STATUS <job> | CANCEL <job>
 *             | WAIT <job> [timeout_s=X]
 *             | ROWS <job> [from=N]
 *             | STATS | CATALOG | PING | QUIT
 *   response := OK <verb-specific fields>
 *             | ERR <code> [detail]
 *             | ROW <job> <seq> <k=v ...>     (ROWS stream lines)
 *             | SET <name> <description>      (CATALOG stream lines)
 *
 * Parsing and formatting are pure functions so tests cover the
 * protocol without a socket in sight.
 */
#pragma once

#include <map>
#include <stdexcept>
#include <string>

#include "fleet/fleet_report.h"
#include "serve/job.h"

namespace sov::serve {

enum class Verb
{
    Submit,
    Status,
    Cancel,
    Wait,
    Rows,
    Stats,
    Catalog,
    Ping,
    Quit,
    Invalid,
};

/** One parsed request line. */
struct Request
{
    Verb verb = Verb::Invalid;
    std::string tenant;  //!< SUBMIT
    std::string set;     //!< SUBMIT (catalog entry)
    JobId job = 0;       //!< STATUS / CANCEL / WAIT / ROWS
    std::map<std::string, std::string> params; //!< key=value options
    std::string error;   //!< parse failure reason (verb == Invalid)
};

/** Parse one request line (no trailing newline). */
Request parseRequest(const std::string &line);

/** A present option whose value its type cannot hold; what() is the
 *  key. The protocol answers it with "ERR bad_param <key>". */
class BadParam : public std::invalid_argument
{
  public:
    explicit BadParam(const std::string &key) : std::invalid_argument(key)
    {
    }
};

/** Longest simulated horizon a SUBMIT may ask for (s). */
inline constexpr double kMaxHorizonS = 3600.0;

/** Longest SUBMIT deadline_s and WAIT timeout_s (s): one week. Far
 *  above any real wait (serve_client waits with timeout_s=86400), far
 *  below what overflows the steady_clock conversion. */
inline constexpr double kMaxWaitS = 7.0 * 86400.0;

/** Typed option access: a missing key reads as @p fallback; text
 *  that is not one finite number throws BadParam. */
double paramDouble(const Request &request, const std::string &key,
                   double fallback);
/** Unsigned option: missing or malformed reads as @p fallback; a
 *  negative or out-of-range number throws BadParam (strtoull would
 *  wrap "-1" to 2^64 - 1). */
std::uint64_t paramU64(const Request &request, const std::string &key,
                       std::uint64_t fallback);

/** "job=<id> state=<s> total=... fingerprint=<hex16>" fields. */
std::string formatSnapshot(const JobSnapshot &snapshot);

/** One "ROW <job> <seq> name=... collided=..." stream line. */
std::string formatRow(JobId job, std::size_t seq,
                      const fleet::ScenarioOutcome &row);

} // namespace sov::serve
