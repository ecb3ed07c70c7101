#include "serve/line_protocol.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

namespace sov::serve {

namespace {

std::vector<std::string> tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream in(line);
    std::string token;
    while (in >> token)
        tokens.push_back(std::move(token));
    return tokens;
}

/** Fold "key=value" trailing tokens into request.params. */
bool parseParams(const std::vector<std::string> &tokens, std::size_t first,
                 Request &request)
{
    for (std::size_t i = first; i < tokens.size(); ++i) {
        const std::size_t eq = tokens[i].find('=');
        if (eq == std::string::npos || eq == 0) {
            request.error = "malformed option '" + tokens[i] + "'";
            return false;
        }
        request.params[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
    }
    return true;
}

bool parseJobId(const std::string &token, JobId &out)
{
    char *end = nullptr;
    const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0' || value == 0)
        return false;
    out = static_cast<JobId>(value);
    return true;
}

/** Verbs of the form "<VERB> <job> [k=v ...]". */
Request parseJobVerb(Verb verb, const std::vector<std::string> &tokens)
{
    Request request;
    if (tokens.size() < 2) {
        request.error = "missing job id";
        return request;
    }
    if (!parseJobId(tokens[1], request.job)) {
        request.error = "bad job id '" + tokens[1] + "'";
        return request;
    }
    if (!parseParams(tokens, 2, request))
        return request;
    request.verb = verb;
    return request;
}

std::string formatDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    return buf;
}

std::string formatHex64(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

} // namespace

Request parseRequest(const std::string &line)
{
    Request request;
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) {
        request.error = "empty request";
        return request;
    }
    const std::string &verb = tokens[0];
    if (verb == "SUBMIT") {
        if (tokens.size() < 3) {
            request.error = "usage: SUBMIT <tenant> <set> [k=v ...]";
            return request;
        }
        request.tenant = tokens[1];
        request.set = tokens[2];
        if (!parseParams(tokens, 3, request))
            return request;
        request.verb = Verb::Submit;
        return request;
    }
    if (verb == "STATUS")
        return parseJobVerb(Verb::Status, tokens);
    if (verb == "CANCEL")
        return parseJobVerb(Verb::Cancel, tokens);
    if (verb == "WAIT")
        return parseJobVerb(Verb::Wait, tokens);
    if (verb == "ROWS")
        return parseJobVerb(Verb::Rows, tokens);
    if (verb == "STATS" || verb == "CATALOG" || verb == "PING" ||
        verb == "QUIT") {
        if (tokens.size() != 1) {
            request.error = verb + " takes no arguments";
            return request;
        }
        request.verb = verb == "STATS"     ? Verb::Stats
                       : verb == "CATALOG" ? Verb::Catalog
                       : verb == "PING"    ? Verb::Ping
                                           : Verb::Quit;
        return request;
    }
    request.error = "unknown verb '" + verb + "'";
    return request;
}

double paramDouble(const Request &request, const std::string &key,
                   double fallback)
{
    const auto it = request.params.find(key);
    if (it == request.params.end())
        return fallback;
    char *end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0' || !std::isfinite(value))
        throw BadParam(key);
    return value;
}

std::uint64_t paramU64(const Request &request, const std::string &key,
                       std::uint64_t fallback)
{
    const auto it = request.params.find(key);
    if (it == request.params.end())
        return fallback;
    const std::string &text = it->second;
    if (!text.empty() && text.front() == '-')
        throw BadParam(key);
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        return fallback;
    if (errno == ERANGE)
        throw BadParam(key);
    return static_cast<std::uint64_t>(value);
}

std::string formatSnapshot(const JobSnapshot &snapshot)
{
    std::ostringstream out;
    out << "job=" << snapshot.id << " tenant=" << snapshot.tenant
        << " state=" << toString(snapshot.state)
        << " total=" << snapshot.total
        << " completed=" << snapshot.completed
        << " cache_hits=" << snapshot.cache_hits
        << " revoked=" << snapshot.revoked
        << " ttfr_ms=" << formatDouble(snapshot.ttfr_ms)
        << " wall_ms=" << formatDouble(snapshot.wall_ms)
        << " fingerprint=" << formatHex64(snapshot.fingerprint);
    if (!snapshot.label.empty())
        out << " label=" << snapshot.label;
    return out.str();
}

std::string formatRow(JobId job, std::size_t seq,
                      const fleet::ScenarioOutcome &row)
{
    std::ostringstream out;
    out << "ROW " << job << ' ' << seq << " name=" << row.name
        << " index=" << row.index << " seed=" << row.seed
        << " collided=" << (row.collided ? 1 : 0)
        << " stopped=" << (row.stopped ? 1 : 0)
        << " min_gap=" << formatDouble(row.min_gap)
        << " availability=" << formatDouble(row.availability)
        << " deadline_misses=" << row.deadline_misses
        << " worst_level=" << static_cast<int>(row.worst_level);
    return out.str();
}

} // namespace sov::serve
