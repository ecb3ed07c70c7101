#include "args.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <map>

namespace perfbench {

namespace {

/** Longest run a single invocation may be asked to measure. */
constexpr double kMaxSeconds = 3600.0;

bool
parseSeed(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.size() > 20)
        return false;
    for (const char c : text)
        if (c < '0' || c > '9')
            return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
parseSeconds(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (*end != '\0' || !std::isfinite(v) || v <= 0.0 || v > kMaxSeconds)
        return false;
    out = v;
    return true;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "fleet_crowded", "serve_mix", "pointcloud_trace"};
    return names;
}

std::string
usage()
{
    std::string u = "usage: perfbench --workload <name> [--seed N] "
                    "[--seconds S] [--trace 0|1]\n"
                    "  workloads:";
    for (const std::string &w : workloadNames())
        u += " " + w;
    u += "\n  --seed     unsigned integer (default 1)\n"
         "  --seconds  finite, > 0, <= 3600 (default 30)\n"
         "  --trace    0 = end-to-end metrics, 1 = per-layer metrics\n";
    return u;
}

std::optional<Args>
parseArgs(const std::vector<std::string> &argv, std::string &error)
{
    std::map<std::string, std::string> kv;
    for (std::size_t i = 0; i < argv.size(); ++i) {
        const std::string &tok = argv[i];
        if (tok.rfind("--", 0) != 0) {
            error = "unexpected argument '" + tok + "'";
            return std::nullopt;
        }
        std::string key = tok.substr(2);
        std::string value;
        const auto eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (i + 1 < argv.size()) {
            value = argv[++i];
        } else {
            error = "missing value for --" + key;
            return std::nullopt;
        }
        if (key != "workload" && key != "seed" && key != "seconds" &&
            key != "trace") {
            error = "unknown key --" + key;
            return std::nullopt;
        }
        if (!kv.emplace(key, value).second) {
            error = "repeated key --" + key;
            return std::nullopt;
        }
    }

    Args args;
    const auto workload = kv.find("workload");
    if (workload == kv.end()) {
        error = "--workload is required";
        return std::nullopt;
    }
    args.workload = workload->second;
    bool known = false;
    for (const std::string &w : workloadNames())
        known |= w == args.workload;
    if (!known) {
        error = "unknown workload '" + args.workload + "'";
        return std::nullopt;
    }
    if (const auto it = kv.find("seed");
        it != kv.end() && !parseSeed(it->second, args.seed)) {
        error = "--seed must be an unsigned integer, got '" + it->second +
                "'";
        return std::nullopt;
    }
    if (const auto it = kv.find("seconds");
        it != kv.end() && !parseSeconds(it->second, args.seconds)) {
        error = "--seconds must be finite, > 0 and <= 3600, got '" +
                it->second + "'";
        return std::nullopt;
    }
    if (const auto it = kv.find("trace"); it != kv.end()) {
        if (it->second != "0" && it->second != "1") {
            error = "--trace must be 0 or 1, got '" + it->second + "'";
            return std::nullopt;
        }
        args.trace = it->second == "1";
    }
    return args;
}

} // namespace perfbench
