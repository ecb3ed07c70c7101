/**
 * @file
 * Strict command line of the benchmark binary:
 *
 *   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
 *
 * Unlike the repo's key=value Config, nothing is ignored: an unknown
 * key, a repeated key, a missing value, an unknown workload, a signed
 * or non-numeric seed, or a non-finite / non-positive duration is an
 * error (the caller prints usage and exits 2).
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0; //!< BENCHMARK.json run_seconds
    bool trace = false;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Parse argv[1..]; nullopt with @p error set on any violation. */
std::optional<Args> parseArgs(const std::vector<std::string> &argv,
                              std::string &error);

std::string usage();

} // namespace perfbench
