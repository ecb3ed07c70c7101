/**
 * @file
 * What one benchmark run prints.
 *
 * Every metric a workload measures is printed by its own name, with
 * unit, sample count and (for a tail) the percentile it reads — the
 * full report. The last line is the one JSON object run.py checks:
 * {"correct", "attempted", "failed", "metrics"}, where
 * "metrics" holds exactly the names BENCHMARK.json declares for the
 * mode (end-to-end untraced, per-layer traced). Those names are the
 * same on every workload; each workload binds them to its own
 * measurements with alias().
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0; //!< observations behind the value
    std::string note;        //!< e.g. "p99 beyond=12", "= scenarios_per_s"
};

class Report
{
  public:
    /** One line of the host block. */
    void host(const std::string &key, const std::string &value);

    /** A fact of the run that is not a measurement (fingerprints,
     *  input sizes); printed as "fact key=value". */
    void fact(const std::string &key, const std::string &value);

    void metric(const std::string &name, double value,
                const std::string &unit, std::size_t samples = 0,
                const std::string &note = "");

    /** A *_tail metric: value at the highest percentile with >= 10
     *  samples beyond it. With too few samples no metric is recorded
     *  (a fact says why). */
    void tail(const std::string &name, const std::vector<double> &values,
              const std::string &unit);

    /** Median of @p values with its sample count. */
    void p50(const std::string &name, const std::vector<double> &values,
             const std::string &unit);

    /** Bind contract name @p name to the already recorded @p source. */
    void alias(const std::string &name, const std::string &source);

    /** A correctness check; any failure makes the run incorrect. */
    void check(const std::string &name, bool ok,
               const std::string &detail = "");

    /** Operations attempted / failed (failed_frac = failed/attempted). */
    void attempted(std::uint64_t n) { attempted_ += n; }
    void failed(std::uint64_t n) { failed_ += n; }

    const Metric *find(const std::string &name) const;
    bool correct() const { return checks_failed_ == 0; }

    /**
     * Print the full report, then the result line carrying exactly
     * @p contract. Returns false (and prints no result line) when a
     * contract metric was never recorded — a benchmark bug.
     */
    bool print(const std::vector<std::string> &contract) const;

  private:
    std::vector<std::pair<std::string, std::string>> host_;
    std::vector<std::pair<std::string, std::string>> facts_;
    std::vector<Metric> metrics_;
    std::vector<std::string> check_lines_;
    std::size_t checks_failed_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

} // namespace perfbench
