#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

void
Report::host(const std::string &key, const std::string &value)
{
    host_.emplace_back(key, value);
}

void
Report::fact(const std::string &key, const std::string &value)
{
    facts_.emplace_back(key, value);
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, std::size_t samples,
               const std::string &note)
{
    metrics_.push_back(Metric{name, value, unit, samples, note});
}

void
Report::tail(const std::string &name, const std::vector<double> &values,
             const std::string &unit)
{
    const auto t = tailPercentile(values);
    if (!t) {
        fact(name, "n/a: " + std::to_string(values.size()) +
                       " samples, a tail needs 10 beyond p50, so >= 20");
        return;
    }
    char note[64];
    std::snprintf(note, sizeof note, "p%g beyond=%zu", t->percentile,
                  t->beyond);
    metric(name, t->value, unit, t->samples, note);
}

void
Report::p50(const std::string &name, const std::vector<double> &values,
            const std::string &unit)
{
    if (values.empty()) {
        fact(name, "n/a: no samples");
        return;
    }
    metric(name, median(values), unit, values.size(), "p50");
}

void
Report::alias(const std::string &name, const std::string &source)
{
    if (const Metric *m = find(source)) {
        Metric copy = *m;
        copy.name = name;
        copy.note = "= " + source;
        metrics_.push_back(copy);
    }
}

void
Report::check(const std::string &name, bool ok, const std::string &detail)
{
    if (!ok)
        ++checks_failed_;
    check_lines_.push_back("check " + name + (ok ? " ok" : " FAIL") +
                           (detail.empty() ? "" : " " + detail));
}

const Metric *
Report::find(const std::string &name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return &m;
    return nullptr;
}

bool
Report::print(const std::vector<std::string> &contract) const
{
    for (const auto &[k, v] : host_)
        std::printf("host %s=%s\n", k.c_str(), v.c_str());
    for (const auto &[k, v] : facts_)
        std::printf("fact %s=%s\n", k.c_str(), v.c_str());
    for (const Metric &m : metrics_) {
        std::printf("metric %-36s %18s %-8s n=%zu%s%s\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit.c_str(), m.samples,
                    m.note.empty() ? "" : "  ", m.note.c_str());
    }
    for (const std::string &line : check_lines_)
        std::printf("%s\n", line.c_str());

    std::string out = "{\"correct\": ";
    out += correct() && failed_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < contract.size(); ++i) {
        const Metric *m = find(contract[i]);
        if (!m || !std::isfinite(m->value)) {
            std::fflush(stdout);
            std::fprintf(stderr, "perfbench: contract metric '%s' %s\n",
                         contract[i].c_str(),
                         m ? "is not finite" : "was not recorded");
            return false;
        }
        out += (i ? ", \"" : "\"") + m->name + "\": {\"value\": " +
               number(m->value) + ", \"unit\": \"" + m->unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return true;
}

} // namespace perfbench
