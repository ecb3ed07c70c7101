#include "spans.h"

#include <chrono>
#include <cstdio>

#include "stats.h"

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
spanCostNs()
{
    constexpr int kSpans = 100000;
    SpanRecorder probe(true);
    const std::uint32_t id = probe.intern("probe.span");
    const std::int64_t t0 = nowNs();
    for (int i = 0; i < kSpans; ++i)
        const auto span = probe.open(id);
    return static_cast<double>(nowNs() - t0) / kSpans;
}

SpanRecorder::SpanRecorder(bool enabled) : enabled_(enabled)
{
    if (enabled_)
        spans_.reserve(1u << 16);
}

std::uint32_t
SpanRecorder::intern(const std::string &name)
{
    for (std::uint32_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return i;
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
}

SpanRecorder::Scope::~Scope()
{
    if (recorder_)
        recorder_->close(index_);
}

SpanRecorder::Scope
SpanRecorder::open(std::uint32_t name, std::uint64_t request)
{
    if (!enabled_)
        return Scope(nullptr, -1);
    SpanRecord span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    if (request == 0 && span.parent >= 0)
        span.request = spans_[static_cast<std::size_t>(span.parent)].request;
    span.start_ns = nowNs();
    spans_.push_back(span);
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    open_.push_back(index);
    return Scope(this, index);
}

void
SpanRecorder::close(std::int32_t index)
{
    spans_[static_cast<std::size_t>(index)].end_ns = nowNs();
    // Scopes nest lexically, so the closing span is the innermost.
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

std::vector<double>
SpanRecorder::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (std::uint32_t id = 0; id < names_.size(); ++id) {
        if (names_[id] != name)
            continue;
        for (const SpanRecord &s : spans_)
            if (s.name == id)
                out.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                              1e6);
    }
    return out;
}

std::vector<SpanSummary>
SpanRecorder::summarize() const
{
    std::vector<std::vector<Interval>> children(spans_.size());
    for (const SpanRecord &s : spans_)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].push_back(
                Interval{s.start_ns, s.end_ns});
    std::vector<SpanSummary> out(names_.size());
    for (std::size_t i = 0; i < names_.size(); ++i)
        out[i].name = names_[i];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        SpanSummary &sum = out[s.name];
        ++sum.calls;
        sum.total_ns += s.end_ns - s.start_ns;
        sum.self_ns +=
            selfTime(Interval{s.start_ns, s.end_ns}, children[i]);
    }
    return out;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        const std::string &name = names_[s.name];
        const std::string layer = name.substr(0, name.find('.'));
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%llu}}",
                     i ? ",\n" : "", name.c_str(), layer.c_str(),
                     static_cast<double>(s.start_ns - origin) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                     s.parent, static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
