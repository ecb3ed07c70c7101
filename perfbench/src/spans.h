/**
 * @file
 * In-memory span recorder of the traced benchmark run.
 *
 * Spans are recorded from the benchmark's own files around calls into
 * a module's public functions (the program itself carries no zones).
 * Each span has a name "<layer>.<call>", start and end on the steady
 * clock, the span that caused it (the innermost open one on this
 * thread) and a request id shared by the spans of one request. Spans
 * stay in memory and are written out once, at the end, as a Chrome
 * trace (chrome://tracing / Perfetto). A disabled recorder reads no
 * clock and stores nothing — that is the untraced run.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds (steady clock). */
std::int64_t nowNs();

/** Measured host cost of opening and closing one span, ns. */
double spanCostNs();

struct SpanRecord
{
    std::uint32_t name = 0;  //!< SpanRecorder::intern id
    std::int32_t parent = -1; //!< index of the causing span; -1 = root
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/** Per-name totals over every recorded span. */
struct SpanSummary
{
    std::string name;
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0; //!< total minus child-covered time
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled);

    bool enabled() const { return enabled_; }

    /** Id of @p name ("<layer>.<call>"); the same name, the same id. */
    std::uint32_t intern(const std::string &name);

    /** RAII span: opened by SpanRecorder::open, closed on scope exit. */
    class Scope
    {
      public:
        Scope(SpanRecorder *recorder, std::int32_t index)
            : recorder_(recorder), index_(index)
        {
        }
        Scope(Scope &&other) noexcept
            : recorder_(other.recorder_), index_(other.index_)
        {
            other.recorder_ = nullptr;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        Scope &operator=(Scope &&) = delete;
        ~Scope();

      private:
        SpanRecorder *recorder_;
        std::int32_t index_;
    };

    /** Open a span of @p name; inert when the recorder is disabled. */
    Scope open(std::uint32_t name, std::uint64_t request = 0);

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Durations (ms) of every span of @p name, in record order. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** Totals and self times per name, in intern order. */
    std::vector<SpanSummary> summarize() const;

    /** Write every span as a Chrome trace-event JSON file. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    void close(std::int32_t index);

    bool enabled_;
    std::vector<std::string> names_;
    std::vector<SpanRecord> spans_;
    std::vector<std::int32_t> open_; //!< stack of open span indices
};

} // namespace perfbench
