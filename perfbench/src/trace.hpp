/// \file trace.hpp
/// \brief In-memory span and count recorder for the traced benchmark run.
///
/// Spans are recorded only by the benchmark's own code, around its calls
/// into the library's public layer functions; nothing inside the library
/// is instrumented.  Each span keeps its name, start, end, the span that
/// was open on the same thread when it started (its parent) and the id of
/// the scenario it belongs to.  Recording is off until `enable()`, so the
/// untraced timed passes pay one relaxed load per probe.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One finished (or still open, end_ns < 0) span.
struct span_record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    std::int64_t parent = -1;    ///< index into the span list, -1 = root
    std::uint32_t thread = 0;    ///< small per-thread number
    std::int64_t scenario = -1;  ///< grid index, -1 = not scenario work
};

/// Steady-clock time in nanoseconds.
std::int64_t now_ns();

namespace trace {

/// Start recording spans and counts (drops anything recorded before).
void enable();
/// Stop recording (what was recorded is kept).
void disable();
[[nodiscard]] bool enabled();

/// Add `n` to the named count (no-op while disabled).
void count(const std::string& name, double n);

/// Snapshot of every span recorded so far, in start order per thread.
[[nodiscard]] std::vector<span_record> spans();
/// Snapshot of every count.
[[nodiscard]] std::map<std::string, double> counts();

/// Per-name aggregate: call count, summed duration and summed self time
/// (duration minus the part of the interval its child spans cover).
struct span_totals {
    std::size_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
};
[[nodiscard]] std::map<std::string, span_totals>
aggregate(const std::vector<span_record>& spans);

/// Chrome-trace JSON ("X" events, microseconds) with `metadata_json` (a
/// JSON object) stored under "metadata".
[[nodiscard]] std::string
chrome_trace_json(const std::vector<span_record>& spans,
                  const std::string& metadata_json);

} // namespace trace

/// RAII span.  Inert when recording is off.
class scoped_span {
public:
    explicit scoped_span(const char* name);
    ~scoped_span();
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    std::int64_t index_ = -1;
};

/// Tags every span opened on this thread while alive with `scenario`.
class scenario_scope {
public:
    explicit scenario_scope(std::int64_t scenario);
    ~scenario_scope();
    scenario_scope(const scenario_scope&) = delete;
    scenario_scope& operator=(const scenario_scope&) = delete;

private:
    std::int64_t previous_;
};

} // namespace perfbench
