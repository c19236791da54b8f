#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>

#include "campaign/export.hpp"

namespace perfbench {

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

std::atomic<bool> g_on{false};
std::mutex g_mu;
std::vector<span_record> g_spans;
std::map<std::string, double> g_counts;
std::atomic<std::uint32_t> g_next_thread{0};

thread_local std::vector<std::int64_t> t_open;
thread_local std::int64_t t_scenario = -1;
thread_local std::uint32_t t_thread = g_next_thread.fetch_add(1);

} // namespace

namespace trace {

void enable() {
    const std::lock_guard<std::mutex> lock(g_mu);
    g_spans.clear();
    g_counts.clear();
    g_on.store(true, std::memory_order_relaxed);
}

void disable() { g_on.store(false, std::memory_order_relaxed); }

bool enabled() { return g_on.load(std::memory_order_relaxed); }

void count(const std::string& name, double n) {
    if (!enabled())
        return;
    const std::lock_guard<std::mutex> lock(g_mu);
    g_counts[name] += n;
}

std::vector<span_record> spans() {
    const std::lock_guard<std::mutex> lock(g_mu);
    return g_spans;
}

std::map<std::string, double> counts() {
    const std::lock_guard<std::mutex> lock(g_mu);
    return g_counts;
}

std::map<std::string, span_totals>
aggregate(const std::vector<span_record>& spans) {
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const auto& s : spans)
        if (s.parent >= 0 && s.end_ns >= 0)
            child_ms[static_cast<std::size_t>(s.parent)] +=
                1e-6 * static_cast<double>(s.end_ns - s.start_ns);
    std::map<std::string, span_totals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& s = spans[i];
        if (s.end_ns < 0)
            continue;
        const double ms = 1e-6 * static_cast<double>(s.end_ns - s.start_ns);
        auto& t = out[s.name];
        ++t.calls;
        t.total_ms += ms;
        t.self_ms += ms - child_ms[i];
    }
    return out;
}

std::string chrome_trace_json(const std::vector<span_record>& spans,
                              const std::string& metadata_json) {
    std::int64_t epoch = 0;
    for (const auto& s : spans)
        if (epoch == 0 || s.start_ns < epoch)
            epoch = s.start_ns;
    std::ostringstream o;
    o << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& s = spans[i];
        if (s.end_ns < 0)
            continue;
        o << (first ? "" : ",") << "\n{\"name\":"
          << sdrbist::campaign::json_quote(s.name)
          << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << s.thread << ",\"ts\":"
          << sdrbist::campaign::json_number(
                 1e-3 * static_cast<double>(s.start_ns - epoch))
          << ",\"dur\":"
          << sdrbist::campaign::json_number(
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns))
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"scenario\":" << s.scenario << "}}";
        first = false;
    }
    o << "\n],\"displayTimeUnit\":\"ms\",\"metadata\":" << metadata_json
      << "}\n";
    return o.str();
}

} // namespace trace

scoped_span::scoped_span(const char* name) {
    if (!trace::enabled())
        return;
    span_record r;
    r.name = name;
    r.parent = t_open.empty() ? -1 : t_open.back();
    r.thread = t_thread;
    r.scenario = t_scenario;
    {
        const std::lock_guard<std::mutex> lock(g_mu);
        index_ = static_cast<std::int64_t>(g_spans.size());
        g_spans.push_back(std::move(r));
    }
    t_open.push_back(index_);
    const std::int64_t start = now_ns();
    const std::lock_guard<std::mutex> lock(g_mu);
    g_spans[static_cast<std::size_t>(index_)].start_ns = start;
}

scoped_span::~scoped_span() {
    if (index_ < 0)
        return;
    const std::int64_t end = now_ns();
    t_open.pop_back();
    const std::lock_guard<std::mutex> lock(g_mu);
    if (static_cast<std::size_t>(index_) < g_spans.size())
        g_spans[static_cast<std::size_t>(index_)].end_ns = end;
}

scenario_scope::scenario_scope(std::int64_t scenario)
    : previous_(t_scenario) {
    t_scenario = scenario;
}

scenario_scope::~scenario_scope() { t_scenario = previous_; }

} // namespace perfbench
