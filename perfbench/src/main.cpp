// perfbench — the sdrbist benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--reference FILE] [--work-dir DIR] [--trace-out FILE]
//             [--smoke] [--git-describe TEXT] [--source-digest TEXT]
//   perfbench --record-reference FILE --workload NAME --seeds 1,2,3
//
// Prints one full record line (host and build metadata, correctness
// detail, metrics) and, last, the summary line
//   {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
// Exit status: 0 when the correctness gate passed, 1 when it failed, 2 on
// a usage or runtime error (no summary line then).  run.py builds this
// program and forwards its arguments; see NOTES.md.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "campaign/export.hpp"
#include "core/build_info.hpp"

namespace {

using sdrbist::campaign::json_number;
using sdrbist::campaign::json_quote;

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--smoke]\n"
                 "       perfbench --record-reference FILE "
                 "--workload NAME --seeds 1,2,...\n";
    std::exit(2);
}

std::vector<std::uint64_t> parse_seeds(const std::string& list) {
    std::vector<std::uint64_t> out;
    std::stringstream ss(list);
    for (std::string item; std::getline(ss, item, ',');)
        out.push_back(std::stoull(item));
    return out;
}

/// Append `,"key":value` to a JSON object under construction.
void append_field(std::string& s, const std::string& key,
                  const std::string& value) {
    s += ',';
    s += json_quote(key);
    s += ':';
    s += value;
}

/// `[items...]` / `{items...}` from already-rendered members.
std::string join(char open, const std::vector<std::string>& items,
                 char close) {
    std::string s(1, open);
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            s += ',';
        s += items[i];
    }
    s += close;
    return s;
}

std::string host_json(unsigned threads, const std::string& git,
                      const std::string& digest) {
    std::string s = "{\"hardware_threads\":" +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ",\"bench_threads\":" + std::to_string(threads);
    for (const auto& [k, v] : sdrbist::build_info_fields())
        append_field(s, k, json_quote(v));
    s += ",\"git_describe\":" + json_quote(git) +
         ",\"source_digest\":" + json_quote(digest) + "}";
    return s;
}

} // namespace

int main(int argc, char** argv) {
    perfbench::bench_options opt;
    std::string git = "unknown";
    std::string digest = "unknown";
    std::string record_path;
    std::string seeds;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload")
                opt.workload = value();
            else if (a == "--seed")
                opt.seed = std::stoull(value()), have_seed = true;
            else if (a == "--seconds")
                opt.seconds = std::stod(value()), have_seconds = true;
            else if (a == "--trace")
                opt.trace = value() != "0", have_trace = true;
            else if (a == "--reference")
                opt.reference = value();
            else if (a == "--work-dir")
                opt.work_dir = value();
            else if (a == "--trace-out")
                opt.trace_out = value();
            else if (a == "--smoke")
                opt.smoke = true;
            else if (a == "--git-describe")
                git = value();
            else if (a == "--source-digest")
                digest = value();
            else if (a == "--record-reference")
                record_path = value();
            else if (a == "--seeds")
                seeds = value();
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error&) {
            usage("bad value for " + a);
        }
    }
    const auto& names = perfbench::workload_names();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end())
        usage("unknown workload '" + opt.workload + "'");
    // At most four compute threads, so the load is the same on any host
    // with at least four hardware threads.
    opt.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

    try {
        if (!record_path.empty()) {
            if (seeds.empty())
                usage("--record-reference needs --seeds");
            return perfbench::record_reference(opt.workload,
                                               parse_seeds(seeds),
                                               opt.threads, git, record_path)
                       ? 0
                       : 1;
        }
        if (!have_seed || !have_seconds || !have_trace)
            usage("--seed, --seconds and --trace are required");
        if (opt.reference.empty() || opt.work_dir.empty())
            usage("--reference and --work-dir are required");

        const perfbench::bench_result r = perfbench::run_benchmark(opt);

        std::vector<std::string> members;
        for (const auto& m : r.metrics)
            members.push_back(json_quote(m.name) + ":{\"value\":" +
                              json_number(m.value) +
                              ",\"unit\":" + json_quote(m.unit) + "}");
        const std::string metrics = join('{', members, '}');
        const bool correct = r.failed == 0;

        std::string record =
            "{\"record\":\"perfbench\",\"workload\":" +
            json_quote(opt.workload) +
            ",\"seed\":" + std::to_string(opt.seed) +
            ",\"seconds\":" + json_number(opt.seconds) +
            ",\"trace\":" + (opt.trace ? "1" : "0") +
            ",\"smoke\":" + (opt.smoke ? "true" : "false") +
            ",\"host\":" + host_json(opt.threads, git, digest);
        for (const auto& [k, v] : r.record)
            append_field(record, k, v);
        std::vector<std::string> notes;
        for (const auto& n : r.notes)
            notes.push_back(json_quote(n));
        append_field(record, "gate_notes", join('[', notes, ']'));
        append_field(record, "metrics", metrics);
        record += '}';

        for (const auto& n : r.notes)
            std::cerr << "correctness gate: " << n << "\n";
        std::cout << record << "\n"
                  << "{\"correct\":" << (correct ? "true" : "false")
                  << ",\"attempted\":" << r.attempted
                  << ",\"failed\":" << r.failed << ",\"metrics\":" << metrics
                  << "}" << std::endl;
        return correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
