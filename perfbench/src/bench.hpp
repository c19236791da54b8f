/// \file bench.hpp
/// \brief The benchmark's workloads, timed passes and traced run.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// What one invocation runs.
struct bench_options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< length of the timed phase
    bool trace = false;     ///< per-layer run instead of the timed run
    bool smoke = false;     ///< tiny grids (harness self-test only)
    std::string reference;  ///< reference file of the workload
    std::string work_dir;   ///< working space (stores), removed at the end
    std::string trace_out;  ///< Chrome-trace path for the traced run
    unsigned threads = 1;   ///< compute threads (at most the host's)
};

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct bench_result {
    std::vector<metric> metrics;
    /// Extra fields of the full record line: (key, JSON value text).
    std::vector<std::pair<std::string, std::string>> record;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> notes; ///< one line per correctness failure
};

/// The workload names, in the order the notes describe them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload (timed or traced, per `opt.trace`).
[[nodiscard]] bench_result run_benchmark(const bench_options& opt);

/// Grade the full grid of `workload` for every seed in `seeds` and write
/// the reference file to `path`.  Fails (returns false, with a message on
/// stderr) when a cell's verdict is not the same for every seed and trial:
/// such a cell would make the gate depend on the seed.
[[nodiscard]] bool record_reference(const std::string& workload,
                                    const std::vector<std::uint64_t>& seeds,
                                    unsigned threads,
                                    const std::string& recorded_from,
                                    const std::string& path);

} // namespace perfbench
