/// \file bench_util.hpp
/// \brief Shared scenario builders for the figure/table reproduction
///        harnesses: the paper's evaluation setup (QPSK/SRRC at 1 GHz,
///        10-bit BP-TIADC at 90 + 45 MHz, 3 ps jitter, D = 180 ps) and the
///        reconstruction-error evaluator used by Table I.
#pragma once

#include <cmath>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bist/engine.hpp"
#include "campaign/export.hpp"
#include "core/build_info.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"

namespace sdrbist::benchutil {

// ---------------------------------------------------------------------------
// Machine-readable bench output.
//
// Perf benches print one `BENCH_JSON {...}` line per result so dashboards
// and future PRs can track the trajectory with
// `./bench_x | grep ^BENCH_JSON | cut -d' ' -f2-`.  Keys are emitted in
// insertion order, numbers in shortest round-trip form.
// ---------------------------------------------------------------------------

/// One flat JSON record assembled field by field.
class json_record {
public:
    json_record& add(const std::string& key, double value) {
        return add_raw(key, campaign::json_number(value));
    }
    json_record& add(const std::string& key, std::size_t value) {
        return add_raw(key, std::to_string(value));
    }
    json_record& add(const std::string& key, const std::string& value) {
        return add_raw(key, campaign::json_quote(value));
    }
    /// Append a pre-rendered JSON value (nested array/object).
    json_record& add_raw(const std::string& key, const std::string& raw) {
        fields_.emplace_back(key, raw);
        return *this;
    }
    /// Append all fields of another record.
    json_record& merge(const json_record& other) {
        fields_.insert(fields_.end(), other.fields_.begin(),
                       other.fields_.end());
        return *this;
    }
    [[nodiscard]] std::string str() const {
        std::string out = "{";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            if (i)
                out += ',';
            out += campaign::json_quote(fields_[i].first) + ":" +
                   fields_[i].second;
        }
        return out + "}";
    }

private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/// Print the canonical machine-readable line for one bench result.  Every
/// line carries the host's hardware-thread count, the compiler and the
/// build type, so a figure can be read against the cores and the build it
/// ran on.
inline void emit_bench_json(const std::string& bench_name,
                            const json_record& record,
                            std::ostream& os = std::cout) {
    json_record line;
    line.add("bench", bench_name);
    line.add("hw_threads",
             std::size_t{std::thread::hardware_concurrency()});
    for (const auto& [key, value] : build_info_fields())
        if (key == "compiler" || key == "build_type")
            line.add(key, value);
    line.merge(record);
    os << "BENCH_JSON " << line.str() << "\n";
}

/// One fully-executed paper-configuration BIST run.
struct paper_run {
    bist::bist_config config;
    bist::bist_report report;
    bist::bist_artifacts art;
};

/// Execute the default (paper) configuration and keep all artefacts.
inline paper_run run_paper_engine(
    const std::function<void(bist::bist_config&)>& tweak = {}) {
    paper_run r;
    r.config.tiadc.quant.full_scale = 2.0;
    if (tweak)
        tweak(r.config);
    const bist::bist_engine engine(r.config);
    auto [report, art] = engine.run_verbose();
    r.report = std::move(report);
    r.art = std::move(art);
    return r;
}

/// Relative RMS error between the reconstruction of the estimation capture
/// under hypothesis `d_hat` and the true (analog) capture-path signal —
/// the paper's Δε(f^T_D̂(t)) column of Table I.
inline double reconstruction_rel_error(const paper_run& run, double d_hat,
                                       std::size_t n_eval = 400,
                                       std::uint64_t seed = 0xE7A1) {
    const auto& cap = run.art.capture.fast;
    const sampling::pnbs_reconstructor recon(
        cap.even, cap.odd, cap.period_s, cap.t_start,
        run.art.capture.band_fast, d_hat, run.config.lms.recon);

    rng gen(seed);
    std::vector<double> ref(n_eval), est(n_eval);
    const double scale = run.config.auto_range ? run.art.ranging.input_scale
                                               : 1.0;
    for (std::size_t i = 0; i < n_eval; ++i) {
        const double t = gen.uniform(recon.valid_begin(), recon.valid_end());
        ref[i] = scale * run.art.capture_input->value(t);
        est[i] = recon.value(t);
    }
    return relative_rms_error(ref, est);
}

} // namespace sdrbist::benchutil
