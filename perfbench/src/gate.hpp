/// \file gate.hpp
/// \brief Correctness gate: every graded pass is checked against a
///        reference recorded with the benchmark (perfbench/reference/).
///
/// A reference holds, per workload:
///  * the expected verdict of every (preset, fault) cell.  Verdicts are a
///    property of the device physics, not of the seed: recording asserts
///    that every recorded seed agrees, so the gate applies to any seed;
///  * the expected golden yield and fault coverage of the full grid;
///  * for each recorded seed, every scenario's EVM and worst mask margin
///    and the digest of the timing-free JSON export.  Those are compared
///    when the run's seed was recorded; the deltas are reported, not
///    gated, so a later change to the DSP that moves graded values but
///    keeps every verdict still passes.
///
/// Within a run the gate also requires the timing-free exports of all
/// passes to be byte-identical.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"

namespace perfbench {

struct seed_detail {
    std::string export_digest;
    std::vector<double> evm_percent;    ///< grid order
    std::vector<double> mask_margin_db; ///< grid order
};

struct reference {
    std::string workload;
    std::string recorded_from; ///< build identity it was recorded at
    std::map<std::string, bool> cell_flagged; ///< "preset/fault" -> FAIL
    double golden_yield = 0.0;
    double fault_coverage = 0.0;
    std::map<std::uint64_t, seed_detail> seeds;
};

[[nodiscard]] reference load_reference(const std::string& path);
[[nodiscard]] std::string reference_json(const reference& ref);

/// Key of a coverage cell.
[[nodiscard]] std::string cell_key(const std::string& preset,
                                   const std::string& fault);

/// FNV-1a digest (hex) of the timing-free JSON export of `result`.
[[nodiscard]] std::string export_digest(
    const sdrbist::campaign::campaign_result& result);

/// Accumulates the gate's findings over every pass of a run.
class gate {
public:
    /// The recorded detail of `seed`, if any, is only used when
    /// `full_grid` (the smoke grids are subsets of the recorded grid).
    gate(reference ref, std::uint64_t seed, bool full_grid);

    /// Check the rows of one pass (any subset of the grid).  Rows of
    /// another grid than the run's (the warm-up) set `of_run_grid` false:
    /// they are held to their cell's verdict but not to the seed's
    /// recorded values.  Returns the number of rows that failed.
    std::size_t check_rows(
        const std::vector<sdrbist::campaign::scenario_result>& rows,
        bool of_run_grid = true);

    /// Check a complete pass: rows, coverage matrix, yield/coverage, and
    /// export identity with the run's first pass.  Returns the number of
    /// failed rows.
    std::size_t check_pass(const sdrbist::campaign::campaign_result& result);

    [[nodiscard]] std::size_t attempted() const { return attempted_; }
    [[nodiscard]] std::size_t failed() const { return failed_; }
    [[nodiscard]] bool correct() const { return failed_ == 0; }
    /// One line per failure found.
    [[nodiscard]] const std::vector<std::string>& notes() const {
        return notes_;
    }
    /// Largest |ΔEVM| (percentage points) and |Δmask margin| (dB) against
    /// the recorded detail; nullopt when this seed was not recorded.
    [[nodiscard]] std::optional<double> max_abs_delta_evm() const;
    [[nodiscard]] std::optional<double> max_abs_delta_mask_db() const;
    /// Whether the first pass's export equals the recorded export digest
    /// (nullopt when this seed was not recorded).
    [[nodiscard]] std::optional<bool> export_matches_reference() const {
        return export_matches_;
    }
    /// Record a failure found outside the row checks (e.g. a replica that
    /// disagrees with the campaign).
    void fail(std::size_t rows, const std::string& note);

private:
    void note(const std::string& s);

    reference ref_;
    bool full_grid_ = false;
    std::optional<seed_detail> detail_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    double max_evm_ = 0.0;
    double max_mask_ = 0.0;
    std::optional<std::string> first_export_;
    std::optional<bool> export_matches_;
    std::vector<std::string> notes_;
};

} // namespace perfbench
