// Shard result files: the full-fidelity campaign_result serialisation the
// cross-process `--merge` mode is built on.  Locks (a) lossless round-trip
// of synthetic results exercising every report field (skew traces, EVM
// symbols, mask segments, non-finite values, engine errors), and (b) the
// end-to-end property: shard files written by real sharded runs merge into
// a result whose exports are byte-identical to the unsharded run's.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>

#include "campaign/artefact_store/stage_codec.hpp"
#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "campaign/shard_io.hpp"
#include "core/contracts.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sdrbist;
using namespace sdrbist::campaign;

/// A synthetic shard exercising the deep report structure the summary
/// exports drop: LMS traces, received symbols, mask segments, NaN/inf
/// fields, 64-bit seeds beyond 2^53, and an engine-error row.
campaign_result synthetic_shard(std::size_t index, std::size_t count) {
    campaign_result shard;
    shard.preset_names = {"alpha", "odd \"name, quoted\""};
    shard.fault_names = {"none", "pa-gain-drop"};
    shard.trials = 1;
    shard.seed = 0xFFFFFFFFFFFFFFF5ull; // not representable as a double
    shard.shard_index = index;
    shard.shard_count = count;
    shard.grid_size = 4;
    shard.threads_used = 3;
    shard.wall_s = 1.25 + static_cast<double>(index);
    shard.store_hits = 1 + index;
    shard.store_misses = 2;
    shard.stage_reuse_hits = 5 + index;
    shard.stage_reuse_computes = 3;

    for (std::size_t i = index; i < 4; i += count) {
        scenario_result row;
        row.sc.index = i;
        row.sc.preset_index = i / 2;
        row.sc.fault_index = i % 2;
        row.sc.trial = 0;
        row.sc.fault = (i % 2) == 0 ? bist::fault_kind::none
                                    : bist::fault_kind::pa_gain_drop;
        row.sc.preset_name = shard.preset_names[row.sc.preset_index];
        row.sc.seed = 0x8000000000000001ull + i;
        row.elapsed_s = 0.0078125 * static_cast<double>(i + 1);

        bist::bist_report& rep = row.report;
        rep.preset_name = row.sc.preset_name;
        rep.carrier_hz = 1.0e9 + static_cast<double>(i);
        rep.skew.d_hat = 1.8e-10;
        rep.skew.final_cost = 3.0e-9;
        rep.skew.iterations = 17 + i;
        rep.skew.converged = true;
        rep.skew.cost_evaluations = 123;
        rep.skew.trace = {{1, 2.0e-10, 5.0e-9, 0.5},
                          {2, 1.9e-10, 4.0e-9, 0.25}};
        rep.dual_rate_conditions_ok = true;
        rep.max_search_delay_s = 4.83e-10;
        rep.plan_discrimination = 0.125;
        rep.mask.pass = true;
        rep.mask.worst_margin_db = 4.5;
        rep.mask.reference_dbhz =
            std::numeric_limits<double>::quiet_NaN(); // null round-trip
        rep.mask.segments.push_back(
            {{10e6, 20e6, -30.0}, -35.5, 5.5, true});
        rep.evm.evm_rms = 0.015625;
        rep.evm.evm_peak = 0.03125;
        rep.evm.gain = {0.75, -0.125};
        rep.evm.timing_offset = 2.5e-8;
        rep.evm.received_symbols = {{1.0, -1.0}, {0.5, 0.25}};
        rep.evm_pass = true;
        rep.evm_limit_percent = 8.0;
        rep.measured_output_rms = 1.5;
        rep.power_pass = true;
        rep.acpr.main_power = 2.0;
        rep.acpr.lower_dbc = -42.5;
        rep.acpr.upper_dbc = -40.25;
        rep.acpr_pass = true;
        rep.occupied_bw_hz = 1.5e7;

        if (i == 3) {
            row.engine_error = true;
            row.error = "precondition violated: `x`\nwith \"quotes\"";
        }
        shard.results.push_back(std::move(row));
    }
    return shard;
}

TEST(ShardIo, RoundTripIsLossless) {
    const auto shard = synthetic_shard(0, 2);
    const std::string text = result_to_json(shard);
    const auto back = result_from_json(parse_json(text));

    // Deterministic serialisation: a second generation is byte-identical,
    // which (with the field-count audit below) pins losslessness.
    EXPECT_EQ(result_to_json(back), text);
    EXPECT_EQ(back.preset_names, shard.preset_names);
    EXPECT_EQ(back.fault_names, shard.fault_names);
    EXPECT_EQ(back.seed, shard.seed);
    EXPECT_EQ(back.shard_index, shard.shard_index);
    EXPECT_EQ(back.grid_size, shard.grid_size);
    EXPECT_EQ(back.store_hits, shard.store_hits);
    EXPECT_EQ(back.stage_reuse_hits, shard.stage_reuse_hits);
    ASSERT_EQ(back.results.size(), shard.results.size());
    for (std::size_t i = 0; i < back.results.size(); ++i) {
        const auto& a = back.results[i];
        const auto& b = shard.results[i];
        EXPECT_EQ(a.sc.index, b.sc.index);
        EXPECT_EQ(a.sc.seed, b.sc.seed);
        EXPECT_EQ(a.sc.fault, b.sc.fault);
        EXPECT_EQ(a.engine_error, b.engine_error);
        EXPECT_EQ(a.error, b.error);
        EXPECT_EQ(a.elapsed_s, b.elapsed_s);
        // The report round-trips bit-for-bit (NaN collapses to quiet NaN,
        // which report_json renders identically).
        EXPECT_EQ(report_json(a.report), report_json(b.report));
        EXPECT_EQ(a.report.skew.trace.size(), b.report.skew.trace.size());
        EXPECT_EQ(a.report.evm.received_symbols,
                  b.report.evm.received_symbols);
    }
}

TEST(ShardIo, MergedSyntheticShardsMatchDirectMerge) {
    const auto s0 = synthetic_shard(0, 2);
    const auto s1 = synthetic_shard(1, 2);
    const auto direct = merge_results({s0, s1});

    const auto r0 = result_from_json(parse_json(result_to_json(s0)));
    const auto r1 = result_from_json(parse_json(result_to_json(s1)));
    const auto via_files = merge_results({r1, r0}); // order must not matter

    EXPECT_EQ(to_json(via_files), to_json(direct));
    EXPECT_EQ(coverage_csv(via_files), coverage_csv(direct));
    EXPECT_EQ(scenarios_jsonl(via_files), scenarios_jsonl(direct));
    EXPECT_EQ(via_files.stage_reuse_hits, direct.stage_reuse_hits);
}

TEST(ShardIo, FileHelpersAndFailureModes) {
    const auto shard = synthetic_shard(0, 2);
    const fs::path path = "shard_io_test.tmp.json";
    fs::remove(path);
    ASSERT_TRUE(write_result_file(path.string(), shard));
    const auto back = read_result_file(path.string());
    EXPECT_EQ(result_to_json(back), result_to_json(shard));
    fs::remove(path);

    EXPECT_THROW(static_cast<void>(read_result_file("does-not-exist.json")),
                 contract_violation);

    // Version skew and malformed content fail loudly, never half-parse.
    {
        std::ofstream bad(path, std::ios::binary);
        bad << "{\"shard_file_version\":99}";
    }
    EXPECT_THROW(static_cast<void>(read_result_file(path.string())),
                 contract_violation);
    {
        std::ofstream bad(path, std::ios::binary | std::ios::trunc);
        bad << "not json";
    }
    EXPECT_THROW(static_cast<void>(read_result_file(path.string())),
                 contract_violation);
    fs::remove(path);
}

TEST(ShardIo, HostileCountsFailLoudly) {
    // Counts are checked before the cast to an integer (1e30 would be
    // undefined behaviour): out-of-range, negative and fractional values
    // reject the file instead of truncating.  "count" is the first
    // telemetry category's span count.
    const std::string text = result_to_json(synthetic_shard(0, 2));
    for (const std::string field : {"trials", "grid_size", "store_hits",
                                    "index", "attempts", "count"}) {
        for (const std::string value : {"1e30", "-1", "2.5"}) {
            std::string bad = text;
            const std::string key = "\"" + field + "\":";
            const std::size_t at = bad.find(key);
            ASSERT_NE(at, std::string::npos) << field;
            const std::size_t begin = at + key.size();
            bad.replace(begin, bad.find_first_of(",}", begin) - begin, value);
            EXPECT_THROW(static_cast<void>(result_from_json(parse_json(bad))),
                         contract_violation)
                << field << "=" << value;
        }
    }
}

TEST(ShardIo, RealShardedRunsMergeBitIdenticalToUnsharded) {
    campaign_config cfg;
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.base.min_output_rms = 1.2;
    cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
    cfg.faults = {bist::fault_kind::none, bist::fault_kind::pa_gain_drop};
    cfg.trials = 2;
    cfg.seed = 0x5A4Dull;
    cfg.threads = 2;

    const auto unsharded = campaign_runner(cfg).run();

    std::vector<campaign_result> shards;
    for (std::size_t i = 0; i < 2; ++i) {
        auto shard_cfg = cfg;
        shard_cfg.shard = {i, 2};
        const auto shard = campaign_runner(shard_cfg).run();
        // Through the file format, exactly like the CLI's --merge.
        shards.push_back(
            result_from_json(parse_json(result_to_json(shard))));
    }
    const auto merged = merge_results(shards);

    export_options opt;
    opt.include_timing = false;
    EXPECT_EQ(to_json(merged, opt), to_json(unsharded, opt));
    EXPECT_EQ(coverage_csv(merged), coverage_csv(unsharded));
    EXPECT_EQ(scenarios_csv(merged, opt), scenarios_csv(unsharded, opt));
    EXPECT_EQ(scenarios_jsonl(merged, opt), scenarios_jsonl(unsharded, opt));
}

} // namespace
