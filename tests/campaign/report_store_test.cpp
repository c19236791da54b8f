// Report entries in the stage-artefact store — the campaign's scenario
// result cache.  A report is keyed by the grading stage's input digest:
// stable, moved by any config field, independent of grid shape and of the
// preset name.  Warm reruns are all hits and bit-identical, overlapping
// grids and renamed presets share entries, corrupt entries are
// quarantined and re-graded, deterministic engine errors persist, and the
// report round-trips bit-exactly.  (The suites keep the names they had
// when the scenario cache was a separate class.)
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "bist/config_canonical.hpp"
#include "bist/stages.hpp"
#include "campaign/artefact_store/artefact_store.hpp"
#include "campaign/artefact_store/stage_codec.hpp"
#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "core/contracts.hpp"
#include "core/hash.hpp"
#include "support/scratch_dir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sdrbist;
using namespace sdrbist::campaign;
using sdrbist::testing::scratch_dir;

campaign_config small_campaign() {
    campaign_config cfg;
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.base.min_output_rms = 1.2;
    cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
    cfg.faults = {bist::fault_kind::none, bist::fault_kind::pa_gain_drop};
    cfg.trials = 1;
    cfg.threads = 2;
    cfg.seed = 0xCAC4Eull;
    return cfg;
}

/// The key a scenario's report entry is filed under.
std::uint64_t report_key(const campaign_config& cfg, const scenario& sc) {
    return bist::stage_input_digest(scenario_config(cfg, sc),
                                    bist::stage::grading);
}

std::vector<fs::path> report_entries(const fs::path& dir) {
    std::vector<fs::path> out;
    for (const auto& e : fs::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (e.is_regular_file() && name.size() > 11 &&
            name.compare(name.size() - 11, 11, "-report.sab") == 0)
            out.push_back(e.path());
    }
    return out;
}

std::string timing_free(const campaign_result& r) {
    export_options opt;
    opt.include_timing = false;
    return to_json(r, opt);
}

// ---- report keys ------------------------------------------------------------

TEST(CacheKey, StableAcrossCallsAndProcessShaped) {
    const auto cfg = small_campaign();
    const auto grid = expand_grid(cfg);
    const auto key = report_key(cfg, grid[0]);
    EXPECT_EQ(fnv1a64::hex_digest(key).size(), 16u);
    EXPECT_EQ(key, report_key(cfg, grid[0]));
    // Distinct scenarios get distinct keys.
    EXPECT_NE(key, report_key(cfg, grid[1]));
}

TEST(CacheKey, KernelChangeInvalidatesVersionOneKeysAndDigests) {
    // Stage input digests of one scenario as stage_canonical_version 1
    // computed them, before the table-driven PNBS kernel moved calibration
    // and reconstruction outputs in their last bits.  Entries stored under
    // these digests (the grading one is the report key) hold the old
    // values: none may be found again.
    const auto cfg = small_campaign();
    const auto grid = expand_grid(cfg);
    const auto mat0 = scenario_config(cfg, grid[0]);
    const std::uint64_t v1_digests[] = {
        0xb643b33ec28b7a2bull, 0xe878a894bc5e517dull, 0x4d7aab519b39dec9ull,
        0xf225f5174d45caaaull, 0xaee49996bf0f5407ull};
    std::size_t i = 0;
    for (const bist::stage s : bist::stage_order)
        EXPECT_NE(bist::stage_input_digest(mat0, s), v1_digests[i++])
            << bist::to_string(s);
}

TEST(CacheKey, EvmTableChangeInvalidatesVersionTwoReportKey) {
    // The grading digest (the report key) of the same scenario as
    // stage_canonical_version 2 computed it, before the tabulated SRRC
    // matched filter moved graded EVM in its last bits.  Reports stored
    // under it hold the old EVM: none may be found again.
    const auto cfg = small_campaign();
    const auto grid = expand_grid(cfg);
    constexpr std::uint64_t v2_report_key = 0x7ace50009f276cabull;
    EXPECT_NE(report_key(cfg, grid[0]), v2_report_key);
}

TEST(CacheKey, MovesWithGridCoordinatesAndConfig) {
    auto cfg = small_campaign();
    cfg.trials = 2;
    const auto grid = expand_grid(cfg);
    // grid[0] and grid[1]: same preset/fault, different trial — so
    // different device seeds under the default reseed policy.
    const auto k_trial0 = report_key(cfg, grid[0]);
    EXPECT_NE(k_trial0, report_key(cfg, grid[1]));

    // A different master seed moves every key (derived seeds change).
    auto reseeded = cfg;
    reseeded.seed ^= 0xF00Dull;
    EXPECT_NE(report_key(reseeded, expand_grid(reseeded)[0]), k_trial0);

    // Any engine-config field moves the key even at equal coordinates.
    auto tweaked = cfg;
    tweaked.base.evm_limit_percent = 7.5;
    const auto tgrid = expand_grid(tweaked);
    ASSERT_EQ(tgrid[0].seed, grid[0].seed) << "coordinates unchanged";
    EXPECT_NE(report_key(tweaked, tgrid[0]), k_trial0);

    // Monte-Carlo perturbations materialise into the config, hence the key.
    auto perturbed = cfg;
    perturbed.perturb.jitter_rel_sigma = 0.1;
    EXPECT_NE(report_key(perturbed, expand_grid(perturbed)[0]), k_trial0);
}

TEST(CacheKey, IndependentOfGridShape) {
    // Appending presets/faults keeps existing coordinates and thus keys:
    // that is what makes overlapping grids share report entries.
    const auto cfg = small_campaign();
    auto wider = cfg;
    wider.presets.push_back(waveform::find_preset("tactical-bpsk-2M"));
    wider.faults.push_back(bist::fault_kind::pa_overdrive);
    wider.trials = 3;
    // Scenario (preset 0, fault 0, trial 0) exists in both grids.
    EXPECT_EQ(report_key(cfg, expand_grid(cfg)[0]),
              report_key(wider, expand_grid(wider)[0]));
}

// ---- warm reruns ------------------------------------------------------------

TEST(ScenarioCache, WarmRerunIsAllHitsAndBitIdentical) {
    const scratch_dir dir("warm");
    auto cfg = small_campaign();
    cfg.stage_store_dir = dir.path.string();

    const auto cold = campaign_runner(cfg).run();
    EXPECT_EQ(cold.store_hits, 0u);
    // One report entry per scenario.
    EXPECT_EQ(report_entries(dir.path).size(), cold.scenario_count());

    const auto warm = campaign_runner(cfg).run();
    EXPECT_EQ(warm.store_hits, warm.scenario_count())
        << "one report entry per scenario, no stage entry read";
    EXPECT_EQ(warm.store_misses, 0u);
    EXPECT_EQ(warm.stage_reuse_computes, 0u);

    export_options opt;
    opt.include_timing = false;
    EXPECT_EQ(to_json(warm, opt), to_json(cold, opt));
    EXPECT_EQ(coverage_csv(warm), coverage_csv(cold));
    EXPECT_EQ(scenarios_jsonl(warm, opt), scenarios_jsonl(cold, opt));
    ASSERT_EQ(warm.matrix.size(), cold.matrix.size());
    for (std::size_t p = 0; p < cold.matrix.size(); ++p)
        for (std::size_t f = 0; f < cold.matrix[p].size(); ++f) {
            EXPECT_EQ(warm.cell(p, f).runs, cold.cell(p, f).runs);
            EXPECT_EQ(warm.cell(p, f).flagged, cold.cell(p, f).flagged);
        }
    // Reports round-tripped bit-exactly through the entries.
    for (std::size_t i = 0; i < cold.results.size(); ++i)
        EXPECT_EQ(report_json(warm.results[i].report),
                  report_json(cold.results[i].report));
    // The stored elapsed time is the grading cost, preserved on hits so
    // scenario_cpu_s keeps reporting what the grid costs to compute.
    EXPECT_DOUBLE_EQ(warm.scenario_cpu_s, cold.scenario_cpu_s);
    EXPECT_GT(warm.scenario_cpu_s, 0.0);
}

TEST(ScenarioCache, OverlappingGridReusesEntries) {
    const scratch_dir dir("overlap");
    auto narrow = small_campaign();
    narrow.faults = {bist::fault_kind::none};
    narrow.stage_store_dir = dir.path.string();
    const auto first = campaign_runner(narrow).run();
    EXPECT_EQ(report_entries(dir.path).size(), 1u);

    auto wide = small_campaign(); // adds pa-gain-drop at fault index 1
    wide.stage_store_dir = dir.path.string();
    const auto second = campaign_runner(wide).run();
    // The golden scenario was served by its report entry: it carries the
    // first run's grading time instead of a fresh measurement.
    EXPECT_EQ(second.results[0].elapsed_s, first.results[0].elapsed_s);
    EXPECT_GE(second.store_hits, 1u);
    EXPECT_EQ(report_entries(dir.path).size(), 2u)
        << "the fault scenario is new";
    EXPECT_EQ(report_json(second.results[0].report),
              report_json(first.results[0].report));
}

TEST(StageStoreReport, PresetsDifferingOnlyByNameShareOneReportEntry) {
    // The report key excludes the preset name, so a renamed copy of a
    // preset is served from the original's entry — and every row still
    // carries its own preset name.  A key built from grid coordinates
    // (preset name included) could not share them.
    const scratch_dir dir("renamed_preset");
    campaign_config cfg = small_campaign();
    cfg.faults = {bist::fault_kind::none};
    auto renamed = cfg.presets[0];
    renamed.name += "-copy";
    cfg.presets.push_back(renamed);
    cfg.reseed = reseed_policy::off; // equal seeds: only the name differs
    cfg.threads = 1;
    const auto off = campaign_runner(cfg).run();
    ASSERT_EQ(off.scenario_count(), 2u);

    cfg.stage_store_dir = dir.path.string();
    const auto cold = campaign_runner(cfg).run();
    EXPECT_EQ(report_entries(dir.path).size(), 1u);
    const auto warm = campaign_runner(cfg).run();
    EXPECT_EQ(warm.store_hits, 2u) << "both rows read the one entry";
    EXPECT_EQ(warm.store_misses, 0u);

    for (const auto* r : {&cold, &warm}) {
        EXPECT_EQ(r->results[0].report.preset_name, "paper-qpsk-10M");
        EXPECT_EQ(r->results[1].report.preset_name, "paper-qpsk-10M-copy");
        EXPECT_EQ(timing_free(*r), timing_free(off));
        for (std::size_t i = 0; i < off.results.size(); ++i)
            EXPECT_EQ(report_json(r->results[i].report),
                      report_json(off.results[i].report));
    }
}

TEST(ScenarioCache, CorruptEntryIsReGraded) {
    const scratch_dir dir("corrupt");
    auto cfg = small_campaign();
    cfg.stage_store_dir = dir.path.string();
    const auto cold = campaign_runner(cfg).run();

    // Garble one report entry; the runner must fall back to the stages.
    const auto entries = report_entries(dir.path);
    ASSERT_FALSE(entries.empty());
    std::ofstream(entries.front(), std::ios::trunc) << "{\"store_version\":1,ga";

    const auto warm = campaign_runner(cfg).run();
    EXPECT_EQ(warm.quarantined, 1u);
    EXPECT_EQ(warm.store_misses, 1u)
        << "only the garbled report misses; its stages are all stored";
    EXPECT_EQ(timing_free(warm), timing_free(cold));
    // And the re-grade healed the entry.
    const auto healed = campaign_runner(cfg).run();
    EXPECT_EQ(healed.store_hits, healed.scenario_count());
    EXPECT_EQ(healed.store_misses, 0u);
}

TEST(ScenarioCache, DeterministicEngineErrorsAreCached) {
    // A contract rejection reproduces on every run, so storing it is safe
    // and keeps warm reruns of error-bearing grids all-hits.  (Transient
    // std::exceptions are deliberately NOT persisted — see campaign.cpp.)
    const scratch_dir dir("engine_error");
    campaign_config cfg;
    cfg.base.fast_samples = 16; // violates the engine precondition
    cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
    cfg.faults = {bist::fault_kind::none};
    cfg.trials = 1;
    cfg.threads = 1;
    cfg.stage_store_dir = dir.path.string();

    const auto cold = campaign_runner(cfg).run();
    ASSERT_TRUE(cold.results[0].engine_error);
    EXPECT_EQ(report_entries(dir.path).size(), 1u);

    const auto warm = campaign_runner(cfg).run();
    EXPECT_EQ(warm.store_hits, 1u);
    EXPECT_EQ(warm.store_misses, 0u);
    EXPECT_TRUE(warm.results[0].engine_error);
    EXPECT_EQ(warm.results[0].error, cold.results[0].error);
    EXPECT_TRUE(warm.results[0].flagged());
}

TEST(ScenarioCache, VersionSkewReadsAsMiss) {
    const scratch_dir dir("version");
    stage_artefact_store store(dir.path.string());
    const std::uint64_t key = 0x0123456789abcdefull;
    EXPECT_FALSE(store.load_report(key).has_value());

    // A syntactically valid entry from a different format version.
    const fs::path path = dir.path / "0123456789abcdef-report.sab";
    std::ofstream(path, std::ios::binary)
        << R"({"store_version":999,"codec":1,"stage":"report",)"
        << R"("digest":"0123456789abcdef","stage_canonical_version":1,)"
        << R"("raw_bytes":0,"payload_bytes":0,"payload_fnv":"0"})" << "\n";
    EXPECT_FALSE(store.load_report(key).has_value());
    EXPECT_EQ(store.quarantined(), 0u) << "skew is not corruption";
    EXPECT_TRUE(fs::exists(path)) << "skewed entries stay for cache-gc";
}

// ---- report round-trip ------------------------------------------------------

TEST(ScenarioCache, ReportRoundTripsBitExactly) {
    // A real engine report (trace, mask segments, received symbols, all
    // verdicts) survives JSON serialisation — and a report entry —
    // bit-for-bit.
    auto cfg = small_campaign();
    cfg.faults = {bist::fault_kind::none};
    const auto result = campaign_runner(cfg).run();
    ASSERT_FALSE(result.results.empty());
    const bist::bist_report& r = result.results[0].report;

    const auto back = report_from_json(parse_json(report_json(r)));
    EXPECT_EQ(back.preset_name, r.preset_name);
    EXPECT_DOUBLE_EQ(back.carrier_hz, r.carrier_hz);
    EXPECT_DOUBLE_EQ(back.skew.d_hat, r.skew.d_hat);
    EXPECT_DOUBLE_EQ(back.skew.final_cost, r.skew.final_cost);
    EXPECT_EQ(back.skew.iterations, r.skew.iterations);
    EXPECT_EQ(back.skew.converged, r.skew.converged);
    EXPECT_EQ(back.skew.cost_evaluations, r.skew.cost_evaluations);
    ASSERT_EQ(back.skew.trace.size(), r.skew.trace.size());
    for (std::size_t i = 0; i < r.skew.trace.size(); ++i) {
        EXPECT_EQ(back.skew.trace[i].iteration, r.skew.trace[i].iteration);
        EXPECT_DOUBLE_EQ(back.skew.trace[i].d_hat, r.skew.trace[i].d_hat);
        EXPECT_DOUBLE_EQ(back.skew.trace[i].cost, r.skew.trace[i].cost);
        EXPECT_DOUBLE_EQ(back.skew.trace[i].mu, r.skew.trace[i].mu);
    }
    EXPECT_EQ(back.mask.pass, r.mask.pass);
    EXPECT_DOUBLE_EQ(back.mask.worst_margin_db, r.mask.worst_margin_db);
    EXPECT_DOUBLE_EQ(back.mask.reference_dbhz, r.mask.reference_dbhz);
    ASSERT_EQ(back.mask.segments.size(), r.mask.segments.size());
    for (std::size_t i = 0; i < r.mask.segments.size(); ++i) {
        EXPECT_DOUBLE_EQ(back.mask.segments[i].measured_dbc,
                         r.mask.segments[i].measured_dbc);
        EXPECT_DOUBLE_EQ(back.mask.segments[i].segment.limit_dbc,
                         r.mask.segments[i].segment.limit_dbc);
    }
    EXPECT_DOUBLE_EQ(back.evm.evm_rms, r.evm.evm_rms);
    EXPECT_DOUBLE_EQ(back.evm.evm_peak, r.evm.evm_peak);
    EXPECT_DOUBLE_EQ(back.evm.timing_offset, r.evm.timing_offset);
    ASSERT_EQ(back.evm.received_symbols.size(),
              r.evm.received_symbols.size());
    for (std::size_t i = 0; i < r.evm.received_symbols.size(); ++i)
        EXPECT_EQ(back.evm.received_symbols[i], r.evm.received_symbols[i]);
    EXPECT_EQ(back.evm_pass, r.evm_pass);
    EXPECT_DOUBLE_EQ(back.measured_output_rms, r.measured_output_rms);
    EXPECT_EQ(back.power_pass, r.power_pass);
    EXPECT_DOUBLE_EQ(back.acpr.lower_dbc, r.acpr.lower_dbc);
    EXPECT_DOUBLE_EQ(back.acpr.upper_dbc, r.acpr.upper_dbc);
    EXPECT_EQ(back.acpr_pass, r.acpr_pass);
    EXPECT_DOUBLE_EQ(back.occupied_bw_hz, r.occupied_bw_hz);
    EXPECT_EQ(back.pass(), r.pass());

    // Through a report entry: the whole payload, bit for bit.
    const scratch_dir dir("report_roundtrip");
    stage_artefact_store store(dir.path.string());
    scenario_result row = result.results[0];
    row.engine_error = true;
    row.error = "kept verbatim";
    store.store_report(0x5EEDull, row);
    const auto loaded = store.load_report(0x5EEDull);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(report_json(loaded->report), report_json(r));
    EXPECT_TRUE(loaded->engine_error);
    EXPECT_EQ(loaded->error, "kept verbatim");
    EXPECT_EQ(loaded->elapsed_s, row.elapsed_s);
}

TEST(ScenarioCache, RejectsUnwritableDirectory) {
    EXPECT_THROW(stage_artefact_store(""), contract_violation);
}

} // namespace
