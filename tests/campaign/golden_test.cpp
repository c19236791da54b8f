// Golden-artefact regression tests: the committed fixtures under
// tests/campaign/golden/ pin the exporter output byte-for-byte (timing
// suppressed), so any drift in field order, number formatting, quoting or
// row layout is caught at review time as a fixture diff.
//
// The golden campaign_result is synthesised from fixed values rather than
// engine runs: fixtures must be identical across compilers and platforms,
// and what these tests lock is the *exporter*, not the DSP.  Aggregation
// still goes through the real merge_results() path.
//
// Regenerate after an intentional format change with:
//   SDRBIST_REGEN_GOLDEN=1 ./test_campaign --gtest_filter='Golden*'
// and commit the resulting fixture diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/export.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sdrbist;
using namespace sdrbist::campaign;

const fs::path golden_dir = fs::path(SDRBIST_TEST_DIR) / "golden";

std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path
                           << " (regenerate with SDRBIST_REGEN_GOLDEN=1)";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// Fixed synthetic campaign: 2 presets x 2 faults x 1 trial.  Values are
/// plain literals (exactly representable conversions), so the shortest
/// round-trip rendering is identical on every platform.  Names exercise
/// JSON escaping and CSV quoting; one row exercises the engine-error path.
campaign_result golden_result() {
    campaign_result shard;
    shard.preset_names = {"golden-qpsk-10M", "golden \"odd, name\""};
    shard.fault_names = {"none", "pa-gain-drop"};
    shard.trials = 1;
    shard.seed = 0x60111DE2ull;
    shard.grid_size = 4;

    for (std::size_t i = 0; i < 4; ++i) {
        scenario_result row;
        row.sc.index = i;
        row.sc.preset_index = i / 2;
        row.sc.fault_index = i % 2;
        row.sc.trial = 0;
        row.sc.fault = (i % 2) == 0 ? bist::fault_kind::none
                                    : bist::fault_kind::pa_gain_drop;
        row.sc.preset_name = shard.preset_names[row.sc.preset_index];
        row.sc.seed = 0xDEC0DE00ull + i;
        row.elapsed_s = 0.125 + 0.5 * static_cast<double>(i); // must never leak

        bist::bist_report& rep = row.report;
        rep.preset_name = row.sc.preset_name;
        rep.carrier_hz = 1.0e9 + 2.5e6 * static_cast<double>(i);
        rep.skew.d_hat = 1.8e-10 + 1.0e-12 * static_cast<double>(i);
        rep.skew.converged = true;
        rep.dual_rate_conditions_ok = true;
        rep.mask.pass = (i % 2) == 0;
        rep.mask.worst_margin_db = 4.5 - 2.25 * static_cast<double>(i);
        rep.evm.evm_rms = 0.0075 * static_cast<double>(i + 1);
        rep.evm_pass = true;
        rep.measured_output_rms = 1.5 - 0.125 * static_cast<double>(i);
        rep.power_pass = (i % 2) == 0;
        rep.acpr.lower_dbc = -42.5 + static_cast<double>(i);
        rep.acpr.upper_dbc = -40.25 - static_cast<double>(i);
        rep.acpr_pass = true;
        rep.occupied_bw_hz = 1.5e7;

        if (i == 3) { // engine-error path: message with quoting + control char
            row.engine_error = true;
            row.error = "precondition violated: `fast_samples >= 64`\n"
                        "while grading \"golden\"";
        }
        shard.results.push_back(std::move(row));
    }
    // Aggregate through the real code path (also exercises the degenerate
    // single-shard merge).
    return merge_results({shard});
}

export_options golden_options() {
    export_options opt;
    opt.include_timing = false;
    return opt;
}

/// Compare against (or regenerate) one fixture.
void check_fixture(const std::string& name, const std::string& actual) {
    const fs::path path = golden_dir / name;
    if (std::getenv("SDRBIST_REGEN_GOLDEN") != nullptr) {
        fs::create_directories(golden_dir);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << actual;
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        return;
    }
    EXPECT_EQ(actual, read_file(path))
        << "exporter output drifted from " << path
        << " — if intentional, regenerate with SDRBIST_REGEN_GOLDEN=1 and "
           "review the fixture diff";
}

TEST(GoldenArtefacts, CampaignJson) {
    check_fixture("campaign.json", to_json(golden_result(), golden_options()));
}

TEST(GoldenArtefacts, CoverageCsv) {
    check_fixture("coverage.csv", coverage_csv(golden_result()));
}

TEST(GoldenArtefacts, ScenariosCsv) {
    check_fixture("scenarios.csv",
                  scenarios_csv(golden_result(), golden_options()));
}

TEST(GoldenArtefacts, ScenariosJsonl) {
    check_fixture("scenarios.jsonl",
                  scenarios_jsonl(golden_result(), golden_options()));
}

TEST(GoldenArtefacts, FixturesContainNoMeasuredFields) {
    // The committed artefacts must never contain measured data; this locks
    // the fixtures themselves, independent of the exporter audit tests.
    for (const char* name :
         {"campaign.json", "scenarios.csv", "scenarios.jsonl"}) {
        if (std::getenv("SDRBIST_REGEN_GOLDEN") != nullptr)
            GTEST_SKIP() << "regenerating";
        const std::string body = read_file(golden_dir / name);
        for (const char* field :
             {"elapsed_s", "wall_seconds", "scenario_cpu_seconds",
              "scenarios_per_second", "store_hits", "store_misses"})
            EXPECT_EQ(body.find(field), std::string::npos)
                << field << " leaked into fixture " << name;
    }
}

// ---- streaming sink ---------------------------------------------------------

TEST(JsonlStream, CompletionOrderStreamsThenFinaliseRestoresGridOrder) {
    const auto result = golden_result();
    const fs::path path = "jsonl_stream_test.tmp.jsonl";
    fs::remove(path);
    {
        jsonl_stream stream(path.string(), golden_options());
        // Simulate out-of-order parallel completion.
        for (const std::size_t i : {2u, 0u, 3u, 1u}) {
            stream.append(result.results[i]);
            // Every appended row is on disk immediately (tail -f property).
            std::istringstream lines(read_file(path));
            std::string line;
            std::size_t count = 0;
            while (std::getline(lines, line)) {
                EXPECT_EQ(line.front(), '{');
                EXPECT_EQ(line.back(), '}');
                ++count;
            }
            EXPECT_EQ(count, stream.rows());
        }
        EXPECT_EQ(stream.rows(), 4u);
        stream.finalise();
        stream.finalise(); // idempotent
    }
    // After finalise the artefact is deterministic: byte-identical to the
    // one-shot exporter, hence to the committed fixture.
    EXPECT_EQ(read_file(path), scenarios_jsonl(result, golden_options()));
    fs::remove(path);
}

TEST(JsonlStream, DestructorFinalises) {
    const auto result = golden_result();
    const fs::path path = "jsonl_dtor_test.tmp.jsonl";
    fs::remove(path);
    {
        jsonl_stream stream(path.string(), golden_options());
        stream.append(result.results[1]);
        stream.append(result.results[0]);
    } // no explicit finalise
    const std::string body = read_file(path);
    const std::string expected =
        scenario_json(result.results[0], golden_options()) + "\n" +
        scenario_json(result.results[1], golden_options()) + "\n";
    EXPECT_EQ(body, expected);
    fs::remove(path);
}

} // namespace
