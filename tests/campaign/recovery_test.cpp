// Failure containment under deterministic fault injection: transient
// failures retry to bit-identical results, contract violations never
// retry, exhausted retries give up without killing the campaign, retried
// successes still land in the store, deadlines mark overruns, and the
// retry telemetry counters mirror the per-row accounting exactly.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>

#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "core/contracts.hpp"
#include "core/fault_injection.hpp"
#include "core/telemetry.hpp"
#include "support/scratch_dir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sdrbist;
using namespace sdrbist::campaign;
namespace fi = sdrbist::fault_injection;
namespace tm = sdrbist::telemetry;
using sdrbist::testing::scratch_dir;

/// Injection and telemetry are process-global: every test starts and ends
/// with both disarmed/zeroed so the rest of the campaign suite is
/// unaffected by whatever this one armed.
class CampaignRecovery : public ::testing::Test {
protected:
    void SetUp() override {
        fi::disarm();
        tm::disable();
        tm::reset();
    }
    void TearDown() override {
        fi::disarm();
        tm::disable();
        tm::reset();
    }
};

campaign_config small_campaign() {
    campaign_config cfg;
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.base.min_output_rms = 1.2;
    cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
    cfg.faults = {bist::fault_kind::none, bist::fault_kind::pa_gain_drop};
    cfg.trials = 1;
    cfg.threads = 1; // single-threaded: injected arrival order is exact
    cfg.seed = 0xFA117ull;
    cfg.retry_backoff_ms = 0.0; // keep tests fast; backoff timing has its
                                // own assertions below
    return cfg;
}

std::string timing_free_json(const campaign_result& r) {
    export_options opt;
    opt.include_timing = false;
    return to_json(r, opt);
}

std::uint64_t counter_at(const std::array<std::uint64_t, tm::counter_count>& c,
                         tm::counter which) {
    return c[static_cast<std::size_t>(which)];
}

TEST_F(CampaignRecovery, TransientFailureRetriesToBitIdenticalResult) {
    auto cfg = small_campaign();
    const auto clean = campaign_runner(cfg).run();

    // Exactly one injected transient at the first calibration entry.
    fi::arm("stage.calibration:throw-transient:count=1");
    tm::enable();
    const auto faulted = campaign_runner(cfg).run();

    EXPECT_EQ(timing_free_json(faulted), timing_free_json(clean));
    EXPECT_EQ(faulted.scenario_retries, 1u);
    EXPECT_EQ(faulted.scenario_gave_up, 0u);
    EXPECT_EQ(faulted.results[0].attempts, 2u);
    EXPECT_FALSE(faulted.results[0].engine_error);
    EXPECT_EQ(faulted.results[1].attempts, 1u);

    // Counter <-> result exactness, same contract as the store counters.
    const auto counts = tm::counters();
    EXPECT_EQ(counter_at(counts, tm::counter::scenario_retries),
              faulted.scenario_retries);
    EXPECT_EQ(counter_at(counts, tm::counter::scenario_failures), 1u);
    EXPECT_EQ(counter_at(counts, tm::counter::scenario_gave_up), 0u);
}

TEST_F(CampaignRecovery, ContractViolationsAreNeverRetried) {
    auto cfg = small_campaign();
    cfg.max_retries = 5;
    fi::arm("stage.grading:throw-contract:count=1");
    const auto result = campaign_runner(cfg).run();

    // The scenario that hit the injected contract fault failed once,
    // finally, with no retry spent on it.
    EXPECT_EQ(result.scenario_retries, 0u);
    EXPECT_EQ(result.scenario_gave_up, 0u);
    std::size_t errors = 0;
    for (const auto& r : result.results)
        if (r.engine_error) {
            ++errors;
            EXPECT_EQ(r.attempts, 1u);
            EXPECT_FALSE(r.gave_up);
            EXPECT_NE(r.error.find("injected contract fault"),
                      std::string::npos);
        }
    EXPECT_EQ(errors, 1u);
}

TEST_F(CampaignRecovery, ExhaustedRetriesGiveUpWithoutKillingTheCampaign) {
    auto cfg = small_campaign();
    cfg.faults = {bist::fault_kind::none};
    cfg.max_retries = 2;
    fi::arm("stage.calibration:throw-transient"); // every arrival
    tm::enable();
    const auto result = campaign_runner(cfg).run();

    ASSERT_EQ(result.scenario_count(), 1u);
    const auto& row = result.results[0];
    EXPECT_TRUE(row.gave_up);
    EXPECT_TRUE(row.engine_error);
    EXPECT_EQ(row.attempts, cfg.max_retries + 1);
    EXPECT_EQ(result.scenario_gave_up, 1u);
    EXPECT_EQ(result.scenario_retries, cfg.max_retries);

    const auto counts = tm::counters();
    EXPECT_EQ(counter_at(counts, tm::counter::scenario_gave_up), 1u);
    EXPECT_EQ(counter_at(counts, tm::counter::scenario_failures),
              cfg.max_retries + 1);
}

TEST_F(CampaignRecovery, BackoffIsBoundedAndRecorded) {
    auto cfg = small_campaign();
    cfg.faults = {bist::fault_kind::none};
    cfg.max_retries = 3;
    cfg.retry_backoff_ms = 0.25;
    fi::arm("stage.calibration:throw-transient");
    const auto result = campaign_runner(cfg).run();

    // Exponential doubling from the base: 0.25 + 0.5 + 1.0.
    EXPECT_TRUE(result.results[0].gave_up);
    EXPECT_DOUBLE_EQ(result.results[0].backoff_ms, 0.25 + 0.5 + 1.0);
}

TEST_F(CampaignRecovery, RetriedSuccessStillLandsInTheCache) {
    // The store's report entries are the campaign's scenario result cache.
    const scratch_dir dir("retry_cache");
    auto cfg = small_campaign();
    cfg.faults = {bist::fault_kind::none};
    cfg.stage_store_dir = dir.path.string();

    // The transient fires at dispatch, *before* the report key is even
    // derived — the retried success must still be stored.
    fi::arm("pool.dispatch:throw-transient:count=1");
    const auto cold = campaign_runner(cfg).run();
    EXPECT_EQ(cold.results[0].attempts, 2u);
    EXPECT_FALSE(cold.results[0].engine_error);
    EXPECT_EQ(cold.store_hits, 0u);

    fi::disarm();
    const auto warm = campaign_runner(cfg).run();
    EXPECT_EQ(warm.store_hits, 1u) << "the one report entry";
    EXPECT_EQ(warm.store_misses, 0u);
    EXPECT_EQ(timing_free_json(warm), timing_free_json(cold));
}

TEST_F(CampaignRecovery, GaveUpResultsAreNotCached) {
    const scratch_dir dir("gave_up_cache");
    auto cfg = small_campaign();
    cfg.faults = {bist::fault_kind::none};
    cfg.stage_store_dir = dir.path.string();
    cfg.max_retries = 0;

    fi::arm("stage.calibration:throw-transient");
    const auto broken = campaign_runner(cfg).run();
    EXPECT_TRUE(broken.results[0].gave_up);

    // With the fault gone, the rerun must re-attempt (miss), not replay
    // the environment-dependent give-up.
    fi::disarm();
    const auto healed = campaign_runner(cfg).run();
    EXPECT_EQ(healed.store_hits, 0u)
        << "no report entry and no upstream stage was published";
    EXPECT_GE(healed.store_misses, 1u);
    EXPECT_FALSE(healed.results[0].engine_error);
}

TEST_F(CampaignRecovery, DeadlineMarksOverrunsAsTimedOut) {
    auto cfg = small_campaign();
    cfg.faults = {bist::fault_kind::none};
    cfg.scenario_deadline_s = 1e-4; // any real scenario blows this budget
    const auto result = campaign_runner(cfg).run();

    ASSERT_EQ(result.scenario_count(), 1u);
    const auto& row = result.results[0];
    EXPECT_TRUE(row.timed_out);
    EXPECT_TRUE(row.engine_error);
    EXPECT_EQ(row.error, "scenario deadline exceeded");
    EXPECT_EQ(row.attempts, 1u) << "an overrun is final, never retried";
    EXPECT_FALSE(row.gave_up);
}

TEST_F(CampaignRecovery, LowRateInjectionAtEverySiteIsFullyContained) {
    // The headline acceptance property: a campaign with transient faults
    // firing at ~5% at *every* registered site completes with reports
    // bit-identical to the clean run's.
    auto cfg = small_campaign();
    cfg.trials = 2;
    cfg.max_retries = 8;
    const auto clean = campaign_runner(cfg).run();

    fi::arm("*:throw-transient:p=0.05,seed=1234");
    const auto faulted = campaign_runner(cfg).run();

    EXPECT_EQ(faulted.scenario_gave_up, 0u)
        << "p=0.05 with 8 retries must never exhaust";
    EXPECT_GT(faulted.scenario_retries, 0u)
        << "the spec fires somewhere across 4 scenarios x 6+ sites "
           "(raise p or change the seed if this ever trips)";
    EXPECT_EQ(timing_free_json(faulted), timing_free_json(clean));
    EXPECT_EQ(coverage_csv(faulted), coverage_csv(clean));
    export_options opt;
    opt.include_timing = false;
    EXPECT_EQ(scenarios_csv(faulted, opt), scenarios_csv(clean, opt));
}

} // namespace
