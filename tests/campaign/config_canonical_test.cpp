// Canonical config text: pure, versioned, and moved by any field — the
// substrate every stage digest and report key is computed from.
#include <gtest/gtest.h>

#include "bist/config_canonical.hpp"
#include "campaign/campaign.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::campaign;

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

// ---- canonical config text --------------------------------------------------

TEST(ConfigCanonical, IsPureAndVersioned) {
    const auto cfg = small_campaign();
    const auto grid = expand_grid(cfg);
    const auto materialised = scenario_config(cfg, grid[0]);
    const auto text = bist::canonical_config_text(materialised);
    EXPECT_EQ(text, bist::canonical_config_text(materialised));
    EXPECT_EQ(text.rfind("canon=" +
                             std::to_string(bist::canonical_config_version) +
                             "\n",
                         0),
              0u)
        << "serialisation must lead with its version line";
    // Every leaf is a key=value line.
    EXPECT_NE(text.find("tx.pa_gain_db="), std::string::npos);
    EXPECT_NE(text.find("tiadc.jitter_rms_s="), std::string::npos);
    EXPECT_NE(text.find("preset.mask.segment.0.limit_dbc="),
              std::string::npos);
}

TEST(ConfigCanonical, DigestMovesWithAnyField) {
    const auto cfg = small_campaign();
    const auto grid = expand_grid(cfg);
    const auto base = scenario_config(cfg, grid[0]);
    const auto reference = bist::config_digest(base);

    auto probe = [&](auto&& mutate) {
        bist::bist_config c = base;
        mutate(c);
        return bist::config_digest(c);
    };
    EXPECT_NE(probe([](auto& c) { c.evm_limit_percent += 0.5; }), reference);
    EXPECT_NE(probe([](auto& c) { c.tx.pa_gain_db += 1e-9; }), reference);
    EXPECT_NE(probe([](auto& c) { c.tiadc.seed ^= 1; }), reference);
    EXPECT_NE(probe([](auto& c) { c.probe_count += 1; }), reference);
    EXPECT_NE(probe([](auto& c) { c.lms.recon.taps += 2; }), reference);
    EXPECT_NE(probe([](auto& c) { c.preset.name += "x"; }), reference);
    EXPECT_NE(probe([](auto& c) { c.spectrum.dense_rate_factor *= 1.001; }),
              reference);
}

} // namespace
