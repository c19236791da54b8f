// EVM meter tests: clean-chain zero, gain/phase/timing recovery, noise,
// hostile inputs, and the tabulated matched filter against the
// closed-form reference.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <thread>

#include "core/contracts.hpp"
#include "core/random.hpp"
#include "core/units.hpp"
#include "waveform/evm.hpp"
#include "waveform/srrc.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::waveform;

baseband_waveform make_wf(double rolloff = 0.5) {
    generator_config g;
    g.mod = modulation::qpsk;
    g.symbol_rate = 10.0 * MHz;
    g.rolloff = rolloff;
    g.oversample = 16;
    g.span_symbols = 8;
    g.symbol_count = 96;
    return generate_baseband(g);
}

TEST(Evm, CleanChainIsNearZero) {
    const auto wf = make_wf();
    const auto r = measure_evm(
        std::span<const std::complex<double>>(wf.samples.data(),
                                              wf.samples.size()),
        wf.sample_rate, wf);
    EXPECT_LT(r.evm_percent(), 0.5);
    EXPECT_NEAR(std::abs(r.gain), 1.0, 0.02);
    EXPECT_NEAR(r.timing_offset, 0.0, 2.0 * ns);
}

TEST(Evm, RecoversComplexGain) {
    const auto wf = make_wf();
    const std::complex<double> g = 2.5 * std::polar(1.0, 0.8);
    auto scaled = wf.samples;
    for (auto& v : scaled)
        v *= g;
    const auto r = measure_evm(
        std::span<const std::complex<double>>(scaled.data(), scaled.size()),
        wf.sample_rate, wf);
    EXPECT_LT(r.evm_percent(), 0.5);
    EXPECT_NEAR(std::abs(r.gain), 2.5, 0.05);
    EXPECT_NEAR(std::arg(r.gain), 0.8, 0.02);
}

TEST(Evm, RecoversTimingOffset) {
    // Shift the envelope timeline via envelope_t0 and verify the search
    // finds it.
    const auto wf = make_wf();
    evm_options opt;
    opt.envelope_t0 = 20.0 * ns; // envelope[0] sits at t = 20 ns
    // envelope[n] = wf(t) sampled at t = 20ns + n/fs  -> drop first samples
    const auto skip = static_cast<std::size_t>(
        std::lround(20.0 * ns * wf.sample_rate));
    std::vector<std::complex<double>> shifted(wf.samples.begin() + skip,
                                              wf.samples.end());
    const auto r = measure_evm(
        std::span<const std::complex<double>>(shifted.data(), shifted.size()),
        wf.sample_rate, wf, opt);
    EXPECT_LT(r.evm_percent(), 0.6);
}

TEST(Evm, ResidualTimingErrorDegradesGracefully) {
    // A deliberate unmodelled sub-sample delay shows up as EVM, roughly
    // linear in the offset for small offsets.
    const auto wf = make_wf();
    evm_options opt;
    opt.timing_search_span = 0.0001; // effectively disable the search
    opt.timing_steps = 3;
    // Feed an envelope offset by half a sample without telling the meter.
    std::vector<std::complex<double>> late(wf.samples.begin() + 1,
                                           wf.samples.end());
    const auto r = measure_evm(
        std::span<const std::complex<double>>(late.data(), late.size()),
        wf.sample_rate, wf, opt);
    EXPECT_GT(r.evm_percent(), 1.0); // a full sample late: visible
}

TEST(Evm, AwgnSetsEvmFloor) {
    const auto wf = make_wf();
    rng gen(33);
    for (const double snr_db : {30.0, 20.0}) {
        auto noisy = wf.samples;
        const double sigma = std::pow(10.0, -snr_db / 20.0) / std::sqrt(2.0);
        for (auto& v : noisy)
            v += std::complex<double>(gen.gaussian(0.0, sigma),
                                      gen.gaussian(0.0, sigma));
        const auto r = measure_evm(
            std::span<const std::complex<double>>(noisy.data(), noisy.size()),
            wf.sample_rate, wf);
        // Matched filtering gains ~ sqrt(oversample·...) against white
        // noise; EVM must be below the raw noise level but non-zero.
        const double raw_percent = 100.0 * std::pow(10.0, -snr_db / 20.0);
        EXPECT_LT(r.evm_percent(), raw_percent);
        EXPECT_GT(r.evm_percent(), raw_percent / 20.0);
    }
}

TEST(Evm, PeakAtLeastRms) {
    const auto wf = make_wf();
    rng gen(7);
    auto noisy = wf.samples;
    for (auto& v : noisy)
        v += std::complex<double>(gen.gaussian(0.0, 0.02),
                                  gen.gaussian(0.0, 0.02));
    const auto r = measure_evm(
        std::span<const std::complex<double>>(noisy.data(), noisy.size()),
        wf.sample_rate, wf);
    EXPECT_GE(r.evm_peak, r.evm_rms);
    EXPECT_FALSE(r.received_symbols.empty());
}

TEST(Evm, DbConversion) {
    evm_result r;
    r.evm_rms = 0.01;
    EXPECT_NEAR(r.evm_db(), -40.0, 1e-9);
    EXPECT_NEAR(r.evm_percent(), 1.0, 1e-12);
}

TEST(Evm, Preconditions) {
    const auto wf = make_wf();
    std::vector<std::complex<double>> tiny(8, {0.0, 0.0});
    EXPECT_THROW(measure_evm(std::span<const std::complex<double>>(
                                 tiny.data(), tiny.size()),
                             wf.sample_rate, wf),
                 contract_violation);
    evm_options opt;
    opt.timing_steps = 4; // must be odd
    EXPECT_THROW(measure_evm(std::span<const std::complex<double>>(
                                 wf.samples.data(), wf.samples.size()),
                             wf.sample_rate, wf, opt),
                 contract_violation);
}

// Hostile inputs: the envelope and the stimulus can come from decoded
// store entries whose numbers may be NaN or absurd.  Every case must throw
// contract_violation.  A case marked `up_front` must be caught by the
// input validation (its message names the field), not by a check further
// down that trips only after the bad value has been used, for example
// cast to an integer index.
struct hostile_case {
    std::string field;
    double value;
    bool up_front;
};

void expect_rejected(
    const std::vector<hostile_case>& cases,
    const std::function<void(double, double&, baseband_waveform&,
                             evm_options&)>& apply) {
    const auto wf = make_wf();
    const std::span<const std::complex<double>> env(wf.samples.data(),
                                                    wf.samples.size());
    for (const auto& c : cases) {
        double fs = wf.sample_rate;
        auto ref = wf;
        evm_options opt;
        apply(c.value, fs, ref, opt);
        std::string what;
        try {
            (void)measure_evm(env, fs, ref, opt);
        } catch (const contract_violation& e) {
            what = e.what();
        }
        EXPECT_FALSE(what.empty()) << c.field << " = " << c.value;
        if (c.up_front) {
            EXPECT_NE(what.find(c.field), std::string::npos)
                << c.field << " = " << c.value << ": " << what;
        }
    }
}

constexpr double nan_v = std::numeric_limits<double>::quiet_NaN();
constexpr double inf_v = std::numeric_limits<double>::infinity();

TEST(Evm, HostileRatesAreRejectedUpFront) {
    // A finite absurd rate (1e30) is a valid number; it is rejected by the
    // coverage and gain checks instead of the up-front validation.
    const std::vector<hostile_case> rates = {
        {"", nan_v, true}, {"", inf_v, true}, {"", -inf_v, true},
        {"", 0.0, true},   {"", -1.0, true},  {"", 1e30, false}};
    auto named = [&](const std::string& field) {
        auto out = rates;
        for (auto& c : out)
            c.field = field;
        return out;
    };
    expect_rejected(named("sample_rate"),
                    [](double v, double& fs, baseband_waveform&,
                       evm_options&) { fs = v; });
    expect_rejected(named("symbol_rate"),
                    [](double v, double&, baseband_waveform& ref,
                       evm_options&) { ref.symbol_rate = v; });
    expect_rejected(named("reference.sample_rate"),
                    [](double v, double&, baseband_waveform& ref,
                       evm_options&) { ref.sample_rate = v; });
}

TEST(Evm, HostileRolloffIsRejectedUpFront) {
    expect_rejected({{"rolloff", nan_v, true},
                     {"rolloff", inf_v, true},
                     {"rolloff", -inf_v, true},
                     {"rolloff", 0.0, true},
                     {"rolloff", -1.0, true},
                     {"rolloff", 1.5, true},
                     {"rolloff", 1e30, true}},
                    [](double v, double&, baseband_waveform& ref,
                       evm_options&) { ref.rolloff = v; });
}

TEST(Evm, HostileTimingOptionsAreRejectedUpFront) {
    // envelope_t0 = 0 is the default and valid; a finite t0 far off the
    // waveform's timeline leaves no usable symbol and is rejected there.
    expect_rejected({{"envelope_t0", nan_v, true},
                     {"envelope_t0", inf_v, true},
                     {"envelope_t0", -inf_v, true},
                     {"envelope_t0", -1.0, false},
                     {"envelope_t0", 1e30, false},
                     {"envelope_t0", -1e30, false}},
                    [](double v, double&, baseband_waveform&,
                       evm_options& opt) { opt.envelope_t0 = v; });
    expect_rejected({{"timing_search_span", nan_v, true},
                     {"timing_search_span", inf_v, true},
                     {"timing_search_span", -inf_v, true},
                     {"timing_search_span", -1.0, true},
                     {"timing_search_span", 1e30, false}},
                    [](double v, double&, baseband_waveform&,
                       evm_options& opt) { opt.timing_search_span = v; });
}

TEST(Evm, NonFiniteEnvelopeSamplesAreRejected) {
    const auto wf = make_wf();
    for (const double bad : {nan_v, inf_v, -inf_v}) {
        for (const bool imag : {false, true}) {
            auto env = wf.samples;
            env[env.size() / 2] = imag ? std::complex<double>(0.0, bad)
                                       : std::complex<double>(bad, 0.0);
            EXPECT_THROW(measure_evm(std::span<const std::complex<double>>(
                                         env.data(), env.size()),
                                     wf.sample_rate, wf),
                         contract_violation)
                << bad << (imag ? " (imag)" : " (real)");
        }
    }
}

// ---- table-driven matched filter ---------------------------------------------

/// The stimulus decimated by 3 from a sample offset: an envelope whose rate
/// (16/3 samples per symbol) is not a multiple of the symbol rate and whose
/// first sample is not a stimulus sample instant, as after the DDC.
struct decimated_envelope {
    std::vector<std::complex<double>> samples;
    double rate = 0.0;
    double t0 = 0.0;
};

decimated_envelope decimate(const baseband_waveform& wf,
                            const std::vector<std::complex<double>>& x) {
    constexpr std::size_t factor = 3;
    constexpr std::size_t first = 5;
    decimated_envelope out;
    for (std::size_t i = first; i < x.size(); i += factor)
        out.samples.push_back(x[i]);
    out.rate = wf.sample_rate / static_cast<double>(factor);
    out.t0 = static_cast<double>(first) / wf.sample_rate;
    return out;
}

TEST(Evm, TablePathTracksClosedFormReference) {
    rng gen(0xE7A);
    for (const double rolloff : {0.25, 0.35, 0.5}) {
        const auto wf = make_wf(rolloff);
        auto rotated = wf.samples;
        for (auto& v : rotated)
            v *= 0.7 * std::polar(1.0, -2.1);
        auto noisy = rotated;
        for (auto& v : noisy)
            v += std::complex<double>(gen.gaussian(0.0, 0.03),
                                      gen.gaussian(0.0, 0.03));
        const std::vector<const std::vector<std::complex<double>>*> cases = {
            &wf.samples, &rotated, &noisy};
        for (const auto* x : cases) {
            const auto env = decimate(wf, *x);
            evm_options opt;
            opt.envelope_t0 = env.t0;
            const std::span<const std::complex<double>> s(env.samples.data(),
                                                          env.samples.size());
            const auto fast = measure_evm(s, env.rate, wf, opt);
            const auto ref = measure_evm_reference(s, env.rate, wf, opt);
            SCOPED_TRACE(::testing::Message()
                         << "rolloff " << rolloff << ", case "
                         << (x == &wf.samples ? "clean"
                             : x == &rotated  ? "rotated"
                                              : "noisy"));
            EXPECT_LE(std::abs(fast.evm_rms - ref.evm_rms),
                      1e-8 * ref.evm_rms);
            EXPECT_LE(std::abs(fast.evm_peak - ref.evm_peak),
                      1e-8 * ref.evm_peak);
            EXPECT_LE(std::abs(fast.gain - ref.gain), 1e-9 * std::abs(ref.gain));
            EXPECT_EQ(fast.timing_offset, ref.timing_offset);
            EXPECT_EQ(fast.received_symbols.size(),
                      ref.received_symbols.size());
            EXPECT_LT(ref.evm_percent(), x == &noisy ? 5.0 : 1.0);
        }
    }
}

TEST(Evm, SrrcTableTracksClosedForm) {
    // Between and on the nodes, across the whole support: the blend stays
    // within 1e-9 of the pulse peak.
    for (const double rolloff : {0.25, 0.35, 0.5, 1.0}) {
        const srrc_table h(rolloff, 6);
        const double peak = srrc_value(0.0, rolloff);
        double worst = 0.0;
        for (double t = -6.0; t <= 6.0; t += 0.000731) {
            const double x =
                (t + 6.0) * static_cast<double>(srrc_table::phases) + 1.0;
            worst = std::max(worst, std::abs(h.at(x) - srrc_value(t, rolloff)));
        }
        EXPECT_LT(worst, 1e-9 * peak) << rolloff;
    }
}

TEST(Evm, EqualRolloffsShareOneSrrcTable) {
    constexpr std::size_t span = evm_matched_span_symbols;
    const auto a = srrc_table::shared(0.35, span);
    EXPECT_EQ(a.get(), srrc_table::shared(0.35, span).get());
    EXPECT_NE(a.get(), srrc_table::shared(0.5, span).get());
    EXPECT_NE(a.get(), srrc_table::shared(0.35, span - 2).get());
    // The shared table is exactly the table built directly from the key.
    const srrc_table own(0.35, span);
    EXPECT_EQ(own.coefficients(), a->coefficients());
    EXPECT_EQ(a->intervals(), 2 * span * srrc_table::phases + 2);

    // Bounded: many distinct roll-offs never hold more than the capacity,
    // and an evicted key is rebuilt bit for bit.
    const auto first = srrc_table::shared(0.1234, span);
    const std::vector<double> first_coeffs = first->coefficients();
    for (std::size_t i = 1; i < srrc_table::cache_capacity + 3; ++i) {
        (void)srrc_table::shared(0.1234 + 0.01 * static_cast<double>(i), span);
        EXPECT_LE(srrc_table::cached(), srrc_table::cache_capacity) << i;
    }
    EXPECT_EQ(srrc_table::cached(), srrc_table::cache_capacity);
    const auto rebuilt = srrc_table::shared(0.1234, span);
    EXPECT_NE(rebuilt.get(), first.get());
    EXPECT_EQ(rebuilt->coefficients(), first_coeffs);

    // Hostile keys are rejected before the lookup.
    EXPECT_THROW((void)srrc_table::shared(nan_v, span), contract_violation);
    EXPECT_THROW((void)srrc_table::shared(0.0, span), contract_violation);
}

TEST(SrrcTableCache, ConcurrentMeasurementsShareTables) {
    // Four threads measure EVM at three roll-offs no other test uses, all
    // starting on the same roll-off, so they race to build each table:
    // every thread must see one table per roll-off and measure exactly what
    // a single thread measures afterwards.
    const std::vector<double> rolloffs = {0.3, 0.45, 0.6};
    std::vector<baseband_waveform> wfs;
    for (const double a : rolloffs)
        wfs.push_back(make_wf(a));
    auto evm_of = [](const baseband_waveform& wf) {
        return measure_evm(std::span<const std::complex<double>>(
                               wf.samples.data(), wf.samples.size()),
                           wf.sample_rate, wf)
            .evm_rms;
    };

    constexpr int threads = 4;
    std::vector<std::vector<const srrc_table*>> seen(threads);
    std::vector<std::vector<double>> evms(threads);
    std::atomic<int> ready{0};
    std::vector<std::thread> pool;
    for (int w = 0; w < threads; ++w)
        pool.emplace_back([&, w] {
            ready.fetch_add(1);
            while (ready.load() < threads) {
            }
            for (int rep = 0; rep < 3; ++rep)
                for (std::size_t i = 0; i < wfs.size(); ++i) {
                    evms[w].push_back(evm_of(wfs[i]));
                    seen[w].push_back(
                        srrc_table::shared(rolloffs[i],
                                           evm_matched_span_symbols)
                            .get());
                }
        });
    for (auto& t : pool)
        t.join();

    for (std::size_t i = 0; i < wfs.size(); ++i) {
        const auto table =
            srrc_table::shared(rolloffs[i], evm_matched_span_symbols);
        const double expected = evm_of(wfs[i]);
        for (int w = 0; w < threads; ++w) {
            ASSERT_EQ(seen[w].size(), 3 * wfs.size());
            for (std::size_t j = i; j < seen[w].size(); j += wfs.size()) {
                EXPECT_EQ(seen[w][j], table.get()) << w << "/" << j;
                EXPECT_EQ(evms[w][j], expected) << w << "/" << j;
            }
        }
    }
}

} // namespace
