// Accuracy regression for the table-driven PNBS path (per-point NCO
// factors, cubic-blended envelope table) against the exact-window
// transcendental reference, across a delay × taps grid, plus the
// uniform()/value() bit-for-bit guarantee, the summation-order oracle and
// the forbidden-delay drift fix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/random.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"
#include "rf/passband.hpp"
#include "sampling/pnbs.hpp"

namespace {

using namespace sdrbist;
using sampling::band_around;
using sampling::band_spec;
using sampling::kohlenberg_kernel;
using sampling::pnbs_options;
using sampling::pnbs_reconstructor;

struct streams {
    std::vector<double> even, odd;
    double rms = 0.0;
};

streams sample_streams(const rf::passband_signal& x, double t, double d,
                       std::size_t n) {
    streams s;
    s.even.resize(n);
    s.odd.resize(n);
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        s.even[k] = x.value(static_cast<double>(k) * t);
        s.odd[k] = x.value(static_cast<double>(k) * t + d);
        acc += s.even[k] * s.even[k];
    }
    s.rms = std::sqrt(acc / static_cast<double>(n));
    return s;
}

rf::multitone_signal in_band_multitone(const band_spec& band, double duration,
                                       std::uint64_t seed) {
    rng gen(seed);
    std::vector<rf::tone> tones(5);
    const double margin = 0.08 * band.bandwidth();
    for (auto& t : tones) {
        t.frequency_hz = gen.uniform(band.f_lo + margin, band.f_hi - margin);
        t.amplitude = gen.uniform(0.2, 1.0);
        t.phase_rad = gen.uniform(0.0, two_pi);
    }
    return rf::multitone_signal(std::move(tones), duration);
}

/// Max |fast - reference| over random probes, normalised to signal RMS.
double fast_path_deviation(const pnbs_reconstructor& recon, double rms_scale,
                           double t_lo, double t_hi, std::uint64_t seed) {
    rng probe(seed);
    double worst = 0.0;
    for (int i = 0; i < 300; ++i) {
        const double t = probe.uniform(t_lo, t_hi);
        worst = std::max(worst,
                         std::abs(recon.value(t) - recon.value_reference(t)));
    }
    return worst / rms_scale;
}

TEST(PnbsFastPath, MatchesReferenceAcrossDelayAndTapsGrid) {
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const std::size_t n = 400;
    const double duration = static_cast<double>(n) * period + 10.0 * ns;
    const auto sig = in_band_multitone(band, duration, 0xFEED);

    for (const double d : {120.0 * ps, 180.0 * ps, 250.0 * ps, 420.0 * ps}) {
        const auto s = sample_streams(sig, period, d, n);
        for (const std::size_t taps : {41u, 61u, 81u}) {
            const pnbs_reconstructor recon(s.even, s.odd, period, 0.0, band,
                                           d, {taps, 8.0});
            const double dev =
                fast_path_deviation(recon, s.rms, recon.valid_begin(),
                                    recon.valid_end(), 0x7 + taps);
            EXPECT_LT(dev, 1e-9) << "D=" << d / ps << " ps, taps=" << taps;
        }
    }
}

TEST(PnbsFastPath, MatchesReferenceAtRecordEdges) {
    // Clipped tap windows (probes outside the valid span) must follow the
    // reference's skip-out-of-range semantics.
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const std::size_t n = 200;
    const auto sig = in_band_multitone(
        band, static_cast<double>(n) * period + 10.0 * ns, 0xE6E);
    const double d = 180.0 * ps;
    const auto s = sample_streams(sig, period, d, n);
    const pnbs_reconstructor recon(s.even, s.odd, period, 0.0, band, d,
                                   {61, 8.0});
    const double span = static_cast<double>(n) * period;
    const double dev =
        fast_path_deviation(recon, s.rms, -0.1 * span, 1.1 * span, 0x21);
    EXPECT_LT(dev, 1e-9);
}

TEST(PnbsFastPath, MatchesReferenceAtSampleInstantsAndMidpoints) {
    // frac = 0 (a table node, where the sinc argument crosses zero) and
    // frac = ±0.5 (the tap-window boundary).
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const std::size_t n = 300;
    const auto sig = in_band_multitone(
        band, static_cast<double>(n) * period + 10.0 * ns, 0x3AB);
    const double d = 180.0 * ps;
    const auto s = sample_streams(sig, period, d, n);
    const pnbs_reconstructor recon(s.even, s.odd, period, 0.0, band, d,
                                   {61, 8.0});
    double worst = 0.0;
    for (std::size_t k = 40; k < 260; ++k) {
        for (const double offs : {0.0, 0.5, -0.5, 1e-13, d / period}) {
            const double t = (static_cast<double>(k) + offs) * period;
            worst = std::max(
                worst, std::abs(recon.value(t) - recon.value_reference(t)));
        }
    }
    EXPECT_LT(worst / s.rms, 1e-9);
}

TEST(PnbsFastPath, UniformIsBitIdenticalToPerPointValue) {
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const std::size_t n = 300;
    const auto sig = in_band_multitone(
        band, static_cast<double>(n) * period + 10.0 * ns, 0x1D);
    const double d = 250.0 * ps;
    const auto s = sample_streams(sig, period, d, n);
    const pnbs_reconstructor recon(s.even, s.odd, period, 0.0, band, d,
                                   {61, 8.0});

    const double t0 = recon.valid_begin();
    const double rate = 1000.0 / (recon.valid_end() - t0);
    const std::size_t n_eval = 1000;
    const auto grid = recon.uniform(t0, rate, n_eval);
    ASSERT_EQ(grid.size(), n_eval);
    for (std::size_t i = 0; i < n_eval; ++i) {
        const double t = t0 + static_cast<double>(i) / rate;
        EXPECT_EQ(grid[i], recon.value(t)) << i;
    }
}

TEST(PnbsFastPath, BatchValuesBitIdenticalToPerPoint) {
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const std::size_t n = 200;
    const auto sig = in_band_multitone(
        band, static_cast<double>(n) * period + 10.0 * ns, 0x2E);
    const double d = 180.0 * ps;
    const auto s = sample_streams(sig, period, d, n);
    const pnbs_reconstructor recon(s.even, s.odd, period, 0.0, band, d,
                                   {61, 8.0});
    rng gen(0x31);
    std::vector<double> t(333);
    for (auto& v : t)
        v = gen.uniform(recon.valid_begin(), recon.valid_end());
    const auto batch = recon.values(t);
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(batch[i], recon.value(t[i])) << i;
}

// Summation-order oracle.  value() is linear in the two records, so the
// blended table coefficient it applies to even[n] (odd[n]) at instant t is
// exactly what a reconstructor over a one-hot even (odd) record returns:
// one non-zero product summed with exact zeros.  Re-summing record ×
// coefficient sequentially in ascending n, even stream then odd stream,
// must then reproduce value(t) bit for bit.  Any other accumulation order
// (lane-split partial sums, reversed loops, per-envelope dot products
// combined afterwards) rounds differently on random records and fails
// here.
TEST(PnbsFastPath, TableSumMatchesSequentialSumOracleElementExact) {
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const double d = 180.0 * ps;
    const double t_start = 3.0 * period;
    rng gen(0x0AC1F);
    for (const std::size_t taps : {5u, 7u, 9u, 13u, 31u, 61u}) {
        const pnbs_options opt{taps, 8.0};
        const std::size_t n = taps + 8;
        const std::vector<double> zeros(n, 0.0);
        std::vector<pnbs_reconstructor> even_basis, odd_basis;
        for (std::size_t k = 0; k < n; ++k) {
            std::vector<double> e = zeros;
            e[k] = 1.0;
            even_basis.emplace_back(e, zeros, period, t_start, band, d, opt);
            odd_basis.emplace_back(zeros, e, period, t_start, band, d, opt);
        }
        const auto even = gen.uniform_vector(n, -1.0, 1.0);
        const auto odd = gen.uniform_vector(n, -1.0, 1.0);
        const pnbs_reconstructor recon(even, odd, period, t_start, band, d,
                                       opt);

        // From before the records to past their end, in steps that are not
        // a multiple of T: every clamped tap-window length (every loop
        // tail) occurs, on both sides of every table phase node.
        const double margin = static_cast<double>(taps / 2) + 2.0;
        for (double pos = -margin; pos < static_cast<double>(n) + margin;
             pos += 0.137) {
            const double t = t_start + pos * period;
            double acc_e = 0.0;
            for (std::size_t k = 0; k < n; ++k)
                acc_e += even[k] * even_basis[k].value(t);
            double acc_o = 0.0;
            for (std::size_t k = 0; k < n; ++k)
                acc_o += odd[k] * odd_basis[k].value(t);
            // ASSERT: one mismatch report, not one per probe.
            ASSERT_EQ(recon.value(t), acc_e + acc_o)
                << "taps=" << taps << " pos=" << pos;
        }
    }
}

TEST(PnbsFastPath, ReferencePathStillReconstructs) {
    // Guard the retained reference itself: it must keep reconstructing
    // in-band signals (it is the yardstick every fast path is held to).
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const std::size_t n = 400;
    const auto sig = in_band_multitone(
        band, static_cast<double>(n) * period + 10.0 * ns, 0x44);
    const double d = 180.0 * ps;
    const auto s = sample_streams(sig, period, d, n);
    const pnbs_reconstructor recon(s.even, s.odd, period, 0.0, band, d,
                                   {81, 8.0});
    rng probe(0x45);
    std::vector<double> ref, est;
    for (int i = 0; i < 200; ++i) {
        const double t =
            probe.uniform(recon.valid_begin(), recon.valid_end());
        ref.push_back(sig.value(t));
        est.push_back(recon.value_reference(t));
    }
    EXPECT_LT(relative_rms_error(ref, est), 0.02);
}

TEST(KohlenbergKernel, ForbiddenDelaysAreExactMultiples) {
    // Regression for the `d += step` accumulation drift: every forbidden
    // delay must be bit-exactly n·step.
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double b = band.bandwidth();
    const double t = 1.0 / b;
    const auto delays =
        kohlenberg_kernel::forbidden_delays(band, 300.0 * t);
    ASSERT_GT(delays.size(), 1000u);
    const kohlenberg_kernel kernel(band, 180.0 * ps);
    const double step_k = t / static_cast<double>(kernel.k());
    const double step_kp = t / static_cast<double>(kernel.k_plus());
    for (const double d : delays) {
        const double nk = std::round(d / step_k);
        const double nkp = std::round(d / step_kp);
        const bool is_k_multiple = d == nk * step_k;
        const bool is_kp_multiple = d == nkp * step_kp;
        EXPECT_TRUE(is_k_multiple || is_kp_multiple) << d;
    }
    // The largest k⁺ multiple inside the limit is present and undrifted.
    const double n_top = std::round(300.0 * t / step_kp);
    EXPECT_TRUE(std::binary_search(delays.begin(), delays.end(),
                                   n_top * step_kp));
}

} // namespace
