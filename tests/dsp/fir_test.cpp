// FIR design and filtering tests.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "core/contracts.hpp"
#include "core/random.hpp"
#include "core/units.hpp"
#include "dsp/fir.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::dsp;

TEST(FirDesign, LowpassGainProfile) {
    const auto h = design_lowpass_fir(127, 0.1);
    EXPECT_NEAR(std::abs(fir_response(h, 0.0)), 1.0, 1e-12);     // DC
    EXPECT_NEAR(std::abs(fir_response(h, 0.05)), 1.0, 1e-3);     // passband
    EXPECT_NEAR(std::abs(fir_response(h, 0.1)), 0.5, 0.05);      // edge ~ -6dB
    EXPECT_LT(std::abs(fir_response(h, 0.2)), 1e-3);             // stopband
    EXPECT_LT(std::abs(fir_response(h, 0.45)), 1e-3);
}

TEST(FirDesign, LowpassLinearPhase) {
    const auto h = design_lowpass_fir(65, 0.2);
    for (std::size_t i = 0; i < h.size(); ++i)
        EXPECT_NEAR(h[i], h[h.size() - 1 - i], 1e-12);
}

TEST(FirDesign, BandpassSelectsBand) {
    const auto h = design_bandpass_fir(255, 0.15, 0.25);
    EXPECT_NEAR(std::abs(fir_response(h, 0.2)), 1.0, 1e-2);
    EXPECT_LT(std::abs(fir_response(h, 0.05)), 1e-3);
    EXPECT_LT(std::abs(fir_response(h, 0.35)), 1e-3);
    EXPECT_LT(std::abs(fir_response(h, 0.0)), 1e-4);
}

TEST(Convolve, KnownResult) {
    const std::vector<double> a{1.0, 2.0, 3.0};
    const std::vector<double> b{1.0, 1.0};
    const auto c = convolve(a, b);
    ASSERT_EQ(c.size(), 4u);
    EXPECT_DOUBLE_EQ(c[0], 1.0);
    EXPECT_DOUBLE_EQ(c[1], 3.0);
    EXPECT_DOUBLE_EQ(c[2], 5.0);
    EXPECT_DOUBLE_EQ(c[3], 3.0);
}

// Complex test signal with distinct real and imaginary parts.
std::vector<std::complex<double>> complex_noise(rng& gen, std::size_t n) {
    const auto re = gen.gaussian_vector(n);
    const auto im = gen.gaussian_vector(n);
    std::vector<std::complex<double>> x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = {re[i], im[i]};
    return x;
}

TEST(FilterDecimate, DelayCompensatedIdentity) {
    // A centred unit impulse as "filter" must return the input unchanged.
    std::vector<double> h(21, 0.0);
    h[10] = 1.0;
    rng gen(3);
    const auto x = complex_noise(gen, 100);
    const auto y = filter_decimate(h, x, 1);
    ASSERT_EQ(y.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-12);
}

TEST(FilterDecimate, RemovesOutOfBandTone) {
    const auto h = design_lowpass_fir(101, 0.1);
    std::vector<std::complex<double>> x(400);
    for (std::size_t n = 0; n < x.size(); ++n)
        x[n] = std::polar(1.0, two_pi * 0.3 * static_cast<double>(n));
    const auto y = filter_decimate(h, x, 1);
    double peak = 0.0;
    for (std::size_t n = 100; n < 300; ++n)
        peak = std::max(peak, std::abs(y[n]));
    EXPECT_LT(peak, 1e-3);
}

// Full-rate oracle: the tap-by-tap, bounds-checked "same-size" filter
// y[n] = sum_k h[k]·x[n + half - k], zero-padded outside x.
std::vector<std::complex<double>>
full_rate_same(const std::vector<double>& h,
               const std::vector<std::complex<double>>& x) {
    const std::size_t half = h.size() / 2;
    std::vector<std::complex<double>> y(x.size());
    for (std::size_t n = 0; n < x.size(); ++n) {
        std::complex<double> acc{};
        for (std::size_t k = 0; k < h.size(); ++k) {
            const auto idx = static_cast<long>(n) + static_cast<long>(half) -
                             static_cast<long>(k);
            if (idx >= 0 && idx < static_cast<long>(x.size()))
                acc += h[k] * x[static_cast<std::size_t>(idx)];
        }
        y[n] = acc;
    }
    return y;
}

TEST(FilterDecimate, MatchesFullRateOracleElementExact) {
    // Bit-identity, not closeness: the decimating loop must sum the same
    // products in the same order as the full-rate filter.  Lengths cover
    // inputs much longer than, equal to, shorter than the filter, and a
    // single sample; decimations cover 1, non-divisors of the length, the
    // DDC's 40..131 range, and D > taps.
    rng gen(0xF1D);
    for (const std::size_t taps : {3u, 5u, 63u, 1961u, 6745u}) {
        const auto h = gen.gaussian_vector(taps);
        for (const std::size_t n :
             {std::size_t{1}, taps / 2, taps, 3 * taps + 7}) {
            const auto x = complex_noise(gen, n);
            const auto full = full_rate_same(h, x);
            for (const std::size_t d :
                 {std::size_t{1}, std::size_t{2}, std::size_t{7},
                  std::size_t{40}, std::size_t{131}, taps + 2}) {
                // The oracle's output kept at every D-th sample.
                std::vector<std::complex<double>> ref;
                for (std::size_t i = 0; i < full.size(); i += d)
                    ref.push_back(full[i]);
                const auto y = filter_decimate(h, x, d);
                ASSERT_EQ(y.size(), ref.size())
                    << "taps=" << taps << " n=" << n << " D=" << d;
                // ASSERT: one mismatch report, not one per output.
                for (std::size_t m = 0; m < y.size(); ++m) {
                    ASSERT_EQ(y[m].real(), ref[m].real())
                        << "taps=" << taps << " n=" << n << " D=" << d
                        << " m=" << m;
                    ASSERT_EQ(y[m].imag(), ref[m].imag())
                        << "taps=" << taps << " n=" << n << " D=" << d
                        << " m=" << m;
                }
            }
        }
    }
}

TEST(Upfirdn, UpsamplingInterpolatesImpulse) {
    // upfirdn(h, delta, L, 1) returns h itself.
    const auto h = design_lowpass_fir(31, 0.2);
    const std::vector<double> delta{1.0};
    const auto y = upfirdn(h, delta, 4, 1);
    ASSERT_GE(y.size(), h.size());
    for (std::size_t i = 0; i < h.size(); ++i)
        EXPECT_NEAR(y[i], h[i], 1e-12);
}

TEST(Upfirdn, DownsamplingKeepsEveryMth) {
    std::vector<double> h{1.0}; // pass-through
    std::vector<double> x(12);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<double>(i);
    const auto y = upfirdn(h, x, 1, 3);
    ASSERT_EQ(y.size(), 4u);
    EXPECT_DOUBLE_EQ(y[0], 0.0);
    EXPECT_DOUBLE_EQ(y[1], 3.0);
    EXPECT_DOUBLE_EQ(y[2], 6.0);
    EXPECT_DOUBLE_EQ(y[3], 9.0);
}

TEST(Upfirdn, MatchesUpsampleThenConvolveThenDownsample) {
    rng gen(11);
    const auto x = gen.gaussian_vector(37);
    const auto h = design_lowpass_fir(21, 0.15);
    const std::size_t up = 3, down = 2;

    // Reference: explicit zero stuffing + full convolution + decimation.
    std::vector<double> stuffed(x.size() * up, 0.0);
    for (std::size_t i = 0; i < x.size(); ++i)
        stuffed[i * up] = x[i];
    const auto full = convolve(h, stuffed);
    std::vector<double> ref;
    for (std::size_t i = 0; i < full.size(); i += down)
        ref.push_back(full[i]);

    const auto y = upfirdn(h, x, up, down);
    ASSERT_EQ(y.size(), ref.size());
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-12) << "i=" << i;
}

TEST(Upfirdn, ComplexInputWorks) {
    std::vector<std::complex<double>> x{{1.0, -1.0}, {2.0, 0.5}};
    std::vector<double> h{0.5, 0.5};
    const auto y = upfirdn(h, std::span<const std::complex<double>>(
                                  x.data(), x.size()),
                           1, 1);
    ASSERT_EQ(y.size(), 3u);
    EXPECT_NEAR(y[1].real(), 1.5, 1e-12);
    EXPECT_NEAR(y[1].imag(), -0.25, 1e-12);
}

TEST(FirDesign, Preconditions) {
    EXPECT_THROW(design_lowpass_fir(2, 0.1), contract_violation);
    EXPECT_THROW(design_lowpass_fir(21, 0.0), contract_violation);
    EXPECT_THROW(design_lowpass_fir(21, 0.5), contract_violation);
    EXPECT_THROW(design_bandpass_fir(21, 0.3, 0.2), contract_violation);
    std::vector<double> even_h{1.0, 2.0};
    std::vector<std::complex<double>> x{1.0};
    EXPECT_THROW(filter_decimate(even_h, x, 1), contract_violation);
    std::vector<double> odd_h{1.0, 2.0, 1.0};
    EXPECT_THROW(filter_decimate(odd_h, x, 0), contract_violation);
}

} // namespace
