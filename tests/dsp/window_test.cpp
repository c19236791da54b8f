// Window-function properties used by FIR design and kernel truncation.
#include <gtest/gtest.h>

#include <cmath>

#include "core/contracts.hpp"
#include "dsp/window.hpp"

namespace {

using namespace sdrbist::dsp;

TEST(Windows, SymmetryAndPeak) {
    for (auto kind : {window_kind::hann, window_kind::hamming,
                      window_kind::blackman, window_kind::kaiser}) {
        const auto w = make_window(kind, 65, 8.0);
        ASSERT_EQ(w.size(), 65u);
        for (std::size_t i = 0; i < w.size(); ++i)
            EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12)
                << to_string(kind) << " i=" << i;
        // Peak at centre, normalised to <= 1 with max == centre.
        const double centre = w[32];
        for (double v : w) {
            EXPECT_LE(v, centre + 1e-12);
            EXPECT_GE(v, -1e-12);
        }
    }
}

TEST(Windows, RectangularIsAllOnes) {
    const auto w = make_window(window_kind::rectangular, 17);
    for (double v : w)
        EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Windows, HannEndsAtZero) {
    const auto w = make_window(window_kind::hann, 33);
    EXPECT_NEAR(w.front(), 0.0, 1e-12);
    EXPECT_NEAR(w.back(), 0.0, 1e-12);
    EXPECT_NEAR(w[16], 1.0, 1e-12);
}

TEST(Windows, KaiserBetaZeroIsRectangular) {
    const auto w = kaiser_window(21, 0.0);
    for (double v : w)
        EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(Windows, KaiserEdgesDropWithBeta) {
    const auto w4 = kaiser_window(33, 4.0);
    const auto w12 = kaiser_window(33, 12.0);
    EXPECT_GT(w4.front(), w12.front());
    EXPECT_NEAR(w4[16], 1.0, 1e-12);
    EXPECT_NEAR(w12[16], 1.0, 1e-12);
}

TEST(Windows, KaiserBetaFormulaRegions) {
    EXPECT_NEAR(kaiser_beta_for_attenuation(13.0), 0.0, 1e-12);
    EXPECT_NEAR(kaiser_beta_for_attenuation(60.0), 0.1102 * (60.0 - 8.7),
                1e-9);
    const double a30 = kaiser_beta_for_attenuation(30.0);
    EXPECT_GT(a30, 1.0);
    EXPECT_LT(a30, 4.0);
}

TEST(Windows, ContinuousKaiserMatchesDiscrete) {
    // kaiser_window_at(u) sampled at tap positions equals kaiser_window.
    const std::size_t n = 41;
    const double beta = 8.0;
    const auto w = kaiser_window(n, beta);
    const double half = static_cast<double>(n - 1) / 2.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double u = (static_cast<double>(i) - half) / half;
        EXPECT_NEAR(kaiser_window_at(u, beta), w[i], 1e-12) << "i=" << i;
    }
    EXPECT_DOUBLE_EQ(kaiser_window_at(1.5, beta), 0.0);
    EXPECT_DOUBLE_EQ(kaiser_window_at(-2.0, beta), 0.0);
}

TEST(Windows, SharedKaiserLutIsOnePerBetaAndResolution) {
    const auto a = kaiser_lut::shared(8.0);
    const auto b = kaiser_lut::shared(8.0);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_NE(a.get(), kaiser_lut::shared(8.6).get());
    EXPECT_NE(a.get(), kaiser_lut::shared(8.0, 1024).get());
    EXPECT_EQ(kaiser_lut::shared(8.0, 1024)->resolution(), 1024u);
    // The shared table holds exactly what a directly built one does.
    const kaiser_lut own(8.0);
    for (int i = -1100; i <= 1100; ++i) {
        const double u = static_cast<double>(i) / 1000.0 + 1e-4;
        EXPECT_EQ((*a)(u), own(u)) << "u=" << u;
    }
    EXPECT_THROW((void)kaiser_lut::shared(-1.0), sdrbist::contract_violation);
    EXPECT_THROW((void)kaiser_lut::shared(std::nan("")),
                 sdrbist::contract_violation);
}

TEST(Windows, SumsAndPower) {
    const auto w = make_window(window_kind::hann, 64);
    EXPECT_NEAR(window_sum(w), 31.5, 0.2);      // ~N/2 for Hann
    EXPECT_NEAR(window_power(w), 23.6, 0.5);    // ~3N/8 for Hann
}

TEST(Windows, SingleElementAndErrors) {
    const auto w = make_window(window_kind::kaiser, 1, 8.0);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_DOUBLE_EQ(w[0], 1.0);
    EXPECT_THROW(make_window(window_kind::hann, 0),
                 sdrbist::contract_violation);
    EXPECT_THROW(kaiser_window(8, -1.0), sdrbist::contract_violation);
}

} // namespace
