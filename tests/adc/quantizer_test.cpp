// Quantiser behaviour: LSB, clipping, SNR law, channel errors.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "adc/quantizer.hpp"
#include "core/contracts.hpp"
#include "core/random.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::adc;

TEST(Quantizer, LsbSize) {
    const quantizer q({10, 1.0, 0.0, 0.0});
    EXPECT_NEAR(q.lsb(), 2.0 / 1024.0, 1e-15);
}

TEST(Quantizer, RoundsToCellCentres) {
    const quantizer q({3, 1.0, 0.0, 0.0}); // LSB = 0.25
    EXPECT_NEAR(q.quantize(0.0), 0.125, 1e-12);
    EXPECT_NEAR(q.quantize(0.26), 0.375, 1e-12);
    EXPECT_NEAR(q.quantize(-0.01), -0.125, 1e-12);
    // Quantisation error bounded by LSB/2 inside the range.
    rng gen(3);
    for (int i = 0; i < 500; ++i) {
        const double x = gen.uniform(-0.99, 0.99);
        EXPECT_LE(std::abs(q.quantize(x) - x), 0.125 + 1e-12);
    }
}

TEST(Quantizer, ClipsOutOfRange) {
    const quantizer q({8, 1.0, 0.0, 0.0});
    EXPECT_LE(q.quantize(3.0), 1.0);
    EXPECT_GE(q.quantize(-3.0), -1.0);
    EXPECT_NEAR(q.quantize(-5.0), -1.0 + q.lsb() / 2.0, 1e-12);
}

TEST(Quantizer, SnrFollowsSixDbPerBit) {
    // Full-scale sine through an n-bit quantiser: SNR ≈ 6.02 n + 1.76 dB.
    for (int bits : {6, 8, 10, 12}) {
        const quantizer q({bits, 1.0, 0.0, 0.0});
        const std::size_t n = 65536;
        double sig_p = 0.0, err_p = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            // Irrational frequency avoids hitting the same codes repeatedly.
            const double x =
                0.9999 * std::sin(two_pi * 0.123456789 * static_cast<double>(i));
            const double e = q.quantize(x) - x;
            sig_p += x * x;
            err_p += e * e;
        }
        const double snr = db_from_power(sig_p / err_p);
        EXPECT_NEAR(snr, quantizer::ideal_snr_db(bits), 0.6) << bits;
    }
}

TEST(Quantizer, GainAndOffsetErrorsApplied) {
    const quantizer ideal({12, 1.0, 0.0, 0.0});
    const quantizer off({12, 1.0, 0.0, 0.1});
    const quantizer gain({12, 1.0, 0.05, 0.0});
    EXPECT_NEAR(off.quantize(0.2) - ideal.quantize(0.2), 0.1, 2e-3);
    EXPECT_NEAR(gain.quantize(0.4) - ideal.quantize(0.4), 0.02, 2e-3);
}

TEST(Quantizer, MoreBitsNeverWorse) {
    rng gen(5);
    const auto x = gen.uniform_vector(2000, -0.9, 0.9);
    double prev_err = 1e9;
    for (int bits : {4, 8, 12, 16}) {
        const quantizer q({bits, 1.0, 0.0, 0.0});
        double err = 0.0;
        for (double v : x) {
            const double e = q.quantize(v) - v;
            err += e * e;
        }
        EXPECT_LT(err, prev_err);
        prev_err = err;
    }
}

TEST(Quantizer, ProcessScaledBitIdenticalToPerSample) {
    // The record path and the per-sample path run one kernel: with gain
    // and offset errors, a front-end scale and a record that clips on both
    // rails, process_scaled(x, s)[k] == quantize(s·x[k]) exactly, for
    // every record length.
    const quantizer q({10, 2.0, 0.013, -0.004});
    rng gen(0x0AD);
    for (std::size_t n = 0; n <= 37; ++n) {
        const auto x = gen.uniform_vector(n, -6.0, 6.0);
        const auto out = q.process_scaled(x, 0.7);
        ASSERT_EQ(out.size(), n);
        for (std::size_t k = 0; k < n; ++k)
            EXPECT_EQ(out[k], q.quantize(0.7 * x[k]))
                << "n=" << n << " k=" << k;
        const auto plain = q.process(x);
        for (std::size_t k = 0; k < n; ++k)
            EXPECT_EQ(plain[k], q.quantize(x[k])) << "n=" << n << " k=" << k;
    }
}

TEST(Quantizer, PropagatesNonFiniteInputs) {
    // NaN stays NaN and ±inf clips to the rails' cell centres, identically
    // on the per-sample and the record path (the clamp compares against
    // the rails, so a NaN sample never takes a rail value).
    const quantizer q({10, 2.0, 0.01, 0.002});
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const double top = q.quantize(1e300);
    const double bottom = q.quantize(-1e300);
    EXPECT_TRUE(std::isnan(q.quantize(nan)));
    EXPECT_EQ(q.quantize(inf), top);
    EXPECT_EQ(q.quantize(-inf), bottom);
    EXPECT_NEAR(bottom, -2.0 + q.lsb() / 2.0, 1e-12);
    EXPECT_NEAR(top, 2.0 - q.lsb() / 2.0, 1e-12);

    std::vector<double> x;
    for (int rep = 0; rep < 3; ++rep)
        for (const double v : {nan, inf, -inf, 0.25, -1.5, 7.0})
            x.push_back(v);
    const auto out = q.process_scaled(x, 0.7);
    for (std::size_t k = 0; k < x.size(); ++k)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out[k]),
                  std::bit_cast<std::uint64_t>(q.quantize(0.7 * x[k])))
            << "k=" << k << " x=" << x[k];
}

TEST(Quantizer, Preconditions) {
    EXPECT_THROW(quantizer({0, 1.0, 0.0, 0.0}), contract_violation);
    EXPECT_THROW(quantizer({30, 1.0, 0.0, 0.0}), contract_violation);
    EXPECT_THROW(quantizer({10, -1.0, 0.0, 0.0}), contract_violation);
    EXPECT_THROW(static_cast<void>(quantizer::ideal_snr_db(0)),
                 contract_violation);
}

} // namespace
