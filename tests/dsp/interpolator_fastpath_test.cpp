// Accuracy regression for the polyphase-LUT windowed-sinc fast path
// against the retained transcendental reference (at_reference), plus
// bit-for-bit guarantees for the batch and uniform-grid entry points.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <cstring>
#include <thread>
#include <vector>

#include "core/random.hpp"
#include "core/units.hpp"
#include "dsp/interpolator.hpp"

namespace {

using namespace sdrbist;
using dsp::complex_interpolator;
using dsp::real_interpolator;

std::vector<double> bandlimited_signal(std::size_t n, double fs,
                                       std::uint64_t seed) {
    // Multitone well inside the first Nyquist zone.
    rng gen(seed);
    std::vector<double> f(7), a(7), p(7);
    for (std::size_t i = 0; i < f.size(); ++i) {
        f[i] = gen.uniform(0.01 * fs, 0.35 * fs);
        a[i] = gen.uniform(0.2, 1.0);
        p[i] = gen.uniform(0.0, two_pi);
    }
    std::vector<double> x(n);
    for (std::size_t k = 0; k < n; ++k)
        for (std::size_t i = 0; i < f.size(); ++i)
            x[k] += a[i] * std::cos(two_pi * f[i] *
                                        static_cast<double>(k) / fs +
                                    p[i]);
    return x;
}

double signal_rms(const std::vector<double>& x) {
    double acc = 0.0;
    for (double v : x)
        acc += v * v;
    return std::sqrt(acc / static_cast<double>(x.size()));
}

TEST(SincInterpolatorFastPath, MatchesReferenceOnInBandSignal) {
    const double fs = 100.0 * MHz;
    const auto x = bandlimited_signal(512, fs, 0xFA57);
    const double scale = signal_rms(x);
    const real_interpolator interp(x, fs, 32, 10.0);

    rng gen(0x11);
    double worst = 0.0;
    for (int i = 0; i < 2000; ++i) {
        const double t = gen.uniform(interp.valid_begin(),
                                     interp.valid_end());
        worst = std::max(worst,
                         std::abs(interp.at(t) - interp.at_reference(t)));
    }
    EXPECT_LT(worst / scale, 1e-9);
}

TEST(SincInterpolatorFastPath, MatchesReferenceAtRecordEdges) {
    // The clamped-loop edge path must agree with the reference's
    // skip-out-of-range semantics, including instants outside the record.
    const double fs = 100.0 * MHz;
    const auto x = bandlimited_signal(256, fs, 0xED6E);
    const double scale = signal_rms(x);
    const real_interpolator interp(x, fs, 16, 8.0);

    rng gen(0x12);
    const double span = static_cast<double>(x.size()) / fs;
    double worst = 0.0;
    for (int i = 0; i < 2000; ++i) {
        const double t = gen.uniform(-0.1 * span, 1.1 * span);
        worst = std::max(worst,
                         std::abs(interp.at(t) - interp.at_reference(t)));
    }
    EXPECT_LT(worst / scale, 1e-9);
}

TEST(SincInterpolatorFastPath, ComplexMatchesReference) {
    const double fs = 160.0 * MHz;
    std::vector<std::complex<double>> x(512);
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double tt = static_cast<double>(i) / fs;
        x[i] = std::polar(1.0, two_pi * 9.0 * MHz * tt) +
               std::polar(0.5, -two_pi * 21.0 * MHz * tt + 0.7);
    }
    const complex_interpolator interp(x, fs, 32, 10.0);
    rng gen(0x13);
    double worst = 0.0;
    for (int i = 0; i < 1000; ++i) {
        const double t = gen.uniform(interp.valid_begin(),
                                     interp.valid_end());
        worst = std::max(worst,
                         std::abs(interp.at(t) - interp.at_reference(t)));
    }
    EXPECT_LT(worst, 1e-9);
}

TEST(SincInterpolatorFastPath, ExactAtSampleInstants) {
    // frac = 0 hits a LUT node, so sample instants stay exact (the cubic
    // blend weights collapse to the node row).
    const double fs = 50.0 * MHz;
    const auto x = bandlimited_signal(300, fs, 0x5A);
    const real_interpolator interp(x, fs, 16, 9.0);
    for (std::size_t k = 40; k < 80; ++k)
        EXPECT_NEAR(interp.at(static_cast<double>(k) / fs), x[k], 1e-9)
            << k;
}

TEST(SincInterpolatorFastPath, UniformGridIsBitIdenticalToScalar) {
    const double fs = 100.0 * MHz;
    const auto x = bandlimited_signal(400, fs, 0xB17);
    const real_interpolator interp(x, fs, 24, 9.5);
    const double t0 = interp.valid_begin();
    const double rate_out = 3.7 * fs;
    const std::size_t n = 500;
    const auto grid = interp.uniform_grid(t0, rate_out, n);
    ASSERT_EQ(grid.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        const double t = t0 + static_cast<double>(i) / rate_out;
        EXPECT_EQ(grid[i], interp.at(t)) << i;
    }
}

TEST(SincInterpolatorFastPath, BatchIsBitIdenticalToScalar) {
    const double fs = 80.0 * MHz;
    const auto x = bandlimited_signal(256, fs, 0xBA7C);
    const real_interpolator interp(x, fs, 16, 8.0);
    rng gen(0x14);
    std::vector<double> t(257);
    for (auto& v : t)
        v = gen.uniform(0.0, static_cast<double>(x.size()) / fs);
    const auto batch = interp.at(t);
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(batch[i], interp.at(t[i])) << i;
}

// Summation-order oracle.  at() is linear in the samples, so the blended
// LUT coefficient it applies to x[n] at instant t is exactly what the same
// interpolator returns for a one-hot record e_n: one non-zero product
// summed with exact zeros.  Re-summing x[n]·coefficient sequentially in
// ascending n must then reproduce at(t) bit for bit.  Any other
// accumulation order (lane-split partial sums, reversed loops) rounds
// differently on random data and fails here.
std::vector<real_interpolator> one_hot_basis(std::size_t n, double fs,
                                             std::size_t half_taps,
                                             std::size_t phase_steps) {
    std::vector<real_interpolator> basis;
    basis.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
        std::vector<double> e(n, 0.0);
        e[k] = 1.0;
        basis.emplace_back(std::move(e), fs, half_taps, 9.0, phase_steps);
    }
    return basis;
}

TEST(SincInterpolatorFastPath,
     BlendedDotMatchesSequentialSumOracleElementExact) {
    // Half-widths give 8..64-tap windows; probes sweep from before the
    // record to past its end in steps that are not a multiple of the
    // sample period, so every clamped window length (every loop tail)
    // and many LUT phases occur.
    rng gen(0x0AC1E);
    const double fs = 100.0 * MHz;
    for (const std::size_t half_taps : {4u, 5u, 7u, 16u, 32u}) {
        const std::size_t n = 2 * half_taps + 9;
        const auto basis = one_hot_basis(n, fs, half_taps, 64);
        std::vector<double> x(n);
        std::vector<std::complex<double>> xc(n);
        for (std::size_t k = 0; k < n; ++k) {
            x[k] = gen.uniform(-1.0, 1.0);
            xc[k] = {gen.uniform(-1.0, 1.0), gen.uniform(-1.0, 1.0)};
        }
        const real_interpolator interp(x, fs, half_taps, 9.0, 64);
        const complex_interpolator cinterp(xc, fs, half_taps, 9.0, 64);

        const double margin = static_cast<double>(half_taps) + 2.0;
        for (double pos = -margin; pos < static_cast<double>(n) + margin;
             pos += 0.137) {
            const double t = pos / fs;
            double acc = 0.0;
            double re = 0.0;
            double im = 0.0;
            for (std::size_t k = 0; k < n; ++k) {
                const double c = basis[k].at(t);
                acc += x[k] * c;
                re += xc[k].real() * c;
                im += xc[k].imag() * c;
            }
            // ASSERT: one mismatch report, not one per probe.
            ASSERT_EQ(interp.at(t), acc)
                << "half_taps=" << half_taps << " pos=" << pos;
            const std::complex<double> got = cinterp.at(t);
            ASSERT_EQ(got.real(), re)
                << "half_taps=" << half_taps << " pos=" << pos;
            ASSERT_EQ(got.imag(), im)
                << "half_taps=" << half_taps << " pos=" << pos;
        }
    }
}

TEST(SincInterpolatorFastPath, PhaseResolutionControlsLutError) {
    // The blend error falls as phase_steps^-4; a very coarse table must be
    // measurably worse than the default, and the default essentially exact.
    const double fs = 100.0 * MHz;
    const auto x = bandlimited_signal(512, fs, 0x9D);
    const double scale = signal_rms(x);
    const real_interpolator coarse(x, fs, 32, 10.0, 64);
    const real_interpolator fine(x, fs, 32, 10.0, 1024);

    rng gen(0x15);
    double worst_coarse = 0.0;
    double worst_fine = 0.0;
    for (int i = 0; i < 1500; ++i) {
        const double t = gen.uniform(coarse.valid_begin(),
                                     coarse.valid_end());
        const double ref = coarse.at_reference(t);
        worst_coarse = std::max(worst_coarse, std::abs(coarse.at(t) - ref));
        worst_fine = std::max(worst_fine, std::abs(fine.at(t) - ref));
    }
    EXPECT_LT(worst_fine, worst_coarse);
    EXPECT_LT(worst_fine / scale, 1e-11);
    // Even the coarse table is far below the kernel's stopband floor.
    EXPECT_LT(worst_coarse / scale, 1e-5);
}

TEST(SincInterpolatorFastPath, EqualShapesShareOneTableAcrossThreads) {
    // Interpolators of one shape, real and complex, built from several
    // threads at once, all evaluate through one table, and that table is
    // bit for bit the one built directly.
    const double fs = 100.0 * MHz;
    const auto x = bandlimited_signal(256, fs, 0x5A);
    const std::vector<std::complex<double>> xc(x.begin(), x.end());
    constexpr int threads = 4;
    std::vector<const std::vector<double>*> seen(2 * threads);
    std::atomic<int> ready{0};
    std::vector<std::thread> pool;
    for (int w = 0; w < threads; ++w)
        pool.emplace_back([&, w] {
            ready.fetch_add(1);
            while (ready.load() < threads) {
            }
            const real_interpolator r(x, fs, 24, 9.25, 512);
            const complex_interpolator c(xc, fs, 24, 9.25, 512);
            seen[2 * w] = &r.table();
            seen[2 * w + 1] = &c.table();
        });
    for (auto& t : pool)
        t.join();

    const real_interpolator a(x, fs, 24, 9.25, 512);
    for (const auto* table : seen)
        EXPECT_EQ(table, &a.table());
    const auto direct = dsp::sinc_polyphase_table(24, 9.25, 512);
    ASSERT_EQ(direct.size(), a.table().size());
    EXPECT_EQ(std::memcmp(direct.data(), a.table().data(),
                          direct.size() * sizeof(double)),
              0);
    // Another shape is another table.
    const real_interpolator other(x, fs, 24, 9.5, 512);
    EXPECT_NE(&other.table(), &a.table());
}

TEST(SincInterpolatorFastPath, StopbandFloorPreserved) {
    // The LUT path must keep the windowed-sinc kernel's reconstruction
    // quality: a mid-band tone reproduces to the window's stopband floor.
    const double fs = 100.0 * MHz;
    const double f = 5.0 * MHz;
    std::vector<double> x(512);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = std::cos(two_pi * f * static_cast<double>(i) / fs + 0.3);
    const real_interpolator interp(x, fs, 32, 10.0);
    double err = 0.0;
    for (double t = interp.valid_begin(); t < interp.valid_end();
         t += 0.313 / fs)
        err = std::max(err,
                       std::abs(interp.at(t) - std::cos(two_pi * f * t + 0.3)));
    EXPECT_LT(err, 1e-5);
}

} // namespace
