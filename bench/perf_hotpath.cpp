// Hot-path kernel engine bench: the two inner loops every campaign
// scenario traverses thousands of times, timed fast-path vs reference.
//
//  * PNBS uniform() reconstruction — the table-driven Kohlenberg
//    evaluation (per-point NCO sines + cubic-blended envelope table)
//    against the per-tap transcendental, exact-window oracle (paper
//    eq. (6)); the record carries the shared table's size.
//  * Windowed-sinc interpolated capture — the polyphase-LUT interpolator
//    behind every BP-TIADC capture against the two-Bessel-series-per-tap
//    reference.
//
//  * DDC — digital_downconvert at the catalogue's widest shape (the
//    dqpsk-1M reconstruction: 155,031 dense samples, 6,745 taps, D = 131),
//    reported as ns per input sample.
//
//  * EVM — measure_evm (tabulated SRRC matched filter) against
//    measure_evm_reference (closed-form SRRC per tap) on the reconstructed
//    envelope of the catalogue preset with the most matched-filter taps
//    per timing trial (tactical-bpsk-2M: 23 envelope samples per symbol).
//
// Emits one BENCH_JSON line per kernel with ns/point for both paths, the
// speedup, and the max relative error of the fast path (normalised to the
// reference RMS).  Run with --quick for CI smoke timing.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "bist/pipeline.hpp"
#include "core/random.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"
#include "dsp/ddc.hpp"
#include "dsp/interpolator.hpp"
#include "rf/passband.hpp"
#include "sampling/band.hpp"
#include "sampling/pnbs.hpp"
#include "waveform/evm.hpp"
#include "waveform/srrc.hpp"
#include "waveform/standard.hpp"

namespace {

using namespace sdrbist;

/// Best-of-`reps` wall time of fn(), in seconds.
template <class F> double best_seconds(F&& fn, int reps) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

double max_rel_error(const std::vector<double>& ref,
                     const std::vector<double>& fast) {
    const double scale = rms(ref);
    double worst = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i)
        worst = std::max(worst, std::abs(fast[i] - ref[i]));
    return worst / scale;
}

void bench_pnbs_uniform(std::size_t n_points, int reps) {
    const sampling::band_spec band =
        sampling::band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const double d = 180.0 * ps;
    const std::size_t n = 600;

    rng gen(0xB157);
    std::vector<rf::tone> tones;
    for (int i = 0; i < 5; ++i)
        tones.push_back({gen.uniform(band.f_lo + 8.0 * MHz,
                                     band.f_hi - 8.0 * MHz),
                         gen.uniform(0.2, 1.0), gen.uniform(0.0, two_pi)});
    const rf::multitone_signal sig(std::move(tones),
                                   static_cast<double>(n) * period + 1.0 * us);

    std::vector<double> even(n), odd(n);
    for (std::size_t k = 0; k < n; ++k) {
        even[k] = sig.value(static_cast<double>(k) * period);
        odd[k] = sig.value(static_cast<double>(k) * period + d);
    }
    const sampling::pnbs_reconstructor recon(even, odd, period, 0.0, band, d,
                                             {61, 8.0});

    // Dense grid spanning the whole valid reconstruction interval.
    const double t_lo = recon.valid_begin();
    const double rate =
        static_cast<double>(n_points) / (recon.valid_end() - t_lo);

    std::vector<double> fast, ref;
    const double s_fast = best_seconds(
        [&] { fast = recon.uniform(t_lo, rate, n_points); }, reps);
    const double s_ref = best_seconds(
        [&] { ref = recon.uniform_reference(t_lo, rate, n_points); }, reps);

    const double err = max_rel_error(ref, fast);
    benchutil::json_record rec;
    rec.add("kernel", std::string("pnbs_uniform"));
    rec.add("points", n_points);
    rec.add("taps", std::size_t{61});
    rec.add("table_bytes", recon.table().bytes());
    rec.add("ref_ns_per_point", 1e9 * s_ref / static_cast<double>(n_points));
    rec.add("fast_ns_per_point",
            1e9 * s_fast / static_cast<double>(n_points));
    rec.add("speedup", s_ref / s_fast);
    rec.add("max_rel_error", err);
    benchutil::emit_bench_json("perf_hotpath", rec);

    std::cout << "pnbs uniform: " << 1e9 * s_ref / n_points << " -> "
              << 1e9 * s_fast / n_points << " ns/point  (x"
              << s_ref / s_fast << ", max rel err " << err << ")\n";
}

void bench_sinc_capture(std::size_t n_points, int reps) {
    // Capture-path setup: complex envelope at 180 MHz feeding a 1 GHz
    // carrier, probed at jittered nonuniform instants like a BP-TIADC
    // record.
    const double env_rate = 180.0 * MHz;
    const std::size_t n_env = 4096;
    rng gen(0xCAB7);
    std::vector<std::complex<double>> env(n_env);
    // Smooth in-band envelope: random phasor sum at a few offsets.
    for (std::size_t i = 0; i < n_env; ++i) {
        const double tt = static_cast<double>(i) / env_rate;
        env[i] = std::polar(1.0, two_pi * 11.0 * MHz * tt + 0.4) +
                 std::polar(0.6, -two_pi * 23.0 * MHz * tt + 1.1);
    }
    const dsp::complex_interpolator interp(std::move(env), env_rate, 32,
                                           10.0);

    const double t_lo = interp.valid_begin();
    const double t_hi = interp.valid_end();
    std::vector<double> t(n_points);
    const double channel_period = (t_hi - t_lo) / static_cast<double>(n_points + 1);
    for (std::size_t k = 0; k < n_points; ++k)
        t[k] = t_lo + static_cast<double>(k) * channel_period +
               gen.gaussian(0.0, 3.0 * ps);

    std::vector<std::complex<double>> fast, ref;
    const double s_fast =
        best_seconds([&] { fast = interp.at(t); }, reps);
    const double s_ref = best_seconds(
        [&] {
            ref.resize(t.size());
            for (std::size_t i = 0; i < t.size(); ++i)
                ref[i] = interp.at_reference(t[i]);
        },
        reps);

    // Relative error on the real capture samples (Re/Im both bounded).
    double scale = 0.0;
    double worst = 0.0;
    for (const auto& v : ref)
        scale += std::norm(v);
    scale = std::sqrt(scale / static_cast<double>(ref.size()));
    for (std::size_t i = 0; i < ref.size(); ++i)
        worst = std::max(worst, std::abs(fast[i] - ref[i]));
    const double err = worst / scale;

    benchutil::json_record rec;
    rec.add("kernel", std::string("sinc_capture"));
    rec.add("points", n_points);
    rec.add("half_taps", std::size_t{32});
    rec.add("ref_ns_per_point", 1e9 * s_ref / static_cast<double>(n_points));
    rec.add("fast_ns_per_point",
            1e9 * s_fast / static_cast<double>(n_points));
    rec.add("speedup", s_ref / s_fast);
    rec.add("max_rel_error", err);
    benchutil::emit_bench_json("perf_hotpath", rec);

    std::cout << "sinc capture: " << 1e9 * s_ref / n_points << " -> "
              << 1e9 * s_fast / n_points << " ns/point  (x"
              << s_ref / s_fast << ", max rel err " << err << ")\n";
}

/// DDC bench at the catalogue's widest shape: the dqpsk-1M preset's
/// envelope reconstruction (380 MHz carrier on a 1.955 GHz dense grid,
/// 6.21 MHz cutoff, decimation 131, auto-sized 6,745-tap FIR).
void bench_ddc(int reps) {
    const double fs = 1.955 * GHz;
    const double fc = 380.0 * MHz;
    const std::size_t n_in = 155031;
    rng gen(0xDDC);
    std::vector<double> x(n_in);
    for (std::size_t i = 0; i < n_in; ++i) {
        const double t = static_cast<double>(i) / fs;
        x[i] = std::cos(two_pi * (fc + 0.3 * MHz) * t + 0.7) +
               0.5 * std::cos(two_pi * (fc - 0.45 * MHz) * t) +
               gen.gaussian(0.0, 0.01);
    }
    dsp::ddc_options opt;
    opt.carrier_hz = fc;
    opt.sample_rate = fs;
    opt.decimation = 131;
    opt.cutoff_hz = 6.21 * MHz;
    opt.fir_taps = 6745; // what the auto-sizing picks for this shape

    std::vector<std::complex<double>> env;
    const double s_ddc =
        best_seconds([&] { env = dsp::digital_downconvert(x, opt); }, reps);

    benchutil::json_record rec;
    rec.add("kernel", std::string("ddc"));
    rec.add("in_samples", n_in);
    rec.add("out_samples", env.size());
    rec.add("taps", opt.fir_taps);
    rec.add("decimation", opt.decimation);
    rec.add("ms", 1e3 * s_ddc);
    rec.add("ns_per_input_sample", 1e9 * s_ddc / static_cast<double>(n_in));
    benchutil::emit_bench_json("perf_hotpath", rec);

    std::cout << "ddc: " << 1e3 * s_ddc << " ms, "
              << 1e9 * s_ddc / static_cast<double>(n_in)
              << " ns/input sample (" << n_in << " -> " << env.size()
              << ", " << opt.fir_taps << " taps, D=" << opt.decimation
              << ")\n";
}

/// EVM meter at the catalogue shape with the most matched-filter taps per
/// timing trial: the tactical-bpsk-2M envelope as the pipeline reconstructs
/// it (fault-free device).
void bench_evm(int reps) {
    bist::bist_config cfg;
    cfg.tiadc.quant.full_scale = 2.0;
    cfg.preset = waveform::find_preset("tactical-bpsk-2M");
    bist::bist_session session(cfg);
    session.run_until(bist::stage::reconstruction);
    const auto& env = session.reconstruction().envelope;
    const auto& stimulus = session.stimulus().stimulus;
    waveform::evm_options opt;
    opt.envelope_t0 = env.t0;
    const std::span<const std::complex<double>> samples(env.samples.data(),
                                                        env.samples.size());

    waveform::evm_result fast, ref;
    const double s_fast = best_seconds(
        [&] { fast = waveform::measure_evm(samples, env.rate, stimulus, opt); },
        reps);
    const double s_ref = best_seconds(
        [&] {
            ref = waveform::measure_evm_reference(samples, env.rate, stimulus,
                                                  opt);
        },
        reps);
    const double err = std::abs(fast.evm_rms - ref.evm_rms) / ref.evm_rms;
    const double samples_per_symbol = env.rate / stimulus.symbol_rate;

    benchutil::json_record rec;
    rec.add("kernel", std::string("evm"));
    rec.add("preset", cfg.preset.name);
    rec.add("envelope_samples", env.samples.size());
    rec.add("samples_per_symbol", samples_per_symbol);
    rec.add("graded_symbols", ref.received_symbols.size());
    rec.add("table_bytes",
            waveform::srrc_table::shared(stimulus.rolloff,
                                         waveform::evm_matched_span_symbols)
                ->bytes());
    rec.add("ref_ms", 1e3 * s_ref);
    rec.add("fast_ms", 1e3 * s_fast);
    rec.add("speedup", s_ref / s_fast);
    rec.add("max_rel_error", err);
    rec.add("timing_offset_equal",
            std::size_t{fast.timing_offset == ref.timing_offset ? 1u : 0u});
    benchutil::emit_bench_json("perf_hotpath", rec);

    std::cout << "evm: " << 1e3 * s_ref << " -> " << 1e3 * s_fast
              << " ms per measurement  (x" << s_ref / s_fast
              << ", rel EVM deviation " << err << ", "
              << ref.received_symbols.size() << " symbols at "
              << samples_per_symbol << " samples/symbol)\n";
}

} // namespace

int main(int argc, char** argv) {
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;

    const std::size_t n_points = quick ? 2000 : 8000;
    const int reps = quick ? 3 : 5;
    bench_pnbs_uniform(n_points, reps);
    bench_sinc_capture(n_points, reps);
    bench_ddc(reps);
    bench_evm(reps);
    return 0;
}
