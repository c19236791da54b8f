#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <memory>
#include <span>

#include "bist/spectrum.hpp"
#include "core/contracts.hpp"
#include "core/random.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"
#include "dsp/biquad.hpp"
#include "dsp/ddc.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace sdrbist;
using bist::bist_config;

namespace {

double occupied_bandwidth(const waveform::generator_config& g) {
    return g.symbol_rate * (1.0 + g.rolloff);
}

adc::bp_tiadc make_programmed_sampler(const bist_config& config) {
    adc::bp_tiadc sampler(config.tiadc);
    sampler.program_delay(config.dcde_target_delay_s);
    return sampler;
}

waveform::baseband_waveform
generate(const waveform::generator_config& config) {
    const scoped_span span("waveform.generate");
    return waveform::generate_baseband(config);
}

} // namespace

bist::stimulus_output traced_stimulus(const bist_config& config) {
    const scoped_span stage_span("bist.stimulus");
    bist::stimulus_output out;

    const double nominal_carrier = config.preset.default_carrier_hz;
    const double b = config.tiadc.channel_rate_hz;
    const double b1 = b / static_cast<double>(config.slow_divider);

    out.stimulus = generate(config.preset.stimulus);
    waveform::generator_config cal_cfg = config.use_calibration_stimulus
                                             ? config.calibration_stimulus
                                             : config.preset.stimulus;
    if (config.use_calibration_stimulus &&
        (occupied_bandwidth(cal_cfg) > 0.75 * b1))
        cal_cfg.symbol_rate = 0.22 * b1 / (1.0 + cal_cfg.rolloff) * 1.5;
    out.calibration = generate(cal_cfg);
    out.calibration_config = cal_cfg;

    out.occupied_bw_calibration_hz = occupied_bandwidth(cal_cfg);
    out.occupied_bw_graded_hz = occupied_bandwidth(config.preset.stimulus);
    const double occ_max =
        std::max(out.occupied_bw_calibration_hz, out.occupied_bw_graded_hz);
    constexpr double disc_threshold = 1e-2;
    double best_disc = -1.0;
    calib::band_plan best_plan{};
    double best_carrier = nominal_carrier;
    for (const double frac :
         {0.0, 0.25, -0.25, 0.125, -0.125, 0.375, -0.375}) {
        const double cand_carrier = nominal_carrier + frac * b1;
        const auto cand_plan = calib::choose_band_plan(
            cand_carrier, b, b1, out.occupied_bw_calibration_hz, occ_max,
            disc_threshold);
        const double disc = calib::dual_rate_discrimination(
            cand_plan, cand_carrier, out.occupied_bw_calibration_hz);
        if (disc > best_disc) {
            best_disc = disc;
            best_plan = cand_plan;
            best_carrier = cand_carrier;
        }
        if (disc >= disc_threshold)
            break;
    }
    out.plan = best_plan;
    out.carrier_hz = best_carrier;
    out.plan_discrimination = best_disc;
    out.carrier_nudge_hz = out.carrier_hz - nominal_carrier;
    return out;
}

bist::tx_capture_output traced_tx_capture(const bist_config& config,
                                          const bist::stimulus_output& stim) {
    const scoped_span stage_span("bist.tx_capture");
    bist::tx_capture_output out;

    const double b = config.tiadc.channel_rate_hz;
    const double b1 = b / static_cast<double>(config.slow_divider);

    rf::tx_config txc = config.tx;
    txc.carrier_hz = stim.carrier_hz;
    const rf::homodyne_tx tx(txc);
    {
        const scoped_span span("rf.transmit");
        out.tx_out = tx.transmit(stim.stimulus);
        out.calibration_tx_out = tx.transmit(stim.calibration);
    }

    auto filtered_input = [&](const rf::tx_output& source, double halfwidth) {
        halfwidth = std::min(halfwidth, 0.4 * source.envelope_rate);
        auto bpf = dsp::butterworth_lowpass(config.capture_filter_order,
                                            halfwidth, source.envelope_rate);
        auto filtered = bpf.filter(std::span<const std::complex<double>>(
            source.envelope.data(), source.envelope.size()));
        return std::make_shared<rf::envelope_passband>(
            std::move(filtered), source.envelope_rate, source.carrier_hz);
    };
    {
        const double slow_cover =
            b1 / 2.0 - std::abs(stim.plan.slow_offset_hz);
        const double narrow = config.capture_filter_halfwidth_hz > 0.0
                                  ? config.capture_filter_halfwidth_hz
                                  : std::min(0.42 * b1, 0.95 * slow_cover);
        const double fast_cover =
            b / 2.0 - std::abs(stim.plan.fast_offset_hz);
        const double wide = config.spectrum_filter_halfwidth_hz > 0.0
                                ? config.spectrum_filter_halfwidth_hz
                                : 0.9 * fast_cover;
        out.capture_input = filtered_input(out.calibration_tx_out, narrow);
        out.spectrum_input = filtered_input(out.tx_out, wide);
    }

    adc::bp_tiadc sampler = make_programmed_sampler(config);
    out.programmed_delay_s = config.dcde_target_delay_s;

    const double cal_ramp =
        static_cast<double>(stim.calibration.shaper_delay_samples) /
        stim.calibration.sample_rate;
    const double cal_t_start =
        config.capture_start_s > 0.0
            ? config.capture_start_s
            : out.capture_input->begin_time() + cal_ramp + 0.1 * us;
    const std::size_t cal_samples = std::max(
        config.fast_samples,
        static_cast<std::size_t>(std::ceil(
            64.0 * b / stim.calibration_config.symbol_rate)));
    SDRBIST_EXPECTS(cal_t_start + static_cast<double>(cal_samples) / b <
                    out.capture_input->end_time());

    {
        const scoped_span span("adc.estimation_capture");
        if (config.auto_range)
            out.ranging = sampler.auto_range(*out.capture_input, cal_t_start,
                                             cal_samples);
        out.capture.fast = sampler.capture(*out.capture_input, cal_t_start,
                                           cal_samples, /*capture*/ 0);
        out.capture.slow = sampler.capture_divided(
            *out.capture_input, cal_t_start,
            cal_samples / config.slow_divider, config.slow_divider,
            /*capture*/ 1);
    }
    trace::count("adc.estimation_capture.samples",
                 2.0 * static_cast<double>(out.capture.fast.even.size() +
                                           out.capture.slow.even.size()));
    out.capture.band_fast = stim.plan.fast;
    out.capture.band_slow = stim.plan.slow;

    out.dual_rate_conditions_ok = calib::dual_rate_conditions_ok(out.capture);
    out.max_search_delay_s = calib::max_search_delay(out.capture);
    return out;
}

bist::calibration_output
traced_calibration(const bist_config& config,
                   const bist::tx_capture_output& cap) {
    const scoped_span stage_span("bist.calibration");
    SDRBIST_EXPECTS(cap.dual_rate_conditions_ok);
    bist::calibration_output out;

    const auto [probe_lo, probe_hi] =
        calib::valid_probe_interval(cap.capture, config.lms.recon);
    rng probe_gen(config.probe_seed);
    out.probe_times = calib::make_probe_times(probe_gen, config.probe_count,
                                              probe_lo, probe_hi);
    const double d0 = config.d0_hint_s > 0.0
                          ? config.d0_hint_s
                          : 0.5 * cap.max_search_delay_s;
    const calib::lms_skew_estimator estimator(config.lms);
    {
        const scoped_span span("calib.lms");
        out.skew = estimator.estimate(cap.capture, d0, out.probe_times);
    }
    trace::count("calib.lms.iterations",
                 static_cast<double>(out.skew.iterations));
    trace::count("calib.lms.cost_evals",
                 static_cast<double>(out.skew.cost_evaluations));
    return out;
}

bist::reconstruction_output
traced_reconstruction(const bist_config& config,
                      const bist::stimulus_output& stim,
                      const bist::tx_capture_output& cap,
                      const bist::calibration_output& cal) {
    const scoped_span stage_span("bist.reconstruction");
    bist::reconstruction_output out;

    const double b = config.tiadc.channel_rate_hz;
    const double spec_ramp =
        static_cast<double>(stim.stimulus.shaper_delay_samples) /
        stim.stimulus.sample_rate;
    const double spec_t_start =
        config.capture_start_s > 0.0
            ? config.capture_start_s
            : cap.spectrum_input->begin_time() + spec_ramp + 0.1 * us;
    const std::size_t spec_samples = std::max(
        config.fast_samples,
        static_cast<std::size_t>(
            std::ceil(80.0 * b / config.preset.stimulus.symbol_rate)));
    SDRBIST_EXPECTS(spec_t_start + static_cast<double>(spec_samples) / b <
                    cap.spectrum_input->end_time());

    adc::bp_tiadc sampler = make_programmed_sampler(config);
    {
        const scoped_span span("adc.capture");
        if (config.auto_range)
            out.spectrum_ranging = sampler.auto_range(
                *cap.spectrum_input, spec_t_start, spec_samples);
        out.spectrum_capture = sampler.capture(
            *cap.spectrum_input, spec_t_start, spec_samples, /*capture*/ 2);
    }
    trace::count("adc.capture.samples",
                 2.0 * static_cast<double>(out.spectrum_capture.even.size()));

    const sampling::pnbs_reconstructor recon(
        out.spectrum_capture.even, out.spectrum_capture.odd,
        out.spectrum_capture.period_s, out.spectrum_capture.t_start,
        cap.capture.band_fast, cal.skew.d_hat, config.lms.recon);
    bist::spectrum_options opt = config.spectrum;
    if (opt.mix_frequency <= 0.0)
        opt.mix_frequency = stim.carrier_hz;
    if (opt.ddc_cutoff_hz <= 0.0) {
        const double mix_shift =
            std::abs(opt.mix_frequency - cap.capture.band_fast.centre());
        opt.ddc_cutoff_hz = std::min(0.55 * b + mix_shift,
                                     4.6 * stim.occupied_bw_graded_hz +
                                         mix_shift);
    }
    if (opt.envelope_rate_min <= 0.0)
        opt.envelope_rate_min = 2.4 * opt.ddc_cutoff_hz;

    // bist::reconstruct_envelope, split at its two layer calls.
    const auto& band = recon.kernel().band();
    const double t_lo = recon.valid_begin();
    const double t_hi = recon.valid_end();
    SDRBIST_EXPECTS(t_hi > t_lo);
    const double dense_rate = opt.dense_rate_factor * 2.0 * band.f_hi;
    const auto n_dense =
        static_cast<std::size_t>(std::floor((t_hi - t_lo) * dense_rate));
    SDRBIST_EXPECTS(n_dense >= 64);
    std::vector<double> x;
    {
        const scoped_span span("sampling.pnbs.uniform");
        x = recon.uniform(t_lo, dense_rate, n_dense);
    }
    trace::count("sampling.pnbs.points", static_cast<double>(n_dense));

    const double env_rate_target = opt.envelope_rate_min > 0.0
                                       ? opt.envelope_rate_min
                                       : 4.0 * band.bandwidth();
    const auto decim = static_cast<std::size_t>(
        std::max(1.0, std::floor(dense_rate / env_rate_target)));
    const double mix_f =
        opt.mix_frequency > 0.0 ? opt.mix_frequency : band.centre();
    dsp::ddc_options ddc;
    ddc.carrier_hz = mix_f;
    ddc.sample_rate = dense_rate;
    ddc.decimation = decim;
    ddc.fir_taps = opt.ddc_taps;
    ddc.cutoff_hz = opt.ddc_cutoff_hz > 0.0
                        ? opt.ddc_cutoff_hz
                        : 0.55 * band.bandwidth() +
                              std::abs(mix_f - band.centre());
    {
        const scoped_span span("dsp.ddc");
        out.envelope.samples = dsp::digital_downconvert(x, ddc);
    }
    trace::count("dsp.ddc.in_samples", static_cast<double>(x.size()));
    trace::count("dsp.ddc.out_samples",
                 static_cast<double>(out.envelope.samples.size()));
    out.envelope.rate = dense_rate / static_cast<double>(decim);
    out.envelope.t0 = t_lo;
    const std::complex<double> rot = std::polar(1.0, -two_pi * mix_f * t_lo);
    for (auto& v : out.envelope.samples)
        v *= rot;
    return out;
}

bist::grading_output traced_grading(const bist_config& config,
                                    const bist::stimulus_output& stim,
                                    const bist::reconstruction_output& recon) {
    const scoped_span stage_span("bist.grading");
    bist::grading_output out;

    const double occ_graded = stim.occupied_bw_graded_hz;
    const std::size_t welch_segment =
        config.spectrum.welch_segment > 0
            ? config.spectrum.welch_segment
            : bist::auto_welch_segment(recon.envelope.rate, occ_graded,
                                       recon.envelope.samples.size());
    dsp::psd_result psd;
    {
        const scoped_span span("dsp.welch");
        psd = bist::envelope_psd(recon.envelope, welch_segment);
    }
    {
        const scoped_span span("waveform.mask");
        out.mask = config.preset.mask.check(psd);
    }
    {
        const scoped_span span("waveform.acpr");
        const double offset =
            config.acpr_offset_hz > 0.0 ? config.acpr_offset_hz
            : config.preset.acpr_offset_hz > 0.0
                ? config.preset.acpr_offset_hz
                : 1.5 * occ_graded;
        out.acpr = waveform::measure_acpr(psd, occ_graded, offset);
        out.acpr_limit_dbc = config.acpr_limit_dbc;
        out.acpr_pass = config.acpr_limit_dbc >= 0.0 ||
                        out.acpr.worst_dbc() <= config.acpr_limit_dbc;
        out.occupied_bw_hz = waveform::occupied_bandwidth(psd, 0.99);
    }
    {
        const scoped_span span("waveform.evm");
        waveform::evm_options evm_opt;
        evm_opt.envelope_t0 = recon.envelope.t0;
        out.evm = waveform::measure_evm(
            std::span<const std::complex<double>>(
                recon.envelope.samples.data(),
                recon.envelope.samples.size()),
            recon.envelope.rate, stim.stimulus, evm_opt);
    }
    out.evm_pass = out.evm.evm_percent() <= config.evm_limit_percent;

    const double scale =
        config.auto_range ? recon.spectrum_ranging.input_scale : 1.0;
    out.measured_output_rms = rms(recon.spectrum_capture.even) / scale;
    out.min_output_rms = config.min_output_rms;
    out.power_pass = config.min_output_rms <= 0.0 ||
                     out.measured_output_rms >= config.min_output_rms;
    return out;
}

} // namespace perfbench
