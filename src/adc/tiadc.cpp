#include "adc/tiadc.hpp"

#include "core/contracts.hpp"

namespace sdrbist::adc {

namespace {
quantizer_config with_mismatch(quantizer_config q, double gain_err,
                               double off_err) {
    q.gain_error += gain_err;
    q.offset_error += off_err;
    return q;
}
} // namespace

bp_tiadc::bp_tiadc(tiadc_config config)
    : config_(config), quant0_(config.quant),
      quant1_(with_mismatch(config.quant, config.ch1_gain_error,
                            config.ch1_offset_error)),
      delay_(config.delay_element) {
    SDRBIST_EXPECTS(config_.channel_rate_hz > 0.0);
    SDRBIST_EXPECTS(config_.jitter_rms_s >= 0.0);
}

int bp_tiadc::program_delay(double delay_s) {
    const int code = delay_.code_for(delay_s);
    delay_.set_code(code);
    return code;
}

void bp_tiadc::set_input_scale(double scale) {
    SDRBIST_EXPECTS(scale > 0.0);
    input_scale_ = scale;
}

ranging_result bp_tiadc::auto_range(const rf::passband_signal& x,
                                    double t_start, std::size_t n,
                                    double headroom) {
    SDRBIST_EXPECTS(n >= 16);
    SDRBIST_EXPECTS(headroom > 0.0 && headroom < 1.0);
    // Coarse asynchronous peak scan: sample faster than the channel rate to
    // catch envelope peaks (8 points per channel period, offset-free).
    // One batch request so the signal's whole-record path is used.
    const double dt = 1.0 / (8.0 * config_.channel_rate_hz);
    std::vector<double> t(8 * n);
    for (std::size_t k = 0; k < t.size(); ++k)
        t[k] = t_start + static_cast<double>(k) * dt;
    double peak = 0.0;
    for (double v : x.values(t))
        peak = std::max(peak, std::abs(v));
    SDRBIST_EXPECTS(peak > 0.0);

    ranging_result r;
    r.observed_peak = peak;
    r.clipped = peak > config_.quant.full_scale;
    r.input_scale = headroom * config_.quant.full_scale / peak;
    input_scale_ = r.input_scale;
    return r;
}

nonuniform_capture bp_tiadc::capture(const rf::passband_signal& x,
                                     double t_start, std::size_t n,
                                     std::uint64_t capture_index) const {
    return capture_divided(x, t_start, n, 1, capture_index);
}

nonuniform_capture
bp_tiadc::capture_divided(const rf::passband_signal& x, double t_start,
                          std::size_t n, std::size_t rate_divider,
                          std::uint64_t capture_index) const {
    SDRBIST_EXPECTS(n >= 2);
    SDRBIST_EXPECTS(rate_divider >= 1);
    const double period =
        static_cast<double>(rate_divider) / config_.channel_rate_hz;
    const double d_true = delay_.actual_delay();

    // Independent jitter per channel and per capture.
    const std::uint64_t base = config_.seed ^ (capture_index * 0x9E3779B9ull);
    sampling_clock clk0({period, t_start, config_.jitter_rms_s}, base + 1);
    sampling_clock clk1({period, t_start + d_true, config_.jitter_rms_s},
                        base + 2);

    const auto t0 = clk0.edges(n);
    const auto t1 = clk1.edges(n);

    SDRBIST_EXPECTS(t0.front() >= x.begin_time());
    SDRBIST_EXPECTS(t1.back() <= x.end_time());

    nonuniform_capture cap;
    cap.period_s = period;
    cap.t_start = t_start;
    cap.true_delay_s = d_true;
    // Whole-record batch evaluation: one signal request per channel
    // instead of one virtual call per instant, then one quantisation pass
    // per record.
    cap.even = quant0_.process_scaled(x.values(t0), input_scale_);
    cap.odd = quant1_.process_scaled(x.values(t1), input_scale_);
    return cap;
}

} // namespace sdrbist::adc
