#include "adc/quantizer.hpp"

#include <cmath>

#include "core/contracts.hpp"

namespace sdrbist::adc {

namespace {

/// Elementwise mid-rise quantisation of a scaled record (the BP-TIADC
/// capture path).  The multiply-add steps stay separate operations (the
/// library is built with -ffp-contract=off), so the result is one
/// correctly rounded sequence on every host.
void quantize_midrise(const double* x, double* out, std::size_t n,
                      double scale, const quantize_params& p) {
    for (std::size_t i = 0; i < n; ++i) {
        const double scaled = x[i] * scale;
        const double gained = scaled * p.gain;
        const double shifted = gained + p.offset;
        double v = shifted < p.clip_lo ? p.clip_lo : shifted;
        v = v > p.clip_hi ? p.clip_hi : v;
        out[i] = p.lsb * (std::floor(v / p.lsb) + 0.5);
    }
}

} // namespace

quantizer::quantizer(quantizer_config config) : config_(config) {
    SDRBIST_EXPECTS(config_.bits >= 1 && config_.bits <= 24);
    SDRBIST_EXPECTS(config_.full_scale > 0.0);
    lsb_ = 2.0 * config_.full_scale /
           static_cast<double>(1 << config_.bits);
    // Kernel parameters of the mid-rise characteristic: channel errors act
    // on the analog sample before conversion, the range is clipped with the
    // top code kept reachable.
    params_.gain = 1.0 + config_.gain_error;
    params_.offset = config_.offset_error;
    params_.clip_lo = -config_.full_scale;
    params_.clip_hi = config_.full_scale - lsb_ * 1e-9;
    params_.lsb = lsb_;
}

double quantizer::quantize(double x) const {
    double out = 0.0;
    quantize_midrise(&x, &out, 1, 1.0, params_);
    return out;
}

std::vector<double> quantizer::process(std::span<const double> x) const {
    return process_scaled(x, 1.0);
}

std::vector<double> quantizer::process_scaled(std::span<const double> x,
                                              double scale) const {
    std::vector<double> out(x.size());
    quantize_midrise(x.data(), out.data(), x.size(), scale, params_);
    return out;
}

double quantizer::ideal_snr_db(int bits) {
    SDRBIST_EXPECTS(bits >= 1);
    return 6.0206 * static_cast<double>(bits) + 1.7609;
}

} // namespace sdrbist::adc
