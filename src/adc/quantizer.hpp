/// \file quantizer.hpp
/// \brief N-bit uniform quantiser with gain/offset error and clipping.
#pragma once

#include <span>
#include <vector>

namespace sdrbist::adc {

/// Quantiser parameters.  The paper's ADCs are 10-bit converters.
struct quantizer_config {
    int bits = 10;
    double full_scale = 1.0;    ///< input range is [-full_scale, +full_scale]
    double gain_error = 0.0;    ///< relative gain error (0 = ideal)
    double offset_error = 0.0;  ///< input-referred offset, volts
};

/// Precomputed parameters of the mid-rise characteristic
///   q(x) = lsb·(floor(clamp(x·scale·gain + offset, clip_lo, clip_hi)/lsb)
///               + 1/2)
/// with `scale` passed per call (the front-end attenuator varies per
/// capture while the converter's own parameters do not).
struct quantize_params {
    double gain = 1.0;    ///< 1 + relative gain error
    double offset = 0.0;  ///< input-referred offset
    double clip_lo = 0.0; ///< lower clip rail (-full_scale)
    double clip_hi = 0.0; ///< upper clip rail (full_scale - eps)
    double lsb = 0.0;     ///< quantisation step
};

/// Mid-rise uniform quantiser: q = LSB·(floor(x/LSB) + 1/2), clipped.
class quantizer {
public:
    explicit quantizer(quantizer_config config);

    /// Quantise one sample (applies gain and offset error first).
    [[nodiscard]] double quantize(double x) const;

    /// Quantise a record (bit-identical to per-sample quantize(): both run
    /// the same elementwise kernel).
    [[nodiscard]] std::vector<double> process(std::span<const double> x) const;

    /// Quantise a record with a front-end attenuator applied first:
    /// out[k] = quantize(scale·x[k]).  The BP-TIADC capture path.
    [[nodiscard]] std::vector<double>
    process_scaled(std::span<const double> x, double scale) const;

    /// LSB size.
    [[nodiscard]] double lsb() const { return lsb_; }

    /// Ideal quantisation SNR for a full-scale sine: 6.02·bits + 1.76 dB.
    [[nodiscard]] static double ideal_snr_db(int bits);

    [[nodiscard]] const quantizer_config& config() const { return config_; }

private:
    quantizer_config config_;
    double lsb_;
    quantize_params params_; ///< precomputed kernel parameters
};

} // namespace sdrbist::adc
