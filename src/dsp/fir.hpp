/// \file fir.hpp
/// \brief FIR filter design (windowed sinc) and filtering: the rational-rate
///        `upfirdn` used by the pulse shaper and the decimating FIR of the
///        DDC.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "dsp/window.hpp"

namespace sdrbist::dsp {

/// Windowed-sinc lowpass design.
/// \param taps         filter length (>= 3)
/// \param cutoff_norm  cutoff in cycles/sample, in (0, 0.5)
/// \param kind         window family
/// \param kaiser_beta  Kaiser beta when kind == kaiser
/// Passband gain is normalised to exactly 1 at DC.
std::vector<double> design_lowpass_fir(std::size_t taps, double cutoff_norm,
                                       window_kind kind = window_kind::kaiser,
                                       double kaiser_beta = 8.6);

/// Windowed-sinc bandpass design with band edges (cycles/sample)
/// 0 < f1 < f2 < 0.5.  Gain normalised to 1 at the band centre.
std::vector<double> design_bandpass_fir(std::size_t taps, double f1, double f2,
                                        window_kind kind = window_kind::kaiser,
                                        double kaiser_beta = 8.6);

/// Full linear convolution (output length a.size() + b.size() - 1).
std::vector<double> convolve(std::span<const double> a,
                             std::span<const double> b);

/// Group-delay compensated FIR (real coefficients, complex input) evaluated
/// only at every D-th output: returns y[m] = (h * x)[m·D + (taps-1)/2],
/// length ceil(x.size() / D).  D = 1 is "same-size" filtering.  Odd-length
/// h only; decimation >= 1.
std::vector<std::complex<double>>
filter_decimate(std::span<const double> h,
                std::span<const std::complex<double>> x,
                std::size_t decimation);

/// Polyphase-style upsample-filter-downsample:
/// insert (up-1) zeros between samples, filter with h, keep every down-th.
/// Output length: ceil((x.size()*up + h.size() - 1) / down) - but trimmed to
/// full convolution; no group-delay compensation (callers track delay).
std::vector<double> upfirdn(std::span<const double> h,
                            std::span<const double> x, std::size_t up,
                            std::size_t down);

/// Complex-input upfirdn with real coefficients.
std::vector<std::complex<double>>
upfirdn(std::span<const double> h, std::span<const std::complex<double>> x,
        std::size_t up, std::size_t down);

/// Frequency response H(e^{j2πf}) of an FIR at normalised frequency
/// f in cycles/sample.
std::complex<double> fir_response(std::span<const double> h, double f_norm);

} // namespace sdrbist::dsp
