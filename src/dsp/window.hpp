/// \file window.hpp
/// \brief Window functions for FIR design, spectral estimation and the
///        truncated Kohlenberg reconstruction filter (the paper windows its
///        61-tap reconstruction filter with a Kaiser window).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace sdrbist::dsp {

/// Supported window families.
enum class window_kind {
    rectangular,
    hann,
    hamming,
    blackman,
    kaiser, ///< parameterised by beta
};

/// Generate a symmetric window of length n.
/// For window_kind::kaiser, `kaiser_beta` selects the sidelobe level.
/// Precondition: n >= 1.
std::vector<double> make_window(window_kind kind, std::size_t n,
                                double kaiser_beta = 8.6);

/// Kaiser window of length n with shape parameter beta (symmetric).
std::vector<double> kaiser_window(std::size_t n, double beta);

/// Kaiser beta that achieves the requested stopband attenuation in dB
/// (Kaiser's empirical formula).
double kaiser_beta_for_attenuation(double attenuation_db);

/// Value of the continuous Kaiser window at normalised position
/// u in [-1, 1] (0 = centre, ±1 = edges); 0 outside.
/// Used to window the continuous-argument Kohlenberg kernel.
/// Exact (two Bessel-I0 series per call); hot paths use kaiser_lut.
double kaiser_window_at(double u, double beta);

/// The continuous Kaiser window continued analytically past its support:
/// I0(β√(1−u²))·inv_i0b for |u| <= 1, J0(β√(u²−1))·inv_i0b beyond (I0 of
/// an imaginary argument is J0).  Polyphase table builders tabulate it so
/// that a phase blend whose rows straddle the support edge keeps its full
/// order; `inv_i0b` = 1/I0(β) is hoisted out of their per-cell loops.
double kaiser_window_continued(double u, double beta, double inv_i0b);

/// Precomputed continuous Kaiser window: `resolution + 1` exact samples of
/// kaiser_window_at over u in [0, 1], evaluated by symmetric linear
/// interpolation.  Replaces the two Bessel-I0 series per call with two loads
/// and a multiply; the interpolation error is |w''|/8 · resolution^-2
/// (~1e-6 absolute at the default 2048 points for beta = 8), far below the
/// truncation error of any windowed kernel it is applied to.
///
/// Used by the hardware-mapped reconstructor's table builder, through
/// shared(), so a table is built once per (beta, resolution) per process
/// rather than once per reconstructor.  (The PNBS reconstructor and the
/// windowed-sinc interpolator bake exact window values into their
/// polyphase coefficient tables instead.)
class kaiser_lut {
public:
    explicit kaiser_lut(double beta, std::size_t resolution = 2048);

    /// Process-wide immutable table for (beta, resolution): built on the
    /// first request, then handed to every later caller (thread-safe).
    /// Its values are bit-identical to a directly constructed table's.
    [[nodiscard]] static std::shared_ptr<const kaiser_lut>
    shared(double beta, std::size_t resolution = 2048);

    /// Window value at normalised position u (any sign); 0 for |u| >= 1.
    [[nodiscard]] double operator()(double u) const {
        u = u < 0.0 ? -u : u;
        if (u >= 1.0)
            return 0.0;
        const double pos = u * static_cast<double>(lut_.size() - 1);
        const auto i = static_cast<std::size_t>(pos);
        const double frac = pos - static_cast<double>(i);
        return lut_[i] + frac * (lut_[i + 1] - lut_[i]);
    }

    [[nodiscard]] double beta() const { return beta_; }
    [[nodiscard]] std::size_t resolution() const { return lut_.size() - 1; }

private:
    std::vector<double> lut_;
    double beta_;
};

/// Sum of window coefficients (coherent gain numerator).
double window_sum(const std::vector<double>& w);

/// Sum of squared coefficients (used in PSD normalisation).
double window_power(const std::vector<double>& w);

/// Human-readable name of a window kind.
std::string to_string(window_kind kind);

} // namespace sdrbist::dsp
