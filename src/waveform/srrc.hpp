/// \file srrc.hpp
/// \brief Square-root raised-cosine (SRRC) pulse shaping.
///
/// The paper's test stimulus is "10 MHz QPSK symbols shaped by a square root
/// raised cosine filter with a roll-off factor of 0.5".
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace sdrbist::waveform {

/// SRRC impulse response sampled at `oversample` samples per symbol over
/// `span_symbols` symbols each side of the peak.
///
/// \param rolloff       excess-bandwidth factor alpha in (0, 1]
/// \param oversample    samples per symbol (>= 2)
/// \param span_symbols  one-sided filter span in symbols (>= 2)
/// \return taps of length 2·span·oversample + 1, normalised to unit energy
///         (so that SRRC -> matched SRRC gives a unit-gain raised cosine)
std::vector<double> srrc_taps(double rolloff, std::size_t oversample,
                              std::size_t span_symbols);

/// Closed-form SRRC waveform value at t (in symbol periods, Ts = 1),
/// handling the removable singularities at t = 0 and |t| = 1/(4·alpha).
double srrc_value(double t_symbols, double rolloff);

/// Raised-cosine (full Nyquist) value at t in symbol periods — the
/// autocorrelation of the SRRC; used by tests to verify the ISI-free
/// property of the matched cascade.
double raised_cosine_value(double t_symbols, double rolloff);

/// The closed-form SRRC of one roll-off, tabulated for the EVM meter's
/// matched filter over t in [-span, span] symbol periods at `phases` nodes
/// per symbol (plus one guard node each side).
///
/// The table coordinate is x = (t + span)·phases + 1, so a caller whose t
/// is affine in a sample index gets an x that is affine in that index too.
/// Interval i = floor(x), 0 <= i < intervals(), holds the power-basis
/// coefficients of the cubic Lagrange polynomial through nodes i - 1 ..
/// i + 2, so `at(x)` is a Horner evaluation in the fraction of x: no
/// division and no transcendental.  Against `srrc_value` the blend is
/// within about 4e-10 of the pulse peak at the catalogue roll-offs.
class srrc_table {
public:
    static constexpr std::size_t phases = 512;

    srrc_table(double rolloff, std::size_t span_symbols);

    /// Process-wide table for these parameters, from a cache that holds at
    /// most `cache_capacity` tables (least recently requested evicted
    /// first; an evicted table is rebuilt bit-identically on demand).
    [[nodiscard]] static std::shared_ptr<const srrc_table>
    shared(double rolloff, std::size_t span_symbols);
    static constexpr std::size_t cache_capacity = 8;
    /// Tables currently held by the cache.
    [[nodiscard]] static std::size_t cached();

    /// Number of cubic intervals: x must lie in [0, intervals()).
    [[nodiscard]] std::size_t intervals() const {
        return coeffs_.size() / 4;
    }
    /// Four power-basis coefficients per interval, constant term first.
    [[nodiscard]] const std::vector<double>& coefficients() const {
        return coeffs_;
    }
    [[nodiscard]] std::size_t bytes() const {
        return coeffs_.size() * sizeof(double);
    }

    /// The blended SRRC at table coordinate x in [0, intervals()).
    [[nodiscard]] double at(double x) const {
        // A signed conversion: one instruction, where an unsigned one is
        // a branch on most targets.
        const auto i = static_cast<std::ptrdiff_t>(x);
        const double f = x - static_cast<double>(i);
        const double* c = coeffs_.data() + 4 * i;
        return ((c[3] * f + c[2]) * f + c[1]) * f + c[0];
    }

private:
    std::vector<double> coeffs_;
};

} // namespace sdrbist::waveform
