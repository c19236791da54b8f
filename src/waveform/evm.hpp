/// \file evm.hpp
/// \brief Error-vector-magnitude measurement of a recovered envelope
///        against the known transmitted symbols.
///
/// The BIST generated the stimulus itself, so the reference symbols, symbol
/// timing and pulse shape are all known; only a complex gain (PA gain and
/// phase rotation) and a small residual timing offset must be estimated.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "waveform/generator.hpp"

namespace sdrbist::waveform {

/// EVM measurement result.
struct evm_result {
    double evm_rms = 0.0;          ///< RMS EVM, fraction of reference RMS
    double evm_peak = 0.0;         ///< worst-symbol EVM, fraction
    std::complex<double> gain{1.0, 0.0}; ///< fitted complex channel gain
    double timing_offset = 0.0;    ///< fitted timing offset in seconds
    std::vector<std::complex<double>> received_symbols; ///< gain-corrected

    /// EVM in percent.
    [[nodiscard]] double evm_percent() const { return 100.0 * evm_rms; }
    /// EVM in dB (20·log10).
    [[nodiscard]] double evm_db() const;
};

/// One-sided support of the EVM meter's matched filter, in symbols.
inline constexpr std::size_t evm_matched_span_symbols = 6;

/// EVM meter options.
struct evm_options {
    std::size_t skip_symbols = 8;   ///< discard edge symbols (filter tails)
    double timing_search_span = 0.5;///< ± span of timing search, in symbols
    std::size_t timing_steps = 33;  ///< coarse search grid size (odd)
    double envelope_t0 = 0.0; ///< absolute time of envelope[0] on the
                              ///< reference waveform's timeline
};

/// Measure EVM of `envelope` (complex baseband at `sample_rate`, timeline
/// aligned with the waveform's `samples`) against `reference.symbols`.
///
/// Each symbol is matched-filtered with the SRRC of the reference's
/// roll-off over ±`evm_matched_span_symbols`, and the meter keeps the
/// timing offset (a `timing_steps` grid over ±`timing_search_span`
/// symbols, then 12 bisection trials) whose least-squares complex gain
/// leaves the smallest error.  The filter taps come from the shared
/// `srrc_table` of the roll-off, read at a coordinate affine in the sample
/// index; each window is summed in ascending sample order.  Against
/// `measure_evm_reference` the EVM differs by at most 1e-8 relative (under
/// 1e-9 on the catalogue), the gain by at most 1e-9 relative, and the
/// timing offset is equal.
///
/// The sample rates, symbol rate, roll-off, `envelope_t0`,
/// `timing_search_span` and the envelope samples are validated before any
/// of them is used: envelope and stimulus may come from decoded store
/// entries.
evm_result measure_evm(std::span<const std::complex<double>> envelope,
                       double sample_rate, const baseband_waveform& reference,
                       const evm_options& opt = {});

/// The same timing search with the closed-form `srrc_value` evaluated at
/// every tap (a sine, a cosine and two divisions each): the oracle the
/// table path is tested and benchmarked against.
evm_result measure_evm_reference(
    std::span<const std::complex<double>> envelope, double sample_rate,
    const baseband_waveform& reference, const evm_options& opt = {});

} // namespace sdrbist::waveform
