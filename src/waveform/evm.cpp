#include "waveform/evm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/contracts.hpp"
#include "core/units.hpp"
#include "waveform/srrc.hpp"

namespace sdrbist::waveform {

double evm_result::evm_db() const {
    return 20.0 * std::log10(std::max(evm_rms, 1e-300));
}

namespace {

constexpr std::size_t span_symbols = evm_matched_span_symbols;

/// Symbols [k_lo, k_hi) whose matched window stays inside the envelope at
/// every searched timing offset.
struct symbol_range {
    std::size_t k_lo = 0;
    std::size_t k_hi = 0;
};

/// Validate every input before it is used (the envelope and the stimulus
/// may come from decoded store entries), then find the usable symbols.
symbol_range usable_symbols(std::span<const std::complex<double>> envelope,
                            double sample_rate,
                            const baseband_waveform& reference,
                            const evm_options& opt) {
    SDRBIST_EXPECTS(std::isfinite(sample_rate) && sample_rate > 0.0);
    SDRBIST_EXPECTS(std::isfinite(reference.symbol_rate) &&
                    reference.symbol_rate > 0.0);
    SDRBIST_EXPECTS(std::isfinite(reference.sample_rate) &&
                    reference.sample_rate > 0.0);
    SDRBIST_EXPECTS(reference.rolloff > 0.0 && reference.rolloff <= 1.0);
    SDRBIST_EXPECTS(std::isfinite(opt.envelope_t0));
    SDRBIST_EXPECTS(std::isfinite(opt.timing_search_span) &&
                    opt.timing_search_span >= 0.0);
    SDRBIST_EXPECTS(envelope.size() >= 16);
    SDRBIST_EXPECTS(std::all_of(
        envelope.begin(), envelope.end(), [](const std::complex<double>& v) {
            return std::isfinite(v.real()) && std::isfinite(v.imag());
        }));
    SDRBIST_EXPECTS(opt.timing_steps >= 3 && opt.timing_steps % 2 == 1);
    SDRBIST_EXPECTS(reference.symbols.size() > 2 * opt.skip_symbols + 8);

    // Envelope sample n sits at absolute time envelope_t0 + n/fs; the
    // matched windows work on the envelope-local timeline.
    const double ts = 1.0 / reference.symbol_rate;
    const double t_shift = opt.envelope_t0;
    const double env_end =
        static_cast<double>(envelope.size() - 1) / sample_rate;
    const double guard = static_cast<double>(span_symbols) * ts +
                         opt.timing_search_span * ts;
    symbol_range r;
    r.k_lo = opt.skip_symbols;
    while (r.k_lo < reference.symbols.size() &&
           reference.symbol_instant(r.k_lo) - t_shift - guard < 0.0)
        ++r.k_lo;
    r.k_hi = reference.symbols.size() - opt.skip_symbols;
    while (r.k_hi > r.k_lo &&
           reference.symbol_instant(r.k_hi - 1) - t_shift + guard > env_end)
        --r.k_hi;
    SDRBIST_EXPECTS(r.k_hi > r.k_lo + 8);
    return r;
}

/// Envelope samples [n_lo, n_hi] inside the matched window of the symbol
/// centred at t_centre (envelope-local seconds); empty when n_lo > n_hi.
std::pair<long, long> tap_window(std::size_t env_size, double fs, double ts,
                                 double t_centre) {
    const double half = static_cast<double>(span_symbols) * ts;
    const auto n_lo = static_cast<long>(std::ceil((t_centre - half) * fs));
    const auto n_hi = static_cast<long>(std::floor((t_centre + half) * fs));
    return {std::max<long>(n_lo, 0),
            std::min<long>(n_hi, static_cast<long>(env_size) - 1)};
}

// Continuous-time matched filtering: correlate the envelope with the SRRC
// centred at t_centre.  With the closed-form SRRC normalised so that
// integral srrc^2(u) du = 1 (u in symbol periods), the output approximates
// the transmitted symbol scaled by the channel's complex gain.  The
// Riemann sum's dt / Ts converts to symbol-period units.

/// Closed-form taps: the reference kernel.
struct closed_form_filter {
    std::span<const std::complex<double>> env;
    double fs;
    double ts;
    double rolloff;

    std::complex<double> operator()(double t_centre) const {
        const auto [n_lo, n_hi] = tap_window(env.size(), fs, ts, t_centre);
        std::complex<double> acc{0.0, 0.0};
        for (long n = n_lo; n <= n_hi; ++n) {
            const double u = (static_cast<double>(n) / fs - t_centre) / ts;
            acc += env[static_cast<std::size_t>(n)] * srrc_value(u, rolloff);
        }
        return acc / (fs * ts);
    }
};

/// Tabulated taps.  Tap n reads the table at x = slope·n + x0, with
/// slope = phases/(fs·Ts) fixed per measurement and x0 per symbol.
struct table_filter {
    std::span<const std::complex<double>> env;
    double fs;
    double ts;
    const srrc_table& h;
    double slope;

    std::complex<double> operator()(double t_centre) const {
        const auto [n_lo, n_hi] = tap_window(env.size(), fs, ts, t_centre);
        if (n_lo > n_hi)
            return {0.0, 0.0};
        const double x0 =
            (static_cast<double>(span_symbols) - t_centre / ts) *
                static_cast<double>(srrc_table::phases) +
            1.0;
        // x rises with n, so the end taps bound every tap's coordinate.
        // Inside the window x lies in [1, intervals - 1]; only inputs far
        // beyond double precision (a window of ~1e15 symbols) leave it.
        const bool window_inside_table =
            slope * static_cast<double>(n_lo) + x0 >= 0.0 &&
            slope * static_cast<double>(n_hi) + x0 <
                static_cast<double>(h.intervals());
        SDRBIST_EXPECTS(window_inside_table);
        std::complex<double> acc{0.0, 0.0};
        for (long n = n_lo; n <= n_hi; ++n)
            acc += env[static_cast<std::size_t>(n)] *
                   h.at(slope * static_cast<double>(n) + x0);
        return acc / (fs * ts);
    }
};

struct trial_score {
    double evm = std::numeric_limits<double>::infinity();
    std::complex<double> gain{1.0, 0.0};
};

/// Least-squares complex gain g = <y, s> / <s, s> and the EVM left after
/// dividing it out.
trial_score score(const std::vector<std::complex<double>>& y,
                  const baseband_waveform& ref, std::size_t k_lo) {
    std::complex<double> num{0.0, 0.0};
    double den = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
        num += y[i] * std::conj(ref.symbols[k_lo + i]);
        den += std::norm(ref.symbols[k_lo + i]);
    }
    SDRBIST_EXPECTS(den > 0.0);
    const std::complex<double> g = num / den;
    SDRBIST_EXPECTS(std::abs(g) > 0.0);
    double err = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i)
        err += std::norm(y[i] / g - ref.symbols[k_lo + i]);
    return {std::sqrt(err / den), g};
}

/// Coarse grid plus refinement over the timing offset, scoring each trial
/// with `matched` (one filter output per symbol centre).  Only the
/// winner's outputs are kept and gain-corrected.
template <class Matched>
evm_result timing_search(const Matched& matched,
                         const baseband_waveform& ref, const evm_options& opt,
                         symbol_range r) {
    const double ts = 1.0 / ref.symbol_rate;
    const double t_shift = opt.envelope_t0;
    std::vector<std::complex<double>> y(r.k_hi - r.k_lo);
    std::vector<std::complex<double>> best_y(y.size());
    trial_score best;
    double best_tau = 0.0;
    auto trial = [&](double tau) {
        const double offset = tau - t_shift;
        for (std::size_t k = r.k_lo; k < r.k_hi; ++k)
            y[k - r.k_lo] = matched(ref.symbol_instant(k) + offset);
        const trial_score s = score(y, ref, r.k_lo);
        if (s.evm < best.evm) {
            best = s;
            best_tau = tau;
            std::swap(y, best_y);
        }
    };

    // Coarse timing search.
    for (std::size_t s = 0; s < opt.timing_steps; ++s) {
        const double frac = static_cast<double>(s) /
                                static_cast<double>(opt.timing_steps - 1) * 2.0 -
                            1.0;
        trial(frac * opt.timing_search_span * ts);
    }

    // One golden-section-style refinement pass around the best grid point.
    const double step0 = 2.0 * opt.timing_search_span * ts /
                         static_cast<double>(opt.timing_steps - 1);
    double step = step0 / 2.0;
    for (int it = 0; it < 6; ++it) {
        const double centre = best_tau;
        for (const double tau : {centre - step, centre + step})
            trial(tau);
        step /= 2.0;
    }
    SDRBIST_ENSURES(std::isfinite(best.evm));

    evm_result out;
    out.evm_rms = best.evm;
    out.gain = best.gain;
    out.timing_offset = best_tau;
    out.received_symbols.resize(best_y.size());
    double peak = 0.0;
    double sym_rms = 0.0;
    for (std::size_t i = 0; i < best_y.size(); ++i) {
        out.received_symbols[i] = best_y[i] / best.gain;
        peak = std::max(peak, std::abs(out.received_symbols[i] -
                                       ref.symbols[r.k_lo + i]));
        sym_rms += std::norm(ref.symbols[r.k_lo + i]);
    }
    sym_rms = std::sqrt(sym_rms / static_cast<double>(best_y.size()));
    out.evm_peak = peak / sym_rms;
    return out;
}

} // namespace

evm_result measure_evm(std::span<const std::complex<double>> envelope,
                       double sample_rate, const baseband_waveform& reference,
                       const evm_options& opt) {
    const symbol_range r =
        usable_symbols(envelope, sample_rate, reference, opt);
    const double ts = 1.0 / reference.symbol_rate;
    const auto table = srrc_table::shared(reference.rolloff, span_symbols);
    const table_filter matched{
        envelope, sample_rate, ts, *table,
        static_cast<double>(srrc_table::phases) / (sample_rate * ts)};
    return timing_search(matched, reference, opt, r);
}

evm_result measure_evm_reference(
    std::span<const std::complex<double>> envelope, double sample_rate,
    const baseband_waveform& reference, const evm_options& opt) {
    const symbol_range r =
        usable_symbols(envelope, sample_rate, reference, opt);
    const closed_form_filter matched{envelope, sample_rate,
                                     1.0 / reference.symbol_rate,
                                     reference.rolloff};
    return timing_search(matched, reference, opt, r);
}

} // namespace sdrbist::waveform
