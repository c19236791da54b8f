#include "sampling/pnbs.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "core/contracts.hpp"
#include "core/math_util.hpp"
#include "core/shared_table_cache.hpp"
#include "core/units.hpp"
#include "dsp/window.hpp"

namespace sdrbist::sampling {

// ---- kernel -----------------------------------------------------------------

kohlenberg_kernel::kohlenberg_kernel(const band_spec& band, double delay)
    : band_(band), delay_(delay) {
    band_.validate();
    SDRBIST_EXPECTS(delay_ > 0.0);
    const double b = band_.bandwidth();
    const double fl = band_.f_lo;
    k_ = ceil_snapped(2.0 * fl / b);
    const double kd = static_cast<double>(k_);

    // s0 product-form coefficients.
    f0_ = kd * b - 2.0 * fl;       // sinc argument frequency (may be 0)
    c0_ = f0_ / b;                 // t = 0 value of the s0 envelope
    a0_ = pi * kd * b;             // sin argument slope
    phi_ = kd * pi * b * delay_;
    sin_phi_ = std::sin(phi_);
    s0_vanishes_ = std::abs(c0_) < 1e-12;

    // s1 coefficients (k⁺ = k + 1).
    const double kp = kd + 1.0;
    f1_ = 2.0 * fl + b - kd * b;   // = B - f0
    c1_ = f1_ / b;
    a1_ = pi * kp * b;
    psi_ = kp * pi * b * delay_;
    sin_psi_ = std::sin(psi_);

    // Paper eq. (3): instability when D hits n·T/k (unless s0 vanishes)
    // or n·T/k⁺.
    if (!s0_vanishes_)
        SDRBIST_EXPECTS(std::abs(sin_phi_) > 1e-9);
    SDRBIST_EXPECTS(std::abs(sin_psi_) > 1e-9);
}

double kohlenberg_kernel::s0(double t) const {
    if (s0_vanishes_)
        return 0.0;
    return -std::sin(a0_ * t - phi_) * c0_ * sinc(f0_ * t) / sin_phi_;
}

double kohlenberg_kernel::s1(double t) const {
    return -std::sin(a1_ * t - psi_) * c1_ * sinc(f1_ * t) / sin_psi_;
}

bool kohlenberg_kernel::delay_is_stable(const band_spec& band, double delay,
                                        double rel_tol) {
    band.validate();
    if (delay <= 0.0)
        return false;
    const double b = band.bandwidth();
    const double t = 1.0 / b;
    const long k = ceil_snapped(2.0 * band.f_lo / b);
    const bool s0_vanishes = std::abs(k * b - 2.0 * band.f_lo) < 1e-12 * b;

    auto near_multiple = [&](double step) {
        const double q = delay / step;
        return std::abs(q - std::round(q)) * step < rel_tol * t;
    };
    if (!s0_vanishes && near_multiple(t / static_cast<double>(k)))
        return false;
    if (near_multiple(t / static_cast<double>(k + 1)))
        return false;
    return true;
}

std::vector<double>
kohlenberg_kernel::forbidden_delays(const band_spec& band, double max_delay) {
    band.validate();
    SDRBIST_EXPECTS(max_delay > 0.0);
    const double b = band.bandwidth();
    const double t = 1.0 / b;
    const long k = ceil_snapped(2.0 * band.f_lo / b);
    const bool s0_vanishes = std::abs(k * b - 2.0 * band.f_lo) < 1e-12 * b;

    std::vector<double> out;
    // Each delay is computed as n·step (not by accumulating `+= step`,
    // which drifts by n·ulp over many multiples).
    auto add_multiples = [&](double step) {
        const double limit = max_delay * (1.0 + 1e-12);
        for (long n = 1; static_cast<double>(n) * step <= limit; ++n)
            out.push_back(static_cast<double>(n) * step);
    };
    if (!s0_vanishes)
        add_multiples(t / static_cast<double>(k));
    add_multiples(t / static_cast<double>(k + 1));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end(),
                          [&](double a, double c) {
                              return std::abs(a - c) < 1e-18;
                          }),
              out.end());
    return out;
}

double kohlenberg_kernel::optimal_delay(const band_spec& band) {
    band.validate();
    return 1.0 / (4.0 * band.centre());
}

double kohlenberg_kernel::error_bound(const band_spec& band, double delta_d) {
    band.validate();
    const double b = band.bandwidth();
    const long k = ceil_snapped(2.0 * band.f_lo / b);
    return pi * b * static_cast<double>(k + 1) * std::abs(delta_d);
}

double kohlenberg_kernel::required_delay_accuracy(const band_spec& band,
                                                  double delta_f) {
    band.validate();
    SDRBIST_EXPECTS(delta_f > 0.0);
    const double b = band.bandwidth();
    const long k = ceil_snapped(2.0 * band.f_lo / b);
    return delta_f / (pi * b * static_cast<double>(k + 1));
}

// ---- envelope table ---------------------------------------------------------

kohlenberg_table::kohlenberg_table(double f0t, double f1t, bool k_odd,
                                   std::size_t taps, double beta)
    : columns_(taps + 1) {
    SDRBIST_EXPECTS(taps >= 5 && taps % 2 == 1);
    SDRBIST_EXPECTS(beta >= 0.0 && std::isfinite(beta));
    SDRBIST_EXPECTS(std::isfinite(f0t) && std::isfinite(f1t));
    const std::size_t rows = phases + 3;
    const std::size_t cols = columns_;
    const std::size_t stride = 2 * cols;
    values_.resize(rows * stride);

    const auto half = static_cast<long>(taps / 2);
    const double inv_span = 1.0 / (static_cast<double>(half) + 1.0);
    const double inv_i0b = 1.0 / bessel_i0(beta);

    // A_i(p - j') = A_i((1 - p) - (1 - j')) since A_i is even, so the row
    // of phase 1 - p is the row of phase p with its columns reversed:
    // only the lower half of the phase range needs transcendentals.  The
    // sign flips are applied afterwards; they do not mirror.
    for (std::size_t r = 0; r < rows; ++r) {
        double* row = values_.data() + r * stride;
        const std::size_t r_mirror = phases + 2 - r;
        if (r > r_mirror) {
            const double* src = values_.data() + r_mirror * stride;
            for (std::size_t c = 0; c < cols; ++c) {
                row[c] = src[cols - 1 - c];
                row[cols + c] = src[2 * cols - 1 - c];
            }
            continue;
        }
        const double p = (static_cast<double>(r) - 1.0) /
                         static_cast<double>(phases);
        for (std::size_t c = 0; c < cols; ++c) {
            const double u =
                p - static_cast<double>(static_cast<long>(c) - half);
            const double w =
                dsp::kaiser_window_continued(u * inv_span, beta, inv_i0b);
            row[c] = w * sinc(f0t * u);
            row[cols + c] = w * sinc(f1t * u);
        }
    }
    // (-1)^{k·j'} on A_0, (-1)^{(k+1)·j'} on A_1: exactly one of k, k + 1
    // is odd, and its envelope flips sign on odd offsets j'.
    const std::size_t flipped = k_odd ? 0 : cols;
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            if (((static_cast<long>(c) - half) & 1L) != 0)
                values_[r * stride + flipped + c] =
                    -values_[r * stride + flipped + c];
}

namespace {

using table_key = std::tuple<double, double, bool, std::size_t, double>;

shared_table_cache<table_key, kohlenberg_table>& table_cache() {
    static shared_table_cache<table_key, kohlenberg_table> cache(
        kohlenberg_table::cache_capacity);
    return cache;
}

} // namespace

std::shared_ptr<const kohlenberg_table>
kohlenberg_table::shared(double f0t, double f1t, bool k_odd,
                         std::size_t taps, double beta) {
    // Checked before the lookup: a NaN key would never compare equal.
    SDRBIST_EXPECTS(beta >= 0.0 && std::isfinite(beta));
    SDRBIST_EXPECTS(std::isfinite(f0t) && std::isfinite(f1t));
    return table_cache().get({f0t, f1t, k_odd, taps, beta}, [&] {
        return kohlenberg_table(f0t, f1t, k_odd, taps, beta);
    });
}

std::size_t kohlenberg_table::cached() { return table_cache().size(); }

// ---- reconstructor ----------------------------------------------------------

pnbs_reconstructor::pnbs_reconstructor(
    std::vector<double> even, std::vector<double> odd, double period,
    double t_start, const band_spec& band, double delay_hypothesis,
    const pnbs_options& opt)
    : even_(std::move(even)), odd_(std::move(odd)), period_(period),
      t_start_(t_start), kernel_(band, delay_hypothesis), opt_(opt) {
    SDRBIST_EXPECTS(period_ > 0.0);
    SDRBIST_EXPECTS(even_.size() == odd_.size());
    SDRBIST_EXPECTS(opt_.taps >= 5 && opt_.taps % 2 == 1);
    SDRBIST_EXPECTS(even_.size() > opt_.taps);
    // The kernel assumes T = 1/B; the caller's period must match the band.
    SDRBIST_EXPECTS(approx_equal(period_ * band.bandwidth(), 1.0, 1e-9));

    table_ = kohlenberg_table::shared(
        kernel_.f0() * period_, kernel_.f1() * period_,
        (kernel_.k() & 1L) != 0, opt_.taps, opt_.kaiser_beta);
    half_ = static_cast<long>(opt_.taps / 2);
    d_frac_ = kernel_.delay() / period_;
    g0_ = kernel_.s0_vanishes() ? 0.0 : kernel_.c0() / kernel_.sin_phi();
    g1_ = kernel_.c1() / kernel_.sin_psi();
}

double pnbs_reconstructor::value(double t) const {
    const double tr = t - t_start_;
    const double pos = tr / period_;
    const auto centre = static_cast<long>(std::llround(pos));
    const double frac = pos - static_cast<double>(centre); // in [-0.5, 0.5]
    const auto n_max = static_cast<long>(even_.size()) - 1;

    // Tap offsets j = n - centre, clamped to the records once so the tap
    // loops run branch-free over contiguous memory.
    const long j_lo = std::max(centre - half_, 0L) - centre;
    const long j_hi = std::min(centre + half_, n_max) - centre;
    if (j_lo > j_hi)
        return 0.0;

    // Per-point NCO factors: the carrier factor sin(a·τ - φ) at every tap
    // differs from these only by the (-1)^{k·j} flip.  Even stream:
    // τ = (frac - j)·T; odd stream: τ = (j - frac)·T + D̂.
    const double kd = static_cast<double>(kernel_.k());
    const double thk = pi * kd * frac;
    const double thp = pi * (kd + 1.0) * frac;
    const double s0e = -std::sin(thk - kernel_.phi()) * g0_;
    const double s1e = -std::sin(thp - kernel_.psi()) * g1_;
    const double s0o = std::sin(thk) * g0_;
    const double s1o = std::sin(thp) * g1_;

    const double acc_e = stream_sum(even_, centre, j_lo, j_hi, frac, s0e, s1e);
    const double acc_o =
        stream_sum(odd_, centre, j_lo, j_hi, frac - d_frac_, s0o, s1o);
    return acc_e + acc_o;
}

double pnbs_reconstructor::stream_sum(const std::vector<double>& rec,
                                      long centre, long j_lo, long j_hi,
                                      double x, double s0, double s1) const {
    // x = q + p with p in [0, 1): tap j reads column j' = j - q of phase p.
    // Taps with |x - j| >= half + 1 lie outside the window support (the
    // odd stream's, once D̂ exceeds T/2) and contribute nothing.
    const double fq = std::floor(x);
    const auto q = static_cast<long>(fq);
    const double p = x - fq;
    const long lo = std::max(j_lo, q - half_);
    const long hi = std::min(j_hi, q + half_ + 1);
    if (lo > hi)
        return 0.0;

    // The table's column signs cover (-1)^{k·j'}; (-1)^{k·q} is left.
    if ((q & 1L) != 0) {
        if ((kernel_.k() & 1L) != 0)
            s0 = -s0;
        else
            s1 = -s1;
    }

    // Cubic Lagrange blend of the four phase rows bracketing p (nodes at
    // -1, 0, 1, 2 in units of the phase step), with the carrier factors
    // folded into the blend weights.
    constexpr std::size_t phases = kohlenberg_table::phases;
    const double xp = p * static_cast<double>(phases);
    auto ip = static_cast<std::size_t>(xp);
    if (ip > phases - 1)
        ip = phases - 1;
    const double u = xp - static_cast<double>(ip);
    const double um = u - 1.0;
    const double um2 = u - 2.0;
    const double up = u + 1.0;
    const double w0 = -u * um * um2 * (1.0 / 6.0);
    const double w1 = up * um * um2 * 0.5;
    const double w2 = -up * u * um2 * 0.5;
    const double w3 = up * u * um * (1.0 / 6.0);
    const double a0 = w0 * s0, a1 = w1 * s0, a2 = w2 * s0, a3 = w3 * s0;
    const double b0 = w0 * s1, b1 = w1 * s1, b2 = w2 * s1, b3 = w3 * s1;

    const std::size_t stride = table_->stride();
    const std::size_t cols = table_->columns();
    const double* r0 = table_->values().data() + ip * stride +
                       static_cast<std::size_t>(lo - q + half_);
    const double* r1 = r0 + stride;
    const double* r2 = r1 + stride;
    const double* r3 = r2 + stride;
    const double* v = rec.data() + (centre + lo);
    const auto n = static_cast<std::size_t>(hi - lo + 1);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double coeff = a0 * r0[i] + a1 * r1[i] + a2 * r2[i] +
                             a3 * r3[i] + b0 * r0[cols + i] +
                             b1 * r1[cols + i] + b2 * r2[cols + i] +
                             b3 * r3[cols + i];
        acc += v[i] * coeff;
    }
    return acc;
}

double pnbs_reconstructor::value_reference(double t) const {
    const double tr = t - t_start_;
    const double pos = tr / period_;
    const auto centre = static_cast<long>(std::llround(pos));
    const auto n_max = static_cast<long>(even_.size()) - 1;
    const double half_span = static_cast<double>(half_) + 1.0;
    const double d_hat = kernel_.delay();
    const double beta = opt_.kaiser_beta;

    double acc = 0.0;
    for (long n = centre - half_; n <= centre + half_; ++n) {
        if (n < 0 || n > n_max)
            continue;
        const double nt = static_cast<double>(n) * period_;
        // Even stream: f(nT)·s(t - nT), windowed by distance in periods.
        const double u0 = (pos - static_cast<double>(n)) / half_span;
        acc += even_[static_cast<std::size_t>(n)] * kernel_.s(tr - nt) *
               dsp::kaiser_window_at(u0, beta);
        // Odd stream: f(nT+D)·s(nT + D - t).
        const double u1 =
            (pos - static_cast<double>(n) - d_frac_) / half_span;
        acc += odd_[static_cast<std::size_t>(n)] * kernel_.s(nt + d_hat - tr) *
               dsp::kaiser_window_at(u1, beta);
    }
    return acc;
}

std::vector<double>
pnbs_reconstructor::values(std::span<const double> t) const {
    std::vector<double> out(t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        out[i] = value(t[i]);
    return out;
}

std::vector<double>
pnbs_reconstructor::values_reference(std::span<const double> t) const {
    std::vector<double> out(t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        out[i] = value_reference(t[i]);
    return out;
}

std::vector<double> pnbs_reconstructor::uniform(double t0, double rate,
                                                std::size_t n) const {
    SDRBIST_EXPECTS(rate > 0.0);
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = value(t0 + static_cast<double>(i) / rate);
    return out;
}

std::vector<double>
pnbs_reconstructor::uniform_reference(double t0, double rate,
                                      std::size_t n) const {
    SDRBIST_EXPECTS(rate > 0.0);
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = value_reference(t0 + static_cast<double>(i) / rate);
    return out;
}

double pnbs_reconstructor::valid_begin() const {
    return t_start_ + static_cast<double>(opt_.taps / 2 + 1) * period_;
}

double pnbs_reconstructor::valid_end() const {
    return t_start_ +
           (static_cast<double>(even_.size()) -
            static_cast<double>(opt_.taps / 2) - 2.0) *
               period_;
}

} // namespace sdrbist::sampling
