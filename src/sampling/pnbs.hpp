/// \file pnbs.hpp
/// \brief Second-order Periodically Nonuniform Bandpass Sampling (PNBS):
///        the Kohlenberg interpolation kernel (paper eqs. (1)–(3)) and the
///        truncated, Kaiser-windowed reconstructor (eq. (6)).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "sampling/band.hpp"

namespace sdrbist::sampling {

/// Kohlenberg second-order interpolation kernel s(t) = s0(t) + s1(t) for a
/// band [f_lo, f_hi] sampled as two uniform streams f(nT), f(nT+D) with
/// T = 1/B.
///
/// Implementation note: the paper's eq. (2) quotient form has a removable
/// singularity at t = 0; we evaluate the algebraically equivalent
/// product form
///   s0(t) = -sin(π·k·B·t - φ) · (k - 2·f_lo/B) · sinc((k·B-2·f_lo)·t) / sin φ
/// (and analogously s1 with k⁺, ψ), which is stable for all t.
/// φ = k·π·B·D, ψ = k⁺·π·B·D.
class kohlenberg_kernel {
public:
    /// \param band  signal band; T is implied as 1/bandwidth
    /// \param delay the inter-stream delay D (or its estimate D̂)
    /// Preconditions: band valid; D stable (not at a forbidden value —
    /// check with delay_is_stable() first; construction enforces it).
    kohlenberg_kernel(const band_spec& band, double delay);

    /// Kernel value s(t).
    [[nodiscard]] double s(double t) const { return s0(t) + s1(t); }

    /// First kernel term (vanishes identically when 2·f_lo/B is integer).
    [[nodiscard]] double s0(double t) const;

    /// Second kernel term.
    [[nodiscard]] double s1(double t) const;

    /// k = ceil(2·f_lo/B)  (paper eq. (2d)).
    [[nodiscard]] long k() const { return k_; }

    /// k⁺ = k + 1.
    [[nodiscard]] long k_plus() const { return k_ + 1; }

    [[nodiscard]] double delay() const { return delay_; }
    [[nodiscard]] const band_spec& band() const { return band_; }

    // Product-form coefficients, exposed so reconstructors can split the
    // kernel into per-point carrier factors and tabulated slow envelopes.
    [[nodiscard]] double f0() const { return f0_; }  ///< s0 sinc frequency
    [[nodiscard]] double f1() const { return f1_; }  ///< s1 sinc frequency
    [[nodiscard]] double c0() const { return c0_; }  ///< s0 envelope at t=0
    [[nodiscard]] double c1() const { return c1_; }  ///< s1 envelope at t=0
    [[nodiscard]] double phi() const { return phi_; }       ///< k·π·B·D
    [[nodiscard]] double psi() const { return psi_; }       ///< k⁺·π·B·D
    [[nodiscard]] double sin_phi() const { return sin_phi_; }
    [[nodiscard]] double sin_psi() const { return sin_psi_; }
    [[nodiscard]] bool s0_vanishes() const { return s0_vanishes_; }

    /// Stability test of a candidate delay (paper eq. (3)): D must not be a
    /// multiple of T/k or T/k⁺ (within a relative tolerance of T).
    static bool delay_is_stable(const band_spec& band, double delay,
                                double rel_tol = 1e-6);

    /// All forbidden delays n·T/k and n·T/k⁺ in (0, max_delay].
    static std::vector<double> forbidden_delays(const band_spec& band,
                                                double max_delay);

    /// Magnitude-optimal delay |D| = 1/(4·fc) (paper §II-B1, from [12]).
    static double optimal_delay(const band_spec& band);

    /// First-order reconstruction error bound (paper eq. (4)):
    /// ΔF ≈ π·B·(k+1)·ΔD for a delay-estimate error ΔD.
    static double error_bound(const band_spec& band, double delta_d);

    /// Inverse of error_bound: the |ΔD| tolerated for a relative spectrum
    /// error ΔF (paper example eq. (5): 1 % at 1 GHz/80 MHz -> ~2 ps).
    static double required_delay_accuracy(const band_spec& band,
                                          double delta_f);

private:
    band_spec band_;
    double delay_;
    long k_;
    // Precomputed coefficients of the product form.
    double a0_, f0_, c0_, sin_phi_, phi_;
    double a1_, f1_, c1_, sin_psi_, psi_;
    bool s0_vanishes_;
};

/// Reconstruction options for the truncated kernel (paper: 61 taps, Kaiser).
struct pnbs_options {
    std::size_t taps = 61;    ///< number of sample pairs in the window (odd)
    double kaiser_beta = 8.0; ///< window shape for kernel truncation
};

/// Polyphase table of the truncated kernel's two slow envelopes
///   A_i(u) = w(u / (half + 1)) · sinc(f_i·T·u),   i = 0, 1,
/// where u is the distance in periods T from the evaluation instant to a
/// tap, half = taps / 2 and w is the exact Kaiser window (Bessel I0),
/// continued by J0 past the support edge so that the cubic phase blend
/// stays accurate there.  Row r holds phase p = (r - 1)/phases,
/// r = 0 .. phases + 2 (pad rows for the blend); column c stands for the
/// tap offset j' = c - half, c = 0 .. taps, with u = p - j'.  A row is
/// the A_0 block then the A_1 block.  The tap sign flips of the kernel's
/// carrier factors, (-1)^{k·j'} on A_0 and (-1)^{(k+1)·j'} on A_1, are
/// folded into the columns.
///
/// The delay D̂ does not enter the table (it only shifts the odd stream's
/// phase and the per-point carrier factors), so one table serves every
/// delay hypothesis and both streams of a band.
class kohlenberg_table {
public:
    static constexpr std::size_t phases = 256;

    /// \param f0t, f1t kernel sinc frequencies times T (f0·T, f1·T)
    /// \param k_odd    parity of the kernel index k
    kohlenberg_table(double f0t, double f1t, bool k_odd, std::size_t taps,
                     double beta);

    /// Process-wide table for these parameters, from a cache that holds at
    /// most `cache_capacity` tables (least recently requested evicted
    /// first; an evicted table is rebuilt bit-identically on demand).
    [[nodiscard]] static std::shared_ptr<const kohlenberg_table>
    shared(double f0t, double f1t, bool k_odd, std::size_t taps,
           double beta);
    static constexpr std::size_t cache_capacity = 8;
    /// Tables currently held by the cache.
    [[nodiscard]] static std::size_t cached();

    [[nodiscard]] std::size_t columns() const { return columns_; }
    /// Doubles per row: the A_0 block then the A_1 block.
    [[nodiscard]] std::size_t stride() const { return 2 * columns_; }
    [[nodiscard]] const std::vector<double>& values() const { return values_; }
    [[nodiscard]] std::size_t bytes() const {
        return values_.size() * sizeof(double);
    }

private:
    std::size_t columns_;
    std::vector<double> values_;
};

/// Practical PNBS reconstructor (paper eq. (6)): evaluates
///   f(t) ≈ Σ_{n in window} [ f(nT)·s(t-nT) + f(nT+D̂)·s(nT+D̂-t) ]·w(·)
/// from finite records of the two sample streams.
///
/// In the kernel's product form the tap index enters the carrier factors
/// sin(a·τ - φ) only through integer multiples of π·k and π·k⁺ (pure sign
/// flips), so each stream's coefficient at tap j is
///   S_0·(-1)^{k·j}·A_0(x - j) + S_1·(-1)^{(k+1)·j}·A_1(x - j)
/// with four per-point sines S (NCO factors) and the slow envelopes A_i
/// of a shared kohlenberg_table, cubic-blended between its phase rows.
/// x is the point's offset from its centre tap, minus D̂/T for the odd
/// stream.  Each stream's products are summed sequentially in ascending
/// tap order, even stream first, then the two sums are added: one fixed
/// order on every host.  `uniform()` and `values()` call the same kernel
/// as `value()` and are therefore bit-identical to per-point evaluation.
/// `value_reference()` is the oracle: direct per-tap kernel
/// transcendentals and the exact Kaiser window.
class pnbs_reconstructor {
public:
    /// \param even     f(t_start + n·T) record
    /// \param odd      f(t_start + n·T + D) record
    /// \param period   T = 1/B
    /// \param t_start  absolute time of even[0]
    /// \param band     assumed signal band (defines the kernel)
    /// \param delay_hypothesis D̂ used for reconstruction
    /// \param opt      taps / window
    pnbs_reconstructor(std::vector<double> even, std::vector<double> odd,
                       double period, double t_start, const band_spec& band,
                       double delay_hypothesis, const pnbs_options& opt = {});

    /// Reconstructed value at absolute time t (table-driven).
    [[nodiscard]] double value(double t) const;

    /// Batch evaluation (bit-identical to per-point value()).
    [[nodiscard]] std::vector<double> values(std::span<const double> t) const;

    /// Uniform-grid evaluation: n values at t0, t0+1/rate, ...
    /// Bit-identical to calling value(t0 + i/rate) per point.
    [[nodiscard]] std::vector<double> uniform(double t0, double rate,
                                              std::size_t n) const;

    /// Reference evaluation: direct per-tap kernel transcendentals and the
    /// exact Kaiser window (retained, like dft_reference, so tests and
    /// benches can bound the table path's deviation).
    [[nodiscard]] double value_reference(double t) const;

    /// Batch / uniform-grid reference evaluation.
    [[nodiscard]] std::vector<double>
    values_reference(std::span<const double> t) const;
    [[nodiscard]] std::vector<double>
    uniform_reference(double t0, double rate, std::size_t n) const;

    /// Earliest/latest t with the full tap window inside the records.
    [[nodiscard]] double valid_begin() const;
    [[nodiscard]] double valid_end() const;

    [[nodiscard]] const kohlenberg_kernel& kernel() const { return kernel_; }
    [[nodiscard]] double period() const { return period_; }
    /// The envelope table this reconstructor evaluates through.
    [[nodiscard]] const kohlenberg_table& table() const { return *table_; }

private:
    std::vector<double> even_;
    std::vector<double> odd_;
    double period_;
    double t_start_;
    kohlenberg_kernel kernel_;
    pnbs_options opt_;
    std::shared_ptr<const kohlenberg_table> table_;

    long half_ = 0;       ///< taps / 2
    double d_frac_ = 0.0; ///< D̂ / T
    double g0_ = 0.0;     ///< c0 / sin φ (0 when s0 vanishes)
    double g1_ = 0.0;     ///< c1 / sin ψ

    /// One stream's sum Σ_j rec[centre + j]·coef(j) over taps
    /// j_lo .. j_hi inside the window support, for offset x and carrier
    /// factors s0, s1 (see the class comment).
    [[nodiscard]] double stream_sum(const std::vector<double>& rec,
                                    long centre, long j_lo, long j_hi,
                                    double x, double s0, double s1) const;
};

} // namespace sdrbist::sampling
