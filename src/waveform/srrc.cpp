#include "waveform/srrc.hpp"

#include <cmath>
#include <utility>

#include "core/contracts.hpp"
#include "core/math_util.hpp"
#include "core/shared_table_cache.hpp"
#include "core/units.hpp"

namespace sdrbist::waveform {

double srrc_value(double t, double a) {
    SDRBIST_EXPECTS(a > 0.0 && a <= 1.0);
    const double at = std::abs(t);
    if (at < 1e-9) {
        // h(0) = 1 - a + 4a/pi.
        return 1.0 - a + 4.0 * a / pi;
    }
    const double sing = 1.0 / (4.0 * a);
    if (std::abs(at - sing) < 1e-9) {
        // Removable singularity at |t| = 1/(4a).
        const double c = a / std::sqrt(2.0);
        return c * ((1.0 + 2.0 / pi) * std::sin(pi / (4.0 * a)) +
                    (1.0 - 2.0 / pi) * std::cos(pi / (4.0 * a)));
    }
    const double num = std::sin(pi * t * (1.0 - a)) +
                       4.0 * a * t * std::cos(pi * t * (1.0 + a));
    const double den = pi * t * (1.0 - 16.0 * a * a * t * t);
    return num / den;
}

double raised_cosine_value(double t, double a) {
    SDRBIST_EXPECTS(a > 0.0 && a <= 1.0);
    const double at = std::abs(t);
    const double sing = 1.0 / (2.0 * a);
    double shape;
    if (std::abs(at - sing) < 1e-9)
        shape = pi / 4.0 * sinc(1.0 / (2.0 * a));
    else
        shape = sinc(t) * std::cos(pi * a * t) /
                (1.0 - 4.0 * a * a * t * t);
    return shape;
}

std::vector<double> srrc_taps(double rolloff, std::size_t oversample,
                              std::size_t span_symbols) {
    SDRBIST_EXPECTS(oversample >= 2);
    SDRBIST_EXPECTS(span_symbols >= 2);
    const std::size_t half = span_symbols * oversample;
    std::vector<double> h(2 * half + 1);
    for (std::size_t i = 0; i < h.size(); ++i) {
        const double t = (static_cast<double>(i) - static_cast<double>(half)) /
                         static_cast<double>(oversample);
        h[i] = srrc_value(t, rolloff);
    }
    // Unit energy: matched-filter cascade then has unit gain at symbol peaks.
    double e = 0.0;
    for (double v : h)
        e += v * v;
    const double scale = 1.0 / std::sqrt(e);
    for (double& v : h)
        v *= scale;
    return h;
}

// ---- tabulated SRRC --------------------------------------------------------

srrc_table::srrc_table(double rolloff, std::size_t span_symbols) {
    SDRBIST_EXPECTS(rolloff > 0.0 && rolloff <= 1.0);
    SDRBIST_EXPECTS(span_symbols >= 1);
    // Nodes m = 0 .. intervals + 2 sit at x = m - 1, i.e. at
    // t = (m - 2)/phases - span: one guard node below x = 0 and two above
    // the last interval, so every interval has its four nodes.
    const std::size_t intervals = 2 * span_symbols * phases + 2;
    std::vector<double> node(intervals + 3);
    const double inv_phases = 1.0 / static_cast<double>(phases);
    for (std::size_t m = 0; m < node.size(); ++m)
        node[m] = srrc_value((static_cast<double>(m) - 2.0) * inv_phases -
                                 static_cast<double>(span_symbols),
                             rolloff);
    // Cubic through (-1, v0), (0, v1), (1, v2), (2, v3) in powers of the
    // fraction f of the interval [0, 1).
    coeffs_.resize(4 * intervals);
    for (std::size_t i = 0; i < intervals; ++i) {
        const double v0 = node[i], v1 = node[i + 1], v2 = node[i + 2],
                     v3 = node[i + 3];
        double* c = coeffs_.data() + 4 * i;
        c[0] = v1;
        c[1] = -v0 / 3.0 - v1 / 2.0 + v2 - v3 / 6.0;
        c[2] = v0 / 2.0 - v1 + v2 / 2.0;
        c[3] = (v3 - v0) / 6.0 + (v1 - v2) / 2.0;
    }
}

namespace {

using srrc_key = std::pair<double, std::size_t>;

shared_table_cache<srrc_key, srrc_table>& srrc_cache() {
    static shared_table_cache<srrc_key, srrc_table> cache(
        srrc_table::cache_capacity);
    return cache;
}

} // namespace

std::shared_ptr<const srrc_table> srrc_table::shared(double rolloff,
                                                     std::size_t span_symbols) {
    // Checked before the lookup: a NaN key would never compare equal.
    SDRBIST_EXPECTS(rolloff > 0.0 && rolloff <= 1.0);
    return srrc_cache().get({rolloff, span_symbols}, [&] {
        return srrc_table(rolloff, span_symbols);
    });
}

std::size_t srrc_table::cached() { return srrc_cache().size(); }

} // namespace sdrbist::waveform
