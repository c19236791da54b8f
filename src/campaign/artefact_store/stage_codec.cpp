#include "campaign/artefact_store/stage_codec.hpp"

#include <limits>
#include <memory>
#include <utility>

#include "core/contracts.hpp"

namespace sdrbist::campaign {

namespace {

double num_or_nan(const json_value& v) {
    return v.is_null() ? std::numeric_limits<double>::quiet_NaN()
                       : v.as_number();
}

std::string double_vector_json(const std::vector<double>& values) {
    std::string out = "[";
    for (const double x : values) {
        if (out.size() > 1)
            out += ',';
        out += json_number(x);
    }
    out += ']';
    return out;
}

std::vector<double> double_vector_from_json(const json_value& v) {
    const auto& arr = v.as_array();
    std::vector<double> out;
    out.reserve(arr.size());
    for (const auto& e : arr)
        out.push_back(num_or_nan(e));
    return out;
}

std::string complex_vector_json(
    const std::vector<std::complex<double>>& values) {
    std::string out = "[";
    for (const auto& z : values) {
        if (out.size() > 1)
            out += ',';
        out += json_number(z.real());
        out += ',';
        out += json_number(z.imag());
    }
    out += ']';
    return out;
}

std::vector<std::complex<double>>
complex_vector_from_json(const json_value& v) {
    const auto& arr = v.as_array();
    SDRBIST_EXPECTS(arr.size() % 2 == 0);
    std::vector<std::complex<double>> out;
    out.reserve(arr.size() / 2);
    for (std::size_t i = 0; i < arr.size(); i += 2)
        out.emplace_back(num_or_nan(arr[i]), num_or_nan(arr[i + 1]));
    return out;
}

// ---- waveform ---------------------------------------------------------------

std::string waveform_json(const waveform::baseband_waveform& w) {
    json_object_writer o;
    o.field("samples", complex_vector_json(w.samples));
    o.number_field("sample_rate", w.sample_rate);
    o.number_field("symbol_rate", w.symbol_rate);
    o.number_field("rolloff", w.rolloff);
    o.size_field("oversample", w.oversample);
    o.size_field("shaper_delay_samples", w.shaper_delay_samples);
    o.field("symbols", complex_vector_json(w.symbols));
    o.size_field("mod", static_cast<std::size_t>(w.mod));
    return o.str();
}

waveform::baseband_waveform waveform_from_json(const json_value& v) {
    waveform::baseband_waveform w;
    w.samples = complex_vector_from_json(v.at("samples"));
    w.sample_rate = num_or_nan(v.at("sample_rate"));
    w.symbol_rate = num_or_nan(v.at("symbol_rate"));
    w.rolloff = num_or_nan(v.at("rolloff"));
    w.oversample = v.at("oversample").as_size();
    w.shaper_delay_samples = v.at("shaper_delay_samples").as_size();
    w.symbols = complex_vector_from_json(v.at("symbols"));
    w.mod = static_cast<waveform::modulation>(v.at("mod").as_size());
    return w;
}

std::string generator_config_json(const waveform::generator_config& g) {
    json_object_writer o;
    o.size_field("mod", static_cast<std::size_t>(g.mod));
    o.number_field("symbol_rate", g.symbol_rate);
    o.number_field("rolloff", g.rolloff);
    o.size_field("oversample", g.oversample);
    o.size_field("span_symbols", g.span_symbols);
    o.size_field("symbol_count", g.symbol_count);
    o.size_field("data", static_cast<std::size_t>(g.data));
    o.size_field("prbs_seed", static_cast<std::size_t>(g.prbs_seed));
    return o.str();
}

waveform::generator_config generator_config_from_json(const json_value& v) {
    waveform::generator_config g;
    g.mod = static_cast<waveform::modulation>(v.at("mod").as_size());
    g.symbol_rate = num_or_nan(v.at("symbol_rate"));
    g.rolloff = num_or_nan(v.at("rolloff"));
    g.oversample = v.at("oversample").as_size();
    g.span_symbols = v.at("span_symbols").as_size();
    g.symbol_count = v.at("symbol_count").as_size();
    g.data = static_cast<waveform::prbs_order>(v.at("data").as_size());
    g.prbs_seed = static_cast<std::uint32_t>(v.at("prbs_seed").as_size());
    return g;
}

// ---- band plan --------------------------------------------------------------

std::string band_spec_json(const sampling::band_spec& b) {
    json_object_writer o;
    o.number_field("f_lo", b.f_lo);
    o.number_field("f_hi", b.f_hi);
    return o.str();
}

sampling::band_spec band_spec_from_json(const json_value& v) {
    sampling::band_spec b;
    b.f_lo = num_or_nan(v.at("f_lo"));
    b.f_hi = num_or_nan(v.at("f_hi"));
    return b;
}

std::string band_plan_json(const calib::band_plan& p) {
    json_object_writer o;
    o.field("fast", band_spec_json(p.fast));
    o.field("slow", band_spec_json(p.slow));
    o.number_field("fast_offset_hz", p.fast_offset_hz);
    o.number_field("slow_offset_hz", p.slow_offset_hz);
    return o.str();
}

calib::band_plan band_plan_from_json(const json_value& v) {
    calib::band_plan p;
    p.fast = band_spec_from_json(v.at("fast"));
    p.slow = band_spec_from_json(v.at("slow"));
    p.fast_offset_hz = num_or_nan(v.at("fast_offset_hz"));
    p.slow_offset_hz = num_or_nan(v.at("slow_offset_hz"));
    return p;
}

// ---- passbands and captures -------------------------------------------------

std::string passband_json(const rf::envelope_passband& p) {
    json_object_writer o;
    o.field("envelope", complex_vector_json(p.envelope_samples()));
    o.number_field("envelope_rate", p.envelope_rate());
    o.number_field("carrier_hz", p.carrier());
    o.size_field("half_taps", p.interp_half_taps());
    return o.str();
}

std::shared_ptr<const rf::envelope_passband>
passband_from_json(const json_value& v) {
    return std::make_shared<const rf::envelope_passband>(
        complex_vector_from_json(v.at("envelope")),
        num_or_nan(v.at("envelope_rate")), num_or_nan(v.at("carrier_hz")),
        v.at("half_taps").as_size());
}

std::string tx_output_json(const rf::tx_output& t) {
    // The passband evaluator is the same (envelope, rate, carrier) triple
    // realised as an interpolator, so it is rebuilt rather than stored
    // twice.  `transmit()` always uses the default half-taps; assert that
    // so a future change cannot silently decode to a different evaluator.
    SDRBIST_EXPECTS(t.passband != nullptr);
    json_object_writer o;
    o.field("envelope", complex_vector_json(t.envelope));
    o.number_field("envelope_rate", t.envelope_rate);
    o.number_field("carrier_hz", t.carrier_hz);
    o.size_field("passband_half_taps", t.passband->interp_half_taps());
    return o.str();
}

rf::tx_output tx_output_from_json(const json_value& v) {
    rf::tx_output t;
    t.envelope = complex_vector_from_json(v.at("envelope"));
    t.envelope_rate = num_or_nan(v.at("envelope_rate"));
    t.carrier_hz = num_or_nan(v.at("carrier_hz"));
    auto env = t.envelope;
    t.passband = std::make_shared<const rf::envelope_passband>(
        std::move(env), t.envelope_rate, t.carrier_hz,
        v.at("passband_half_taps").as_size());
    return t;
}

std::string ranging_json(const adc::ranging_result& r) {
    json_object_writer o;
    o.number_field("input_scale", r.input_scale);
    o.number_field("observed_peak", r.observed_peak);
    o.bool_field("clipped", r.clipped);
    return o.str();
}

adc::ranging_result ranging_from_json(const json_value& v) {
    adc::ranging_result r;
    r.input_scale = num_or_nan(v.at("input_scale"));
    r.observed_peak = num_or_nan(v.at("observed_peak"));
    r.clipped = v.at("clipped").as_bool();
    return r;
}

std::string capture_json(const adc::nonuniform_capture& c) {
    json_object_writer o;
    o.field("even", double_vector_json(c.even));
    o.field("odd", double_vector_json(c.odd));
    o.number_field("period_s", c.period_s);
    o.number_field("t_start", c.t_start);
    o.number_field("true_delay_s", c.true_delay_s);
    return o.str();
}

adc::nonuniform_capture capture_from_json(const json_value& v) {
    adc::nonuniform_capture c;
    c.even = double_vector_from_json(v.at("even"));
    c.odd = double_vector_from_json(v.at("odd"));
    c.period_s = num_or_nan(v.at("period_s"));
    c.t_start = num_or_nan(v.at("t_start"));
    c.true_delay_s = num_or_nan(v.at("true_delay_s"));
    return c;
}

std::string dual_rate_json(const calib::dual_rate_capture& d) {
    json_object_writer o;
    o.field("fast", capture_json(d.fast));
    o.field("slow", capture_json(d.slow));
    o.field("band_fast", band_spec_json(d.band_fast));
    o.field("band_slow", band_spec_json(d.band_slow));
    return o.str();
}

calib::dual_rate_capture dual_rate_from_json(const json_value& v) {
    calib::dual_rate_capture d;
    d.fast = capture_from_json(v.at("fast"));
    d.slow = capture_from_json(v.at("slow"));
    d.band_fast = band_spec_from_json(v.at("band_fast"));
    d.band_slow = band_spec_from_json(v.at("band_slow"));
    return d;
}

// ---- estimation / grading artefacts ----------------------------------------

std::string skew_json(const calib::skew_estimate& s) {
    json_object_writer o;
    o.number_field("d_hat", s.d_hat);
    o.number_field("final_cost", s.final_cost);
    o.size_field("iterations", s.iterations);
    o.bool_field("converged", s.converged);
    o.size_field("cost_evaluations", s.cost_evaluations);
    std::string trace = "[";
    for (const auto& p : s.trace) {
        if (trace.size() > 1)
            trace += ',';
        json_object_writer t;
        t.size_field("iteration", p.iteration);
        t.number_field("d_hat", p.d_hat);
        t.number_field("cost", p.cost);
        t.number_field("mu", p.mu);
        trace += t.str();
    }
    trace += ']';
    o.field("trace", trace);
    return o.str();
}

calib::skew_estimate skew_from_json(const json_value& v) {
    calib::skew_estimate s;
    s.d_hat = num_or_nan(v.at("d_hat"));
    s.final_cost = num_or_nan(v.at("final_cost"));
    s.iterations = v.at("iterations").as_size();
    s.converged = v.at("converged").as_bool();
    s.cost_evaluations = v.at("cost_evaluations").as_size();
    for (const auto& tp : v.at("trace").as_array()) {
        calib::lms_trace_point p;
        p.iteration = tp.at("iteration").as_size();
        p.d_hat = num_or_nan(tp.at("d_hat"));
        p.cost = num_or_nan(tp.at("cost"));
        p.mu = num_or_nan(tp.at("mu"));
        s.trace.push_back(p);
    }
    return s;
}

std::string mask_json(const waveform::mask_report& m) {
    json_object_writer o;
    o.bool_field("pass", m.pass);
    o.number_field("worst_margin_db", m.worst_margin_db);
    o.number_field("reference_dbhz", m.reference_dbhz);
    std::string segments = "[";
    for (const auto& s : m.segments) {
        if (segments.size() > 1)
            segments += ',';
        json_object_writer seg;
        seg.number_field("offset_lo_hz", s.segment.offset_lo_hz);
        seg.number_field("offset_hi_hz", s.segment.offset_hi_hz);
        seg.number_field("limit_dbc", s.segment.limit_dbc);
        seg.number_field("measured_dbc", s.measured_dbc);
        seg.number_field("margin_db", s.margin_db);
        seg.bool_field("pass", s.pass);
        segments += seg.str();
    }
    segments += ']';
    o.field("segments", segments);
    return o.str();
}

waveform::mask_report mask_from_json(const json_value& v) {
    waveform::mask_report m;
    m.pass = v.at("pass").as_bool();
    m.worst_margin_db = num_or_nan(v.at("worst_margin_db"));
    m.reference_dbhz = num_or_nan(v.at("reference_dbhz"));
    for (const auto& sv : v.at("segments").as_array()) {
        waveform::mask_segment_report s;
        s.segment.offset_lo_hz = num_or_nan(sv.at("offset_lo_hz"));
        s.segment.offset_hi_hz = num_or_nan(sv.at("offset_hi_hz"));
        s.segment.limit_dbc = num_or_nan(sv.at("limit_dbc"));
        s.measured_dbc = num_or_nan(sv.at("measured_dbc"));
        s.margin_db = num_or_nan(sv.at("margin_db"));
        s.pass = sv.at("pass").as_bool();
        m.segments.push_back(std::move(s));
    }
    return m;
}

std::string evm_json(const waveform::evm_result& e) {
    json_object_writer o;
    o.number_field("evm_rms", e.evm_rms);
    o.number_field("evm_peak", e.evm_peak);
    o.number_field("gain_re", e.gain.real());
    o.number_field("gain_im", e.gain.imag());
    o.number_field("timing_offset", e.timing_offset);
    o.field("received_symbols", complex_vector_json(e.received_symbols));
    return o.str();
}

waveform::evm_result evm_from_json(const json_value& v) {
    waveform::evm_result e;
    e.evm_rms = num_or_nan(v.at("evm_rms"));
    e.evm_peak = num_or_nan(v.at("evm_peak"));
    e.gain = {num_or_nan(v.at("gain_re")), num_or_nan(v.at("gain_im"))};
    e.timing_offset = num_or_nan(v.at("timing_offset"));
    e.received_symbols = complex_vector_from_json(v.at("received_symbols"));
    return e;
}

} // namespace

// ---------------------------------------------------------------------------
// Stage outputs
// ---------------------------------------------------------------------------

std::string stimulus_json(const bist::stimulus_output& s) {
    json_object_writer o;
    o.field("stimulus", waveform_json(s.stimulus));
    o.field("calibration", waveform_json(s.calibration));
    o.field("calibration_config",
            generator_config_json(s.calibration_config));
    o.number_field("occupied_bw_calibration_hz",
                   s.occupied_bw_calibration_hz);
    o.number_field("occupied_bw_graded_hz", s.occupied_bw_graded_hz);
    o.field("plan", band_plan_json(s.plan));
    o.number_field("carrier_hz", s.carrier_hz);
    o.number_field("carrier_nudge_hz", s.carrier_nudge_hz);
    o.number_field("plan_discrimination", s.plan_discrimination);
    return o.str();
}

bist::stimulus_output stimulus_from_json(const json_value& v) {
    bist::stimulus_output s;
    s.stimulus = waveform_from_json(v.at("stimulus"));
    s.calibration = waveform_from_json(v.at("calibration"));
    s.calibration_config =
        generator_config_from_json(v.at("calibration_config"));
    s.occupied_bw_calibration_hz =
        num_or_nan(v.at("occupied_bw_calibration_hz"));
    s.occupied_bw_graded_hz = num_or_nan(v.at("occupied_bw_graded_hz"));
    s.plan = band_plan_from_json(v.at("plan"));
    s.carrier_hz = num_or_nan(v.at("carrier_hz"));
    s.carrier_nudge_hz = num_or_nan(v.at("carrier_nudge_hz"));
    s.plan_discrimination = num_or_nan(v.at("plan_discrimination"));
    return s;
}

std::string tx_capture_json(const bist::tx_capture_output& c) {
    SDRBIST_EXPECTS(c.capture_input != nullptr &&
                    c.spectrum_input != nullptr);
    json_object_writer o;
    o.field("tx_out", tx_output_json(c.tx_out));
    o.field("calibration_tx_out", tx_output_json(c.calibration_tx_out));
    o.field("capture_input", passband_json(*c.capture_input));
    o.field("spectrum_input", passband_json(*c.spectrum_input));
    o.field("ranging", ranging_json(c.ranging));
    o.field("capture", dual_rate_json(c.capture));
    o.number_field("programmed_delay_s", c.programmed_delay_s);
    o.bool_field("dual_rate_conditions_ok", c.dual_rate_conditions_ok);
    o.number_field("max_search_delay_s", c.max_search_delay_s);
    return o.str();
}

bist::tx_capture_output tx_capture_from_json(const json_value& v) {
    bist::tx_capture_output c;
    c.tx_out = tx_output_from_json(v.at("tx_out"));
    c.calibration_tx_out = tx_output_from_json(v.at("calibration_tx_out"));
    c.capture_input = passband_from_json(v.at("capture_input"));
    c.spectrum_input = passband_from_json(v.at("spectrum_input"));
    c.ranging = ranging_from_json(v.at("ranging"));
    c.capture = dual_rate_from_json(v.at("capture"));
    c.programmed_delay_s = num_or_nan(v.at("programmed_delay_s"));
    c.dual_rate_conditions_ok = v.at("dual_rate_conditions_ok").as_bool();
    c.max_search_delay_s = num_or_nan(v.at("max_search_delay_s"));
    return c;
}

std::string calibration_json(const bist::calibration_output& c) {
    json_object_writer o;
    o.field("probe_times", double_vector_json(c.probe_times));
    o.field("skew", skew_json(c.skew));
    return o.str();
}

bist::calibration_output calibration_from_json(const json_value& v) {
    bist::calibration_output c;
    c.probe_times = double_vector_from_json(v.at("probe_times"));
    c.skew = skew_from_json(v.at("skew"));
    return c;
}

std::string reconstruction_json(const bist::reconstruction_output& r) {
    json_object_writer o;
    o.field("spectrum_ranging", ranging_json(r.spectrum_ranging));
    o.field("spectrum_capture", capture_json(r.spectrum_capture));
    json_object_writer env;
    env.field("samples", complex_vector_json(r.envelope.samples));
    env.number_field("rate", r.envelope.rate);
    env.number_field("t0", r.envelope.t0);
    o.field("envelope", env.str());
    return o.str();
}

bist::reconstruction_output reconstruction_from_json(const json_value& v) {
    bist::reconstruction_output r;
    r.spectrum_ranging = ranging_from_json(v.at("spectrum_ranging"));
    r.spectrum_capture = capture_from_json(v.at("spectrum_capture"));
    const auto& env = v.at("envelope");
    r.envelope.samples = complex_vector_from_json(env.at("samples"));
    r.envelope.rate = num_or_nan(env.at("rate"));
    r.envelope.t0 = num_or_nan(env.at("t0"));
    return r;
}

std::string grading_json(const bist::grading_output& g) {
    json_object_writer o;
    o.field("mask", mask_json(g.mask));
    o.field("evm", evm_json(g.evm));
    o.bool_field("evm_pass", g.evm_pass);
    json_object_writer acpr;
    acpr.number_field("main_power", g.acpr.main_power);
    acpr.number_field("lower_dbc", g.acpr.lower_dbc);
    acpr.number_field("upper_dbc", g.acpr.upper_dbc);
    o.field("acpr", acpr.str());
    o.number_field("acpr_limit_dbc", g.acpr_limit_dbc);
    o.bool_field("acpr_pass", g.acpr_pass);
    o.number_field("occupied_bw_hz", g.occupied_bw_hz);
    o.number_field("measured_output_rms", g.measured_output_rms);
    o.number_field("min_output_rms", g.min_output_rms);
    o.bool_field("power_pass", g.power_pass);
    return o.str();
}

bist::grading_output grading_from_json(const json_value& v) {
    bist::grading_output g;
    g.mask = mask_from_json(v.at("mask"));
    g.evm = evm_from_json(v.at("evm"));
    g.evm_pass = v.at("evm_pass").as_bool();
    const auto& acpr = v.at("acpr");
    g.acpr.main_power = num_or_nan(acpr.at("main_power"));
    g.acpr.lower_dbc = num_or_nan(acpr.at("lower_dbc"));
    g.acpr.upper_dbc = num_or_nan(acpr.at("upper_dbc"));
    g.acpr_limit_dbc = num_or_nan(v.at("acpr_limit_dbc"));
    g.acpr_pass = v.at("acpr_pass").as_bool();
    g.occupied_bw_hz = num_or_nan(v.at("occupied_bw_hz"));
    g.measured_output_rms = num_or_nan(v.at("measured_output_rms"));
    g.min_output_rms = num_or_nan(v.at("min_output_rms"));
    g.power_pass = v.at("power_pass").as_bool();
    return g;
}

// ---------------------------------------------------------------------------
// Graded report
// ---------------------------------------------------------------------------

std::string report_json(const bist::bist_report& r) {
    json_object_writer o;
    o.string_field("preset_name", r.preset_name);
    o.number_field("carrier_hz", r.carrier_hz);
    o.field("skew", skew_json(r.skew));
    o.number_field("programmed_delay_s", r.programmed_delay_s);
    o.bool_field("dual_rate_conditions_ok", r.dual_rate_conditions_ok);
    o.number_field("max_search_delay_s", r.max_search_delay_s);
    o.number_field("slow_band_offset_hz", r.slow_band_offset_hz);
    o.number_field("fast_band_offset_hz", r.fast_band_offset_hz);
    o.number_field("carrier_nudge_hz", r.carrier_nudge_hz);
    o.number_field("plan_discrimination", r.plan_discrimination);
    o.field("mask", mask_json(r.mask));
    o.field("evm", evm_json(r.evm));
    o.number_field("evm_limit_percent", r.evm_limit_percent);
    o.bool_field("evm_pass", r.evm_pass);
    o.number_field("measured_output_rms", r.measured_output_rms);
    o.number_field("min_output_rms", r.min_output_rms);
    o.bool_field("power_pass", r.power_pass);
    o.number_field("acpr_main_power", r.acpr.main_power);
    o.number_field("acpr_lower_dbc", r.acpr.lower_dbc);
    o.number_field("acpr_upper_dbc", r.acpr.upper_dbc);
    o.number_field("acpr_limit_dbc", r.acpr_limit_dbc);
    o.bool_field("acpr_pass", r.acpr_pass);
    o.number_field("occupied_bw_hz", r.occupied_bw_hz);
    return o.str();
}

bist::bist_report report_from_json(const json_value& v) {
    bist::bist_report r;
    r.preset_name = v.at("preset_name").as_string();
    r.carrier_hz = num_or_nan(v.at("carrier_hz"));
    r.skew = skew_from_json(v.at("skew"));
    r.programmed_delay_s = num_or_nan(v.at("programmed_delay_s"));
    r.dual_rate_conditions_ok = v.at("dual_rate_conditions_ok").as_bool();
    r.max_search_delay_s = num_or_nan(v.at("max_search_delay_s"));
    r.slow_band_offset_hz = num_or_nan(v.at("slow_band_offset_hz"));
    r.fast_band_offset_hz = num_or_nan(v.at("fast_band_offset_hz"));
    r.carrier_nudge_hz = num_or_nan(v.at("carrier_nudge_hz"));
    r.plan_discrimination = num_or_nan(v.at("plan_discrimination"));
    r.mask = mask_from_json(v.at("mask"));
    r.evm = evm_from_json(v.at("evm"));
    r.evm_limit_percent = num_or_nan(v.at("evm_limit_percent"));
    r.evm_pass = v.at("evm_pass").as_bool();
    r.measured_output_rms = num_or_nan(v.at("measured_output_rms"));
    r.min_output_rms = num_or_nan(v.at("min_output_rms"));
    r.power_pass = v.at("power_pass").as_bool();
    r.acpr.main_power = num_or_nan(v.at("acpr_main_power"));
    r.acpr.lower_dbc = num_or_nan(v.at("acpr_lower_dbc"));
    r.acpr.upper_dbc = num_or_nan(v.at("acpr_upper_dbc"));
    r.acpr_limit_dbc = num_or_nan(v.at("acpr_limit_dbc"));
    r.acpr_pass = v.at("acpr_pass").as_bool();
    r.occupied_bw_hz = num_or_nan(v.at("occupied_bw_hz"));
    return r;
}

} // namespace sdrbist::campaign
