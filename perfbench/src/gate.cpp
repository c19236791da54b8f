#include "gate.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "campaign/export.hpp"

namespace perfbench {

using sdrbist::campaign::campaign_result;
using sdrbist::campaign::json_number;
using sdrbist::campaign::json_quote;
using sdrbist::campaign::json_value;
using sdrbist::campaign::scenario_result;

std::string cell_key(const std::string& preset, const std::string& fault) {
    return preset + "/" + fault;
}

namespace {

std::string hex64(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t fnv1a(const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::vector<double> number_list(const json_value& v) {
    std::vector<double> out;
    for (const auto& e : v.as_array())
        out.push_back(e.as_number());
    return out;
}

std::string number_list_json(const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0)
            s += ',';
        s += json_number(v[i]);
    }
    return s + "]";
}

} // namespace

std::string export_digest(const campaign_result& result) {
    sdrbist::campaign::export_options opt;
    opt.include_timing = false;
    return hex64(fnv1a(sdrbist::campaign::to_json(result, opt)));
}

reference load_reference(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read reference " + path);
    std::ostringstream text;
    text << in.rdbuf();
    const json_value doc = sdrbist::campaign::parse_json(text.str());
    reference ref;
    ref.workload = doc.at("workload").as_string();
    ref.recorded_from = doc.at("recorded_from").as_string();
    for (const auto& [key, verdict] : doc.at("cells").as_object())
        ref.cell_flagged[key] = verdict.as_string() == "fail";
    ref.golden_yield = doc.at("golden_yield").as_number();
    ref.fault_coverage = doc.at("fault_coverage").as_number();
    for (const auto& [seed, d] : doc.at("seeds").as_object()) {
        seed_detail detail;
        detail.export_digest = d.at("export_digest").as_string();
        detail.evm_percent = number_list(d.at("evm_percent"));
        detail.mask_margin_db = number_list(d.at("mask_margin_db"));
        ref.seeds[std::stoull(seed)] = std::move(detail);
    }
    return ref;
}

std::string reference_json(const reference& ref) {
    std::ostringstream o;
    o << "{\n\"workload\": " << json_quote(ref.workload)
      << ",\n\"recorded_from\": " << json_quote(ref.recorded_from)
      << ",\n\"golden_yield\": " << json_number(ref.golden_yield)
      << ",\n\"fault_coverage\": " << json_number(ref.fault_coverage)
      << ",\n\"cells\": {";
    bool first = true;
    for (const auto& [key, flagged] : ref.cell_flagged) {
        o << (first ? "\n" : ",\n") << "  " << json_quote(key) << ": "
          << (flagged ? "\"fail\"" : "\"pass\"");
        first = false;
    }
    o << "\n},\n\"seeds\": {";
    first = true;
    for (const auto& [seed, d] : ref.seeds) {
        o << (first ? "\n" : ",\n") << "  " << json_quote(std::to_string(seed))
          << ": {\"export_digest\": " << json_quote(d.export_digest)
          << ",\n    \"evm_percent\": " << number_list_json(d.evm_percent)
          << ",\n    \"mask_margin_db\": "
          << number_list_json(d.mask_margin_db) << "}";
        first = false;
    }
    o << "\n}\n}\n";
    return o.str();
}

gate::gate(reference ref, std::uint64_t seed, bool full_grid)
    : ref_(std::move(ref)), full_grid_(full_grid) {
    const auto it = ref_.seeds.find(seed);
    if (full_grid && it != ref_.seeds.end())
        detail_ = it->second;
}

void gate::note(const std::string& s) {
    if (notes_.size() < 20)
        notes_.push_back(s);
}

void gate::fail(std::size_t rows, const std::string& what) {
    failed_ += std::max<std::size_t>(rows, 1);
    note(what);
}

std::size_t gate::check_rows(const std::vector<scenario_result>& rows,
                             bool of_run_grid) {
    std::size_t bad = 0;
    for (const auto& r : rows) {
        ++attempted_;
        const std::string key = cell_key(r.sc.preset_name,
                                         sdrbist::bist::to_string(r.sc.fault));
        const auto it = ref_.cell_flagged.find(key);
        if (r.engine_error) {
            ++bad;
            note("scenario " + std::to_string(r.sc.index) +
                 " engine error: " + r.error);
        } else if (it == ref_.cell_flagged.end()) {
            ++bad;
            note("no reference verdict for cell " + key);
        } else if (it->second != r.flagged()) {
            ++bad;
            note("scenario " + std::to_string(r.sc.index) + " (" + key +
                 ") verdict " + (r.flagged() ? "FAIL" : "PASS") +
                 " differs from the reference");
        }
        if (of_run_grid && detail_ &&
            r.sc.index < detail_->evm_percent.size()) {
            max_evm_ = std::max(
                max_evm_, std::abs(r.report.evm.evm_percent() -
                                   detail_->evm_percent[r.sc.index]));
            max_mask_ = std::max(
                max_mask_, std::abs(r.report.mask.worst_margin_db -
                                    detail_->mask_margin_db[r.sc.index]));
        }
    }
    failed_ += bad;
    return bad;
}

std::size_t gate::check_pass(const campaign_result& result) {
    const std::size_t bad = check_rows(result.results);
    // Failures the row checks cannot see (aggregation or export) fail the
    // whole pass.
    bool pass_failed = false;

    // Coverage matrix: every cell flags all of its runs or none of them.
    for (std::size_t p = 0; p < result.preset_names.size(); ++p)
        for (std::size_t f = 0; f < result.fault_names.size(); ++f) {
            const std::string key =
                cell_key(result.preset_names[p], result.fault_names[f]);
            const auto it = ref_.cell_flagged.find(key);
            const auto& cell = result.cell(p, f);
            const std::size_t want =
                it != ref_.cell_flagged.end() && it->second ? cell.runs : 0;
            if (cell.flagged != want) {
                pass_failed = true;
                note("coverage cell " + key + " flagged " +
                     std::to_string(cell.flagged) + "/" +
                     std::to_string(cell.runs));
            }
        }
    if (full_grid_ && (result.yield() != ref_.golden_yield ||
                       result.coverage() != ref_.fault_coverage)) {
        pass_failed = true;
        note("golden yield / fault coverage differ from the reference");
    }

    const std::string digest = export_digest(result);
    if (!first_export_) {
        first_export_ = digest;
        if (detail_)
            export_matches_ = digest == detail_->export_digest;
    } else if (digest != *first_export_) {
        pass_failed = true;
        note("timing-free export differs from the run's first pass");
    }
    if (!pass_failed)
        return bad;
    failed_ += result.results.size() - bad;
    return result.results.size();
}

std::optional<double> gate::max_abs_delta_evm() const {
    if (!detail_)
        return std::nullopt;
    return max_evm_;
}

std::optional<double> gate::max_abs_delta_mask_db() const {
    if (!detail_)
        return std::nullopt;
    return max_mask_;
}

} // namespace perfbench
