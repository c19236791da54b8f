/// \file stage_codec.hpp
/// \brief Lossless JSON serialisation of the five `stages.hpp` stage
///        outputs and the graded report — the raw payloads the
///        stage-artefact store compresses.
///
/// Doubles in shortest round-trip form (bijective on every platform),
/// complex vectors as flat `[re,im,...]` arrays, 64-bit integers as
/// decimal strings, NaN/inf through JSON `null` back to quiet NaN.  Every
/// `X_from_json(parse_json(X_json(x)))` recovers `x` element-exactly —
/// which is what lets a store hit stand in for a stage compute under the
/// byte-identity contract.
///
/// The nested `envelope_passband` evaluators (tx outputs, capture inputs)
/// are serialised by their construction parameters (envelope samples,
/// rate, carrier, interpolator half-taps) and rebuilt through the public
/// constructor: the polyphase LUT is a deterministic function of those, so
/// the rebuilt object evaluates bit-identically.
///
/// Field-set or rendering changes MUST bump the store format version
/// (artefact_store.hpp) so stale entries read as misses.
#pragma once

#include <string>

#include "bist/report.hpp"
#include "bist/stages.hpp"
#include "campaign/export.hpp"

namespace sdrbist::campaign {

[[nodiscard]] std::string stimulus_json(const bist::stimulus_output& s);
[[nodiscard]] bist::stimulus_output stimulus_from_json(const json_value& v);

[[nodiscard]] std::string tx_capture_json(const bist::tx_capture_output& c);
[[nodiscard]] bist::tx_capture_output
tx_capture_from_json(const json_value& v);

[[nodiscard]] std::string
calibration_json(const bist::calibration_output& c);
[[nodiscard]] bist::calibration_output
calibration_from_json(const json_value& v);

[[nodiscard]] std::string
reconstruction_json(const bist::reconstruction_output& r);
[[nodiscard]] bist::reconstruction_output
reconstruction_from_json(const json_value& v);

[[nodiscard]] std::string grading_json(const bist::grading_output& g);
[[nodiscard]] bist::grading_output grading_from_json(const json_value& v);

/// A full bist_report — the store's `report` entries, shard files and the
/// journal all carry it in this form.
[[nodiscard]] std::string report_json(const bist::bist_report& report);
/// Throws contract_violation on missing fields or kind mismatches.
[[nodiscard]] bist::bist_report report_from_json(const json_value& v);

} // namespace sdrbist::campaign
