/// \file replay.hpp
/// \brief Layer-traced replicas of the five BIST stage runners.
///
/// Each function performs the same sequence of public library calls as
/// the matching `bist::run_*` stage runner (bist/pipeline.cpp), with a
/// span around the stage ("bist.<stage>") and around every call into a
/// lower layer (adc, sampling, dsp, calib, waveform, rf), and adds the
/// layer's work counts.  The replicas must stay bit-identical to the
/// library's runners: the traced run checks every replayed scenario's
/// verdict, EVM and mask margin against the campaign's row and fails the
/// run on any difference.
#pragma once

#include "bist/engine.hpp"
#include "bist/stages.hpp"

namespace perfbench {

[[nodiscard]] sdrbist::bist::stimulus_output
traced_stimulus(const sdrbist::bist::bist_config& config);

[[nodiscard]] sdrbist::bist::tx_capture_output
traced_tx_capture(const sdrbist::bist::bist_config& config,
                  const sdrbist::bist::stimulus_output& stim);

[[nodiscard]] sdrbist::bist::calibration_output
traced_calibration(const sdrbist::bist::bist_config& config,
                   const sdrbist::bist::tx_capture_output& cap);

[[nodiscard]] sdrbist::bist::reconstruction_output
traced_reconstruction(const sdrbist::bist::bist_config& config,
                      const sdrbist::bist::stimulus_output& stim,
                      const sdrbist::bist::tx_capture_output& cap,
                      const sdrbist::bist::calibration_output& cal);

[[nodiscard]] sdrbist::bist::grading_output
traced_grading(const sdrbist::bist::bist_config& config,
               const sdrbist::bist::stimulus_output& stim,
               const sdrbist::bist::reconstruction_output& recon);

} // namespace perfbench
