/// \file build_info.hpp
/// \brief Build provenance for perf artefacts: compiler, build type,
///        language standard and platform.
///
/// Perf numbers without provenance are not comparable.  The campaign CLI
/// prints this block (`--build-info`) and stamps it into Chrome trace
/// metadata (`--trace-out`), so every trace and bench artefact records
/// what produced it.  Core-layer facts only; layers above append their
/// own versions (canonical-config, cache, shard formats).
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace sdrbist {

/// Ordered key/value facts about this build and host: compiler,
/// build_type, cxx_standard, platform.
std::vector<std::pair<std::string, std::string>> build_info_fields();

/// The same facts rendered as an aligned text block (one "  key: value"
/// line each).
std::string build_info_text();

} // namespace sdrbist
