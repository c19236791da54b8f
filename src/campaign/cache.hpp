/// \file cache.hpp
/// \brief On-disk scenario result cache: content-hash keyed, resumable.
///
/// A campaign over a standard × fault × Monte-Carlo grid is only cheap to
/// *regrade* if already-graded scenarios can be skipped.  The cache keys
/// each scenario by an FNV-1a hash of
///
///   - a cache-format version tag (bumping it orphans old entries),
///   - the seed-derivation version (scenario seeds are a function of the
///     master seed and grid coordinates; changing that function must move
///     every key),
///   - the scenario grid coordinates (preset name, fault name, trial) and
///     the derived scenario seed,
///   - the canonical serialisation of the fully *materialised* engine
///     config (bist/config_canonical.hpp) — preset applied, fault
///     injected, seeds and Monte-Carlo perturbations baked in.
///
/// Because the materialised config determines the report bit-for-bit, a
/// hit can stand in for an engine run: a warm rerun reproduces the cold
/// run's coverage matrix and timing-free exports byte-identically.
/// Entries are one JSON file per scenario (`<dir>/<16-hex-key>.json`),
/// written atomically (temp file + rename), so concurrent shard processes
/// can safely share one cache directory.  Corrupt, truncated or
/// version-mismatched entries read as misses and are re-graded.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/export.hpp"

namespace sdrbist::campaign {

/// On-disk cache entry format version (file layout, report field set).
/// The key chains canonical_config_text, not stage_canonical_version, so a
/// change to the graded values of an unchanged config bumps this too
/// (version 2: the table-driven PNBS kernel).
inline constexpr int cache_format_version = 2;

/// Version of the master-seed → scenario-seed derivation in
/// campaign.cpp.  Part of every key: if the derivation changes, equal
/// scenario coordinates no longer mean equal work.
inline constexpr int seed_derivation_version = 1;

class scenario_cache {
public:
    /// Opens (creating if needed) the cache directory.  Throws
    /// contract_violation when the directory cannot be created.
    explicit scenario_cache(std::string dir);

    /// Content-hash key for one scenario (16 lowercase hex chars).  Pure
    /// function of the scenario coordinates and the materialised config —
    /// deliberately independent of grid *shape*, so overlapping grids
    /// (more trials, appended presets) share entries.
    [[nodiscard]] static std::string
    key(const scenario& sc, const bist::bist_config& materialised);

    /// Load a cached outcome.  Only `report`, `engine_error`, `error` and
    /// `elapsed_s` are meaningful in the returned value — the caller owns
    /// the scenario coordinates.  nullopt on miss/corruption/version skew.
    /// A corrupt entry (truncated, garbled, key mismatch) is additionally
    /// moved to `<dir>/quarantine/` and counted, so reruns re-grade into a
    /// clean slot instead of re-parsing the wreck; version-skewed entries
    /// are *not* corrupt — they stay put for `cache-gc`.
    [[nodiscard]] std::optional<scenario_result>
    load(const std::string& key) const;

    /// Persist one graded scenario under `key`.  Atomic (temp + rename)
    /// and best-effort: storage failure degrades to a future miss, never
    /// aborts a campaign.
    void store(const std::string& key, const scenario_result& r) const;

    /// File path an entry with this key lives at.
    [[nodiscard]] std::string path_for(const std::string& key) const;

    [[nodiscard]] const std::string& dir() const { return dir_; }

    /// Corrupt entries this instance has quarantined (the runner folds
    /// this into `campaign_result::quarantined`).
    [[nodiscard]] std::size_t quarantined() const {
        return quarantined_.load(std::memory_order_relaxed);
    }

private:
    std::string dir_;
    mutable std::atomic<std::size_t> quarantined_{0};
};

/// Move `file` into a `quarantine/` directory beside it (collisions get a
/// numeric suffix).  Shared by the cache, the shard salvage reader and
/// anything else that must get a corrupt input out of the way without
/// destroying the evidence.  Returns false when the move failed (the file
/// is left in place).
bool quarantine_file(const std::string& file);

// ---------------------------------------------------------------------------
// Cache lifecycle tooling (the CLI's `cache-stats` / `cache-gc`).
// ---------------------------------------------------------------------------

/// One pass over a cache directory, classifying every entry.
struct cache_dir_stats {
    std::size_t entries = 0;  ///< readable, current-version entries
    std::size_t stale = 0;    ///< version-skewed (would re-grade as a miss)
    std::size_t corrupt = 0;  ///< unparseable / truncated / key mismatch
    std::size_t stray_tmp = 0; ///< leftover atomic-publish temp files
    std::uintmax_t bytes = 0; ///< total size of everything classified
    /// cache_version value → entry count (corrupt entries excluded).
    std::map<int, std::size_t> version_histogram;

    [[nodiscard]] std::size_t files() const {
        return entries + stale + corrupt + stray_tmp;
    }
};

/// Classify every cache file under `dir` (non-recursive: the cache writes
/// a flat directory).  Throws contract_violation when `dir` is not a
/// directory.
cache_dir_stats scan_cache_dir(const std::string& dir);

/// Outcome of a garbage collection over a cache directory.
struct cache_gc_result {
    std::size_t scanned = 0;
    std::size_t removed = 0; ///< stale + corrupt entries and stray temps
    std::size_t kept = 0;    ///< current-version, readable entries
    std::uintmax_t bytes_freed = 0;
};

/// Evict everything a warm run could not use: version-skewed entries,
/// corrupt/truncated files, key-mismatched entries and leftover `.tmp.*`
/// files from interrupted atomic publishes.  Only touches files matching
/// the cache's own naming scheme — anything else in the directory is left
/// alone.  Throws contract_violation when `dir` is not a directory.
cache_gc_result gc_cache_dir(const std::string& dir);

/// Serialise a full bist_report as a JSON object.  Doubles are written in
/// shortest round-trip form, so parse(report_json(r)) recovers every
/// finite field bit-identically.  Non-finite values collapse to quiet NaN
/// through JSON `null` — exports render both as `null`, so artefact
/// byte-identity survives even for degenerate reports.
std::string report_json(const bist::bist_report& report);

/// Rebuild a report from its JSON form.  Throws contract_violation on
/// missing fields or kind mismatches.
bist::bist_report report_from_json(const json_value& v);

} // namespace sdrbist::campaign
