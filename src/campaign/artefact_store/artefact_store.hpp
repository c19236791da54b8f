/// \file artefact_store.hpp
/// \brief Persistent, content-addressed store of BIST stage outputs and
///        graded scenario reports — the campaign's one persistence layer.
///
/// Entries are keyed by the chained stage input digests
/// (bist/config_canonical.hpp).  Equal digests guarantee bit-identical
/// outputs, so a hit stands in for the compute — across runs and across
/// processes, not just within one campaign's in-memory stage pool.  Two
/// entry kinds share one layout:
///
///   - a *stage* entry holds one of the five stage outputs under its
///     stage's input digest;
///   - a *report* entry holds a finished scenario's outcome (report,
///     engine_error, error, elapsed_s) under the grading stage's input
///     digest.  That digest chains every stage slice, so it covers the
///     whole materialised config except the preset name: presets that
///     differ only by name share one entry, and the reader restores the
///     name.  A warm campaign serves every scenario from one report entry
///     and does no stage work at all.
///
/// Entry layout (`<dir>/<16-hex-digest>-<kind>.sab`, kind = a stage name
/// or `report`):
///
///   one JSON header line
///     {"store_version":V,"codec":C,"stage":"<kind>","digest":"...",
///      "stage_canonical_version":S,"raw_bytes":N,"payload_bytes":M,
///      "payload_fnv":"..."}\n
///   followed by exactly M bytes of byte_codec-compressed payload — the
///   compressed form of the stage_codec JSON serialisation (N raw bytes).
///
/// Load semantics: a missing file is a plain miss; version skew
/// (store_version, codec, stage_canonical_version) is a plain miss that
/// stays put for `cache-gc`; anything corrupt (garbled header, size or
/// checksum mismatch, name/content disagreement, payload that fails to
/// decompress or decode) is quarantined into `<dir>/quarantine/` and read
/// as a miss.  Publishes are atomic (unique temp + rename) and
/// best-effort.  Hits touch the entry's mtime (best-effort) so GC can
/// evict least-recently-used entries first.
///
/// Telemetry: counters `store.hits` / `store.misses` / `store.bytes` (raw
/// bytes served by hits) are bumped at the same sites as the store's own
/// atomics, so counter totals equal result totals exactly; `cache-gc`
/// bumps `store.evictions` per budget-evicted entry.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "bist/pipeline.hpp"
#include "campaign/campaign.hpp"

namespace sdrbist::campaign {

/// On-disk entry format version (header layout + stage_codec field sets).
/// Any change to either MUST bump this so stale entries read as misses.
inline constexpr int store_format_version = 1;

/// Compressed on-disk implementation of bist::stage_snapshot_store, plus
/// the campaign's report entries.  Thread-safe: concurrent loads/stores
/// from any number of sessions and processes sharing the directory are
/// safe (atomic publish, last rename wins with identical content).
class stage_artefact_store final : public bist::stage_snapshot_store {
public:
    /// Opens (creating if needed) the store directory.  Throws
    /// contract_violation when the directory cannot be created.
    explicit stage_artefact_store(std::string dir);

    [[nodiscard]] std::shared_ptr<const bist::stimulus_output>
    load_stimulus(std::uint64_t digest) override;
    [[nodiscard]] std::shared_ptr<const bist::tx_capture_output>
    load_tx_capture(std::uint64_t digest) override;
    [[nodiscard]] std::shared_ptr<const bist::calibration_output>
    load_calibration(std::uint64_t digest) override;
    [[nodiscard]] std::shared_ptr<const bist::reconstruction_output>
    load_reconstruction(std::uint64_t digest) override;
    [[nodiscard]] std::shared_ptr<const bist::grading_output>
    load_grading(std::uint64_t digest) override;

    void store_stimulus(std::uint64_t digest,
                        const bist::stimulus_output& out) override;
    void store_tx_capture(std::uint64_t digest,
                          const bist::tx_capture_output& out) override;
    void store_calibration(std::uint64_t digest,
                           const bist::calibration_output& out) override;
    void store_reconstruction(std::uint64_t digest,
                              const bist::reconstruction_output& out) override;
    void store_grading(std::uint64_t digest,
                       const bist::grading_output& out) override;

    /// The finished scenario filed under grading digest `digest`.  Only
    /// `report`, `engine_error`, `error` and `elapsed_s` are meaningful:
    /// the caller owns the scenario coordinates and the preset name.
    /// nullopt on a miss.  Not part of bist::stage_snapshot_store: the
    /// bist layer never sees finished scenarios.
    [[nodiscard]] std::optional<scenario_result>
    load_report(std::uint64_t digest);
    /// Persist a deterministic scenario outcome under its grading digest.
    void store_report(std::uint64_t digest, const scenario_result& r);

    /// File path a stage entry lives at.
    [[nodiscard]] std::string path_for(std::uint64_t digest,
                                       bist::stage s) const;

    [[nodiscard]] const std::string& dir() const { return dir_; }

    /// Result counters — exactly equal to the telemetry counters this
    /// instance emitted (bumped at the same sites).
    [[nodiscard]] std::uint64_t hits() const {
        return hits_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t misses() const {
        return misses_.load(std::memory_order_relaxed);
    }
    /// Raw (uncompressed) bytes served by hits.
    [[nodiscard]] std::uint64_t bytes_served() const {
        return bytes_.load(std::memory_order_relaxed);
    }
    /// Corrupt entries moved to quarantine/ by this instance.
    [[nodiscard]] std::uint64_t quarantined() const {
        return quarantined_.load(std::memory_order_relaxed);
    }

private:
    /// Read, verify, decompress and `decode` one entry of `kind`; false
    /// on a miss (counted).  An entry `decode` throws on is corrupt.
    bool load_raw(std::uint64_t digest, const std::string& kind,
                  const std::function<void(const std::string&)>& decode);
    /// load_raw + decode into a typed stage snapshot (null on a miss).
    template <typename T, typename FromJson>
    std::shared_ptr<const T> load_stage(std::uint64_t digest, bist::stage s,
                                        FromJson from_json);
    /// Compress + atomically publish one entry (best-effort).
    void store_raw(std::uint64_t digest, const std::string& kind,
                   const std::string& raw);

    std::string dir_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> bytes_{0};
    std::atomic<std::uint64_t> quarantined_{0};
};

// ---------------------------------------------------------------------------
// Store lifecycle tooling (the CLI's `cache-stats` / `cache-gc`).
// ---------------------------------------------------------------------------

/// One pass over a store directory, classifying every file the store's
/// naming scheme owns (stage and report entries alike).
struct store_dir_stats {
    std::size_t entries = 0;   ///< readable, current-version entries
    std::size_t stale = 0;     ///< version-skewed (read as plain misses)
    std::size_t corrupt = 0;   ///< garbled header / size / name mismatch
    std::size_t stray_tmp = 0; ///< leftover atomic-publish temp files
    std::uintmax_t bytes = 0;  ///< total size of everything classified
    /// store_version value → entry count (corrupt entries excluded).
    std::map<int, std::size_t> version_histogram;

    [[nodiscard]] std::size_t files() const {
        return entries + stale + corrupt + stray_tmp;
    }
};

/// Classify every store file under `dir` (flat, non-recursive).  Files
/// outside the store's naming scheme are never counted or touched.
/// Throws contract_violation when `dir` is not a directory.
store_dir_stats scan_store_dir(const std::string& dir);

/// Eviction budgets for gc_store_dir.  Zero means "unlimited" for each
/// knob; removal of stale/corrupt/stray files happens regardless.
struct store_gc_policy {
    std::uintmax_t max_bytes = 0;  ///< total healthy-entry byte budget
    std::uint64_t max_age_s = 0;   ///< evict entries idle longer than this
    std::size_t max_entries = 0;   ///< healthy-entry count budget
};

/// Outcome of a garbage collection over a store directory.
struct store_gc_result {
    std::size_t scanned = 0;
    std::size_t removed = 0;  ///< stale/corrupt entries and stray temps
    std::size_t evicted = 0;  ///< healthy entries evicted by the budgets
    std::size_t kept = 0;     ///< healthy entries surviving the pass
    std::uintmax_t bytes_freed = 0;
};

/// Remove everything a warm run could not use (stale, corrupt, stray
/// temps), then apply the budgets to the healthy entries: age first, then
/// evict least-recently-used (oldest mtime, filename as the deterministic
/// tie-break) until both the byte and the entry-count budget hold.  Each
/// budget eviction bumps telemetry counter `store.evictions`.  Files
/// outside the store's naming scheme are never touched.  Throws
/// contract_violation when `dir` is not a directory.
store_gc_result gc_store_dir(const std::string& dir,
                             store_gc_policy policy = {});

} // namespace sdrbist::campaign
