#include "campaign/artefact_store/artefact_store.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h> // getpid: temp names must be unique across processes
#endif

#include "bist/config_canonical.hpp"
#include "campaign/artefact_store/byte_codec.hpp"
#include "campaign/artefact_store/stage_codec.hpp"
#include "campaign/shard_io.hpp" // quarantine_file
#include "core/contracts.hpp"
#include "core/fault_injection.hpp"
#include "core/hash.hpp"
#include "core/telemetry.hpp"

namespace sdrbist::campaign {

namespace fs = std::filesystem;

namespace {

constexpr const char* store_extension = ".sab";
/// Entry kind of finished scenario outcomes (the others are stage names).
constexpr const char* report_kind = "report";

bool is_hex_key(const std::string& stem) {
    if (stem.size() != 16)
        return false;
    for (const char c : stem)
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    return true;
}

/// "<16-hex>-<kind>" → the kind, or false when the name is not one of
/// the store's entry names (a stage name or `report`).
bool parse_entry_stem(const std::string& stem, std::string& kind) {
    if (stem.size() < 18 || !is_hex_key(stem.substr(0, 16)) ||
        stem[16] != '-')
        return false;
    kind = stem.substr(17);
    if (kind == report_kind)
        return true;
    for (const bist::stage s : bist::stage_order)
        if (bist::to_string(s) == kind)
            return true;
    return false;
}

std::string entry_path(const std::string& dir, std::uint64_t digest,
                       const std::string& kind) {
    return (fs::path(dir) /
            (fnv1a64::hex_digest(digest) + "-" + kind + store_extension))
        .string();
}

std::string entry_header(const std::string& kind, std::uint64_t digest,
                         std::size_t raw_bytes, const std::string& payload) {
    json_object_writer h;
    h.size_field("store_version",
                 static_cast<std::size_t>(store_format_version));
    h.size_field("codec", static_cast<std::size_t>(byte_codec_version));
    h.string_field("stage", kind);
    h.string_field("digest", fnv1a64::hex_digest(digest));
    h.size_field("stage_canonical_version",
                 static_cast<std::size_t>(bist::stage_canonical_version));
    h.size_field("raw_bytes", raw_bytes);
    h.size_field("payload_bytes", payload.size());
    h.string_field("payload_fnv",
                   fnv1a64::hex_digest(fnv1a64::hash(payload)));
    return h.str();
}

/// True when a header's format versions are the ones this build writes.
/// Throws contract_violation (corrupt, not skewed) for a version that is
/// no count at all.
bool current_versions(const json_value& header) {
    return header.at("store_version").as_size() ==
               static_cast<std::size_t>(store_format_version) &&
           header.at("codec").as_size() ==
               static_cast<std::size_t>(byte_codec_version) &&
           header.at("stage_canonical_version").as_size() ==
               static_cast<std::size_t>(bist::stage_canonical_version);
}

/// Best-effort LRU touch: a hit makes the entry "recently used" for GC.
void touch_mtime(const fs::path& path) {
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
}

} // namespace

// ---------------------------------------------------------------------------
// stage_artefact_store
// ---------------------------------------------------------------------------

stage_artefact_store::stage_artefact_store(std::string dir)
    : dir_(std::move(dir)) {
    SDRBIST_EXPECTS(!dir_.empty());
    std::error_code ec;
    fs::create_directories(dir_, ec);
    SDRBIST_EXPECTS(!ec && fs::is_directory(dir_));
}

std::string stage_artefact_store::path_for(std::uint64_t digest,
                                           bist::stage s) const {
    return entry_path(dir_, digest, bist::to_string(s));
}

bool stage_artefact_store::load_raw(
    std::uint64_t digest, const std::string& kind,
    const std::function<void(const std::string&)>& decode) {
    const telemetry::scoped_span span(telemetry::category::store,
                                      "store.load");
    fault_injection::fire(fault_injection::site::store_load);
    const std::string path = entry_path(dir_, digest, kind);
    bool corrupt = false;
    {
        std::ifstream in(path, std::ios::binary);
        if (in.good()) {
            std::ostringstream buffer;
            buffer << in.rdbuf();
            std::string bytes = buffer.str();
            // Injected load faults garble the just-read bytes, driving the
            // same quarantine path a real on-disk corruption would.
            fault_injection::corrupt(fault_injection::site::store_load,
                                     bytes);
            try {
                const std::size_t nl = bytes.find('\n');
                SDRBIST_EXPECTS(nl != std::string::npos);
                const json_value header =
                    parse_json(bytes.substr(0, nl));
                if (current_versions(header)) {
                    // Current version: the entry must be exactly what its
                    // name claims, byte-verified.
                    SDRBIST_EXPECTS(header.at("stage").as_string() ==
                                    kind);
                    SDRBIST_EXPECTS(header.at("digest").as_string() ==
                                    fnv1a64::hex_digest(digest));
                    const std::string payload = bytes.substr(nl + 1);
                    SDRBIST_EXPECTS(payload.size() ==
                                    header.at("payload_bytes").as_size());
                    SDRBIST_EXPECTS(
                        fnv1a64::hex_digest(fnv1a64::hash(payload)) ==
                        header.at("payload_fnv").as_string());
                    const std::string raw = byte_codec_decompress(
                        payload, header.at("raw_bytes").as_size());
                    decode(raw);
                    touch_mtime(path);
                    hits_.fetch_add(1, std::memory_order_relaxed);
                    telemetry::count(telemetry::counter::store_hits);
                    bytes_.fetch_add(raw.size(),
                                     std::memory_order_relaxed);
                    telemetry::count(telemetry::counter::store_bytes,
                                     raw.size());
                    return true;
                }
                // Version skew is a plain miss — cache-gc's business.
            } catch (const std::exception&) {
                corrupt = true; // truncated / garbled / checksum mismatch
            }
        }
    }
    // Move the wreck into quarantine/ so the recompute publishes into a
    // clean slot and the evidence survives for inspection.
    if (corrupt && quarantine_file(path))
        quarantined_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    telemetry::count(telemetry::counter::store_misses);
    return false;
}

void stage_artefact_store::store_raw(std::uint64_t digest,
                                     const std::string& kind,
                                     const std::string& raw) {
    const telemetry::scoped_span span(telemetry::category::store,
                                      "store.store");
    // Atomic publish: unique temp in the store directory, then rename
    // over the final path.  Concurrent writers of the same digest produce
    // identical content; last rename wins.  Best-effort by design — a
    // failed publish degrades to a future miss, exactly like a real I/O
    // failure.
#if defined(__unix__) || defined(__APPLE__)
    const std::uint64_t process_tag = static_cast<std::uint64_t>(::getpid());
#else
    const std::uint64_t process_tag =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
#endif
    static std::atomic<std::uint64_t> sequence{0};
    const std::string path = entry_path(dir_, digest, kind);
    const std::string tmp =
        path + ".tmp." + fnv1a64::hex_digest(process_tag) + "." +
        std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
    try {
        fault_injection::fire(fault_injection::site::store_store);
        const std::string payload = byte_codec_compress(raw);
        std::string body = entry_header(kind, digest, raw.size(), payload);
        body += '\n';
        body += payload;
        fault_injection::corrupt(fault_injection::site::store_store, body);
        {
            std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
            out << body;
            out.flush();
            if (!out.good()) {
                std::error_code ec;
                fs::remove(tmp, ec);
                return;
            }
        }
        std::error_code ec;
        fs::rename(tmp, path, ec);
        if (ec)
            fs::remove(tmp, ec);
    } catch (const std::exception&) {
        std::error_code ec;
        fs::remove(tmp, ec);
    }
}

template <typename T, typename FromJson>
std::shared_ptr<const T> stage_artefact_store::load_stage(
    std::uint64_t digest, bist::stage s, FromJson from_json) {
    std::shared_ptr<const T> out;
    load_raw(digest, bist::to_string(s), [&](const std::string& raw) {
        out = std::make_shared<const T>(from_json(parse_json(raw)));
    });
    return out;
}

std::shared_ptr<const bist::stimulus_output>
stage_artefact_store::load_stimulus(std::uint64_t digest) {
    return load_stage<bist::stimulus_output>(digest, bist::stage::stimulus,
                                             stimulus_from_json);
}

std::shared_ptr<const bist::tx_capture_output>
stage_artefact_store::load_tx_capture(std::uint64_t digest) {
    return load_stage<bist::tx_capture_output>(
        digest, bist::stage::tx_capture, tx_capture_from_json);
}

std::shared_ptr<const bist::calibration_output>
stage_artefact_store::load_calibration(std::uint64_t digest) {
    return load_stage<bist::calibration_output>(
        digest, bist::stage::calibration, calibration_from_json);
}

std::shared_ptr<const bist::reconstruction_output>
stage_artefact_store::load_reconstruction(std::uint64_t digest) {
    return load_stage<bist::reconstruction_output>(
        digest, bist::stage::reconstruction, reconstruction_from_json);
}

std::shared_ptr<const bist::grading_output>
stage_artefact_store::load_grading(std::uint64_t digest) {
    return load_stage<bist::grading_output>(digest, bist::stage::grading,
                                            grading_from_json);
}

void stage_artefact_store::store_stimulus(std::uint64_t digest,
                                          const bist::stimulus_output& out) {
    store_raw(digest, bist::to_string(bist::stage::stimulus),
              stimulus_json(out));
}

void stage_artefact_store::store_tx_capture(
    std::uint64_t digest, const bist::tx_capture_output& out) {
    store_raw(digest, bist::to_string(bist::stage::tx_capture),
              tx_capture_json(out));
}

void stage_artefact_store::store_calibration(
    std::uint64_t digest, const bist::calibration_output& out) {
    store_raw(digest, bist::to_string(bist::stage::calibration),
              calibration_json(out));
}

void stage_artefact_store::store_reconstruction(
    std::uint64_t digest, const bist::reconstruction_output& out) {
    store_raw(digest, bist::to_string(bist::stage::reconstruction),
              reconstruction_json(out));
}

void stage_artefact_store::store_grading(std::uint64_t digest,
                                         const bist::grading_output& out) {
    store_raw(digest, bist::to_string(bist::stage::grading),
              grading_json(out));
}

std::optional<scenario_result>
stage_artefact_store::load_report(std::uint64_t digest) {
    std::optional<scenario_result> out;
    load_raw(digest, report_kind, [&](const std::string& raw) {
        const json_value doc = parse_json(raw);
        scenario_result r;
        r.engine_error = doc.at("engine_error").as_bool();
        r.error = doc.at("error").as_string();
        r.elapsed_s = doc.at("elapsed_s").as_number();
        r.report = report_from_json(doc.at("report"));
        out = std::move(r);
    });
    return out;
}

void stage_artefact_store::store_report(std::uint64_t digest,
                                        const scenario_result& r) {
    json_object_writer doc;
    doc.bool_field("engine_error", r.engine_error);
    doc.string_field("error", r.error);
    doc.number_field("elapsed_s", r.elapsed_s);
    doc.field("report", report_json(r.report));
    store_raw(digest, report_kind, doc.str());
}

// ---------------------------------------------------------------------------
// Store lifecycle tooling
// ---------------------------------------------------------------------------

namespace {

/// How a store-directory file would behave on the next warm run.
enum class entry_class { entry, stale, corrupt, stray_tmp, foreign };

/// Classify one file the way stage_artefact_store::load_raw would treat
/// it.  Header-only (the payload checksum is load's business): a scan must
/// stay cheap on multi-GB stores.  Sets `version` for files that parse far
/// enough to expose a store_version.
entry_class classify(const fs::path& path, int& version) {
    const std::string filename = path.filename().string();
    // Leftover atomic-publish temp: "<stem>.sab.tmp.<tag>.<seq>".
    if (filename.size() > 16 && is_hex_key(filename.substr(0, 16)) &&
        filename.find(".sab.tmp.") != std::string::npos)
        return entry_class::stray_tmp;
    if (path.extension() != store_extension)
        return entry_class::foreign;
    std::string kind;
    if (!parse_entry_stem(path.stem().string(), kind))
        return entry_class::foreign;

    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        return entry_class::corrupt;
    std::string header_line;
    if (!std::getline(in, header_line))
        return entry_class::corrupt;
    try {
        const json_value header = parse_json(header_line);
        version = static_cast<int>(header.at("store_version").as_size());
        if (!current_versions(header))
            return entry_class::stale;
        if (header.at("stage").as_string() != kind ||
            header.at("digest").as_string() !=
                path.stem().string().substr(0, 16))
            return entry_class::corrupt;
        // load_raw rejects a raw size that is no count; so does the scan.
        static_cast<void>(header.at("raw_bytes").as_size());
        std::error_code ec;
        const std::uintmax_t size = fs::file_size(path, ec);
        if (ec || size != header_line.size() + 1 +
                              header.at("payload_bytes").as_size())
            return entry_class::corrupt;
        return entry_class::entry;
    } catch (const std::exception&) {
        return entry_class::corrupt;
    }
}

/// One healthy entry, as GC sees it.
struct healthy_entry {
    fs::path path;
    std::uintmax_t size = 0;
    fs::file_time_type mtime{};
    std::string filename; ///< deterministic tie-break for equal mtimes
};

template <typename OnRemovable, typename OnEntry>
store_dir_stats walk_store_dir(const std::string& dir,
                               OnRemovable&& on_removable,
                               OnEntry&& on_entry) {
    SDRBIST_EXPECTS(fs::is_directory(dir));
    store_dir_stats stats;
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        int version = -1;
        const entry_class c = classify(entry.path(), version);
        if (c == entry_class::foreign)
            continue; // not ours: never counted, never touched
        std::error_code ec;
        const std::uintmax_t size = fs::file_size(entry.path(), ec);
        stats.bytes += ec ? 0 : size;
        switch (c) {
        case entry_class::entry:
            ++stats.entries;
            ++stats.version_histogram[version];
            on_entry(entry.path(), ec ? 0 : size);
            break;
        case entry_class::stale:
            ++stats.stale;
            ++stats.version_histogram[version];
            on_removable(entry.path(), ec ? 0 : size);
            break;
        case entry_class::corrupt:
            ++stats.corrupt;
            on_removable(entry.path(), ec ? 0 : size);
            break;
        case entry_class::stray_tmp:
            ++stats.stray_tmp;
            on_removable(entry.path(), ec ? 0 : size);
            break;
        case entry_class::foreign:
            break;
        }
    }
    return stats;
}

} // namespace

store_dir_stats scan_store_dir(const std::string& dir) {
    return walk_store_dir(
        dir, [](const fs::path&, std::uintmax_t) {},
        [](const fs::path&, std::uintmax_t) {});
}

store_gc_result gc_store_dir(const std::string& dir,
                             store_gc_policy policy) {
    store_gc_result out;
    std::vector<healthy_entry> healthy;
    const store_dir_stats stats = walk_store_dir(
        dir,
        [&](const fs::path& path, std::uintmax_t size) {
            std::error_code ec;
            if (fs::remove(path, ec) && !ec) {
                ++out.removed;
                out.bytes_freed += size;
            }
        },
        [&](const fs::path& path, std::uintmax_t size) {
            std::error_code ec;
            healthy_entry e;
            e.path = path;
            e.size = size;
            e.mtime = fs::last_write_time(path, ec);
            e.filename = path.filename().string();
            healthy.push_back(std::move(e));
        });
    out.scanned = stats.files();

    const auto evict = [&](const healthy_entry& e) {
        std::error_code ec;
        if (fs::remove(e.path, ec) && !ec) {
            ++out.evicted;
            out.bytes_freed += e.size;
            telemetry::count(telemetry::counter::store_evictions);
        }
    };

    // Age budget first: idleness is absolute, independent of store size.
    if (policy.max_age_s > 0) {
        const auto now = fs::file_time_type::clock::now();
        const auto horizon =
            now - std::chrono::seconds(
                      static_cast<std::int64_t>(policy.max_age_s));
        std::vector<healthy_entry> young;
        young.reserve(healthy.size());
        for (auto& e : healthy) {
            if (e.mtime < horizon)
                evict(e);
            else
                young.push_back(std::move(e));
        }
        healthy = std::move(young);
    }

    // Size / count budgets: evict least-recently-used first (oldest mtime;
    // filename breaks ties deterministically).
    if (policy.max_bytes > 0 || policy.max_entries > 0) {
        std::sort(healthy.begin(), healthy.end(),
                  [](const healthy_entry& a, const healthy_entry& b) {
                      if (a.mtime != b.mtime)
                          return a.mtime < b.mtime;
                      return a.filename < b.filename;
                  });
        std::uintmax_t total = 0;
        for (const auto& e : healthy)
            total += e.size;
        std::size_t first_kept = 0;
        while (first_kept < healthy.size() &&
               ((policy.max_bytes > 0 && total > policy.max_bytes) ||
                (policy.max_entries > 0 &&
                 healthy.size() - first_kept > policy.max_entries))) {
            total -= healthy[first_kept].size;
            evict(healthy[first_kept]);
            ++first_kept;
        }
        healthy.erase(healthy.begin(),
                      healthy.begin() +
                          static_cast<std::ptrdiff_t>(first_kept));
    }

    out.kept = healthy.size();
    return out;
}

} // namespace sdrbist::campaign
