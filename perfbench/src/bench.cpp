#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "bist/config_canonical.hpp"
#include "bist/pipeline.hpp"
#include "campaign/artefact_store/artefact_store.hpp"
#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "campaign/service/coordinator.hpp"
#include "campaign/service/worker.hpp"
#include "calibration.hpp"
#include "core/telemetry.hpp"
#include "gate.hpp"
#include "replay.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace sdrbist;
using campaign::campaign_config;
using campaign::campaign_result;
using campaign::scenario_result;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Workload grids
// ---------------------------------------------------------------------------

enum class kind { lanes, pooled, store, service };

/// Scenarios per timed run before p90 is read (ten beyond the percentile).
constexpr std::size_t min_latency_samples = 100;
/// Setups per timed run; setup_s is their median.  The store workload's
/// setup is a whole cold fill, which is steadier and costs seconds.
constexpr int setup_repeats = 5;
constexpr int store_setup_repeats = 3;
/// Campaign-service shape of the service workload: 2 workers of 1 compute
/// thread.  The timed run's calibration slices run on the coordinator's
/// connection threads, so those need free hardware threads too; beside
/// 2 x 2 compute threads on a 4-thread host the slices queued and read the
/// host up to 30% slow.
constexpr unsigned service_workers = 2;
constexpr unsigned service_worker_threads = 1;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

kind kind_of(const std::string& workload) {
    if (workload == "catalogue_cold")
        return kind::lanes;
    if (workload == "probe_campaign")
        return kind::pooled;
    if (workload == "store_regrade")
        return kind::store;
    if (workload == "service_loopback")
        return kind::service;
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

std::vector<waveform::standard_preset>
presets(const std::vector<std::string>& names) {
    std::vector<waveform::standard_preset> out;
    for (const auto& n : names)
        out.push_back(waveform::find_preset(n));
    return out;
}

/// The grid a workload grades, with every input derived from `seed`.
campaign_config make_grid(const std::string& workload, std::uint64_t seed,
                          bool smoke, unsigned threads) {
    using bist::fault_kind;
    campaign_config cfg;
    // The production test configuration of the campaign CLI: ADC
    // headroom for the PA gain, and the PA-health output floor so gain
    // faults count.
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.base.min_output_rms = 1.2;
    cfg.seed = mix(seed, 3);
    // Device seeds: under reseed=device the runner rederives them per
    // scenario from cfg.seed; under reseed=probes these are the device.
    cfg.base.tx.seed = mix(seed, 1);
    cfg.base.tiadc.seed = mix(seed, 2);
    cfg.base.probe_seed = mix(seed, 4);

    switch (kind_of(workload)) {
    case kind::lanes:
        cfg.reseed = campaign::reseed_policy::device;
        cfg.stage_sharing.reset();
        cfg.threads = 1;
        break;
    case kind::pooled:
    case kind::service:
        cfg.presets = presets({"paper-qpsk-10M", "qam16-10M"});
        cfg.faults = {fault_kind::none, fault_kind::pa_gain_drop};
        cfg.trials = 16;
        cfg.reseed = campaign::reseed_policy::probes;
        cfg.threads = kind_of(workload) == kind::service
                          ? service_worker_threads
                          : threads;
        break;
    case kind::store:
        cfg.presets = presets({"paper-qpsk-10M", "qam16-10M"});
        cfg.faults = {fault_kind::none, fault_kind::pa_gain_drop,
                      fault_kind::iq_imbalance, fault_kind::lo_leakage};
        cfg.trials = 2;
        cfg.reseed = campaign::reseed_policy::probes;
        // One thread, cold fill included.  Each rerun's start-up (about
        // 0.2 s of planning and first store loads) then sits in one gap of
        // 16, above p90, instead of in four.  And the reruns inherit no
        // malloc arenas from a many-thread fill, which made their peak RSS
        // vary by 25% from run to run.
        cfg.threads = 1;
        break;
    }
    if (smoke) {
        cfg.presets = presets({"paper-qpsk-10M"});
        cfg.faults = {fault_kind::none, fault_kind::pa_gain_drop};
        cfg.trials = 2;
    }
    return cfg;
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

double seconds_since(std::int64_t start_ns) {
    return 1e-9 * static_cast<double>(now_ns() - start_ns);
}

double process_cpu_s() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               1e-6 * static_cast<double>(t.tv_usec);
    };
    return tv(u.ru_utime) + tv(u.ru_stime);
}

double peak_rss_mb() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0; // KiB on Linux
}

/// Linear-interpolated quantile of unsorted samples.
double quantile(std::vector<double> v, double q) {
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t this_thread_key() {
    return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

/// Per-scenario time to verdict, measured outside the library as the gap
/// between successive `on_scenario` callbacks of the same executor (a
/// thread, or a lane); each executor's first gap of a run starts when the
/// run starts.
class latency_recorder {
public:
    void restart() {
        const std::lock_guard<std::mutex> lock(mu_);
        last_.clear();
        origin_ = now_ns();
        run_first_ = -1;
    }
    void record(std::uint64_t key) {
        const std::int64_t t = now_ns();
        const std::lock_guard<std::mutex> lock(mu_);
        const auto it = last_.emplace(key, origin_).first;
        gaps_ms_.push_back(1e-6 * static_cast<double>(t - it->second));
        it->second = t;
        if (run_first_ < 0)
            run_first_ = t;
        if (first_ < 0)
            first_ = t;
        last_row_ = t;
    }
    /// Start `key`'s next gap now (after a calibration slice).
    void rebase(std::uint64_t key) {
        const std::int64_t t = now_ns();
        const std::lock_guard<std::mutex> lock(mu_);
        last_[key] = t;
    }
    [[nodiscard]] std::size_t samples() const {
        const std::lock_guard<std::mutex> lock(mu_);
        return gaps_ms_.size();
    }
    [[nodiscard]] std::vector<double> gaps_ms() const {
        const std::lock_guard<std::mutex> lock(mu_);
        return gaps_ms_;
    }
    /// Time of the first callback since construction, of the first since
    /// the last restart(), and of the latest one.
    [[nodiscard]] std::int64_t first_ns() const {
        const std::lock_guard<std::mutex> lock(mu_);
        return first_;
    }
    [[nodiscard]] std::int64_t run_first_ns() const {
        const std::lock_guard<std::mutex> lock(mu_);
        return run_first_;
    }
    [[nodiscard]] std::int64_t last_ns() const {
        const std::lock_guard<std::mutex> lock(mu_);
        return last_row_;
    }

private:
    mutable std::mutex mu_;
    std::map<std::uint64_t, std::int64_t> last_;
    std::vector<double> gaps_ms_;
    std::int64_t origin_ = 0;
    std::int64_t run_first_ = -1;
    std::int64_t first_ = -1;
    std::int64_t last_row_ = -1;
};

/// Everything a sequence of graded passes measured.
struct phase_result {
    std::size_t scenarios = 0;
    std::size_t passes = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    /// The part of wall_s and cpu_s spent in calibration slices.
    double calib_wall_s = 0.0;
    double calib_cpu_s = 0.0;
    bool hit_time_cap = false;
    // Campaign-layer sums over the passes.
    double scenario_cpu_s = 0.0;
    std::size_t reuse_hits = 0;
    std::size_t reuse_computes = 0;
    double first_verdict_s = 0.0;
    // Service sessions only.
    double first_row_s = 0.0;
    double tail_s = 0.0;
    std::size_t leases = 0;
    std::size_t requeues = 0;
    /// The first complete pass (full grid), for the paper's outcomes and
    /// the traced replay's cross-check.
    campaign_result first;
};

/// When a sequence of passes stops: after `seconds` once enough latency
/// samples exist, or after `max_passes`; never later than a hard cap.
struct stop_rule {
    double seconds = 0.0;
    std::size_t min_samples = 0;
    std::size_t max_passes = std::numeric_limits<std::size_t>::max();

    [[nodiscard]] bool done(double elapsed, std::size_t samples,
                            std::size_t passes, bool* capped) const {
        if (passes >= max_passes)
            return true;
        if (elapsed >= seconds && samples >= min_samples)
            return true;
        if (elapsed >= 4.0 * seconds + 30.0) {
            *capped = true;
            return true;
        }
        return false;
    }
};

void add_campaign_fields(phase_result& ph, const campaign_result& r) {
    ph.scenario_cpu_s += r.scenario_cpu_s;
    ph.reuse_hits += r.stage_reuse_hits;
    ph.reuse_computes += r.stage_reuse_computes;
}

// ---------------------------------------------------------------------------
// Workload context and passes
// ---------------------------------------------------------------------------

struct context {
    std::string name;
    kind k = kind::pooled;
    campaign_config grid;
    unsigned threads = 1;       ///< compute threads the workload uses
    std::string work_dir;
    std::string store_dir;      ///< store_regrade: the filled store
    /// One-scenario grid graded in setup.  Its seeds are fixed, not drawn
    /// from --seed, so the warm-up does the same work in every run.
    campaign_config warmup;
};

/// Compute threads of one timed pass of the workload.
unsigned pass_threads(const context& ctx) {
    const auto grid_threads = static_cast<unsigned>(ctx.grid.threads);
    switch (ctx.k) {
    case kind::lanes:
        break;
    case kind::pooled:
    case kind::store:
        return grid_threads;
    case kind::service:
        return service_workers * grid_threads;
    }
    return ctx.threads;
}

/// catalogue_cold: `threads` single-thread lanes pull scenarios from a
/// shared counter that walks the grid pass after pass; each scenario is
/// graded by a 1-thread campaign_runner on a one-row lease.  Within a pass
/// the longest records (lowest symbol rate) go first, so every pass ends
/// on cheap scenarios and the lanes' concurrency pattern repeats.  A pass
/// is complete when all its rows are in; it is then merged and gated.
/// With a `meter`, each lane runs a calibration slice before each of its
/// scenarios; the slice is not part of the scenario's gap.
phase_result run_lanes(const context& ctx, gate& g, const stop_rule& rule,
                       latency_recorder& rec, speed_meter* meter) {
    const auto scenarios = campaign::expand_grid(ctx.grid);
    const std::size_t n = scenarios.size();
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return ctx.grid.presets[scenarios[a].preset_index]
                                    .stimulus.symbol_rate <
                                ctx.grid.presets[scenarios[b].preset_index]
                                    .stimulus.symbol_rate;
                     });
    phase_result ph;
    std::mutex mu;
    std::size_t next = 0;
    std::size_t stop_pass = rule.max_passes;
    std::map<std::size_t, std::vector<campaign_result>> open_passes;
    std::map<std::size_t, std::size_t> filled;
    std::exception_ptr error;

    const std::int64_t t0 = now_ns();
    const double cpu0 = process_cpu_s();
    rec.restart();
    auto lane = [&](std::size_t lane_id) {
        try {
            for (;;) {
                std::size_t k = 0;
                {
                    const std::lock_guard<std::mutex> lock(mu);
                    if (stop_pass != std::numeric_limits<std::size_t>::max() &&
                        next >= stop_pass * n)
                        return;
                    k = next++;
                }
                if (meter != nullptr) {
                    meter->add(run_calibration_slice());
                    rec.rebase(lane_id);
                }
                campaign_config cfg = ctx.grid;
                cfg.threads = 1;
                const std::size_t row = order[k % n];
                cfg.lease = campaign::lease_range{row, row + 1};
                campaign::run_hooks hooks;
                hooks.on_scenario = [&](const scenario_result&) {
                    rec.record(lane_id);
                };
                campaign_result r = campaign::campaign_runner(cfg).run(hooks);

                const std::lock_guard<std::mutex> lock(mu);
                auto& slots = open_passes[k / n];
                slots.resize(n);
                slots[row] = std::move(r);
                if (++filled[k / n] == n) {
                    campaign_result merged = campaign::merge_results(slots);
                    for (const auto& s : slots)
                        add_campaign_fields(ph, s);
                    open_passes.erase(k / n);
                    g.check_pass(merged);
                    ph.scenarios += n;
                    if (ph.passes++ == 0)
                        ph.first = std::move(merged);
                }
                bool capped = false;
                if (rule.done(seconds_since(t0), rec.samples(), ph.passes,
                              &capped)) {
                    stop_pass = std::min(stop_pass, (next + n - 1) / n);
                    ph.hit_time_cap = ph.hit_time_cap || capped;
                }
            }
        } catch (...) {
            const std::lock_guard<std::mutex> lock(mu);
            if (!error)
                error = std::current_exception();
            stop_pass = 0;
        }
    };
    std::vector<std::thread> lanes;
    for (unsigned i = 0; i < ctx.threads; ++i)
        lanes.emplace_back(lane, i);
    for (auto& t : lanes)
        t.join();
    if (error)
        std::rethrow_exception(error);
    ph.wall_s = seconds_since(t0);
    ph.cpu_s = process_cpu_s() - cpu0;
    if (meter != nullptr) {
        // The lanes ran side by side, so their slices took this much of
        // the phase's wall time.
        ph.calib_wall_s = 1e-3 * meter->total_wall_ms() / ctx.threads;
        ph.calib_cpu_s = 1e-3 * meter->total_cpu_ms();
    }
    ph.first_verdict_s =
        1e-9 * static_cast<double>(rec.first_ns() - t0);
    return ph;
}

/// Gaps keyed by the thread the callback runs on.  With a `meter`, every
/// `every`-th callback then runs a calibration slice on that thread, in
/// the middle of the pass and under its load; the slice is not part of
/// the thread's next gap.
campaign::run_hooks thread_keyed_hooks(latency_recorder& rec,
                                       speed_meter* meter = nullptr,
                                       unsigned every = 1) {
    campaign::run_hooks hooks;
    auto calls = std::make_shared<std::atomic<unsigned>>(0);
    hooks.on_scenario = [&rec, meter, every, calls](const scenario_result&) {
        const std::uint64_t key = this_thread_key();
        rec.record(key);
        if (meter != nullptr && calls->fetch_add(1) % every == 0) {
            meter->add(run_calibration_slice());
            rec.rebase(key);
        }
    };
    return hooks;
}

/// One in-process campaign service session: a coordinator on an
/// ephemeral loopback port and `service_workers` worker threads, each
/// grading its leases with `grid.threads` compute threads.
struct service_session {
    campaign_result result;
    campaign::service::ledger_stats leases;
    double wall_s = 0.0;
    double first_row_s = 0.0; ///< serve() start to the first row received
    double tail_s = 0.0;      ///< last row received to serve() returning
};

service_session serve_once(const campaign_config& grid,
                           latency_recorder& rec,
                           speed_meter* meter = nullptr) {
    namespace svc_ns = campaign::service;
    service_session out;
    const std::int64_t t0 = now_ns();
    svc_ns::service_config svc;
    svc.host = "127.0.0.1";
    svc.port = 0;
    auto coord = std::make_unique<svc_ns::coordinator>(grid, svc);
    svc.port = coord->port();

    std::vector<std::exception_ptr> worker_errors(service_workers);
    std::vector<std::thread> workers;
    for (unsigned i = 0; i < service_workers; ++i)
        workers.emplace_back([&, i] {
            try {
                (void)svc_ns::run_worker(grid, svc);
            } catch (...) {
                worker_errors[i] = std::current_exception();
            }
        });
    rec.restart();
    std::exception_ptr serve_error;
    try {
        const scoped_span span("service.serve");
        const std::int64_t serve_start = now_ns();
        svc_ns::service_report rep =
            coord->serve(thread_keyed_hooks(rec, meter));
        const std::int64_t served = now_ns();
        out.first_row_s =
            1e-9 * static_cast<double>(rec.run_first_ns() - serve_start);
        out.tail_s = 1e-9 * static_cast<double>(served - rec.last_ns());
        out.result = std::move(rep.result);
        out.leases = rep.leases;
    } catch (...) {
        serve_error = std::current_exception();
    }
    coord.reset(); // closes the listener, so a blocked worker gives up
    for (auto& w : workers)
        w.join();
    out.wall_s = seconds_since(t0);
    if (serve_error)
        std::rethrow_exception(serve_error);
    for (const auto& e : worker_errors)
        if (e)
            std::rethrow_exception(e);
    return out;
}

/// Graded passes of a pooled, store or service workload until `rule`
/// says stop.  A store pass is an exact rerun followed by a retune rerun.
/// With a `meter`, graded scenarios are interleaved with calibration
/// slices (see thread_keyed_hooks).
phase_result run_passes(const context& ctx, gate& g, const stop_rule& rule,
                        latency_recorder& rec, speed_meter* meter = nullptr) {
    if (ctx.k == kind::lanes)
        return run_lanes(ctx, g, rule, rec, meter);

    phase_result ph;
    const std::int64_t t0 = now_ns();
    const double cpu0 = process_cpu_s();
    // The store's warm scenarios take milliseconds, so it calibrates on
    // every eighth of them only.
    const unsigned every = ctx.k == kind::store ? 8 : 1;
    // The store's exact reruns are hits of about a millisecond each; their
    // gaps are kept apart, so the latency percentiles describe the retune
    // reruns alone instead of falling between the two.
    latency_recorder hits;
    for (;;) {
        campaign_result r;
        campaign_config cfg = ctx.grid;
        if (ctx.k == kind::service) {
            service_session s = serve_once(ctx.grid, rec, meter);
            if (ph.passes == 0) {
                ph.first_row_s = s.first_row_s;
                ph.tail_s = s.tail_s;
            }
            ph.leases += s.leases.leases;
            ph.requeues += s.leases.requeues;
            r = std::move(s.result);
        } else {
            latency_recorder& pass_rec = ctx.k == kind::store ? hits : rec;
            if (ctx.k == kind::store)
                cfg.stage_store_dir = ctx.store_dir;
            pass_rec.restart();
            const scoped_span span("campaign.run");
            r = campaign::campaign_runner(cfg).run(
                thread_keyed_hooks(pass_rec, meter, every));
            if (ph.passes == 0)
                ph.first_verdict_s =
                    1e-9 * static_cast<double>(pass_rec.first_ns() - t0);
        }
        add_campaign_fields(ph, r);
        if (ph.passes == 0 && ctx.k == kind::service)
            ph.first_verdict_s =
                1e-9 * static_cast<double>(rec.first_ns() - t0);
        g.check_pass(r);
        ph.scenarios += r.results.size();
        if (ctx.k == kind::store) {
            // Retune: a negligible change to the EVM limit moves every
            // grading digest, so grading recomputes from the stored
            // reconstructions and publishes new entries.
            cfg.base.evm_limit_percent +=
                1e-9 * static_cast<double>(ph.passes + 1);
            rec.restart();
            const scoped_span span("campaign.run");
            campaign_result rt =
                campaign::campaign_runner(cfg).run(
                    thread_keyed_hooks(rec, meter, every));
            add_campaign_fields(ph, rt);
            g.check_pass(rt);
            ph.scenarios += rt.results.size();
        }
        if (ph.passes++ == 0)
            ph.first = std::move(r);
        bool capped = false;
        if (rule.done(seconds_since(t0), rec.samples(), ph.passes,
                      &capped)) {
            ph.hit_time_cap = capped;
            break;
        }
    }
    ph.wall_s = seconds_since(t0);
    ph.cpu_s = process_cpu_s() - cpu0;
    if (meter != nullptr) {
        // The slices ran beside one another, about one per compute thread.
        ph.calib_wall_s = 1e-3 * meter->total_wall_ms() / pass_threads(ctx);
        ph.calib_cpu_s = 1e-3 * meter->total_cpu_ms();
    }
    return ph;
}

/// Everything before the first timed pass; returns its wall time.
/// lanes/pooled: grid expansion, every scenario's engine config and the
/// warm-up scenario.  store: grid expansion, configs and the cold store
/// fill (which writes every stage entry).  service: grid expansion,
/// configs, the coordinator bind, both workers' handshakes and a warm-up
/// session grading the warm-up scenario.
double setup_once(context& ctx, gate& g, int rep) {
    const std::int64_t t0 = now_ns();
    const auto grid = campaign::expand_grid(ctx.grid);
    for (const auto& sc : grid)
        (void)campaign::scenario_config(ctx.grid, sc);
    switch (ctx.k) {
    case kind::lanes:
    case kind::pooled:
        g.check_rows(campaign::campaign_runner(ctx.warmup).run().results,
                     false);
        break;
    case kind::store: {
        const std::string dir =
            (fs::path(ctx.work_dir) / ("store-" + std::to_string(rep)))
                .string();
        fs::remove_all(dir);
        campaign_config cfg = ctx.grid;
        cfg.stage_store_dir = dir;
        g.check_pass(campaign::campaign_runner(cfg).run());
        if (!ctx.store_dir.empty())
            fs::remove_all(ctx.store_dir);
        ctx.store_dir = dir;
        break;
    }
    case kind::service: {
        latency_recorder unused;
        g.check_rows(serve_once(ctx.warmup, unused).result.results, false);
        break;
    }
    }
    return seconds_since(t0);
}

// ---------------------------------------------------------------------------
// Traced run: stage replay, store round, service session
// ---------------------------------------------------------------------------

void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn) {
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::exception_ptr error;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&] {
            for (std::size_t i; (i = next.fetch_add(1)) < n;) {
                try {
                    fn(i);
                } catch (...) {
                    const std::lock_guard<std::mutex> lock(mu);
                    if (!error)
                        error = std::current_exception();
                }
            }
        });
    for (auto& t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

/// One scenario's stage outputs as the replay produced them.
struct replayed {
    bist::bist_config cfg;
    std::shared_ptr<const bist::stimulus_output> stim;
    std::shared_ptr<const bist::tx_capture_output> cap;
    std::shared_ptr<const bist::calibration_output> cal;
    std::shared_ptr<const bist::reconstruction_output> recon;
    std::shared_ptr<const bist::grading_output> grade;
};

/// Replay the workload's grid stage by stage through the traced stage
/// replicas.  Stimulus and tx_capture outputs are shared exactly where
/// the campaign's stage pool shares them (equal input digests), so the
/// replay does the work the campaign did.
std::vector<replayed> replay_grid(const context& ctx, unsigned threads,
                                  double& wall_s) {
    const auto grid = campaign::expand_grid(ctx.grid);
    std::vector<replayed> rows(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        rows[i].cfg = campaign::scenario_config(ctx.grid, grid[i]);
    const bool sharing = ctx.grid.stage_sharing.has_value();

    const std::int64_t t0 = now_ns();
    // Distinct stimuli first (shared across faults and trials).
    std::map<std::uint64_t, std::shared_ptr<const bist::stimulus_output>>
        stimuli;
    std::vector<std::size_t> stim_owner;
    std::vector<std::vector<std::size_t>> groups;
    {
        std::map<std::uint64_t, std::size_t> group_of;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const auto sd =
                bist::stage_input_digest(rows[i].cfg, bist::stage::stimulus);
            if (sharing && stimuli.emplace(sd, nullptr).second)
                stim_owner.push_back(i);
            const auto td = bist::stage_input_digest(rows[i].cfg,
                                                     bist::stage::tx_capture);
            if (!sharing) {
                groups.push_back({i});
            } else if (const auto it = group_of.find(td);
                       it != group_of.end()) {
                groups[it->second].push_back(i);
            } else {
                group_of.emplace(td, groups.size());
                groups.push_back({i});
            }
        }
    }
    std::mutex mu;
    parallel_for(stim_owner.size(), threads, [&](std::size_t j) {
        const std::size_t i = stim_owner[j];
        const scenario_scope scope(static_cast<std::int64_t>(i));
        auto out = std::make_shared<const bist::stimulus_output>(
            traced_stimulus(rows[i].cfg));
        const std::lock_guard<std::mutex> lock(mu);
        stimuli[bist::stage_input_digest(rows[i].cfg,
                                         bist::stage::stimulus)] =
            std::move(out);
    });
    parallel_for(groups.size(), threads, [&](std::size_t gi) {
        const auto& group = groups[gi];
        const std::size_t lead = group.front();
        std::shared_ptr<const bist::stimulus_output> stim;
        std::shared_ptr<const bist::tx_capture_output> cap;
        {
            const scenario_scope scope(static_cast<std::int64_t>(lead));
            if (sharing) {
                const std::lock_guard<std::mutex> lock(mu);
                stim = stimuli.at(bist::stage_input_digest(
                    rows[lead].cfg, bist::stage::stimulus));
            } else {
                stim = std::make_shared<const bist::stimulus_output>(
                    traced_stimulus(rows[lead].cfg));
            }
            cap = std::make_shared<const bist::tx_capture_output>(
                traced_tx_capture(rows[lead].cfg, *stim));
        }
        for (const std::size_t i : group) {
            replayed& row = rows[i];
            row.stim = stim;
            row.cap = cap;
            if (!cap->dual_rate_conditions_ok)
                continue; // the session halts after tx_capture
            const scenario_scope scope(static_cast<std::int64_t>(i));
            row.cal = std::make_shared<const bist::calibration_output>(
                traced_calibration(row.cfg, *cap));
            row.recon = std::make_shared<const bist::reconstruction_output>(
                traced_reconstruction(row.cfg, *stim, *cap, *row.cal));
            row.grade = std::make_shared<const bist::grading_output>(
                traced_grading(row.cfg, *stim, *row.recon));
        }
    });
    wall_s = seconds_since(t0);
    return rows;
}

/// The replay must reproduce the campaign bit for bit: same verdict, EVM
/// and worst mask margin for every scenario.
void check_replay(const std::vector<replayed>& rows,
                  const campaign_result& pass, gate& g) {
    if (pass.results.size() != rows.size()) {
        g.fail(rows.size(), "replay and campaign pass differ in size");
        return;
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = pass.results[i];
        const auto& row = rows[i];
        bool flagged = true;
        double evm = 0.0;
        double mask = 0.0;
        if (row.grade) {
            flagged = !(row.cal->skew.converged && row.grade->mask.pass &&
                        row.grade->evm_pass && row.grade->power_pass &&
                        row.grade->acpr_pass);
            evm = row.grade->evm.evm_percent();
            mask = row.grade->mask.worst_margin_db;
        }
        if (r.engine_error || flagged != r.flagged() ||
            evm != r.report.evm.evm_percent() ||
            mask != r.report.mask.worst_margin_db)
            g.fail(1, "traced replay of scenario " + std::to_string(i) +
                          " differs from the campaign's result");
    }
}

/// Spans around every call the bist layer makes into the store.
class traced_store final : public bist::stage_snapshot_store {
public:
    explicit traced_store(bist::stage_snapshot_store& inner) : s_(inner) {}

    std::shared_ptr<const bist::stimulus_output>
    load_stimulus(std::uint64_t d) override {
        const scoped_span span("store.load");
        return s_.load_stimulus(d);
    }
    std::shared_ptr<const bist::tx_capture_output>
    load_tx_capture(std::uint64_t d) override {
        const scoped_span span("store.load");
        return s_.load_tx_capture(d);
    }
    std::shared_ptr<const bist::calibration_output>
    load_calibration(std::uint64_t d) override {
        const scoped_span span("store.load");
        return s_.load_calibration(d);
    }
    std::shared_ptr<const bist::reconstruction_output>
    load_reconstruction(std::uint64_t d) override {
        const scoped_span span("store.load");
        return s_.load_reconstruction(d);
    }
    std::shared_ptr<const bist::grading_output>
    load_grading(std::uint64_t d) override {
        const scoped_span span("store.load");
        return s_.load_grading(d);
    }
    void store_stimulus(std::uint64_t d,
                        const bist::stimulus_output& o) override {
        const scoped_span span("store.publish");
        s_.store_stimulus(d, o);
    }
    void store_tx_capture(std::uint64_t d,
                          const bist::tx_capture_output& o) override {
        const scoped_span span("store.publish");
        s_.store_tx_capture(d, o);
    }
    void store_calibration(std::uint64_t d,
                           const bist::calibration_output& o) override {
        const scoped_span span("store.publish");
        s_.store_calibration(d, o);
    }
    void store_reconstruction(std::uint64_t d,
                              const bist::reconstruction_output& o) override {
        const scoped_span span("store.publish");
        s_.store_reconstruction(d, o);
    }
    void store_grading(std::uint64_t d,
                       const bist::grading_output& o) override {
        const scoped_span span("store.publish");
        s_.store_grading(d, o);
    }

private:
    bist::stage_snapshot_store& s_;
};

struct store_numbers {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t bytes_served = 0;
    double raw_bytes = 0.0;
    double payload_bytes = 0.0;
};

/// The store_regrade pattern on the replayed outputs: cold fill (publish
/// every distinct stage output), an exact rerun (every stage adopted) and
/// a retune rerun (grading misses, recomputes from the stored
/// reconstruction and publishes).
store_numbers store_round(const context& ctx,
                          const std::vector<replayed>& rows, gate& g) {
    const fs::path dir = fs::path(ctx.work_dir) / "trace-store";
    fs::remove_all(dir);
    campaign::stage_artefact_store st(dir.string());
    traced_store ts(st);
    using bist::stage;

    std::set<std::pair<int, std::uint64_t>> published;
    auto fresh = [&](const bist::bist_config& c, stage s) {
        const std::uint64_t d = bist::stage_input_digest(c, s);
        return std::make_pair(published.emplace(stage_index(s), d).second, d);
    };
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i];
        const scenario_scope scope(static_cast<std::int64_t>(i));
        if (auto [is_new, d] = fresh(r.cfg, stage::stimulus); is_new)
            ts.store_stimulus(d, *r.stim);
        if (auto [is_new, d] = fresh(r.cfg, stage::tx_capture); is_new)
            ts.store_tx_capture(d, *r.cap);
        if (!r.grade)
            continue;
        if (auto [is_new, d] = fresh(r.cfg, stage::calibration); is_new)
            ts.store_calibration(d, *r.cal);
        if (auto [is_new, d] = fresh(r.cfg, stage::reconstruction); is_new)
            ts.store_reconstruction(d, *r.recon);
        if (auto [is_new, d] = fresh(r.cfg, stage::grading); is_new)
            ts.store_grading(d, *r.grade);
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const scenario_scope scope(static_cast<std::int64_t>(i));
        const std::size_t want = rows[i].grade ? 5 : 2;
        bist::bist_session session(rows[i].cfg);
        const scoped_span span("store.exact");
        if (session.adopt_from_store(ts) != want)
            g.fail(1, "store round: exact rerun of scenario " +
                          std::to_string(i) + " missed the store");
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!rows[i].grade)
            continue;
        const scenario_scope scope(static_cast<std::int64_t>(i));
        bist::bist_config cfg = rows[i].cfg;
        cfg.evm_limit_percent += 1e-9;
        bist::bist_session session(cfg);
        const scoped_span span("store.retune");
        if (session.adopt_from_store(ts) != 4)
            g.fail(1, "store round: retune of scenario " +
                          std::to_string(i) + " did not reuse upstream");
        {
            const scoped_span regrade("store.regrade");
            session.run();
        }
        session.publish_to_store(ts, stage::grading);
        if (session.grading().evm.evm_percent() !=
            rows[i].grade->evm.evm_percent())
            g.fail(1, "store round: regraded EVM of scenario " +
                          std::to_string(i) + " differs");
    }

    store_numbers out;
    out.hits = st.hits();
    out.misses = st.misses();
    out.bytes_served = st.bytes_served();
    for (const auto& e : fs::directory_iterator(dir)) {
        if (e.path().extension() != ".sab")
            continue;
        std::ifstream in(e.path(), std::ios::binary);
        std::string header;
        std::getline(in, header);
        const auto h = campaign::parse_json(header);
        out.raw_bytes += h.at("raw_bytes").as_number();
        out.payload_bytes += h.at("payload_bytes").as_number();
    }
    return out;
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

void add(bench_result& out, const std::string& name, double value,
         const std::string& unit) {
    out.metrics.push_back(metric{name, value, unit});
}

std::string num(double v) { return campaign::json_number(v); }

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// A timed run reports the times of its timed phase at the reference host
/// speed (see calibration.hpp), scaled by the calibration slices
/// interleaved with its scenarios; the record line keeps the measured
/// values and the factors.  setup_s is not scaled: setups are short, and
/// the service's is mostly a poll sleep, which no host speed changes.
bench_result timed_run(context& ctx, gate& g, const bench_options& opt) {
    std::vector<double> setups;
    const int repeats =
        ctx.k == kind::store ? store_setup_repeats : setup_repeats;
    for (int rep = 0; rep < repeats; ++rep)
        setups.push_back(setup_once(ctx, g, rep));

    latency_recorder rec;
    speed_meter meter;
    stop_rule rule;
    rule.seconds = opt.seconds;
    rule.min_samples = opt.smoke ? 0 : min_latency_samples;
    const phase_result ph = run_passes(ctx, g, rule, rec, &meter);
    const std::vector<double> gaps = rec.gaps_ms();
    const double wall_s = ph.wall_s - ph.calib_wall_s;
    const double cpu_s = ph.cpu_s - ph.calib_cpu_s;
    // The service's compute threads are inside run_worker, so its slices
    // run on the coordinator's connection threads, which sleep between
    // rows; their wall time picks up wake-up delays the compute threads
    // never see.  Its wall times are scaled by the CPU factor instead.
    const double fc = meter.cpu_factor();
    const double fw = ctx.k == kind::service ? fc : meter.wall_factor();

    bench_result out;
    const auto n = static_cast<double>(ph.scenarios);
    add(out, "scenarios_per_s", n / (wall_s * fw), "1/s");
    add(out, "verdict_latency_p50_ms", quantile(gaps, 0.5) * fw, "ms");
    add(out, "verdict_latency_p90_ms", quantile(gaps, 0.9) * fw, "ms");
    add(out, "cpu_s_per_scenario", cpu_s * fc / n, "s");
    add(out, "setup_s", median(setups), "s");
    add(out, "peak_rss_mb", peak_rss_mb(), "MB");
    add(out, "fault_coverage", ph.first.coverage(), "fraction");
    add(out, "golden_yield", ph.first.yield(), "fraction");

    auto list = [](const std::vector<double>& v) {
        std::string s = "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i > 0)
                s += ',';
            s += num(v[i]);
        }
        return s + "]";
    };
    const std::string measured =
        "{\"scenarios_per_s\":" + num(n / wall_s) +
        ",\"verdict_latency_p50_ms\":" + num(quantile(gaps, 0.5)) +
        ",\"verdict_latency_p90_ms\":" + num(quantile(gaps, 0.9)) +
        ",\"cpu_s_per_scenario\":" + num(cpu_s / n) + "}";
    out.record = {
        {"latency_samples", std::to_string(gaps.size())},
        {"passes", std::to_string(ph.passes)},
        {"timed_wall_s", num(ph.wall_s)},
        {"calibration_wall_s", num(ph.calib_wall_s)},
        {"calibration_slices", std::to_string(meter.slices())},
        {"wall_factor", num(meter.wall_factor())},
        {"cpu_factor", num(fc)},
        {"wall_times_scaled_by", ctx.k == kind::service
                                     ? "\"cpu_factor\""
                                     : "\"wall_factor\""},
        {"measured", measured},
        {"setup_runs_s", list(setups)},
        {"hit_time_cap", ph.hit_time_cap ? "true" : "false"},
    };
    return out;
}

bench_result traced_run(context& ctx, gate& g, const bench_options& opt) {
    (void)setup_once(ctx, g, 0);
    trace::enable();

    // 1. One campaign pass, with the library's own counters collecting
    //    (the scheduler's steal count is only kept while they are on).
    telemetry::reset();
    telemetry::enable(false);
    latency_recorder rec;
    stop_rule one_pass;
    one_pass.max_passes = 1;
    phase_result pass;
    {
        const scoped_span span("campaign.pass");
        pass = run_passes(ctx, g, one_pass, rec);
    }
    telemetry::disable();
    const double steals = static_cast<double>(
        telemetry::counters()[static_cast<std::size_t>(
            telemetry::counter::sched_steals)]);
    std::vector<double> export_ms;
    for (int rep = 0; rep < 3; ++rep) {
        const scoped_span span("export.json");
        const std::int64_t t = now_ns();
        campaign::export_options eo;
        eo.include_timing = false;
        (void)campaign::to_json(pass.first, eo);
        export_ms.push_back(1e-6 * static_cast<double>(now_ns() - t));
    }

    // 2. Stage replay with layer spans, checked against the pass.
    double replay_wall_s = 0.0;
    std::vector<replayed> rows;
    {
        const scoped_span span("replay");
        // On as many threads as the untraced run it is compared with.
        rows = replay_grid(ctx,
                           ctx.k == kind::service ? pass_threads(ctx)
                                                  : opt.threads,
                           replay_wall_s);
    }
    check_replay(rows, pass.first, g);

    // 3. Store round on the replayed outputs.
    store_numbers st;
    {
        const scoped_span span("store.round");
        st = store_round(ctx, rows, g);
    }
    rows.clear();

    // 4. Service session vs a local campaign pass of the same grid.
    double service_wall = 0.0;
    double local_wall = 0.0;
    phase_result svc;
    if (ctx.k == kind::service) {
        svc = pass;
        service_wall = pass.wall_s;
        context local = ctx;
        local.k = kind::pooled;
        local.grid.threads = pass_threads(ctx);
        latency_recorder local_rec;
        local_wall = run_passes(local, g, one_pass, local_rec).wall_s;
    } else {
        context remote = ctx;
        remote.k = kind::service;
        // As many compute threads as the local pass it is compared with.
        remote.grid.threads = std::max(1u, opt.threads / service_workers);
        latency_recorder svc_rec;
        svc = run_passes(remote, g, one_pass, svc_rec);
        service_wall = svc.wall_s;
        local_wall = pass.wall_s;
        if (ctx.k == kind::store) {
            // The store's pass grades from a warm store on one thread; the
            // service computes, so compare with a cold local pass on as
            // many threads as the service has.
            context local = ctx;
            local.k = kind::pooled;
            local.grid.threads = opt.threads;
            latency_recorder local_rec;
            local_wall = run_passes(local, g, one_pass, local_rec).wall_s;
        }
    }
    trace::disable();

    const auto spans = trace::spans();
    const auto agg = trace::aggregate(spans);
    const auto counts = trace::counts();
    auto total = [&](const std::string& name) {
        const auto it = agg.find(name);
        return it == agg.end() ? 0.0 : it->second.total_ms;
    };
    auto calls = [&](const std::string& name) {
        const auto it = agg.find(name);
        return it == agg.end() ? 0.0 : static_cast<double>(it->second.calls);
    };
    auto per_call = [&](const std::string& name) {
        return calls(name) > 0 ? total(name) / calls(name) : 0.0;
    };
    auto count = [&](const std::string& name) {
        const auto it = counts.find(name);
        return it == counts.end() ? 0.0 : it->second;
    };
    // A layer's time per executed stage of the stage that calls it.
    auto per_stage = [&](const std::string& layer, const std::string& st) {
        return calls(st) > 0 ? total(layer) / calls(st) : 0.0;
    };

    bench_result out;
    for (const char* s : {"stimulus", "tx_capture", "calibration",
                          "reconstruction", "grading"}) {
        const std::string name = std::string("bist.") + s;
        add(out, name + ".ms", per_call(name), "ms");
        const auto it = agg.find(name);
        add(out, name + ".other.ms",
            it == agg.end() ? 0.0
                            : it->second.self_ms /
                                  static_cast<double>(it->second.calls),
            "ms");
    }
    add(out, "adc.capture.ms",
        per_stage("adc.capture", "bist.reconstruction"), "ms");
    add(out, "adc.capture.samples", count("adc.capture.samples"), "count");
    add(out, "adc.estimation_capture.ms",
        per_stage("adc.estimation_capture", "bist.tx_capture"), "ms");
    add(out, "adc.estimation_capture.samples",
        count("adc.estimation_capture.samples"), "count");
    add(out, "sampling.pnbs.uniform.ms",
        per_stage("sampling.pnbs.uniform", "bist.reconstruction"), "ms");
    add(out, "sampling.pnbs.points", count("sampling.pnbs.points"), "count");
    add(out, "sampling.pnbs.ns_per_point",
        1e6 * total("sampling.pnbs.uniform") /
            std::max(1.0, count("sampling.pnbs.points")),
        "ns/point");
    add(out, "dsp.ddc.ms", per_stage("dsp.ddc", "bist.reconstruction"), "ms");
    add(out, "dsp.ddc.in_samples", count("dsp.ddc.in_samples"), "count");
    add(out, "dsp.ddc.out_samples", count("dsp.ddc.out_samples"), "count");
    add(out, "dsp.ddc.kept_ratio",
        count("dsp.ddc.out_samples") /
            std::max(1.0, count("dsp.ddc.in_samples")),
        "ratio");
    add(out, "dsp.welch.ms", per_stage("dsp.welch", "bist.grading"), "ms");
    add(out, "calib.lms.ms", per_stage("calib.lms", "bist.calibration"),
        "ms");
    add(out, "calib.lms.iterations", count("calib.lms.iterations"), "count");
    add(out, "calib.lms.cost_evals", count("calib.lms.cost_evals"), "count");
    add(out, "calib.lms.ms_per_eval",
        total("calib.lms") / std::max(1.0, count("calib.lms.cost_evals")),
        "ms/eval");
    add(out, "waveform.generate.ms",
        per_stage("waveform.generate", "bist.stimulus"), "ms");
    add(out, "rf.transmit.ms", per_stage("rf.transmit", "bist.tx_capture"),
        "ms");
    add(out, "waveform.mask.ms", per_stage("waveform.mask", "bist.grading"),
        "ms");
    add(out, "waveform.evm.ms", per_stage("waveform.evm", "bist.grading"),
        "ms");
    add(out, "waveform.acpr.ms", per_stage("waveform.acpr", "bist.grading"),
        "ms");

    add(out, "campaign.busy_frac",
        pass.scenario_cpu_s / (pass_threads(ctx) * pass.wall_s), "ratio");
    add(out, "campaign.stage_pool.reuse_ratio",
        pass.reuse_hits + pass.reuse_computes == 0
            ? 0.0
            : static_cast<double>(pass.reuse_hits) /
                  static_cast<double>(pass.reuse_hits + pass.reuse_computes),
        "ratio");
    add(out, "campaign.sched.steals", steals, "count");
    add(out, "campaign.first_verdict_s", pass.first_verdict_s, "s");

    add(out, "store.load.ms", per_call("store.load"), "ms");
    add(out, "store.publish.ms", per_call("store.publish"), "ms");
    add(out, "store.hit_ratio",
        static_cast<double>(st.hits) /
            static_cast<double>(std::max<std::uint64_t>(1, st.hits + st.misses)),
        "ratio");
    add(out, "store.bytes_per_hit",
        static_cast<double>(st.bytes_served) /
            static_cast<double>(std::max<std::uint64_t>(1, st.hits)),
        "bytes/hit");
    add(out, "store.compress_ratio",
        st.raw_bytes / std::max(1.0, st.payload_bytes), "ratio");
    add(out, "export.json.ms", median(export_ms), "ms");

    add(out, "service.first_row_s", svc.first_row_s, "s");
    add(out, "service.tail_s", svc.tail_s, "s");
    add(out, "service.leases", static_cast<double>(svc.leases), "count");
    add(out, "service.requeues", static_cast<double>(svc.requeues), "count");
    add(out, "service.overhead_frac", service_wall / local_wall - 1.0,
        "ratio");
    // The untraced run of the same stage work: the pass itself, or the
    // local pass for the service and store workloads.
    const double untraced_wall = local_wall;
    add(out, "trace.overhead_frac", replay_wall_s / untraced_wall - 1.0,
        "ratio");

    std::string self = "{";
    for (const auto& [name, t] : agg)
        self += (self.size() > 1 ? "," : "") + campaign::json_quote(name) +
                ":{\"calls\":" + std::to_string(t.calls) +
                ",\"total_ms\":" + num(t.total_ms) +
                ",\"self_ms\":" + num(t.self_ms) + "}";
    out.record = {
        {"replay_wall_s", num(replay_wall_s)},
        {"untraced_wall_s", num(untraced_wall)},
        {"spans", self + "}"},
    };
    if (!opt.trace_out.empty()) {
        fs::create_directories(fs::path(opt.trace_out).parent_path());
        std::ofstream f(opt.trace_out, std::ios::binary);
        f << trace::chrome_trace_json(spans, "{\"workload\":" +
                                                 campaign::json_quote(ctx.name) +
                                                 "}");
        out.record.emplace_back("trace_file",
                                campaign::json_quote(opt.trace_out));
    }
    return out;
}

} // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names{
        "catalogue_cold", "probe_campaign", "store_regrade",
        "service_loopback"};
    return names;
}

bench_result run_benchmark(const bench_options& opt) {
    context ctx;
    ctx.name = opt.workload;
    ctx.k = kind_of(opt.workload);
    ctx.threads = opt.threads;
    ctx.grid = make_grid(opt.workload, opt.seed, opt.smoke, opt.threads);
    ctx.warmup = make_grid(opt.workload, 0, opt.smoke, opt.threads);
    ctx.warmup.presets = {ctx.grid.presets.front()};
    ctx.warmup.faults = {bist::fault_kind::none};
    ctx.warmup.trials = 1;
    ctx.work_dir = opt.work_dir;
    fs::remove_all(ctx.work_dir);
    fs::create_directories(ctx.work_dir);

    gate g(load_reference(opt.reference), opt.seed, !opt.smoke);
    bench_result out = opt.trace ? traced_run(ctx, g, opt)
                                 : timed_run(ctx, g, opt);
    fs::remove_all(ctx.work_dir);

    out.attempted = g.attempted();
    out.failed = std::min(g.failed(), g.attempted());
    out.notes = g.notes();
    auto opt_num = [](const std::optional<double>& v) {
        return v ? num(*v) : std::string("null");
    };
    const auto exp = g.export_matches_reference();
    out.record.emplace_back("error_rate",
                            num(static_cast<double>(out.failed) /
                                static_cast<double>(
                                    std::max<std::size_t>(1, out.attempted))));
    out.record.emplace_back("max_abs_delta_evm_percent",
                            opt_num(g.max_abs_delta_evm()));
    out.record.emplace_back("max_abs_delta_mask_db",
                            opt_num(g.max_abs_delta_mask_db()));
    out.record.emplace_back("export_matches_reference",
                            exp ? (*exp ? "true" : "false") : "null");
    return out;
}

bool record_reference(const std::string& workload,
                      const std::vector<std::uint64_t>& seeds,
                      unsigned threads, const std::string& recorded_from,
                      const std::string& path) {
    reference ref;
    ref.workload = workload;
    ref.recorded_from = recorded_from;
    bool ok = true;
    for (std::size_t k = 0; k < seeds.size(); ++k) {
        campaign_config cfg = make_grid(workload, seeds[k], false, threads);
        cfg.threads = threads;
        const campaign_result r = campaign::campaign_runner(cfg).run();
        seed_detail detail;
        detail.export_digest = export_digest(r);
        for (const auto& row : r.results) {
            if (row.engine_error) {
                std::cerr << "seed " << seeds[k] << " scenario "
                          << row.sc.index << ": engine error " << row.error
                          << "\n";
                ok = false;
            }
            const std::string key =
                cell_key(row.sc.preset_name, bist::to_string(row.sc.fault));
            const auto [it, fresh] =
                ref.cell_flagged.emplace(key, row.flagged());
            if (!fresh && it->second != row.flagged()) {
                std::cerr << "cell " << key << ": verdict depends on the "
                          << "seed or trial (seed " << seeds[k] << ")\n";
                ok = false;
            }
            detail.evm_percent.push_back(row.report.evm.evm_percent());
            detail.mask_margin_db.push_back(row.report.mask.worst_margin_db);
        }
        if (k == 0) {
            ref.golden_yield = r.yield();
            ref.fault_coverage = r.coverage();
        }
        ref.seeds[seeds[k]] = std::move(detail);
        std::cerr << workload << " seed " << seeds[k] << ": "
                  << r.results.size() << " scenarios, coverage "
                  << r.coverage() << ", yield " << r.yield() << "\n";
    }
    if (!ok)
        return false;
    std::ofstream f(path, std::ios::binary);
    f << reference_json(ref);
    return static_cast<bool>(f);
}

} // namespace perfbench
