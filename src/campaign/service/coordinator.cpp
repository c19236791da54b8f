#include "campaign/service/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/service/protocol.hpp"
#include "campaign/shard_io.hpp"
#include "core/contracts.hpp"
#include "core/fault_injection.hpp"

namespace sdrbist::campaign::service {

namespace {

/// Longest a request that cannot be granted is held before it is answered
/// `wait`: well inside the worker's recv bound (at least 5 s), and short
/// enough that a held handler whose worker died notices within a second.
constexpr double max_hold_s = 1.0;

std::string simple_msg(const char* type) {
    json_object_writer o;
    o.string_field("type", type);
    return o.str();
}

std::string error_msg(const std::string& what) {
    json_object_writer o;
    o.string_field("type", "error");
    o.string_field("what", what);
    return o.str();
}

} // namespace

struct coordinator::impl {
    campaign_config config;
    service_config svc;
    std::string identity;
    std::size_t grid_size = 0;
    lease_ledger ledger;
    tcp_listener listener;

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> next_owner{0};
    std::atomic<std::size_t> workers_seen{0};
    std::atomic<std::size_t> dropped{0};

    std::mutex results_mu;
    std::vector<std::optional<campaign_result>> lease_results;
    std::vector<char> row_seen; ///< first-wins dedupe for hooks.on_scenario

    std::mutex reaper_mu;
    std::condition_variable reaper_cv;

    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();

    impl(campaign_config grid, service_config s)
        : config(std::move(grid)),
          svc(s),
          identity(campaign_identity(config)),
          grid_size(expand_grid(config).size()),
          ledger(grid_size, s.lease_size),
          listener(s.host, s.port),
          lease_results(ledger.lease_count()),
          row_seen(grid_size, 0) {}

    [[nodiscard]] double now_s() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             epoch)
            .count();
    }

    /// The grid is complete: stop the reaper, and shut the listener down
    /// (without closing it, so no fd is reused while accept() reads it)
    /// to wake the accept loop at once.
    void finish() {
        done.store(true, std::memory_order_release);
        listener.shutdown();
        reaper_cv.notify_all();
    }

    /// Periodically re-queue grants whose heartbeats lapsed — the slow
    /// detection path, for workers that wedge without dropping the
    /// connection.  (A dead connection re-queues immediately instead.)
    void reap() {
        std::unique_lock<std::mutex> lock(reaper_mu);
        const auto period = std::chrono::duration<double>(
            std::max(svc.timeout() / 4.0, 0.05));
        while (!done.load(std::memory_order_acquire)) {
            reaper_cv.wait_for(lock, period);
            ledger.requeue_lapsed(now_s(), svc.timeout());
        }
    }

    /// Validate that an incoming lease result is exactly the granted
    /// slice: the right row count, every index inside the range.
    [[nodiscard]] bool lease_result_ok(std::size_t lease,
                                       const campaign_result& r) const {
        if (lease >= ledger.lease_count() || r.grid_size != grid_size)
            return false;
        const lease_range range = ledger.range_of(lease);
        if (r.results.size() != range.size())
            return false;
        for (const auto& row : r.results)
            if (!range.contains(row.sc.index))
                return false;
        return true;
    }

    void handle(tcp_socket sock, const run_hooks& hooks) {
        const std::uint64_t owner = next_owner.fetch_add(1) + 1;
        // Bound every recv so a silent peer cannot pin this thread (and
        // the final join) forever.
        sock.set_recv_timeout(std::max(2.0 * svc.timeout(), 2.0));
        bool welcomed = false;
        try {
            for (;;) {
                const json_value msg = recv_message(sock);
                const std::string type = msg.at("type").as_string();

                if (type == "hello") {
                    if (msg.at("protocol_version").as_size() !=
                        static_cast<std::size_t>(protocol_version)) {
                        send_frame(sock,
                                   error_msg("protocol version mismatch"));
                        return;
                    }
                    if (msg.at("identity").as_string() != identity) {
                        send_frame(
                            sock,
                            error_msg("campaign identity mismatch: the "
                                      "worker grid flags differ from the "
                                      "coordinator's"));
                        return;
                    }
                    welcomed = true;
                    workers_seen.fetch_add(1, std::memory_order_relaxed);
                    json_object_writer o;
                    o.string_field("type", "welcome");
                    o.size_field("protocol_version",
                                 static_cast<std::size_t>(protocol_version));
                    o.size_field("grid_size", grid_size);
                    o.size_field("lease_count", ledger.lease_count());
                    // The beat cadence is the coordinator's to dictate:
                    // its reaper times out at 3 × this, so workers must
                    // not rely on their own --heartbeat-s matching.
                    o.number_field("heartbeat_s", svc.heartbeat_s);
                    send_frame(sock, o.str());
                    continue;
                }
                if (!welcomed) {
                    send_frame(sock, error_msg("hello required first"));
                    return;
                }

                if (type == "request") {
                    // Held until a lease frees or the grid completes, so
                    // neither end polls.
                    if (const auto g = ledger.await_grant(
                            owner, [this] { return now_s(); },
                            max_hold_s)) {
                        json_object_writer o;
                        o.string_field("type", "lease");
                        o.size_field("lease", g->lease);
                        o.size_field("generation",
                                     static_cast<std::size_t>(g->generation));
                        o.size_field("begin", g->range.begin);
                        o.size_field("end", g->range.end);
                        send_frame(sock, o.str());
                    } else if (ledger.all_complete()) {
                        // The worker disconnects; recv EOFs us out.
                        send_frame(sock, simple_msg("done"));
                    } else {
                        // The hold ran out with everything outstanding
                        // granted elsewhere; the worker asks again at once.
                        send_frame(sock, simple_msg("wait"));
                    }
                    continue;
                }

                const std::size_t lease = msg.at("lease").as_size();
                const std::uint64_t generation =
                    msg.at("generation").as_u64();

                if (type == "heartbeat") {
                    send_frame(sock, ledger.beat(lease, generation, now_s())
                                         ? simple_msg("ok")
                                         : simple_msg("stale"));
                    continue;
                }
                if (type == "row") {
                    // A streamed row proves the worker is alive (counts as
                    // a beat) and feeds --jsonl streaming, first copy wins.
                    const bool live = ledger.beat(lease, generation, now_s());
                    if (live && hooks.on_scenario) {
                        const scenario_result r =
                            scenario_row_from_json(msg.at("result"));
                        SDRBIST_EXPECTS(r.sc.index < grid_size);
                        const std::lock_guard<std::mutex> lock(results_mu);
                        if (!row_seen[r.sc.index]) {
                            row_seen[r.sc.index] = 1;
                            hooks.on_scenario(r);
                        }
                    }
                    send_frame(sock,
                               live ? simple_msg("ok") : simple_msg("stale"));
                    continue;
                }
                if (type == "complete") {
                    campaign_result r = result_from_json(msg.at("result"));
                    if (!lease_result_ok(lease, r)) {
                        send_frame(sock, error_msg(
                                             "lease result does not match "
                                             "the granted range"));
                        throw fault_injection::transient_fault(
                            "mismatched lease result");
                    }
                    if (ledger.complete(lease, generation)) {
                        {
                            const std::lock_guard<std::mutex> lock(
                                results_mu);
                            lease_results[lease] = std::move(r);
                        }
                        if (ledger.all_complete())
                            finish();

                        send_frame(sock, simple_msg("ok"));
                    } else {
                        send_frame(sock, simple_msg("stale"));
                    }
                    continue;
                }
                send_frame(sock, error_msg("unknown message type"));
                throw fault_injection::transient_fault(
                    "unknown service message: " + type);
            }
        } catch (const std::exception&) {
            // Expected event: the worker died (SIGKILL included), timed
            // out, or sent garbage.  Contain it — re-queue whatever it
            // held and let the remaining fleet finish the grid.
            if (ledger.requeue_owner(owner) > 0)
                dropped.fetch_add(1, std::memory_order_relaxed);
        }
    }
};

coordinator::coordinator(campaign_config grid, service_config svc) {
    SDRBIST_EXPECTS(grid.shard.count == 1);
    SDRBIST_EXPECTS(!grid.lease);
    SDRBIST_EXPECTS(grid.journal_path.empty() && !grid.resume);
    SDRBIST_EXPECTS(svc.lease_size >= 1);
    SDRBIST_EXPECTS(svc.heartbeat_s > 0.0);
    impl_ = std::make_unique<impl>(std::move(grid), svc);
}

coordinator::~coordinator() = default;

std::uint16_t coordinator::port() const { return impl_->listener.port(); }

service_report coordinator::serve(const run_hooks& hooks) {
    impl& im = *impl_;
    std::thread reaper([&im] { im.reap(); });
    std::vector<std::thread> handlers;
    while (!im.done.load(std::memory_order_acquire)) {
        tcp_socket sock = im.listener.accept(/*timeout_s=*/0.0);
        if (!sock.valid())
            continue; // finish() shut the listener down; re-check done
        handlers.emplace_back(
            [&im, &hooks, s = std::move(sock)]() mutable {
                im.handle(std::move(s), hooks);
            });
    }
    // Drain: handlers exit when their worker disconnects after "done" (or
    // on their bounded recv timeout); held requests are answered "done"
    // by the last completion; the reaper wakes on finish().
    for (std::thread& t : handlers)
        t.join();
    reaper.join();

    service_report report;
    std::vector<campaign_result> pieces;
    pieces.reserve(im.lease_results.size());
    for (auto& r : im.lease_results) {
        SDRBIST_EXPECTS(r.has_value());
        pieces.push_back(std::move(*r));
    }
    report.result = merge_results(pieces);
    report.leases = im.ledger.stats();
    report.workers_seen = im.workers_seen.load(std::memory_order_relaxed);
    report.dropped_connections = im.dropped.load(std::memory_order_relaxed);
    return report;
}

} // namespace sdrbist::campaign::service
