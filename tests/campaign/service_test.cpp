// Distributed campaign service: lease-ledger lifecycle (grant → beat →
// complete; grant → lapse → re-queue; stale generations rejected),
// protocol framing over loopback, and the end-to-end contract — a
// coordinator plus workers (including one killed mid-lease) produces a
// result bit-identical to a single-process run, with the service.*
// telemetry counters exactly mirroring the ledger stats.  Plus the two
// satellite regressions: atomic shard-file publication (no torn reads)
// and cold-start --resume (a missing journal is created, not rejected).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#endif

#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "campaign/journal.hpp"
#include "campaign/service/coordinator.hpp"
#include "campaign/service/lease_ledger.hpp"
#include "campaign/service/protocol.hpp"
#include "campaign/service/worker.hpp"
#include "campaign/shard_io.hpp"
#include "core/contracts.hpp"
#include "core/fault_injection.hpp"
#include "core/telemetry.hpp"
#include "support/scratch_dir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sdrbist;
using namespace sdrbist::campaign;
using namespace sdrbist::campaign::service;
namespace tm = sdrbist::telemetry;
using sdrbist::testing::scratch_dir;

campaign_config small_grid() {
    campaign_config cfg;
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.base.min_output_rms = 1.2;
    cfg.presets = {waveform::find_preset("paper-qpsk-10M"),
                   waveform::find_preset("tactical-bpsk-2M")};
    cfg.faults = {bist::fault_kind::none, bist::fault_kind::pa_gain_drop};
    cfg.trials = 1;
    cfg.threads = 1;
    cfg.seed = 0x5E11Aull;
    return cfg;
}

std::string fingerprint(const campaign_result& r) {
    export_options opt;
    opt.include_timing = false;
    return to_json(r, opt);
}

std::uint64_t counter_at(const std::array<std::uint64_t, tm::counter_count>& c,
                         tm::counter which) {
    return c[static_cast<std::size_t>(which)];
}

// ---- lease ledger lifecycle -------------------------------------------------

TEST(LeaseLedger, PartitionCoversGridExactlyOnce) {
    const lease_ledger ledger(10, 4);
    ASSERT_EQ(ledger.lease_count(), 3u);
    EXPECT_EQ(ledger.range_of(0).begin, 0u);
    EXPECT_EQ(ledger.range_of(0).end, 4u);
    EXPECT_EQ(ledger.range_of(1).begin, 4u);
    EXPECT_EQ(ledger.range_of(2).begin, 8u);
    EXPECT_EQ(ledger.range_of(2).end, 10u); // last lease is short
    // Every grid index in exactly one lease.
    for (std::size_t i = 0; i < 10; ++i) {
        std::size_t owners = 0;
        for (std::size_t k = 0; k < ledger.lease_count(); ++k)
            owners += ledger.range_of(k).contains(i);
        EXPECT_EQ(owners, 1u) << "index " << i;
    }
}

TEST(LeaseLedger, GrantHeartbeatCompleteLifecycle) {
    lease_ledger ledger(4, 2);
    const auto g = ledger.grant(/*owner=*/1, /*now_s=*/0.0);
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->lease, 0u);
    EXPECT_EQ(g->generation, 1u);

    EXPECT_TRUE(ledger.beat(g->lease, g->generation, 1.0));
    EXPECT_TRUE(ledger.complete(g->lease, g->generation));
    EXPECT_FALSE(ledger.all_complete());
    // Completed leases reject further frames (late duplicates).
    EXPECT_FALSE(ledger.beat(g->lease, g->generation, 2.0));
    EXPECT_FALSE(ledger.complete(g->lease, g->generation));

    const auto g2 = ledger.grant(2, 2.0);
    ASSERT_TRUE(g2.has_value());
    EXPECT_EQ(g2->lease, 1u);
    EXPECT_TRUE(ledger.complete(g2->lease, g2->generation));
    EXPECT_TRUE(ledger.all_complete());
    EXPECT_FALSE(ledger.grant(3, 3.0).has_value());

    const ledger_stats stats = ledger.stats();
    EXPECT_EQ(stats.leases, 2u);
    EXPECT_EQ(stats.requeues, 0u);
    EXPECT_EQ(stats.heartbeats, 1u);
    EXPECT_EQ(stats.completed, 2u);
}

TEST(LeaseLedger, LapsedLeaseRequeuesAndStaleGenerationIsRejected) {
    lease_ledger ledger(2, 2); // single lease
    const auto g1 = ledger.grant(1, 0.0);
    ASSERT_TRUE(g1.has_value());
    // Within the timeout nothing lapses; beats refresh the clock.
    EXPECT_EQ(ledger.requeue_lapsed(/*now_s=*/2.0, /*timeout_s=*/3.0), 0u);
    EXPECT_TRUE(ledger.beat(g1->lease, g1->generation, 2.0));
    EXPECT_EQ(ledger.requeue_lapsed(4.0, 3.0), 0u); // beat at 2.0 keeps it
    // Silence past the timeout re-queues.
    EXPECT_EQ(ledger.requeue_lapsed(6.0, 3.0), 1u);

    // The old generation is dead: its frames no longer count.
    EXPECT_FALSE(ledger.beat(g1->lease, g1->generation, 6.0));
    EXPECT_FALSE(ledger.complete(g1->lease, g1->generation));

    const auto g2 = ledger.grant(2, 7.0);
    ASSERT_TRUE(g2.has_value());
    EXPECT_EQ(g2->lease, g1->lease);
    EXPECT_EQ(g2->generation, g1->generation + 1);
    EXPECT_TRUE(ledger.complete(g2->lease, g2->generation));
    EXPECT_TRUE(ledger.all_complete());

    const ledger_stats stats = ledger.stats();
    EXPECT_EQ(stats.leases, 2u);
    EXPECT_EQ(stats.requeues, 1u);
    EXPECT_EQ(stats.completed, 1u);
}

TEST(LeaseLedger, DeadOwnerRequeuesOnlyItsLeases) {
    lease_ledger ledger(6, 2);
    const auto a = ledger.grant(/*owner=*/7, 0.0);
    const auto b = ledger.grant(/*owner=*/8, 0.0);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(ledger.requeue_owner(7), 1u);
    EXPECT_FALSE(ledger.beat(a->lease, a->generation, 1.0));
    EXPECT_TRUE(ledger.beat(b->lease, b->generation, 1.0));
    // The re-queued lease is grantable again, fresh generation.
    const auto a2 = ledger.grant(9, 1.0);
    ASSERT_TRUE(a2.has_value());
    EXPECT_EQ(a2->lease, a->lease);
    EXPECT_EQ(a2->generation, a->generation + 1);
}

TEST(LeaseLedger, TelemetryCountersMirrorStatsExactly) {
    tm::reset();
    tm::enable(/*capture_trace=*/false);
    const auto before = tm::counters();
    lease_ledger ledger(4, 1);
    const auto g0 = ledger.grant(1, 0.0);
    const auto g1 = ledger.grant(1, 0.0);
    ASSERT_TRUE(g0 && g1);
    ledger.beat(g0->lease, g0->generation, 1.0);
    ledger.beat(g1->lease, g1->generation, 1.0);
    ledger.requeue_lapsed(10.0, 3.0); // both lapse
    const auto g2 = ledger.grant(2, 10.0);
    ASSERT_TRUE(g2);
    ledger.complete(g2->lease, g2->generation);
    const auto after = tm::counters();
    tm::disable();
    tm::reset();

    const ledger_stats stats = ledger.stats();
    EXPECT_EQ(stats.leases, 3u);
    EXPECT_EQ(stats.requeues, 2u);
    EXPECT_EQ(stats.heartbeats, 2u);
    EXPECT_EQ(counter_at(after, tm::counter::service_leases) -
                  counter_at(before, tm::counter::service_leases),
              stats.leases);
    EXPECT_EQ(counter_at(after, tm::counter::service_requeues) -
                  counter_at(before, tm::counter::service_requeues),
              stats.requeues);
    EXPECT_EQ(counter_at(after, tm::counter::service_heartbeats) -
                  counter_at(before, tm::counter::service_heartbeats),
              stats.heartbeats);
}

/// A request that finds nothing queued is held on the ledger, not
/// refused: the re-queue (either path) that frees a lease wakes it and
/// grants that lease, stamped with the clock read at grant time.
TEST(LeaseLedger, AwaitGrantIsAnsweredByTheRequeue) {
    using clock = std::chrono::steady_clock;
    for (const bool lapse : {false, true}) {
        SCOPED_TRACE(lapse ? "heartbeats lapse" : "owner's connection dies");
        lease_ledger ledger(2, 2); // single lease
        const auto g1 = ledger.grant(/*owner=*/1, 0.0);
        ASSERT_TRUE(g1.has_value());
        std::thread frees([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            if (lapse)
                ledger.requeue_lapsed(/*now_s=*/10.0, /*timeout_s=*/3.0);
            else
                ledger.requeue_owner(1);
        });
        const auto t0 = clock::now();
        const auto g2 = ledger.await_grant(
            /*owner=*/2, [] { return 20.0; }, /*max_hold_s=*/30.0);
        const double held_s =
            std::chrono::duration<double>(clock::now() - t0).count();
        frees.join();
        ASSERT_TRUE(g2.has_value());
        EXPECT_EQ(g2->lease, g1->lease);
        EXPECT_EQ(g2->generation, g1->generation + 1);
        EXPECT_LT(held_s, 15.0); // woken by the event, not the hold bound
        // Stamped at grant time (20.0): alive at 22.9, lapsed at 23.1.
        EXPECT_EQ(ledger.requeue_lapsed(22.9, 3.0), 0u);
        EXPECT_EQ(ledger.requeue_lapsed(23.1, 3.0), 1u);
    }
}

TEST(LeaseLedger, AwaitGrantAnswersDoneOnTheLastCompletion) {
    lease_ledger ledger(2, 2);
    const auto g = ledger.grant(1, 0.0);
    ASSERT_TRUE(g.has_value());
    std::thread completes([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        ledger.complete(g->lease, g->generation);
    });
    const auto t0 = std::chrono::steady_clock::now();
    const auto none = ledger.await_grant(2, [] { return 1.0; }, 30.0);
    const double held_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    completes.join();
    EXPECT_FALSE(none.has_value());
    EXPECT_TRUE(ledger.all_complete());
    EXPECT_LT(held_s, 15.0);
    // Once complete, a request is answered without holding.
    EXPECT_FALSE(ledger.await_grant(3, [] { return 2.0; }, 30.0));
}

TEST(LeaseLedger, AwaitGrantGrantsAtOnceAndExpiresEmptyHanded) {
    lease_ledger ledger(4, 2);
    // A queued lease is granted without holding.
    const auto t0 = std::chrono::steady_clock::now();
    const auto g = ledger.await_grant(1, [] { return 5.0; }, 30.0);
    const auto h = ledger.await_grant(2, [] { return 5.0; }, 30.0);
    EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count(),
              15.0);
    ASSERT_TRUE(g && h);
    EXPECT_EQ(g->lease, 0u);
    EXPECT_EQ(h->lease, 1u);
    // Both granted elsewhere and nothing frees: the hold runs out and
    // the answer is "wait" (nullopt while not complete).
    EXPECT_FALSE(ledger.await_grant(3, [] { return 6.0; }, 0.0));
    EXPECT_FALSE(ledger.await_grant(3, [] { return 6.0; }, 0.02));
    EXPECT_FALSE(ledger.all_complete());
    const ledger_stats stats = ledger.stats();
    EXPECT_EQ(stats.leases, 2u);
    EXPECT_EQ(stats.requeues, 0u);
}

// ---- protocol framing -------------------------------------------------------

TEST(ServiceProtocol, FrameRoundTripOverLoopback) {
    tcp_listener listener("127.0.0.1", 0);
    ASSERT_GT(listener.port(), 0);

    auto client = std::async(std::launch::async, [&] {
        tcp_socket c = tcp_connect("127.0.0.1", listener.port());
        send_frame(c, R"({"type":"ping","n":1})");
        return recv_frame(c);
    });
    tcp_socket server = listener.accept(/*timeout_s=*/5.0);
    ASSERT_TRUE(server.valid());
    const json_value msg = recv_message(server);
    EXPECT_EQ(msg.at("type").as_string(), "ping");
    // Large frame (bigger than any socket buffer) survives intact.
    const std::string big(2 * 1024 * 1024, 'x');
    send_frame(server, "{\"blob\":\"" + big + "\"}");
    const std::string reply = client.get();
    EXPECT_EQ(reply.size(), big.size() + 11);
}

#if defined(__unix__) || defined(__APPLE__)
TEST(ServiceProtocol, ConnectedSocketsSendWithoutNagleDelay) {
    // Every exchange is a small request answered by a small response, each
    // written as a length prefix and then a payload.  Under Nagle's
    // algorithm the payload waits for the ACK of the prefix, which the
    // peer delays (about 40 ms on Linux): both ends must turn it off.
    auto no_delay = [](const tcp_socket& s) {
        int v = 0;
        socklen_t len = sizeof(v);
        EXPECT_EQ(::getsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &v, &len), 0);
        return v != 0;
    };
    tcp_listener listener("127.0.0.1", 0);
    tcp_socket client = tcp_connect("127.0.0.1", listener.port());
    tcp_socket server = listener.accept(5.0);
    ASSERT_TRUE(server.valid());
    EXPECT_TRUE(no_delay(client));
    EXPECT_TRUE(no_delay(server));
}
#endif

TEST(ServiceProtocol, PeerDeathIsTransientOversizeIsContract) {
    tcp_listener listener("127.0.0.1", 0);
    auto client = std::async(std::launch::async, [&] {
        tcp_socket c = tcp_connect("127.0.0.1", listener.port());
        c.close(); // die immediately
    });
    tcp_socket server = listener.accept(5.0);
    ASSERT_TRUE(server.valid());
    client.get();
    EXPECT_THROW(recv_frame(server), fault_injection::transient_fault);

#if defined(__unix__) || defined(__APPLE__)
    // A length prefix past the protocol bound is a violation, not an
    // allocation: 0xFFFFFFFF.
    auto client2 = std::async(std::launch::async, [&] {
        tcp_socket c = tcp_connect("127.0.0.1", listener.port());
        const char evil[4] = {'\xFF', '\xFF', '\xFF', '\xFF'};
        ::send(c.fd(), evil, 4, 0);
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    });
    tcp_socket server2 = listener.accept(5.0);
    ASSERT_TRUE(server2.valid());
    EXPECT_THROW(recv_frame(server2), contract_violation);
    client2.get();
#endif
}

// ---- lease-range filtering (the unit the service leases) --------------------

TEST(ServiceLease, ContiguousLeasePartitionMergesBitIdentically) {
    const auto cfg = small_grid();
    const auto whole = campaign_runner(cfg).run();
    ASSERT_EQ(whole.grid_size, 4u);

    std::vector<campaign_result> pieces;
    for (const auto range :
         {lease_range{0, 1}, lease_range{1, 3}, lease_range{3, 4}}) {
        auto piece_cfg = cfg;
        piece_cfg.lease = range;
        pieces.push_back(campaign_runner(piece_cfg).run());
        EXPECT_EQ(pieces.back().results.size(), range.size());
        for (const auto& row : pieces.back().results)
            EXPECT_TRUE(range.contains(row.sc.index));
    }
    EXPECT_EQ(fingerprint(merge_results(pieces)), fingerprint(whole));
}

// ---- end-to-end: coordinator + workers over loopback ------------------------

/// A raw client that has passed the hello handshake.
tcp_socket raw_client(std::uint16_t port, const campaign_config& cfg) {
    tcp_socket c = tcp_connect("127.0.0.1", port);
    c.set_recv_timeout(10.0);
    json_object_writer hello;
    hello.string_field("type", "hello");
    hello.size_field("protocol_version",
                     static_cast<std::size_t>(protocol_version));
    hello.string_field("identity", campaign_identity(cfg));
    send_frame(c, hello.str());
    EXPECT_EQ(recv_message(c).at("type").as_string(), "welcome");
    return c;
}

std::string complete_msg(const json_value& lease, const campaign_result& r) {
    json_object_writer o;
    o.string_field("type", "complete");
    o.size_field("lease", lease.at("lease").as_size());
    o.size_field("generation", lease.at("generation").as_size());
    o.field("result", result_to_json(r));
    return o.str();
}

TEST(CampaignService, TwoWorkersMatchSingleProcessBitIdentically) {
    const auto cfg = small_grid();
    const auto reference = campaign_runner(cfg).run();

    service_config svc;
    svc.port = 0; // ephemeral
    svc.lease_size = 1;
    svc.heartbeat_s = 1.0; // generous: rows count as beats anyway
    coordinator coord(cfg, svc);
    svc.port = coord.port();

    auto served = std::async(std::launch::async, [&] { return coord.serve(); });
    auto w1 = std::async(std::launch::async,
                         [&] { return run_worker(cfg, svc); });
    auto w2 = std::async(std::launch::async,
                         [&] { return run_worker(cfg, svc); });
    const worker_report r1 = w1.get();
    const worker_report r2 = w2.get();
    const service_report report = served.get();

    EXPECT_EQ(fingerprint(report.result), fingerprint(reference));
    EXPECT_EQ(report.leases.leases, 4u);
    EXPECT_EQ(report.leases.requeues, 0u);
    EXPECT_EQ(report.leases.completed, 4u);
    EXPECT_EQ(report.workers_seen, 2u);
    EXPECT_EQ(report.dropped_connections, 0u);
    EXPECT_EQ(r1.leases + r2.leases, 4u);
    EXPECT_EQ(r1.rows + r2.rows, 4u);
    EXPECT_EQ(r1.stale + r2.stale, 0u);
}

/// The kill-one-worker-mid-lease contract, in-process: a client that
/// takes a lease and silently dies (socket closed — exactly what SIGKILL
/// does to a worker's connection) must have its lease re-queued, and the
/// merged result must stay bit-identical to an uninterrupted run.
TEST(CampaignService, DeadWorkerMidLeaseIsRequeuedBitIdentically) {
    const auto cfg = small_grid();
    const auto reference = campaign_runner(cfg).run();

    tm::reset();
    tm::enable(/*capture_trace=*/false);
    const auto before = tm::counters();

    service_config svc;
    svc.lease_size = 1;
    svc.heartbeat_s = 1.0;
    coordinator coord(cfg, svc);
    svc.port = coord.port();

    auto served = std::async(std::launch::async, [&] { return coord.serve(); });

    {
        // Saboteur: handshake, take one lease, drop dead mid-lease.
        tcp_socket c = raw_client(svc.port, cfg);
        send_frame(c, R"({"type":"request"})");
        const json_value lease = recv_message(c);
        ASSERT_EQ(lease.at("type").as_string(), "lease");
        c.close(); // SIGKILL equivalent: EOF with the lease outstanding
    }

    const worker_report wr =
        std::async(std::launch::async, [&] { return run_worker(cfg, svc); })
            .get();
    const service_report report = served.get();
    const auto after = tm::counters();
    tm::disable();
    tm::reset();

    EXPECT_EQ(fingerprint(report.result), fingerprint(reference));
    // The dead client's lease was granted, re-queued once, re-granted.
    EXPECT_EQ(report.leases.requeues, 1u);
    EXPECT_EQ(report.leases.leases, 5u); // 4 leases + 1 re-grant
    EXPECT_EQ(report.dropped_connections, 1u);
    EXPECT_EQ(report.workers_seen, 2u);
    EXPECT_EQ(wr.leases, 4u);
    // Counter ≡ result: the service counters match the ledger exactly.
    EXPECT_EQ(counter_at(after, tm::counter::service_requeues) -
                  counter_at(before, tm::counter::service_requeues),
              report.leases.requeues);
    EXPECT_EQ(counter_at(after, tm::counter::service_leases) -
                  counter_at(before, tm::counter::service_leases),
              report.leases.leases);
    EXPECT_EQ(counter_at(after, tm::counter::service_heartbeats) -
                  counter_at(before, tm::counter::service_heartbeats),
              report.leases.heartbeats);
}

/// A request the coordinator cannot grant is held, and the event answers
/// it: the holder's connection dying re-queues the only lease, which goes
/// to the held request at generation 2; the holder completing it answers
/// the held request `done`.  Neither end polls, so B sends one request.
TEST(CampaignService, HeldRequestIsAnsweredWhenALeaseFrees) {
    auto cfg = small_grid();
    cfg.presets.resize(1);
    cfg.faults.resize(1); // one scenario, one lease
    const campaign_result whole = campaign_runner(cfg).run();

    for (const bool a_completes : {false, true}) {
        SCOPED_TRACE(a_completes ? "A completes" : "A disconnects");
        service_config svc;
        svc.lease_size = 1;
        svc.heartbeat_s = 10.0; // the reaper (30 s timeout) stays out
        coordinator coord(cfg, svc);
        auto served =
            std::async(std::launch::async, [&] { return coord.serve(); });

        tcp_socket a = raw_client(coord.port(), cfg);
        send_frame(a, R"({"type":"request"})");
        const json_value lease = recv_message(a);
        ASSERT_EQ(lease.at("type").as_string(), "lease");
        EXPECT_EQ(lease.at("generation").as_u64(), 1u);

        tcp_socket b = raw_client(coord.port(), cfg);
        send_frame(b, R"({"type":"request"})");
        // Let B's request reach the coordinator and be held.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (a_completes) {
            send_frame(a, complete_msg(lease, whole));
            EXPECT_EQ(recv_message(a).at("type").as_string(), "ok");
        } else {
            a.close(); // SIGKILL equivalent: EOF with the lease outstanding
        }

        json_value reply = recv_message(b);
        EXPECT_NE(reply.at("type").as_string(), "wait")
            << "the request was answered at once, not held for the event";
        while (reply.at("type").as_string() == "wait") {
            // Keep a polling coordinator's grid moving, so the regression
            // fails this test instead of hanging serve().
            send_frame(b, R"({"type":"request"})");
            reply = recv_message(b);
        }
        if (a_completes) {
            EXPECT_EQ(reply.at("type").as_string(), "done");
        } else {
            ASSERT_EQ(reply.at("type").as_string(), "lease");
            EXPECT_EQ(reply.at("lease").as_size(), 0u);
            EXPECT_EQ(reply.at("generation").as_u64(), 2u);
            send_frame(b, complete_msg(reply, whole));
            EXPECT_EQ(recv_message(b).at("type").as_string(), "ok");
        }
        a.close();
        b.close();

        const service_report report = served.get();
        EXPECT_EQ(fingerprint(report.result), fingerprint(whole));
        EXPECT_EQ(report.leases.leases, a_completes ? 1u : 2u);
        EXPECT_EQ(report.leases.requeues, a_completes ? 0u : 1u);
    }
}

TEST(CampaignService, MismatchedGridIsRejectedAtHandshake) {
    const auto cfg = small_grid();
    coordinator coord(cfg, service_config{});
    service_config svc;
    svc.port = coord.port();

    auto served = std::async(std::launch::async, [&] { return coord.serve(); });

    auto wrong = cfg;
    wrong.seed ^= 1; // different grid → different identity digest
    EXPECT_THROW(run_worker(wrong, svc), contract_violation);

    // The coordinator survives the rejection and serves the honest worker.
    const worker_report wr = run_worker(cfg, svc);
    const service_report report = served.get();
    EXPECT_EQ(wr.leases, report.leases.completed);
    EXPECT_EQ(report.result.results.size(), 4u);
}

// ---- hostile numbers in service frames ---------------------------------------

/// Every count a peer sends is read with the checked accessors: a value
/// that is out of range, negative or fractional is rejected, never cast.
/// The last value of each list truncates to a number the peer would
/// accept, so an unchecked cast would let it through.
std::vector<std::string> hostile_numbers(const std::string& valid) {
    return {"1e30", "-1", "2.5", valid + ".5"};
}

/// True when the coordinator refused the last frame: an error frame, or
/// a dropped connection.
bool coordinator_refused(tcp_socket& c) {
    try {
        return recv_message(c).at("type").as_string() == "error";
    } catch (const std::exception&) {
        return true; // connection dropped
    }
}

TEST(CampaignService, HostileNumbersInWorkerFramesAreRejected) {
    auto cfg = small_grid();
    cfg.presets.resize(1);
    cfg.faults.resize(1); // one scenario, one lease
    service_config svc;
    svc.lease_size = 1;
    svc.heartbeat_s = 1.0;
    coordinator coord(cfg, svc);
    svc.port = coord.port();
    auto served = std::async(std::launch::async, [&] { return coord.serve(); });
    const std::string identity = campaign_identity(cfg);

    const auto connect = [&] {
        tcp_socket c = tcp_connect("127.0.0.1", svc.port);
        c.set_recv_timeout(10.0);
        return c;
    };
    const auto hello = [&](tcp_socket& c, const std::string& version) {
        send_frame(c, R"({"type":"hello","protocol_version":)" + version +
                          R"(,"identity":")" + identity + "\"}");
    };

    for (const std::string& v :
         hostile_numbers(std::to_string(protocol_version))) {
        SCOPED_TRACE("protocol_version " + v);
        tcp_socket c = connect();
        hello(c, v);
        EXPECT_TRUE(coordinator_refused(c));
    }

    // Lease numbers: handshake honestly, take the lease, then beat with
    // one hostile field.  The refused connection re-queues the lease.
    for (const std::string field : {"lease", "generation"}) {
        for (std::size_t k = 0; k < 4; ++k) {
            tcp_socket c = connect();
            hello(c, std::to_string(protocol_version));
            ASSERT_EQ(recv_message(c).at("type").as_string(), "welcome");
            // Held until the previous connection's lease is re-queued.
            send_frame(c, R"({"type":"request"})");
            const json_value lease = recv_message(c);
            ASSERT_EQ(lease.at("type").as_string(), "lease");
            std::string numbers[] = {
                std::to_string(lease.at("lease").as_size()),
                std::to_string(lease.at("generation").as_u64())};
            const std::size_t hostile = std::string(field) == "lease" ? 0 : 1;
            numbers[hostile] = hostile_numbers(numbers[hostile])[k];
            SCOPED_TRACE(std::string(field) + " " + numbers[hostile]);
            send_frame(c, R"({"type":"heartbeat","lease":)" + numbers[0] +
                              R"(,"generation":)" + numbers[1] + "}");
            EXPECT_TRUE(coordinator_refused(c));
        }
    }

    // The coordinator survives every refusal and serves an honest worker.
    const worker_report wr = run_worker(cfg, svc);
    const service_report report = served.get();
    EXPECT_EQ(wr.leases, 1u);
    EXPECT_EQ(report.result.results.size(), 1u);
}

/// A fake coordinator on `listener`: answers hello with `welcome`, the
/// first request with `lease`, later requests with "done" and anything
/// else with "ok", until the worker hangs up.
void fake_coordinator(tcp_listener& listener, const std::string& welcome,
                      const std::string& lease) {
    tcp_socket s = listener.accept(/*timeout_s=*/10.0);
    if (!s.valid())
        return;
    s.set_recv_timeout(10.0);
    bool leased = false;
    try {
        for (;;) {
            const std::string type = recv_message(s).at("type").as_string();
            if (type == "hello") {
                send_frame(s, welcome);
            } else if (type == "request" && !leased) {
                leased = true;
                send_frame(s, lease);
            } else if (type == "request") {
                send_frame(s, R"({"type":"done"})");
            } else {
                send_frame(s, R"({"type":"ok"})");
            }
        }
    } catch (const std::exception&) {
        // The worker hung up.
    }
}

std::string welcome_frame(const std::string& version) {
    return R"({"type":"welcome","protocol_version":)" + version +
           R"(,"grid_size":2,"lease_count":1,"heartbeat_s":1})";
}

/// The grid of the fake coordinator's frames: rows 0 and 1, one lease.
campaign_config two_row_grid() {
    auto cfg = small_grid();
    cfg.presets.resize(1);
    cfg.faults.resize(1);
    cfg.trials = 2;
    return cfg;
}

TEST(CampaignService, HostileNumbersInLeaseFramesAreRejectedByTheWorker) {
    const auto cfg = two_row_grid();
    const std::vector<std::pair<std::string, std::string>> fields = {
        {"lease", "0"}, {"generation", "1"}, {"begin", "0"}, {"end", "2"}};

    for (const auto& [field, valid] : fields) {
        for (const std::string& v : hostile_numbers(valid)) {
            SCOPED_TRACE(field + " " + v);
            tcp_listener listener("127.0.0.1", 0);
            service_config svc;
            svc.port = listener.port();
            std::string lease = R"({"type":"lease")";
            for (const auto& [name, good] : fields)
                lease += ",\"" + name + "\":" + (name == field ? v : good);
            std::thread fake(fake_coordinator, std::ref(listener),
                             welcome_frame(std::to_string(protocol_version)),
                             lease + "}");
            EXPECT_THROW(run_worker(cfg, svc), contract_violation);
            fake.join();
        }
    }
}

/// A v1 coordinator answers `wait` without holding the request, and a
/// v2 worker re-asks at once: the worker must refuse the pairing at the
/// handshake, and read the version with the checked accessor.
TEST(CampaignService, WorkerRefusesACoordinatorOfAnotherProtocolVersion) {
    const auto cfg = two_row_grid();
    for (const std::string v : {"1", "1e30", "-1", "2.5"}) {
        SCOPED_TRACE("protocol_version " + v);
        tcp_listener listener("127.0.0.1", 0);
        service_config svc;
        svc.port = listener.port();
        std::thread fake(
            fake_coordinator, std::ref(listener), welcome_frame(v),
            R"({"type":"lease","lease":0,"generation":1,"begin":0,"end":2})");
        EXPECT_THROW(run_worker(cfg, svc), contract_violation);
        fake.join();
    }
}

// ---- satellite regression: atomic shard-file publication --------------------

campaign_result synthetic_result(std::size_t rows) {
    campaign_result r;
    r.preset_names = {"p0"};
    r.fault_names = {"none"};
    r.trials = rows;
    r.seed = 0xF00Dull;
    r.grid_size = rows;
    for (std::size_t i = 0; i < rows; ++i) {
        scenario_result row;
        row.sc.index = i;
        row.sc.preset_index = 0;
        row.sc.fault_index = 0;
        row.sc.fault = bist::fault_kind::none;
        row.sc.trial = i;
        row.sc.preset_name = "p0";
        r.results.push_back(std::move(row));
    }
    return r;
}

TEST(ShardAtomicWrite, PublishLeavesNoTempFilesAndFailureKeepsOldFile) {
    const scratch_dir dir("shard-atomic");
    const std::string path = dir.file("result.json");
    const auto a = synthetic_result(3);
    ASSERT_TRUE(write_result_file(path, a));
    const std::string published = result_to_json(read_result_file(path));

    // A write that cannot publish (missing directory) reports failure and
    // leaves nothing behind — no target, no stray temp file.
    const std::string orphan = dir.file("missing/sub/result.json");
    EXPECT_FALSE(write_result_file(orphan, a));
    std::size_t stray = 0;
    for (const auto& e : fs::recursive_directory_iterator(dir.path))
        stray += e.path().filename().string().find(".tmp.") !=
                 std::string::npos;
    EXPECT_EQ(stray, 0u);

    // Overwrites publish atomically too: the old content stays readable
    // until the rename lands, so a reader never sees a torn file.
    EXPECT_TRUE(write_result_file(path, synthetic_result(4)));
    EXPECT_EQ(read_result_file(path).results.size(), 4u);
    EXPECT_NE(result_to_json(read_result_file(path)), published);
}

TEST(ShardAtomicWrite, ConcurrentReaderNeverSeesATornFile) {
    const scratch_dir dir("shard-torn");
    const std::string path = dir.file("result.json");
    const auto result = synthetic_result(16);
    ASSERT_TRUE(write_result_file(path, result));
    const std::string expect = result_to_json(read_result_file(path));

    std::atomic<bool> stop{false};
    auto writer = std::async(std::launch::async, [&] {
        for (int i = 0; i < 50; ++i)
            ASSERT_TRUE(write_result_file(path, result));
        stop = true;
    });
    // With the pre-fix trunc-then-write, this reliably read half-written
    // files ("malformed shard file").  Rename publication means every
    // read observes a complete file.
    std::size_t reads = 0;
    while (!stop.load()) {
        EXPECT_EQ(result_to_json(read_result_file(path)), expect);
        ++reads;
    }
    writer.get();
    EXPECT_GT(reads, 0u);
}

// ---- satellite regression: cold-start --resume ------------------------------

TEST(JournalColdStart, ResumeAgainstMissingJournalStartsFresh) {
    const scratch_dir dir("journal-cold");
    auto cfg = small_grid();
    cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
    cfg.faults = {bist::fault_kind::none};
    cfg.journal_path = dir.file("journal.jsonl");
    cfg.resume = true; // the service worker loop always passes this

    ASSERT_FALSE(fs::exists(cfg.journal_path));
    const auto first = campaign_runner(cfg).run();
    EXPECT_EQ(first.resumed, 0u); // cold start: nothing restored
    EXPECT_TRUE(fs::exists(cfg.journal_path));

    // Second run restores every row from the journal just written.
    const auto second = campaign_runner(cfg).run();
    EXPECT_EQ(second.resumed, second.results.size());
    EXPECT_EQ(fingerprint(second), fingerprint(first));
}

TEST(JournalColdStart, JournalWriterCreatesHeaderOnMissingFile) {
    const scratch_dir dir("journal-cold-hdr");
    const std::string path = dir.file("fresh.jsonl");
    {
        campaign_journal j(path, "identity-digest", /*resume=*/true);
    }
    const journal_replay replay = read_journal(path);
    EXPECT_EQ(replay.identity, "identity-digest");
    EXPECT_TRUE(replay.rows.empty());
    // An unreadable *existing* journal still fails loudly (unchanged).
    EXPECT_THROW(read_journal(dir.file("absent.jsonl")), contract_violation);
}

} // namespace
