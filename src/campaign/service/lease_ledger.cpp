#include "campaign/service/lease_ledger.hpp"

#include <algorithm>
#include <chrono>

#include "core/contracts.hpp"
#include "core/telemetry.hpp"

namespace sdrbist::campaign::service {

lease_ledger::lease_ledger(std::size_t grid_size, std::size_t lease_size) {
    SDRBIST_EXPECTS(grid_size >= 1);
    SDRBIST_EXPECTS(lease_size >= 1);
    const std::size_t count = (grid_size + lease_size - 1) / lease_size;
    ranges_.reserve(count);
    for (std::size_t k = 0; k < count; ++k)
        ranges_.push_back({k * lease_size,
                           std::min(grid_size, (k + 1) * lease_size)});
    entries_.resize(count);
}

lease_range lease_ledger::range_of(std::size_t lease) const {
    SDRBIST_EXPECTS(lease < ranges_.size());
    return ranges_[lease];
}

std::optional<lease_grant> lease_ledger::grant(std::uint64_t owner,
                                               double now_s) {
    const std::lock_guard<std::mutex> lock(mu_);
    return grant_locked(owner, now_s);
}

std::optional<lease_grant> lease_ledger::await_grant(
    std::uint64_t owner, const std::function<double()>& now_s,
    double max_hold_s) {
    SDRBIST_EXPECTS(max_hold_s >= 0.0);
    std::unique_lock<std::mutex> lock(mu_);
    grantable_.wait_for(lock, std::chrono::duration<double>(max_hold_s), [&] {
        return completed_ == entries_.size() ||
               std::any_of(entries_.begin(), entries_.end(),
                           [](const entry& e) { return e.st == state::queued; });
    });
    return grant_locked(owner, now_s());
}

std::optional<lease_grant> lease_ledger::grant_locked(std::uint64_t owner,
                                                      double now_s) {
    for (std::size_t k = 0; k < entries_.size(); ++k) {
        entry& e = entries_[k];
        if (e.st != state::queued)
            continue;
        e.st = state::granted;
        ++e.generation;
        e.owner = owner;
        e.last_beat_s = now_s;
        ++stats_.leases;
        telemetry::count(telemetry::counter::service_leases);
        return lease_grant{k, e.generation, ranges_[k]};
    }
    return std::nullopt;
}

bool lease_ledger::current_locked(std::size_t lease,
                                  std::uint64_t generation) const {
    return lease < entries_.size() &&
           entries_[lease].st == state::granted &&
           entries_[lease].generation == generation;
}

bool lease_ledger::beat(std::size_t lease, std::uint64_t generation,
                        double now_s) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!current_locked(lease, generation))
        return false;
    entries_[lease].last_beat_s = now_s;
    ++stats_.heartbeats;
    telemetry::count(telemetry::counter::service_heartbeats);
    return true;
}

bool lease_ledger::complete(std::size_t lease, std::uint64_t generation) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!current_locked(lease, generation))
        return false;
    entries_[lease].st = state::completed;
    ++completed_;
    ++stats_.completed;
    if (completed_ == entries_.size())
        grantable_.notify_all();
    return true;
}

std::size_t lease_ledger::requeue_lapsed(double now_s, double timeout_s) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::size_t lapsed = 0;
    for (entry& e : entries_) {
        if (e.st != state::granted || now_s - e.last_beat_s <= timeout_s)
            continue;
        e.st = state::queued;
        ++lapsed;
        ++stats_.requeues;
        telemetry::count(telemetry::counter::service_requeues);
    }
    if (lapsed > 0)
        grantable_.notify_all();
    return lapsed;
}

std::size_t lease_ledger::requeue_owner(std::uint64_t owner) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::size_t orphaned = 0;
    for (entry& e : entries_) {
        if (e.st != state::granted || e.owner != owner)
            continue;
        e.st = state::queued;
        ++orphaned;
        ++stats_.requeues;
        telemetry::count(telemetry::counter::service_requeues);
    }
    if (orphaned > 0)
        grantable_.notify_all();
    return orphaned;
}

bool lease_ledger::all_complete() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return completed_ == entries_.size();
}

ledger_stats lease_ledger::stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace sdrbist::campaign::service
