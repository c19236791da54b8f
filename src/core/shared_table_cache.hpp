/// \file shared_table_cache.hpp
/// \brief Process-wide, bounded cache of immutable lookup tables keyed by
///        their construction parameters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/contracts.hpp"

namespace sdrbist {

/// Hands out shared immutable tables.  The first request for a key builds
/// the table (under the cache's lock, so concurrent first requests for one
/// key share one build); later requests get the same object.  At most
/// `capacity` entries stay cached: a miss on a full cache evicts the least
/// recently requested entry.  An evicted table lives on for as long as a
/// holder keeps its shared_ptr, and a later request for its key builds it
/// again.  Builders must be deterministic, so a rebuild is bit-identical
/// to the evicted table.  Keys compare with ==, so a key holding a NaN
/// would never hit; callers check their parameters first.
template <class Key, class Table> class shared_table_cache {
public:
    explicit shared_table_cache(std::size_t capacity) : capacity_(capacity) {
        SDRBIST_EXPECTS(capacity_ >= 1);
    }

    /// The table for `key`, built by `build()` (returning a Table) on a
    /// miss.
    template <class Build>
    std::shared_ptr<const Table> get(const Key& key, Build&& build) {
        const std::lock_guard lock(mutex_);
        ++clock_;
        for (auto& e : entries_)
            if (e.key == key) {
                e.last_use = clock_;
                return e.table;
            }
        auto table = std::make_shared<const Table>(build());
        if (entries_.size() == capacity_) {
            auto oldest = entries_.begin();
            for (auto it = entries_.begin(); it != entries_.end(); ++it)
                if (it->last_use < oldest->last_use)
                    oldest = it;
            *oldest = {key, table, clock_};
        } else {
            entries_.push_back({key, table, clock_});
        }
        return table;
    }

    /// Entries currently cached (at most the capacity).
    [[nodiscard]] std::size_t size() const {
        const std::lock_guard lock(mutex_);
        return entries_.size();
    }

private:
    struct entry {
        Key key;
        std::shared_ptr<const Table> table;
        std::uint64_t last_use = 0;
    };

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::vector<entry> entries_; ///< guarded by mutex_
    std::uint64_t clock_ = 0;    ///< guarded by mutex_
};

} // namespace sdrbist
