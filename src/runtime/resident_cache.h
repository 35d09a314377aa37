/**
 * @file
 * The serving layer's one residency cache: a weight-accounted LRU of
 * materialized per-tenant working sets. KeyStore (NTT-domain tenant
 * keys) and pir::PirDbStore (gadget-scaled tenant databases) are this
 * cache plus a materializer.
 *
 *  - acquire(tenant) returns the tenant's working set, materializing
 *    it on a miss exactly once per residency, even under concurrent
 *    acquires: later callers wait on the first caller's in-flight
 *    materialization. A materializer that throws fails every waiter
 *    with its exception and leaves no entry behind, so the next
 *    acquire tries again.
 *  - Resident entries weigh V::bytes and are evicted in LRU order once
 *    the total exceeds the budget (0 = unbounded). Eviction drops the
 *    cache's reference only: acquire() hands out shared_ptrs, so work
 *    that is mid-flight on an evicted entry keeps it alive (pinned)
 *    until it completes. In-flight entries and the entry being
 *    acquired are never evicted, so a tenant wider than the whole
 *    budget is still served (admitted over budget, with everything
 *    else evicted); the alternative is an unservable tenant.
 *
 * Counters live both on the cache (exact, for tests/benches via
 * stats()) and in the obs::MetricsRegistry under the cache's label:
 * <label>.hits / .misses / .evictions / .materializations counters,
 * <label>.resident_bytes gauge, <label>.materialize_ns histogram.
 */

#ifndef TRINITY_RUNTIME_RESIDENT_CACHE_H
#define TRINITY_RUNTIME_RESIDENT_CACHE_H

#include <exception>
#include <functional>
#include <future>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace trinity {
namespace runtime {

/** Tenant/session identity attached to serving requests; the key of
 *  every residency cache. */
using TenantId = u64;

/** A residency cache's registry metrics under one label. */
struct ResidentCacheMetrics
{
    obs::Counter &hits;
    obs::Counter &misses;
    obs::Counter &evictions;
    obs::Counter &materializations;
    obs::Gauge &resident_bytes;
    obs::Histogram &materialize_ns;

    static ResidentCacheMetrics forLabel(const std::string &label);
};

/**
 * Weight-accounted, materialize-once LRU cache of tenant working sets
 * of type V; V::bytes is the weight charged to the budget. Thread-safe;
 * materializations of distinct tenants run concurrently outside the
 * cache lock.
 */
template <typename V>
class ResidentCache
{
  public:
    /** Builds a tenant's working set. Called outside the cache lock,
     *  once per residency, possibly concurrently for distinct
     *  tenants; throwing fails that acquire (and its waiters). */
    using Materializer = std::function<V(TenantId)>;

    /** @p budget 0 means unbounded; @p label prefixes the metrics. */
    ResidentCache(Materializer materialize, size_t budget,
                  std::string label)
        : materialize_(std::move(materialize)), budget_(budget),
          label_(std::move(label)),
          metrics_(ResidentCacheMetrics::forLabel(label_))
    {
    }

    ResidentCache(const ResidentCache &) = delete;
    ResidentCache &operator=(const ResidentCache &) = delete;

    /**
     * The tenant's working set, materializing it (and evicting LRU
     * entries past the budget) on a miss. The returned pointer pins
     * the value for as long as the caller holds it — eviction only
     * drops the cache's own reference.
     */
    std::shared_ptr<const V>
    acquire(TenantId tenant)
    {
        std::promise<std::shared_ptr<const V>> prom;
        std::shared_future<std::shared_ptr<const V>> fut;
        bool thisThreadMaterializes = false;
        {
            std::lock_guard<std::mutex> lk(mtx_);
            auto it = entries_.find(tenant);
            if (it != entries_.end()) {
                lru_.splice(lru_.begin(), lru_, it->second.lruIt);
                ++stats_.hits;
                metrics_.hits.add();
                fut = it->second.value;
            } else {
                ++stats_.misses;
                metrics_.misses.add();
                thisThreadMaterializes = true;
                Entry e;
                fut = e.value = prom.get_future().share();
                lru_.push_front(tenant);
                e.lruIt = lru_.begin();
                entries_.emplace(tenant, std::move(e));
            }
        }
        // A hit (or a concurrent miss whose materialization is already
        // in flight) resolves through the shared future; only the
        // thread that inserted the entry materializes — exactly once
        // per residency.
        if (!thisThreadMaterializes) {
            return fut.get();
        }
        std::shared_ptr<const V> value;
        u64 t0 = obs::detail::nowNs();
        try {
            value = std::make_shared<const V>(materialize_(tenant));
        } catch (...) {
            {
                // In-flight entries cannot be evicted: it is still here.
                std::lock_guard<std::mutex> lk(mtx_);
                dropEntryLocked(entries_.find(tenant));
            }
            prom.set_exception(std::current_exception());
            throw;
        }
        metrics_.materialize_ns.observe(obs::detail::nowNs() - t0);
        {
            std::lock_guard<std::mutex> lk(mtx_);
            auto it = entries_.find(tenant);
            // In-flight entries cannot be evicted, so the entry is
            // still here; account its weight and rebalance.
            trinity_assert(it != entries_.end(),
                           "in-flight resident-cache entry vanished");
            it->second.bytes = value->bytes;
            stats_.residentBytes += value->bytes;
            ++stats_.materializations;
            evictToBudget(tenant);
            metrics_.resident_bytes.set(
                static_cast<i64>(stats_.residentBytes));
        }
        metrics_.materializations.add();
        prom.set_value(value);
        return value;
    }

    /** Whether the tenant is currently resident (ready or in flight). */
    bool
    resident(TenantId tenant) const
    {
        std::lock_guard<std::mutex> lk(mtx_);
        return entries_.find(tenant) != entries_.end();
    }

    /** Drop a resident tenant (false if absent or still
     *  materializing). Holders of acquire()d pointers are unaffected. */
    bool
    evict(TenantId tenant)
    {
        std::lock_guard<std::mutex> lk(mtx_);
        auto it = entries_.find(tenant);
        if (it == entries_.end() || it->second.bytes == 0) {
            return false;
        }
        dropEntryLocked(it);
        return true;
    }

    /** Drop every fully materialized entry. */
    void
    clear()
    {
        std::lock_guard<std::mutex> lk(mtx_);
        for (auto it = entries_.begin(); it != entries_.end();) {
            auto next = std::next(it);
            if (it->second.bytes != 0) {
                dropEntryLocked(it);
            }
            it = next;
        }
    }

    size_t budgetBytes() const { return budget_; }
    size_t residentBytes() const { return stats().residentBytes; }
    const std::string &label() const { return label_; }

    /** Exact counters since construction. */
    struct Stats
    {
        u64 hits = 0;
        u64 misses = 0;
        u64 evictions = 0;
        u64 materializations = 0; ///< materializations actually paid
        size_t residentBytes = 0;

        double
        hitRate() const
        {
            u64 total = hits + misses;
            return total == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(total);
        }
    };

    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lk(mtx_);
        return stats_;
    }

  private:
    struct Entry
    {
        std::shared_future<std::shared_ptr<const V>> value;
        size_t bytes = 0; ///< 0 while materialization is in flight
        std::list<TenantId>::iterator lruIt;
    };
    using EntryMap = std::map<TenantId, Entry>;

    /** Evict LRU-tail entries until the budget holds; never evicts
     *  @p keep or in-flight entries. Caller holds mtx_. */
    void
    evictToBudget(TenantId keep)
    {
        if (budget_ == 0) {
            return;
        }
        while (stats_.residentBytes > budget_) {
            bool evicted = false;
            for (auto rit = lru_.rbegin(); rit != lru_.rend(); ++rit) {
                if (*rit == keep) {
                    continue;
                }
                auto it = entries_.find(*rit);
                if (it->second.bytes == 0) {
                    continue; // materialization in flight — not evictable
                }
                dropEntryLocked(it);
                evicted = true;
                break;
            }
            if (!evicted) {
                // Only @p keep and in-flight entries remain: a single
                // tenant may legitimately exceed the whole budget.
                break;
            }
        }
    }

    void
    dropEntryLocked(typename EntryMap::iterator it)
    {
        stats_.residentBytes -= it->second.bytes;
        if (it->second.bytes != 0) {
            ++stats_.evictions;
            metrics_.evictions.add();
        }
        metrics_.resident_bytes.set(static_cast<i64>(stats_.residentBytes));
        lru_.erase(it->second.lruIt);
        entries_.erase(it);
    }

    const Materializer materialize_;
    const size_t budget_; ///< 0 = unbounded
    const std::string label_;
    ResidentCacheMetrics metrics_;

    mutable std::mutex mtx_;
    EntryMap entries_;
    std::list<TenantId> lru_; ///< front = most recently used
    Stats stats_;
};

} // namespace runtime
} // namespace trinity

#endif // TRINITY_RUNTIME_RESIDENT_CACHE_H
