/**
 * @file
 * PIR database forms and per-tenant residency.
 *
 * A database lives in two forms:
 *
 *  - PirDatabase: the at-rest form — records() plaintext records of N
 *    coefficients, each logP bits. This is what a tenant registers
 *    and what the response decodes back to.
 *  - ResidentPirDb: the serving working set the first-dimension fold
 *    streams — per record, the lb gadget-scaled NTT-domain copies
 *    NTT(g_l * pt), so the fold's MACs pair gadget digits of the
 *    selection ciphertexts directly against transform-domain rows
 *    (OnionPIR's preprocessed database). The blow-up vs the packed
 *    plaintext is lb * 64 / logP — resident bytes, not raw bytes, are
 *    what bounds how many tenant databases fit in serving memory.
 *
 * PirDbStore is the weight-accounted LRU over materialized tenant
 * databases (the KeyStore pattern): materialization happens exactly
 * once per residency even under concurrent acquires, acquire() pins
 * via shared_ptr so eviction never invalidates an in-flight fold, and
 * the budget comes from TRINITY_PIR_DB_BYTES.
 */

#ifndef TRINITY_PIR_DATABASE_H
#define TRINITY_PIR_DATABASE_H

#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "pir/params.h"
#include "tfhe/core.h"

namespace trinity {
namespace pir {

/** Tenant identity (shared with the serving runtime). */
using PirTenantId = u64;

/** At-rest database: packed plaintext records. */
class PirDatabase
{
  public:
    /** Zeroed database of params.records() records. */
    explicit PirDatabase(const PirParams &params);

    /** Uniform random records (bench/test data). */
    static PirDatabase random(const PirParams &params, u64 seed);

    const PirParams &params() const { return params_; }
    size_t records() const { return params_.records(); }

    /** Coefficient @p i of record @p rec, in [0, 2^logP). */
    u64 coeff(size_t rec, size_t i) const
    {
        return store_[rec * params_.tfhe.bigN + i];
    }
    void setCoeff(size_t rec, size_t i, u64 v);

    /** All N coefficients of one record. */
    std::vector<u64> record(size_t rec) const;

    /** Logical packed size (records * N * logP / 8). */
    size_t rawBytes() const { return params_.rawBytes(); }

  private:
    PirParams params_;
    std::vector<u8> store_; ///< one byte per coefficient (logP <= 8)
};

/** Serving form: gadget-scaled NTT rows, ready for the fold's MACs. */
struct ResidentPirDb
{
    /** polys[rec * lb + l] = NTT(g_l * pt_rec); record rec on the
     *  grid is column (rec / dim1), first-dimension row (rec % dim1). */
    std::vector<Poly> polys;
    size_t bytes = 0;

    const Poly &
    poly(size_t rec, u32 l) const
    {
        return polys[rec * lb + l];
    }
    u32 lb = 0;
};

/**
 * Build the serving form: one forward NTT per record plus lb scalar
 * multiplies in the transform domain (the NTT is linear, so scaling
 * after the transform saves (lb-1) NTTs per record), all issued as
 * wide backend batches.
 */
ResidentPirDb materializePirDb(const TfheContext &ctx,
                               const PirDatabase &db);

/** Weight-accounted LRU cache of materialized tenant databases. */
class PirDbStore
{
  public:
    /** At-rest database lookup; the returned reference must stay
     *  valid until the store is destroyed. Called outside the store
     *  lock, possibly concurrently for distinct tenants. Throws
     *  std::out_of_range for a tenant it does not know. */
    using Provider = std::function<const PirDatabase &(PirTenantId)>;

    PirDbStore(const TfheContext &ctx, Provider provider, size_t budget,
               std::string label = "pir_dbstore");

    PirDbStore(const PirDbStore &) = delete;
    PirDbStore &operator=(const PirDbStore &) = delete;

    /** The tenant's resident database, faulting it in (and evicting
     *  LRU entries past the budget) on a miss. The returned pointer
     *  pins the database for as long as the caller holds it. */
    std::shared_ptr<const ResidentPirDb> acquire(PirTenantId tenant);

    bool resident(PirTenantId tenant) const;
    bool evict(PirTenantId tenant);

    size_t budgetBytes() const { return budget_; }
    size_t residentBytes() const;
    const std::string &label() const { return label_; }

    struct Stats
    {
        u64 hits = 0;
        u64 misses = 0;
        u64 evictions = 0;
        u64 materializations = 0;
        size_t residentBytes = 0;
    };
    Stats stats() const;

    /** TRINITY_PIR_DB_BYTES when set, else @p fallback. */
    static size_t budgetFromEnv(size_t fallback);

  private:
    struct Entry
    {
        std::shared_future<std::shared_ptr<const ResidentPirDb>> db;
        size_t bytes = 0; ///< 0 while materialization is in flight
        std::list<PirTenantId>::iterator lruIt;
    };

    std::shared_ptr<const ResidentPirDb> materialize(PirTenantId tenant);
    void evictToBudget(PirTenantId keep);
    void dropEntryLocked(std::map<PirTenantId, Entry>::iterator it);

    const TfheContext &ctx_;
    Provider provider_;
    size_t budget_; ///< 0 = unbounded
    std::string label_;

    mutable std::mutex mtx_;
    std::map<PirTenantId, Entry> entries_;
    std::list<PirTenantId> lru_; ///< front = most recently used
    size_t residentBytes_ = 0;
    Stats stats_;

    struct Metrics;
    Metrics &metrics_;
};

} // namespace pir
} // namespace trinity

#endif // TRINITY_PIR_DATABASE_H
