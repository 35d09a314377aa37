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
 * PirDbStore is the serving layer's one residency cache
 * (runtime::ResidentCache, shared with the KeyStore) over materialized
 * tenant databases: acquire() pins via shared_ptr so eviction never
 * invalidates an in-flight fold, and the budget comes from
 * TRINITY_PIR_DB_BYTES.
 */

#ifndef TRINITY_PIR_DATABASE_H
#define TRINITY_PIR_DATABASE_H

#include <functional>
#include <string>

#include "pir/params.h"
#include "runtime/resident_cache.h"
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

/** Weight-accounted LRU cache of materialized tenant databases: the
 *  ResidentCache whose materializer is materializePirDb. */
class PirDbStore : public runtime::ResidentCache<ResidentPirDb>
{
  public:
    /** At-rest database lookup; the returned reference must stay
     *  valid until the store is destroyed. Called outside the store
     *  lock, possibly concurrently for distinct tenants. Throws
     *  std::out_of_range for a tenant it does not know. */
    using Provider = std::function<const PirDatabase &(PirTenantId)>;

    PirDbStore(const TfheContext &ctx, Provider provider, size_t budget,
               std::string label = "pir_dbstore");

    /** TRINITY_PIR_DB_BYTES when set, else @p fallback. */
    static size_t budgetFromEnv(size_t fallback);
};

} // namespace pir
} // namespace trinity

#endif // TRINITY_PIR_DATABASE_H
