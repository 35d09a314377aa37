/**
 * @file
 * Multi-tenant key management for the serving runtime.
 *
 * "Millions of users" means per-tenant bootstrap/keyswitch keys (tens
 * of MB each at Set-I: the bsk alone is n_lwe * (k+1)^2 * lb * N * 8
 * bytes ≈ 32 MB) dominate serving memory long before compute
 * saturates. The KeyStore is the cache that makes that workable:
 *
 *  - Tenants register durable key material in coefficient ("at rest")
 *    form via a Provider callback — the form keys arrive over the
 *    wire and the form a real deployment would persist.
 *  - acquire(tenant) returns the tenant's *working-set* form: the
 *    bootstrap key materialized into the NTT domain (one forward-NTT
 *    sweep over every GGSW row — real, counted work) plus the
 *    keyswitch key and sign test vector copied into serving memory.
 *    Materialization happens exactly once per residency, even under
 *    concurrent acquires (later callers wait on the first caller's
 *    in-flight materialization).
 *  - Resident entries are weight-accounted by their actual byte size
 *    and evicted in LRU order once the total exceeds the budget
 *    (TRINITY_KEYSTORE_BYTES, or the constructor argument); acquire()
 *    pins the keys a batch runs on. The cache itself — materialize
 *    once, eviction, pinning, stats and the <label>.* metrics — is the
 *    serving layer's one ResidentCache (runtime/resident_cache.h).
 */

#ifndef TRINITY_RUNTIME_KEY_STORE_H
#define TRINITY_RUNTIME_KEY_STORE_H

#include <functional>
#include <string>

#include "runtime/resident_cache.h"
#include "tfhe/pbs.h"

namespace trinity {
namespace runtime {

/**
 * A tenant's durable key material, as registered with the serving
 * system: the bootstrap key in coefficient (at rest) form, the
 * keyswitch key, and the tenant's sign test vector. The LWE secret
 * key is carried only so load generators and tests can encrypt and
 * verify on the tenant's behalf — a real server never sees it.
 */
struct TenantKeyMaterial
{
    LweSecretKey lweKey;        ///< client-side only (encrypt/verify)
    TfheBootstrapKey bskStored; ///< coefficient domain, NOT usable in PBS
    TfheKeySwitchKey ksk;
    Poly signTv;                ///< the tenant's default (sign) LUT

    /** Generate a fresh tenant key set under @p ctx / @p boot. Not
     *  thread-safe (the context RNG is shared); generate tenants
     *  serially. */
    static TenantKeyMaterial generate(TfheContext &ctx,
                                      TfheBootstrapper &boot);
};

/** A tenant's materialized working set: what PBS actually consumes. */
struct ResidentKeys
{
    TfheBootstrapKey bsk; ///< NTT (eval) domain
    TfheKeySwitchKey ksk;
    Poly signTv;
    size_t bytes = 0; ///< weight charged against the store budget
};

/**
 * Weight-accounted LRU cache of materialized tenant keys: the
 * ResidentCache whose materializer deep-copies a tenant's stored keys
 * and runs the bootstrap key's forward-NTT sweep.
 */
class KeyStore : public ResidentCache<ResidentKeys>
{
  public:
    /** Durable-material lookup; the returned reference must stay
     *  valid until the store is destroyed. Called outside the store
     *  lock, possibly from several threads for distinct tenants.
     *  Throws std::out_of_range for a tenant it does not know. */
    using Provider = std::function<const TenantKeyMaterial &(TenantId)>;

    /**
     * @p ctx     owner of params/NTT tables; must outlive the store.
     * @p budget  resident-bytes ceiling; 0 means unbounded.
     * @p label   metrics prefix (default "keystore"; shards pass
     *            "keystore.shard<i>").
     */
    KeyStore(const TfheContext &ctx, Provider provider, size_t budget,
             std::string label = "keystore");

    /** TRINITY_KEYSTORE_BYTES when set, else @p fallback. */
    static size_t budgetFromEnv(size_t fallback);

    /** Working-set bytes one tenant costs when resident (NTT bsk +
     *  ksk + test vector) — for sizing budgets in benches/tests. */
    static size_t residentBytesFor(const TfheParams &p);
};

} // namespace runtime
} // namespace trinity

#endif // TRINITY_RUNTIME_KEY_STORE_H
