#include "runtime/key_store.h"

#include "common/env.h"
#include "common/logging.h"

namespace trinity {
namespace runtime {

// ------------------------------------------------------- tenant material

TenantKeyMaterial
TenantKeyMaterial::generate(TfheContext &ctx, TfheBootstrapper &boot)
{
    TenantKeyMaterial m;
    m.lweKey = ctx.makeLweKey();
    GlweSecretKey glwe = ctx.makeGlweKey();
    // Stored form: coefficient domain. The NTT sweep is deferred to
    // the keystore's first-use materialization.
    m.bskStored = boot.makeBootstrapKey(m.lweKey, glwe, false);
    m.ksk = boot.makeKeySwitchKey(glwe, m.lweKey);
    m.signTv = boot.signTestVector(ctx.params().q / 8);
    return m;
}

// ----------------------------------------------------------- byte sizing

namespace {

size_t
bskBytesOf(const TfheBootstrapKey &bsk)
{
    size_t bytes = 0;
    for (const GgswCiphertext &g : bsk.bsk) {
        for (const GlweCiphertext &row : g.rows) {
            for (const Poly &aj : row.a) {
                bytes += aj.coeffs().size() * sizeof(u64);
            }
            bytes += row.b.coeffs().size() * sizeof(u64);
        }
    }
    return bytes;
}

size_t
kskBytesOf(const TfheKeySwitchKey &ksk)
{
    size_t bytes = 0;
    for (const auto &levels : ksk.rows) {
        for (const LweCiphertext &ct : levels) {
            bytes += (ct.a.size() + 1) * sizeof(u64);
        }
    }
    return bytes;
}

} // namespace

size_t
KeyStore::residentBytesFor(const TfheParams &p)
{
    size_t bsk = p.nLwe * p.extRows() * (p.k + 1) * p.bigN * sizeof(u64);
    size_t ksk =
        p.k * p.bigN * p.lk * (p.nLwe + 1) * sizeof(u64);
    size_t tv = p.bigN * sizeof(u64);
    return bsk + ksk + tv;
}

size_t
KeyStore::budgetFromEnv(size_t fallback)
{
    u64 v = 0;
    if (envU64("TRINITY_KEYSTORE_BYTES", v)) {
        return static_cast<size_t>(v);
    }
    return fallback;
}

// -------------------------------------------------------------- KeyStore

KeyStore::KeyStore(const TfheContext &ctx, Provider provider,
                   size_t budget, std::string label)
    : ResidentCache(
          [&ctx, provider](TenantId tenant) {
              // Deep-copy the stored (coefficient-domain) bootstrap key
              // and run the forward-NTT sweep — the lazy materialization
              // this store exists to amortize. If a provider hands out
              // keys already in the NTT domain, ggswToEval is a no-op
              // and only the copy is paid.
              const TenantKeyMaterial &m = provider(tenant);
              ResidentKeys keys;
              keys.bsk.bsk = m.bskStored.bsk;
              for (GgswCiphertext &g : keys.bsk.bsk) {
                  ctx.ggswToEval(g);
              }
              keys.ksk = m.ksk;
              keys.signTv = m.signTv;
              keys.bytes = bskBytesOf(keys.bsk) + kskBytesOf(keys.ksk) +
                           keys.signTv.coeffs().size() * sizeof(u64);
              return keys;
          },
          budget, std::move(label))
{
    trinity_assert(provider != nullptr,
                   "KeyStore needs a tenant-material provider");
}

} // namespace runtime
} // namespace trinity
