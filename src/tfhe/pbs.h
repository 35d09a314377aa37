/**
 * @file
 * TFHE Programmable Bootstrapping — Algorithm 2 of the paper:
 * ModSwitch, Blind Rotation (n_lwe CMux/external-product iterations),
 * SampleExtract, and the TFHE KeySwitch back to the small LWE key.
 */

#ifndef TRINITY_TFHE_PBS_H
#define TRINITY_TFHE_PBS_H

#include <functional>

#include "tfhe/core.h"

namespace trinity {

/** Bootstrapping key: one GGSW per LWE key bit, NTT domain. */
struct TfheBootstrapKey
{
    std::vector<GgswCiphertext> bsk;
};

/** KeySwitch key: kN x lk LWE encryptions of s_glwe[i] * gks_j. */
struct TfheKeySwitchKey
{
    std::vector<std::vector<LweCiphertext>> rows;
    u32 logB = 0;
    u32 levels = 0;
};

/** Runs Algorithm 2 and generates its key material. */
class TfheBootstrapper
{
  public:
    explicit TfheBootstrapper(std::shared_ptr<TfheContext> ctx);

    /** bsk: GGSW encryptions of each LWE key bit under the GLWE key.
     *  With @p toEval (the default) every GGSW is moved to the NTT
     *  domain at keygen — the single-tenant fast path. Pass false to
     *  keep the key in coefficient ("at rest" / wire) form, the shape
     *  a multi-tenant keystore holds durably and materializes into
     *  NTT form lazily on first use (runtime::KeyStore). */
    TfheBootstrapKey makeBootstrapKey(const LweSecretKey &lwe_sk,
                                      const GlweSecretKey &glwe_sk,
                                      bool toEval = true);

    /** ksk: extracted-key to LWE-key switching material. */
    TfheKeySwitchKey makeKeySwitchKey(const GlweSecretKey &from,
                                      const LweSecretKey &to);

    /** ModSwitch: round x from Z_q to Z_{2N}. */
    u64 modSwitch(u64 x) const;

    /**
     * Blind Rotation: returns a GLWE holding tv * X^{-phase~} where
     * phase~ is the mod-switched phase of @p ct.
     */
    GlweCiphertext blindRotate(const LweCiphertext &ct, const Poly &tv,
                               const TfheBootstrapKey &bsk) const;

    /** SampleExtract: LWE of coefficient @p idx under the wide key. */
    LweCiphertext sampleExtract(const GlweCiphertext &acc,
                                size_t idx) const;

    /** TFHE KeySwitch (Algorithm 2 lines 16-17). */
    LweCiphertext keySwitch(const LweCiphertext &wide,
                            const TfheKeySwitchKey &ksk) const;

    /** Full PBS: blind rotate + extract + keyswitch. */
    LweCiphertext pbs(const LweCiphertext &in, const Poly &tv,
                      const TfheBootstrapKey &bsk,
                      const TfheKeySwitchKey &ksk) const;

    // --- batch-shaped entry points (the serving runtime's job stream)

    /**
     * Batched Blind Rotation: runs the n_lwe CMux steps of @p count
     * independent ciphertexts in lockstep against each bootstrap-key
     * GGSW, issuing every step's decompositions, NTTs, and MACs as
     * wide backend batches (count * (k+1) * lb limbs per call).
     * cts[j] / tvs[j] are request j's input and test vector.
     * Bit-identical per request to blindRotate() on every engine.
     */
    std::vector<GlweCiphertext>
    blindRotateBatch(const LweCiphertext *const *cts,
                     const Poly *const *tvs, size_t count,
                     const TfheBootstrapKey &bsk) const;

    /** Batched SampleExtract of coefficient @p idx. */
    std::vector<LweCiphertext>
    sampleExtractBatch(const GlweCiphertext *accs, size_t count,
                       size_t idx) const;

    /** Batched TFHE KeySwitch back to the small LWE key. */
    std::vector<LweCiphertext>
    keySwitchBatch(const LweCiphertext *wides, size_t count,
                   const TfheKeySwitchKey &ksk) const;

    /**
     * Batched PBS — Trinity's CU bootstrap batching (Table VII):
     * blind rotation in lockstep, then batched extract + keyswitch.
     * out[j] is bit-identical to pbs(*ins[j], *tvs[j], bsk, ksk).
     */
    std::vector<LweCiphertext>
    pbsBatch(const LweCiphertext *const *ins, const Poly *const *tvs,
             size_t count, const TfheBootstrapKey &bsk,
             const TfheKeySwitchKey &ksk) const;

    /** Test vector with tv[i] = f(i), i in [0, N). */
    Poly makeTestVector(const std::function<u64(size_t)> &f) const;

    /** Constant test vector (sign bootstrap): tv[i] = amplitude. */
    Poly signTestVector(u64 amplitude) const;

  private:
    std::shared_ptr<TfheContext> ctx_;

    /** sampleExtract math without the kernel emission. */
    void extractInto(const GlweCiphertext &acc, size_t idx,
                     LweCiphertext &out) const;
    /**
     * keySwitch math for @p count ciphertexts without the kernel
     * emission; returns the MAC lanes of every nonzero digit. Batch
     * lockstep: digits first, then one walk over the key applying
     * each row to every ciphertext (signed i64 accumulation, one
     * reduction per output), so the key streams once per batch.
     */
    u64 keySwitchLockstep(const LweCiphertext *wides, size_t count,
                          const TfheKeySwitchKey &ksk,
                          LweCiphertext *outs) const;
};

} // namespace trinity

#endif // TRINITY_TFHE_PBS_H
