/**
 * @file
 * Keyswitched GLWE automorphisms — the expansion primitive.
 *
 * Applying X -> X^g to a GLWE ciphertext permutes the key to
 * sigma_g(s); a GaloisKey (gadget GLWE encryptions of g_l *
 * sigma_g(s_j) under s, held in the NTT domain) switches back:
 *
 *   out.a_j = -sum_{j,l} dec_l(sigma(a_j)) (*) ksk_{j,l}.a_j
 *   out.b   = sigma(b) - sum_{j,l} dec_l(sigma(a_j)) (*) ksk_{j,l}.b
 *
 * so phase(out) = sigma_g(phase(in)) up to keyswitch noise. The
 * decomposition uses the fine expansion gadget (params.lk/logBks),
 * not the external-product gadget — the oblivious expansion applies
 * ~2^m of these in a doubling walk, so its per-step noise has to be
 * much smaller than a CMux level's.
 *
 * applyGaloisBatch() runs many independent ciphertexts through one
 * automorphism as wide backend batches (one AutoJob batch, one
 * decompose task, one NTT batch, one MAC task, one inverse-NTT batch)
 * — the same batch shapes the conv packer's hybrid keyswitch issues,
 * sharing AutoTableCache entries per (N, g).
 */

#ifndef TRINITY_PIR_GALOIS_H
#define TRINITY_PIR_GALOIS_H

#include "common/gadget.h"
#include "tfhe/core.h"

namespace trinity {
namespace pir {

/** Keyswitch material for one automorphism element g. */
struct GaloisKey
{
    u64 g = 0;
    u32 logB = 0;
    u32 levels = 0;
    /** rows[j*levels + l]: GLWE encryption of g_l * sigma_g(s_j),
     *  NTT domain. */
    std::vector<GlweCiphertext> rows;
};

/** Generate the keyswitch key for X -> X^g under @p sk, using the
 *  expansion gadget (ctx.params().lk / logBks). Client-side. */
GaloisKey makeGaloisKey(TfheContext &ctx, const GlweSecretKey &sk,
                        u64 g);

/**
 * out[i] = keyswitched sigma_g(in[i]) for @p count independent
 * ciphertexts (coefficient domain), issued as wide backend batches.
 * out must not alias in.
 */
void applyGaloisBatch(const TfheContext &ctx, const GaloisKey &key,
                      const GlweCiphertext *in, GlweCiphertext *out,
                      size_t count);

/** Single-ciphertext convenience wrapper. */
GlweCiphertext applyGalois(const TfheContext &ctx, const GaloisKey &key,
                           const GlweCiphertext &ct);

} // namespace pir
} // namespace trinity

#endif // TRINITY_PIR_GALOIS_H
