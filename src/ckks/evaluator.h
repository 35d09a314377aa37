/**
 * @file
 * CKKS homomorphic evaluator — the operations of Table II (HAdd, PAdd,
 * HMult, PMult, HRotate, Rescale) built from the kernels of Table I
 * (NTT, BConv, IP, ModMul, ModAdd, Auto), with Algorithm 1's hybrid
 * keyswitch at the center.
 */

#ifndef TRINITY_CKKS_EVALUATOR_H
#define TRINITY_CKKS_EVALUATOR_H

#include "ckks/encryptor.h"
#include "ckks/keys.h"

namespace trinity {

/** Homomorphic operation engine for CKKS ciphertexts. */
class CkksEvaluator
{
  public:
    explicit CkksEvaluator(std::shared_ptr<const CkksContext> ctx);

    /** HAdd: ciphertext + ciphertext (same level; scales must match). */
    CkksCiphertext add(const CkksCiphertext &a,
                       const CkksCiphertext &b) const;

    /** Ciphertext - ciphertext. */
    CkksCiphertext sub(const CkksCiphertext &a,
                       const CkksCiphertext &b) const;

    /** Negation. */
    CkksCiphertext negate(const CkksCiphertext &a) const;

    /** PAdd: ciphertext + plaintext. */
    CkksCiphertext addPlain(const CkksCiphertext &a,
                            const CkksPlaintext &pt) const;

    /** PMult: ciphertext * plaintext (scale multiplies). */
    CkksCiphertext mulPlain(const CkksCiphertext &a,
                            const CkksPlaintext &pt) const;

    /**
     * HMult: ciphertext * ciphertext with relinearization through the
     * hybrid keyswitch. Resulting scale is the product; call
     * rescaleInPlace afterwards.
     */
    CkksCiphertext multiply(const CkksCiphertext &a,
                            const CkksCiphertext &b,
                            const CkksEvalKey &relin_key) const;

    /** Homomorphic squaring (saves one tensor multiply vs multiply). */
    CkksCiphertext square(const CkksCiphertext &a,
                          const CkksEvalKey &relin_key) const;

    /** Add a real scalar to every slot. */
    CkksCiphertext addScalar(const CkksCiphertext &a, double v) const;

    /** Multiply every slot by an integer scalar (scale unchanged). */
    CkksCiphertext mulScalarInt(const CkksCiphertext &a, i64 v) const;

    /** Complex conjugation of all slots (Galois index 2N - 1). */
    CkksCiphertext conjugate(const CkksCiphertext &ct,
                             const CkksEvalKey &conj_key) const;

    /** Rescale: divide by q_l, dropping one level. */
    void rescaleInPlace(CkksCiphertext &ct) const;

    /**
     * HRotate: rotate slot vector left by @p steps using the matching
     * rotation key.
     */
    CkksCiphertext rotate(const CkksCiphertext &ct, i64 steps,
                          const CkksEvalKey &rot_key) const;

    /** Apply automorphism X -> X^g with its Galois key. */
    CkksCiphertext applyGalois(const CkksCiphertext &ct, u64 g,
                               const CkksEvalKey &galois_key) const;

    /**
     * The paper's plain Rotate (Table I): multiply both components by
     * X^t. No key material needed; used by scheme conversion.
     */
    CkksCiphertext rotatePoly(const CkksCiphertext &ct, u64 t) const;

    /** Drop limbs until the ciphertext sits at @p level. */
    void dropToLevel(CkksCiphertext &ct, size_t level) const;

    /**
     * Algorithm 1 (Hybrid KeySwitch): given d over q_0..q_l in the
     * coefficient domain, produce (ct0, ct1) with
     * ct0 + ct1*s ~ d*s' where s' is the evk's target secret.
     * ct1 owns a q-limb slab; ct0 keeps its extended-basis
     * accumulator slab (q + special limbs), so fold it into another
     * poly rather than storing it.
     */
    std::pair<RnsPoly, RnsPoly> keySwitch(const RnsPoly &d,
                                          const CkksEvalKey &evk,
                                          size_t level) const;

    const CkksContext &context() const { return *ctx_; }

  private:
    std::shared_ptr<const CkksContext> ctx_;

    void checkAligned(const CkksCiphertext &a,
                      const CkksCiphertext &b) const;
};

} // namespace trinity

#endif // TRINITY_CKKS_EVALUATOR_H
