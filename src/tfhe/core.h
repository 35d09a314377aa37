/**
 * @file
 * TFHE ciphertext types and core operations: LWE, GLWE, GGSW, gadget
 * decomposition, and the NTT-based External Product (Section II-B).
 */

#ifndef TRINITY_TFHE_CORE_H
#define TRINITY_TFHE_CORE_H

#include <memory>
#include <vector>

#include "backend/poly_backend.h"
#include "common/gadget.h"
#include "common/rng.h"
#include "poly/poly.h"
#include "tfhe/params.h"

namespace trinity {

/** LWE ciphertext [[m]] = (a, b), b = <a, s> + m + e. */
struct LweCiphertext
{
    std::vector<u64> a;
    u64 b = 0;
};

/** GLWE ciphertext (A_1..A_k, B), B = sum A_j S_j + M + E. */
struct GlweCiphertext
{
    std::vector<Poly> a; ///< k mask polynomials
    Poly b;              ///< body
};

/** GGSW ciphertext: (k+1)*lb GLWE rows holding mu * gadget. */
struct GgswCiphertext
{
    /** rows[j*lb + l]: mu*g_l added to component j (j = k is the body). */
    std::vector<GlweCiphertext> rows;
    /** Rows pre-transformed to the NTT domain (transform-domain reuse). */
    bool inEval = false;
};

/** Binary LWE secret key. */
struct LweSecretKey
{
    std::vector<i64> s; ///< entries in {0,1}
};

/** GLWE secret key: k binary polynomials. */
struct GlweSecretKey
{
    std::vector<std::vector<i64>> s;

    /** Flatten to the extracted LWE key of dimension k*N. */
    LweSecretKey extractLweKey() const;
};

/** TFHE context: parameters + samplers + gadget precomputation. */
class TfheContext
{
  public:
    TfheContext(const TfheParams &params, u64 seed);

    const TfheParams &params() const { return params_; }
    u64 q() const { return params_.q; }
    const Modulus &modulus() const { return mod_; }

    // --- key generation -------------------------------------------------
    LweSecretKey makeLweKey();
    GlweSecretKey makeGlweKey();

    // --- LWE -------------------------------------------------------------
    /** Encrypt a raw value m (already scaled into [0,q)). */
    LweCiphertext lweEncrypt(u64 m, const LweSecretKey &sk,
                             double sigma = -1);
    /** Noise-free phase b - <a,s>. */
    u64 lwePhase(const LweCiphertext &ct, const LweSecretKey &sk) const;

    // --- GLWE ------------------------------------------------------------
    GlweCiphertext glweEncrypt(const Poly &m, const GlweSecretKey &sk,
                               double sigma = -1);
    /** Trivial (noise-free, zero-mask) GLWE of a plaintext. */
    GlweCiphertext glweTrivial(const Poly &m) const;
    Poly glwePhase(const GlweCiphertext &ct,
                   const GlweSecretKey &sk) const;

    // --- GGSW and external product ----------------------------------
    /** GGSW encryption of small signed mu (typically a key bit). */
    GgswCiphertext ggswEncrypt(i64 mu, const GlweSecretKey &sk,
                               double sigma = -1);

    /** Move all GGSW rows to the NTT domain (done once at keygen). */
    void ggswToEval(GgswCiphertext &ggsw) const;

    /**
     * Signed gadget decomposition of a residue x into lb digits
     * d_l in [-Bg/2, Bg/2), so x ~ sum d_l * g_l.
     */
    void decomposeScalar(u64 x, i64 *digits) const
    {
        gadget_.decompose(x, digits);
    }

    /** Decompose every coefficient of a GLWE into (k+1)*lb polys. */
    std::vector<Poly> decompose(const GlweCiphertext &ct) const;

    /** Gadget element g_l = round(q / Bg^(l+1)). */
    u64 gadget(u32 level) const { return gadget_.element(level); }

    /** The external-product gadget (q, logBg, lb). */
    const Gadget &extGadget() const { return gadget_; }

    /**
     * External Product: GGSW (x) GLWE via (k+1)*lb forward NTTs, MAC
     * against the transform-domain GGSW rows, and (k+1) inverse NTTs
     * (the inner loop of Algorithm 2).
     */
    GlweCiphertext externalProduct(const GgswCiphertext &ggsw,
                                   const GlweCiphertext &ct) const;

    /** CMux(c, ct0, ct1) = ct0 + c (x) (ct1 - ct0). */
    GlweCiphertext cmux(const GgswCiphertext &c, const GlweCiphertext &ct0,
                        const GlweCiphertext &ct1) const;

    /**
     * GGSW encryption of a polynomial message (e.g. -s_j for the
     * RLWE->GSW conversion keys of the PIR query pipeline). The
     * scalar ggswEncrypt() is the mu * X^0 special case.
     */
    GgswCiphertext ggswEncryptPoly(const Poly &mu,
                                   const GlweSecretKey &sk,
                                   double sigma = -1);

    /**
     * Apply the Galois automorphism X -> X^g to every component, as
     * one backend batch (coefficient domain). The result decrypts to
     * sigma_g(m) under the permuted key sigma_g(s) — follow with a
     * keyswitch (pir::GaloisKey) to return to s.
     */
    GlweCiphertext glweAutomorphism(const GlweCiphertext &ct,
                                    u64 g) const;

    /** Multiply every GLWE component by X^t (negacyclic rotate). */
    GlweCiphertext glweMulMonomial(const GlweCiphertext &ct,
                                   u64 t) const;

    /** GLWE addition / subtraction. */
    GlweCiphertext glweAdd(const GlweCiphertext &x,
                           const GlweCiphertext &y) const;
    GlweCiphertext glweSub(const GlweCiphertext &x,
                           const GlweCiphertext &y) const;

    Rng &rng() { return rng_; }

  private:
    TfheParams params_;
    Modulus mod_;
    Rng rng_;
    Gadget gadget_; ///< external-product gadget (q, logBg, lb)
    std::shared_ptr<const NttTable> table_;

    Poly noisePoly(double sigma);
};

} // namespace trinity

#endif // TRINITY_TFHE_CORE_H
