/**
 * @file
 * Residue Number System polynomials and fast base conversion.
 *
 * RNS-CKKS decomposes a wide-modulus polynomial into limbs over small
 * NTT-friendly primes (Table I: Q = prod q_i). An RnsPoly stores all
 * limbs in ONE contiguous limb-major buffer (limbs x N) so the batched
 * kernels an accelerator executes in bulk — NTT, ModMul, BConv, Auto —
 * operate on a single allocation; per-limb access goes through the
 * lightweight LimbView. The buffer is a ScratchArena slab, so a warmed
 * evaluator reuses pooled slabs instead of paying a heap allocation
 * (and its page faults) per temporary; dropLastLimb keeps the slab.
 * All bulk operations route through the active PolyBackend execution
 * engine.
 *
 * The BConv kernel (Section II-A) — a matrix product between an
 * alpha x N limb matrix and an alpha x l base-change matrix — is what
 * Trinity maps onto CU systolic arrays. BaseConverter is its bit-exact
 * software model, also routed through the backend so a future
 * CU-systolic or GPU engine can own it.
 */

#ifndef TRINITY_POLY_RNS_H
#define TRINITY_POLY_RNS_H

#include <span>
#include <vector>

#include "backend/poly_backend.h"
#include "backend/scratch_arena.h"
#include "poly/poly.h"

namespace trinity {

/** Read-only view of one limb inside an RnsPoly's flat buffer. */
class ConstLimbView
{
  public:
    ConstLimbView(const u64 *data, size_t n, const Modulus *mod,
                  Domain domain)
        : data_(data), n_(n), mod_(mod), domain_(domain)
    {
    }

    size_t n() const { return n_; }
    u64 q() const { return mod_->value(); }
    const Modulus &modulus() const { return *mod_; }
    Domain domain() const { return domain_; }
    const u64 *data() const { return data_; }
    u64 operator[](size_t i) const { return data_[i]; }

    /** Copy of the limb coefficients. */
    std::vector<u64>
    coeffs() const
    {
        return std::vector<u64>(data_, data_ + n_);
    }

    /** Materialize the limb as a standalone Poly (copies). */
    Poly toPoly() const;

    /** Infinity norm of the centered representation. */
    u64 infNorm() const;

  private:
    const u64 *data_;
    size_t n_;
    const Modulus *mod_;
    Domain domain_;
};

/** Mutable view of one limb inside an RnsPoly's flat buffer. */
class LimbView
{
  public:
    LimbView(u64 *data, size_t n, const Modulus *mod, Domain domain)
        : data_(data), n_(n), mod_(mod), domain_(domain)
    {
    }

    operator ConstLimbView() const
    {
        return ConstLimbView(data_, n_, mod_, domain_);
    }

    size_t n() const { return n_; }
    u64 q() const { return mod_->value(); }
    const Modulus &modulus() const { return *mod_; }
    Domain domain() const { return domain_; }
    u64 *data() { return data_; }
    const u64 *data() const { return data_; }
    u64 &operator[](size_t i) { return data_[i]; }
    u64 operator[](size_t i) const { return data_[i]; }

    std::vector<u64>
    coeffs() const
    {
        return std::vector<u64>(data_, data_ + n_);
    }

    Poly toPoly() const;
    u64 infNorm() const;

    /** Copy a Poly's coefficients into the slot (n/q/domain must match). */
    LimbView &operator=(const Poly &p);

  private:
    u64 *data_;
    size_t n_;
    const Modulus *mod_;
    Domain domain_;
};

/** Element-wise sum of two limbs as a standalone Poly. */
Poly operator+(const ConstLimbView &a, const ConstLimbView &b);

/**
 * Polynomial in RNS representation over a flat limb-major buffer.
 * All limbs share one Domain tag (they are transformed together).
 */
class RnsPoly
{
  public:
    RnsPoly() = default;

    /** Zero polynomial over the given prime set (coefficient domain). */
    RnsPoly(size_t n, const std::vector<u64> &moduli);

    /**
     * Polynomial over the given prime set whose residues are left
     * unspecified (coefficient domain) — for outputs the caller
     * overwrites in full, skipping the zero-fill.
     */
    static RnsPoly uninitialized(size_t n, const std::vector<u64> &moduli);

    RnsPoly(const RnsPoly &o);
    RnsPoly &operator=(const RnsPoly &o);
    RnsPoly(RnsPoly &&) noexcept = default;
    RnsPoly &operator=(RnsPoly &&) noexcept = default;

    /** Gather existing limbs (all same length and domain) into flat form. */
    explicit RnsPoly(std::vector<Poly> limbs);

    size_t n() const { return n_; }
    size_t numLimbs() const { return mods_.size(); }

    LimbView
    limb(size_t i)
    {
        return LimbView(limbData(i), n_, &mods_[i], domain_);
    }
    ConstLimbView
    limb(size_t i) const
    {
        return ConstLimbView(limbData(i), n_, &mods_[i], domain_);
    }

    /** Raw pointer to limb @p i inside the flat buffer. */
    u64 *limbData(size_t i) { return data_.data() + i * n_; }
    const u64 *limbData(size_t i) const { return data_.data() + i * n_; }

    /** View of the whole limbs x N buffer, limb-major. */
    std::span<const u64> flat() const
    {
        return {data_.data(), numLimbs() * n_};
    }
    std::span<u64> flat() { return {data_.data(), numLimbs() * n_}; }

    const Modulus &modulusAt(size_t i) const { return mods_[i]; }
    const NttTable &nttTableAt(size_t i) const { return *tables_[i]; }

    /** Materialize limb @p i as a standalone Poly (copies). */
    Poly limbPoly(size_t i) const;

    /** Overwrite limb @p i from a Poly (n/q/domain must match). */
    void setLimb(size_t i, const Poly &p);

    /** Current modulus chain. */
    std::vector<u64> moduli() const;

    void toEval();
    void toCoeff();
    Domain domain() const { return domain_; }
    /** Override the domain tag without transforming (expert use). */
    void setDomain(Domain d) { domain_ = d; }

    void addInPlace(const RnsPoly &o);
    void subInPlace(const RnsPoly &o);
    void negInPlace();
    void mulPointwiseInPlace(const RnsPoly &o);
    /** Pointwise product into a fresh polynomial (Eval domain): the
     *  same kernel as mulPointwiseInPlace without copying *this. */
    RnsPoly mulPointwise(const RnsPoly &o) const;
    /** limb i *= scalars[i] (one reduced scalar per limb). */
    void scalarMulLimbwise(const std::vector<u64> &scalars);

    RnsPoly operator+(const RnsPoly &o) const;
    RnsPoly operator-(const RnsPoly &o) const;

    /** Drop the last limb (modulus-chain shortening; used by Rescale
     *  and ModDown). The buffer keeps its slab. */
    void dropLastLimb();

    /** First @p count limbs as a new RnsPoly (modulus-chain slicing). */
    RnsPoly prefix(size_t count) const;

    /** Apply automorphism X -> X^g to every limb (coeff domain). */
    RnsPoly automorphism(u64 g) const;

    /** Multiply every limb by X^t (coeff domain). */
    RnsPoly mulMonomial(u64 t) const;

    /**
     * Encode a small signed integer polynomial into all limbs
     * (each coefficient reduced per limb modulus).
     */
    static RnsPoly fromSigned(const std::vector<i64> &coeffs, size_t n,
                              const std::vector<u64> &moduli);

    /** Uniform random polynomial over every limb. */
    static RnsPoly uniform(size_t n, const std::vector<u64> &moduli,
                           Rng &rng, Domain d = Domain::Coeff);

  private:
    size_t n_ = 0;
    Domain domain_ = Domain::Coeff;
    ScratchBuffer data_; ///< limb-major, >= numLimbs * n elements
    std::vector<Modulus> mods_;
    std::vector<std::shared_ptr<const NttTable>> tables_;

    /** Same n/domain/moduli as @p shape, residues unspecified. */
    static RnsPoly uninitializedLike(const RnsPoly &shape);
    /** *this = a * b pointwise (Eval domain); *this has a's shape and
     *  may alias a or b. */
    void setProduct(const RnsPoly &a, const RnsPoly &b);

    void checkCompatible(const RnsPoly &o) const;
};

/**
 * Fast (HPS-style) approximate base conversion between RNS bases —
 * the BConv kernel.
 *
 * For input x given by limbs x_i mod q_i, outputs
 *   y_j = sum_i [x_i * (Q/q_i)^{-1}]_{q_i} * (Q/q_i)  mod p_j,
 * which represents x + u*Q for some 0 <= u < #from limbs. The small
 * Q-overshoot is absorbed by keyswitch noise, exactly as in RNS-CKKS.
 * Execution is delegated to the active PolyBackend.
 */
class BaseConverter
{
  public:
    BaseConverter(const std::vector<u64> &from,
                  const std::vector<u64> &to);

    const std::vector<u64> &fromModuli() const { return from_; }
    const std::vector<u64> &toModuli() const { return to_; }

    /**
     * Convert coefficient-domain limbs given as raw pointers: in[i]
     * over from[i], out[j] over to[j], each of length @p n. This is
     * the zero-copy path the evaluator uses against flat buffers.
     */
    void convertPointers(const u64 *const *in, u64 *const *out,
                         size_t n) const;

    /** Convert a coefficient-domain RnsPoly over the `from` basis. */
    RnsPoly convert(const RnsPoly &in) const;

    /**
     * Convert coefficient-domain limbs. Input polys must be over the
     * `from` moduli in order; output polys are over the `to` moduli.
     */
    std::vector<Poly> convert(const std::vector<Poly> &in) const;

    /** The precomputed constants, for backends that own BConv. */
    BConvPlan plan() const;

    /** Number of modular multiplications one conversion performs. */
    u64 mulCount(size_t n) const
    {
        return static_cast<u64>(n) * from_.size() * (1 + to_.size());
    }

  private:
    std::vector<u64> from_;
    std::vector<u64> to_;
    std::vector<Modulus> fromMods_;
    std::vector<Modulus> toMods_;
    /** (Q/q_i)^{-1} mod q_i, plus Shoup preconditioners. */
    std::vector<u64> qhatInv_;
    std::vector<u64> qhatInvPrecon_;
    /** (Q/q_i) mod p_j, row-major [i * to.size() + j]. */
    std::vector<u64> qhatModP_;
};

} // namespace trinity

#endif // TRINITY_POLY_RNS_H
