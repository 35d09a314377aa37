/**
 * @file
 * Scalar building blocks of the three non-NTT PBS kernels (rotate +
 * decompose, external-product MAC, LWE keyswitch accumulate): the
 * scalar KernelSet runs them whole, the AVX2 / AVX-512 sets run them
 * on the tails their vector bodies leave.
 *
 * INTERNAL HEADER: include only from the simd_kernels*.cpp TUs. Like
 * simd_avx_inl.h it lives in an anonymous namespace, so each TU keeps
 * the copy compiled with its own -m flags.
 */

#ifndef TRINITY_BACKEND_SIMD_PBS_INL_H
#define TRINITY_BACKEND_SIMD_PBS_INL_H

#include "backend/simd_kernels.h"
#include "common/logging.h"

namespace trinity {
namespace simd {
namespace {

/**
 * Split the negacyclic gather (src * X^t)[x] into its two contiguous
 * ranges and call span(x0, x1, rot, neg, diff) for each: over
 * [x0, x1) the rotated value is rot[x - x0], negated when @p neg.
 * t == 0 is the plain decomposition (diff == false, rot unused).
 */
template <class Span>
inline void
forEachRotateRange(const u64 *src, u64 t, size_t n, Span &&span)
{
    trinity_assert(t < 2 * n, "rotateDecompose: t=%llu outside [0, 2n)",
                   static_cast<unsigned long long>(t));
    if (t == 0) {
        span(size_t(0), n, src, false, false);
        return;
    }
    // For t < n, x < t reads src[x + n - t] across X^n = -1 (negated)
    // and x >= t reads src[x - t]; t >= n flips both signs.
    bool head_neg = t < n;
    size_t tr = head_neg ? t : t - n;
    span(size_t(0), tr, src + (n - tr), head_neg, true);
    span(tr, n, src, !head_neg, true);
}

/** Store the digit residues of v at column x of dst[0..levels). */
inline void
decomposeStoreScalar(u64 *const *dst, size_t x, u64 v, const Gadget &g)
{
    i64 digits[64];
    g.decompose(v, digits);
    u64 q = g.q();
    for (u32 l = 0; l < g.levels(); ++l) {
        i64 d = digits[l];
        dst[l][x] = d < 0 ? static_cast<u64>(d) + q : static_cast<u64>(d);
    }
}

/** Scalar rotate-decompose over [x0, x1) (see forEachRotateRange). */
inline void
rotateDecomposeSpanScalar(u64 *const *dst, const u64 *src, size_t x0,
                          size_t x1, const u64 *rot, bool neg, bool diff,
                          const Gadget &g, const Modulus &mod)
{
    for (size_t x = x0; x < x1; ++x) {
        u64 v = src[x];
        if (diff) {
            u64 r = rot[x - x0];
            v = mod.sub(neg ? mod.neg(r) : r, v);
        }
        decomposeStoreScalar(dst, x, v, g);
    }
}

/** Scalar MAC over coefficients [c0, n). */
inline void
extProdMacScalarFrom(u64 *dst, const u64 *const *a, const u64 *const *b,
                     size_t rows, const Modulus &mod, size_t c0, size_t n)
{
    for (size_t c = c0; c < n; ++c) {
        u64 r = 0;
        size_t i = 0;
        while (i < rows) {
            size_t end = i + kBconvChunk < rows ? i + kBconvChunk : rows;
            u128 acc = 0;
            for (; i < end; ++i) {
                acc += static_cast<u128>(a[i][c]) * b[i][c];
            }
            r = mod.add(r, mod.reduce128(acc));
        }
        dst[c] = r;
    }
}

/**
 * Constants of the narrow external-product MAC fold (q < 2^32). A lazy
 * chunk sum acc_hi·2^64 + z1·2^32 + z0 is folded as
 * acc_hi·(2^64 mod q) + z1·(2^32 mod q) + z0·1, each term one 32-bit
 * Shoup multiply (preconditioners are the 64-bit shoupPrecompute; the
 * vector multiply uses their high half). Every piece is < 2^32 —
 * acc_hi < kBconvChunk — so each remainder is < 2q < 2^33.
 */
struct NarrowMacFold
{
    u64 onePre = 0, c32 = 0, c32Pre = 0, c64 = 0, c64Pre = 0;

    /** All zero when @p mod is not narrow (the fold is then unused). */
    explicit NarrowMacFold(const Modulus &mod)
    {
        if (narrowModulus(mod.value())) {
            onePre = mod.shoupPrecompute(1);
            c32 = (u64{1} << 32) % mod.value();
            c32Pre = mod.shoupPrecompute(c32);
            c64 = mod.mul(c32, c32);
            c64Pre = mod.shoupPrecompute(c64);
        }
    }
};

/** Scalar keyswitch accumulate of row[x0, n) for one digit. */
inline void
lweKsAccumulateScalarFrom(i64 *acc, i64 digit, const u64 *row, size_t x0,
                          size_t n)
{
    for (size_t x = x0; x < n; ++x) {
        acc[x] += digit * static_cast<i64>(row[x]);
    }
}

} // namespace
} // namespace simd
} // namespace trinity

#endif // TRINITY_BACKEND_SIMD_PBS_INL_H
