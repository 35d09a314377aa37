/**
 * @file
 * AVX2 KernelSet: 4-lane merged-psi NTT butterflies with Shoup
 * twiddles, and the Barrett/Shoup element-wise family. Compiled with
 * -mavx2 via a per-file CMake flag; when the compiler cannot target
 * AVX2 this TU degrades to a stub advertising "not compiled in".
 *
 * Bit-identical to the scalar reference by construction: every lane
 * runs the exact Modulus:: recurrences (see simd_avx_inl.h), and the
 * butterfly network is the same Cooley-Tukey / Gentleman-Sande
 * schedule NttTable walks — the t ∈ {1,2} stages are vectorized by
 * de-interleaving instead of being skipped, so no scalar cleanup
 * pass exists to diverge.
 */

#include "backend/simd_kernels.h"

#if defined(__AVX2__)

#include "backend/simd_avx_inl.h"
#include "backend/simd_pbs_inl.h"
#include "poly/ntt.h"

namespace trinity {
namespace simd {

namespace {

template <class Mul>
void
nttForwardYmm(const NttTable &table, u64 *a)
{
    const size_t n = table.n();
    const u64 *tw = table.psiBr().data();
    const u64 *twp = table.psiBrPrecon().data();
    const __m256i q = bcast256(table.modulus().value());
    size_t t = n;
    for (size_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        if (t >= 4) {
            fwdStageVecYmm<Mul>(a, m, t, tw, twp, q);
        } else if (t == 2) {
            fwdStageT2Ymm<Mul>(a, m, tw, twp, q);
        } else {
            fwdStageT1Ymm<Mul>(a, m, tw, twp, q);
        }
    }
}

template <class Mul>
void
nttInverseYmm(const NttTable &table, u64 *a)
{
    const size_t n = table.n();
    const u64 *tw = table.ipsiBr().data();
    const u64 *twp = table.ipsiBrPrecon().data();
    const __m256i q = bcast256(table.modulus().value());
    size_t t = 1;
    for (size_t m = n; m > 2; m >>= 1) {
        size_t h = m >> 1;
        if (t >= 4) {
            invStageVecYmm<Mul>(a, h, t, tw, twp, q);
        } else if (t == 2) {
            invStageT2Ymm<Mul>(a, h, tw, twp, q);
        } else {
            invStageT1Ymm<Mul>(a, h, tw, twp, q);
        }
        t <<= 1;
    }
    // Final stage with N^{-1} folded into both outputs — replaces the
    // separate whole-vector scaling pass (exact, so bit-identical).
    invStageRangeFusedYmm<Mul>(table.modulus(), a, n / 2, table.nInv(),
                               table.nInvPrecon(), table.ipsiLastScaled(),
                               table.ipsiLastScaledPrecon(), q, 0, n / 2);
}

template <class Mul>
void
nttForwardStagesYmm(const NttTable &table, u64 *a, size_t stage_lo,
                    size_t stage_hi, size_t b_lo, size_t b_hi)
{
    const size_t n = table.n();
    const Modulus &mod = table.modulus();
    const u64 *tw = table.psiBr().data();
    const u64 *twp = table.psiBrPrecon().data();
    const __m256i q = bcast256(mod.value());
    for (size_t s = stage_lo; s < stage_hi; ++s) {
        size_t m = size_t{1} << s;
        size_t t = n >> (s + 1);
        if (t >= 4) {
            fwdStageRangeVecYmm<Mul>(mod, a, m, t, tw, twp, q, b_lo,
                                     b_hi);
        } else if (t == 2) {
            fwdStageRangeT2Ymm<Mul>(mod, a, m, tw, twp, q, b_lo, b_hi);
        } else {
            fwdStageRangeT1Ymm<Mul>(mod, a, m, tw, twp, q, b_lo, b_hi);
        }
    }
}

template <class Mul>
void
nttInverseStagesYmm(const NttTable &table, u64 *a, size_t stage_lo,
                    size_t stage_hi, size_t b_lo, size_t b_hi,
                    bool scale_n)
{
    const size_t n = table.n();
    const Modulus &mod = table.modulus();
    const u64 *tw = table.ipsiBr().data();
    const u64 *twp = table.ipsiBrPrecon().data();
    const __m256i q = bcast256(mod.value());
    const size_t logn = table.logn();
    for (size_t s = stage_lo; s < stage_hi; ++s) {
        size_t h = n >> (s + 1);
        size_t t = size_t{1} << s;
        if (scale_n && s + 1 == logn) {
            // Final stage: one block (h == 1, t == n/2) with N^{-1}
            // folded into both butterfly outputs.
            invStageRangeFusedYmm<Mul>(mod, a, t, table.nInv(),
                                       table.nInvPrecon(),
                                       table.ipsiLastScaled(),
                                       table.ipsiLastScaledPrecon(), q,
                                       b_lo, b_hi);
        } else if (t >= 4) {
            invStageRangeVecYmm<Mul>(mod, a, h, t, tw, twp, q, b_lo,
                                     b_hi);
        } else if (t == 2) {
            invStageRangeT2Ymm<Mul>(mod, a, h, tw, twp, q, b_lo, b_hi);
        } else {
            invStageRangeT1Ymm<Mul>(mod, a, h, tw, twp, q, b_lo, b_hi);
        }
    }
}

void
nttForwardAvx2(const NttTable &table, u64 *a)
{
    if (table.n() < 8) {
        table.forward(a); // too short for the shuffle stages
    } else if (narrowModulus(table.modulus().value())) {
        nttForwardYmm<NarrowMulX4>(table, a);
    } else {
        nttForwardYmm<WideMulX4>(table, a);
    }
}

void
nttInverseAvx2(const NttTable &table, u64 *a)
{
    if (table.n() < 8) {
        table.inverse(a);
    } else if (narrowModulus(table.modulus().value())) {
        nttInverseYmm<NarrowMulX4>(table, a);
    } else {
        nttInverseYmm<WideMulX4>(table, a);
    }
}

void
nttForwardStagesAvx2(const NttTable &table, u64 *a, size_t stage_lo,
                     size_t stage_hi, size_t b_lo, size_t b_hi)
{
    if (table.n() < 8) {
        table.forwardStages(a, stage_lo, stage_hi, b_lo, b_hi);
    } else if (narrowModulus(table.modulus().value())) {
        nttForwardStagesYmm<NarrowMulX4>(table, a, stage_lo, stage_hi,
                                         b_lo, b_hi);
    } else {
        nttForwardStagesYmm<WideMulX4>(table, a, stage_lo, stage_hi, b_lo,
                                       b_hi);
    }
}

void
nttInverseStagesAvx2(const NttTable &table, u64 *a, size_t stage_lo,
                     size_t stage_hi, size_t b_lo, size_t b_hi,
                     bool scale_n)
{
    if (table.n() < 8) {
        table.inverseStages(a, stage_lo, stage_hi, b_lo, b_hi, scale_n);
    } else if (narrowModulus(table.modulus().value())) {
        nttInverseStagesYmm<NarrowMulX4>(table, a, stage_lo, stage_hi,
                                         b_lo, b_hi, scale_n);
    } else {
        nttInverseStagesYmm<WideMulX4>(table, a, stage_lo, stage_hi, b_lo,
                                       b_hi, scale_n);
    }
}

void mulAddAvx2(u64 *dst, const u64 *a, const u64 *b,
                const Modulus &mod, size_t n);
void addAvx2(u64 *dst, const u64 *a, const u64 *b, const Modulus &mod,
             size_t n);

void
nttForwardMulAddAvx2(const NttTable &table, u64 *a, const u64 *b0,
                     u64 *acc0, const u64 *b1, u64 *acc1)
{
    nttForwardAvx2(table, a);
    mulAddAvx2(acc0, a, b0, table.modulus(), table.n());
    if (acc1 != nullptr) {
        mulAddAvx2(acc1, a, b1, table.modulus(), table.n());
    }
}

void
nttInverseAddAvx2(const NttTable &table, u64 *a, u64 *acc)
{
    nttInverseAvx2(table, a);
    addAvx2(acc, acc, a, table.modulus(), table.n());
}

void
addAvx2(u64 *dst, const u64 *a, const u64 *b, const Modulus &mod,
        size_t n)
{
    const __m256i q = bcast256(mod.value());
    size_t c = 0;
    for (; c + 4 <= n; c += 4) {
        storeu256(dst + c,
                  addmodx4(loadu256(a + c), loadu256(b + c), q));
    }
    for (; c < n; ++c) {
        dst[c] = mod.add(a[c], b[c]);
    }
}

void
subAvx2(u64 *dst, const u64 *a, const u64 *b, const Modulus &mod,
        size_t n)
{
    const __m256i q = bcast256(mod.value());
    size_t c = 0;
    for (; c + 4 <= n; c += 4) {
        storeu256(dst + c,
                  submodx4(loadu256(a + c), loadu256(b + c), q));
    }
    for (; c < n; ++c) {
        dst[c] = mod.sub(a[c], b[c]);
    }
}

void
negAvx2(u64 *dst, const u64 *a, const Modulus &mod, size_t n)
{
    const __m256i q = bcast256(mod.value());
    size_t c = 0;
    for (; c + 4 <= n; c += 4) {
        storeu256(dst + c, negmodx4(loadu256(a + c), q));
    }
    for (; c < n; ++c) {
        dst[c] = mod.neg(a[c]);
    }
}

void
mulAvx2(u64 *dst, const u64 *a, const u64 *b, const Modulus &mod,
        size_t n)
{
    const __m256i q = bcast256(mod.value());
    const __m256i b_lo = bcast256(mod.barrettLo());
    const __m256i b_hi = bcast256(mod.barrettHi());
    size_t c = 0;
    for (; c + 4 <= n; c += 4) {
        __m256i z_hi, z_lo;
        mul64widex4(loadu256(a + c), loadu256(b + c), z_hi, z_lo);
        storeu256(dst + c, barrett128x4(z_lo, z_hi, q, b_lo, b_hi));
    }
    for (; c < n; ++c) {
        dst[c] = mod.mul(a[c], b[c]);
    }
}

void
mulAddAvx2(u64 *dst, const u64 *a, const u64 *b, const Modulus &mod,
           size_t n)
{
    const __m256i q = bcast256(mod.value());
    const __m256i b_lo = bcast256(mod.barrettLo());
    const __m256i b_hi = bcast256(mod.barrettHi());
    const __m256i one = bcast256(1);
    size_t c = 0;
    for (; c + 4 <= n; c += 4) {
        __m256i z_hi, z_lo;
        mul64widex4(loadu256(a + c), loadu256(b + c), z_hi, z_lo);
        // 128-bit accumulate of dst before the reduction
        __m256i d = loadu256(dst + c);
        __m256i s = _mm256_add_epi64(z_lo, d);
        __m256i carry = _mm256_and_si256(cmpgtu64x4(d, s), one);
        z_hi = _mm256_add_epi64(z_hi, carry);
        storeu256(dst + c, barrett128x4(s, z_hi, q, b_lo, b_hi));
    }
    for (; c < n; ++c) {
        dst[c] = mod.mulAdd(a[c], b[c], dst[c]);
    }
}

void
scalarMulAvx2(u64 *dst, const u64 *src, u64 scalar, const Modulus &mod,
              size_t n)
{
    u64 pre = mod.shoupPrecompute(scalar);
    const __m256i q = bcast256(mod.value());
    const __m256i w = bcast256(scalar);
    const __m256i wp = bcast256(pre);
    size_t c = 0;
    for (; c + 4 <= n; c += 4) {
        storeu256(dst + c, mulshoupx4(loadu256(src + c), w, wp, q));
    }
    for (; c < n; ++c) {
        dst[c] = mod.mulShoup(src[c], scalar, pre);
    }
}

void
automorphismAvx2(u64 *dst, const u64 *src, const u64 *perm,
                 const u64 *sign, const Modulus &mod, size_t n)
{
    const __m256i q = bcast256(mod.value());
    size_t c = 0;
    for (; c + 4 <= n; c += 4) {
        __m256i x = _mm256_i64gather_epi64(
            reinterpret_cast<const long long *>(src),
            loadu256(perm + c), 8);
        // signMask lanes are 0 or ~0, so a byte blend selects exactly
        // the lanes the table marked negated (0 stays 0 in negmodx4).
        __m256i m = loadu256(sign + c);
        storeu256(dst + c,
                  _mm256_blendv_epi8(x, negmodx4(x, q), m));
    }
    for (; c < n; ++c) {
        u64 x = src[perm[c]];
        dst[c] = sign[c] ? mod.neg(x) : x;
    }
}

void
bconvPass1Avx2(u64 *v, const u64 *x, u64 w, u64 w_pre,
               const Modulus &mod, size_t n)
{
    const __m256i q = bcast256(mod.value());
    const __m256i wv = bcast256(w);
    const __m256i wp = bcast256(w_pre);
    size_t c = 0;
    for (; c + 4 <= n; c += 4) {
        storeu256(v + c, mulshoupx4(loadu256(x + c), wv, wp, q));
    }
    for (; c < n; ++c) {
        v[c] = mod.mulShoup(x[c], w, w_pre);
    }
}

void
bconvPass2Avx2(u64 *y, const u64 *v, size_t v_stride, size_t k,
               const u64 *w, size_t w_stride, const Modulus &mod,
               size_t n)
{
    const __m256i q = bcast256(mod.value());
    const __m256i b_lo = bcast256(mod.barrettLo());
    const __m256i b_hi = bcast256(mod.barrettHi());
    const __m256i one = bcast256(1);
    const __m256i zero = _mm256_setzero_si256();
    size_t c = 0;
    for (; c + 4 <= n; c += 4) {
        // Lazy accumulation: raw 128-bit products, one Barrett fold
        // per kBconvChunk terms (v, w < 2^62 keeps the sum in range).
        // The fold is an exact mod, so the running residue equals the
        // scalar kernel's value no matter how the sum is chunked.
        __m256i r = zero;
        size_t i = 0;
        while (i < k) {
            size_t end = i + kBconvChunk < k ? i + kBconvChunk : k;
            __m256i acc_lo = zero;
            __m256i acc_hi = zero;
            for (; i < end; ++i) {
                __m256i z_hi, z_lo;
                mul64widex4(loadu256(v + i * v_stride + c),
                            bcast256(w[i * w_stride]), z_hi, z_lo);
                __m256i s = _mm256_add_epi64(acc_lo, z_lo);
                __m256i carry =
                    _mm256_and_si256(cmpgtu64x4(acc_lo, s), one);
                acc_lo = s;
                acc_hi = _mm256_add_epi64(
                    acc_hi, _mm256_add_epi64(z_hi, carry));
            }
            r = addmodx4(
                r, barrett128x4(acc_lo, acc_hi, q, b_lo, b_hi), q);
        }
        storeu256(y + c, r);
    }
    for (; c < n; ++c) {
        u64 r = 0;
        size_t i = 0;
        while (i < k) {
            size_t end = i + kBconvChunk < k ? i + kBconvChunk : k;
            u128 acc = 0;
            for (; i < end; ++i) {
                acc += static_cast<u128>(v[i * v_stride + c]) *
                       w[i * w_stride];
            }
            r = mod.add(r, mod.reduce128(acc));
        }
        y[c] = r;
    }
}

/** Broadcast gadget constants for the 4-lane decomposition. */
struct GadgetYmm
{
    __m256i q, halfQ, recip, bLo, bHi, mask, halfBm1, base;
    __m128i shift, shiftHi, logB;
    u32 levels;
    bool wide;

    explicit GadgetYmm(const Gadget &g)
        : q(bcast256(g.q())), halfQ(bcast256(g.halfQ())),
          recip(bcast256(g.recip())), bLo(bcast256(g.barrettLo())),
          bHi(bcast256(g.barrettHi())),
          mask(bcast256((u64(1) << g.logBase()) - 1)),
          halfBm1(bcast256((u64(1) << (g.logBase() - 1)) - 1)),
          base(bcast256(u64(1) << g.logBase())),
          shift(_mm_cvtsi32_si128(static_cast<int>(g.shift()))),
          shiftHi(_mm_cvtsi32_si128(static_cast<int>(64 - g.shift()))),
          logB(_mm_cvtsi32_si128(static_cast<int>(g.logBase()))),
          levels(g.levels()), wide(g.wide())
    {
    }
};

/** Gadget::quotient per lane: round(v * 2^S / q) mod 2^64. */
inline __m256i
gadgetQuotientX4(__m256i v, const GadgetYmm &g)
{
    const __m256i one = bcast256(1);
    __m256i num;
    __m256i est;
    if (!g.wide) {
        num = _mm256_add_epi64(_mm256_sll_epi64(v, g.shift), g.halfQ);
        est = mulhi64x4(num, g.recip);
    } else {
        // 128-bit numerator (hi, num); S == 64 shifts lo out entirely.
        __m256i lo = _mm256_sll_epi64(v, g.shift);
        __m256i hi = _mm256_srl_epi64(v, g.shiftHi);
        num = _mm256_add_epi64(lo, g.halfQ);
        hi = _mm256_add_epi64(
            hi, _mm256_and_si256(cmpgtu64x4(lo, num), one));
        // floor(num * floor(2^128/q) / 2^128), low word.
        __m256i c_ll = mulhi64x4(num, g.bLo);
        __m256i lh_hi, lh_lo;
        mul64widex4(num, g.bHi, lh_hi, lh_lo);
        __m256i hl_hi, hl_lo;
        mul64widex4(hi, g.bLo, hl_hi, hl_lo);
        __m256i s1 = _mm256_add_epi64(c_ll, lh_lo);
        __m256i carry1 = _mm256_and_si256(cmpgtu64x4(c_ll, s1), one);
        __m256i s2 = _mm256_add_epi64(s1, hl_lo);
        __m256i carry2 = _mm256_and_si256(cmpgtu64x4(hl_lo, s2), one);
        est = _mm256_add_epi64(
            _mm256_add_epi64(mullo64x4(hi, g.bHi),
                             _mm256_add_epi64(lh_hi, hl_hi)),
            _mm256_add_epi64(carry1, carry2));
    }
    // One correction: the remainder is < 2q < 2^63 (signed compare).
    __m256i r = _mm256_sub_epi64(num, mullo64x4(est, g.q));
    __m256i lt = _mm256_cmpgt_epi64(g.q, r);
    return _mm256_add_epi64(est, _mm256_andnot_si256(lt, one));
}

/** Balanced digit residues of four values into dst[l][x..x+4). */
inline void
decomposeStoreX4(u64 *const *dst, size_t x, __m256i v, const GadgetYmm &g)
{
    const __m256i one = bcast256(1);
    const __m256i zero = _mm256_setzero_si256();
    __m256i y = gadgetQuotientX4(v, g);
    __m256i carry = zero;
    for (u32 l = g.levels; l-- > 0;) {
        __m256i r = _mm256_add_epi64(_mm256_and_si256(y, g.mask), carry);
        y = _mm256_srl_epi64(y, g.logB);
        __m256i ge = _mm256_cmpgt_epi64(r, g.halfBm1);
        __m256i d = _mm256_sub_epi64(r, _mm256_and_si256(ge, g.base));
        __m256i res = _mm256_add_epi64(
            d, _mm256_and_si256(_mm256_cmpgt_epi64(zero, d), g.q));
        carry = _mm256_and_si256(ge, one);
        storeu256(dst[l] + x, res);
    }
}

void
rotateDecomposeAvx2(u64 *const *dst, const u64 *src, u64 t,
                    const Gadget &gadget, const Modulus &mod, size_t n)
{
    const GadgetYmm g(gadget);
    forEachRotateRange(
        src, t, n,
        [&](size_t x0, size_t x1, const u64 *rot, bool neg, bool diff) {
            size_t x = x0;
            for (; x + 4 <= x1; x += 4) {
                __m256i v = loadu256(src + x);
                if (diff) {
                    __m256i r = loadu256(rot + (x - x0));
                    if (neg) {
                        r = negmodx4(r, g.q);
                    }
                    v = submodx4(r, v, g.q);
                }
                decomposeStoreX4(dst, x, v, g);
            }
            rotateDecomposeSpanScalar(dst, src, x, x1, rot + (x - x0), neg,
                                      diff, gadget, mod);
        });
}

void
extProdMacAvx2(u64 *dst, const u64 *const *a, const u64 *const *b,
               size_t rows, const Modulus &mod, size_t n)
{
    const __m256i q = bcast256(mod.value());
    const __m256i b_lo = bcast256(mod.barrettLo());
    const __m256i b_hi = bcast256(mod.barrettHi());
    const __m256i one = bcast256(1);
    const __m256i zero = _mm256_setzero_si256();
    // Narrow moduli (every TFHE set) multiply operands in one 32x32 ->
    // 64 lane op and fold each chunk with three 32-bit Shoup
    // multiplies; wider moduli take the full 64x64 product and a
    // Barrett fold.
    const bool narrow = narrowModulus(mod.value());
    const NarrowMacFold f(mod);
    const __m256i one_pre = bcast256(f.onePre);
    const __m256i c32 = bcast256(f.c32);
    const __m256i c32_pre = bcast256(f.c32Pre);
    const __m256i c64 = bcast256(f.c64);
    const __m256i c64_pre = bcast256(f.c64Pre);
    size_t c = 0;
    for (; c + 4 <= n; c += 4) {
        __m256i r = zero;
        size_t i = 0;
        while (i < rows) {
            size_t end = i + kBconvChunk < rows ? i + kBconvChunk : rows;
            __m256i acc_lo = zero;
            __m256i acc_hi = zero;
            for (; i < end; ++i) {
                __m256i x = loadu256(a[i] + c);
                __m256i y = loadu256(b[i] + c);
                __m256i z_hi = zero;
                __m256i z_lo;
                if (narrow) {
                    z_lo = _mm256_mul_epu32(x, y);
                } else {
                    mul64widex4(x, y, z_hi, z_lo);
                }
                __m256i s = _mm256_add_epi64(acc_lo, z_lo);
                __m256i carry =
                    _mm256_and_si256(cmpgtu64x4(acc_lo, s), one);
                acc_lo = s;
                acc_hi = _mm256_add_epi64(acc_hi,
                                          _mm256_add_epi64(z_hi, carry));
            }
            if (narrow) {
                // mul_epu32 reads only the low half of acc_lo: z0.
                __m256i r0 = mulshoup32x4(acc_lo, one, one_pre, q);
                __m256i r1 = mulshoup32x4(_mm256_srli_epi64(acc_lo, 32),
                                          c32, c32_pre, q);
                __m256i r2 = mulshoup32x4(acc_hi, c64, c64_pre, q);
                r = addmodx4(r, addmodx4(addmodx4(r0, r1, q), r2, q), q);
            } else {
                r = addmodx4(r,
                             barrett128x4(acc_lo, acc_hi, q, b_lo, b_hi), q);
            }
        }
        storeu256(dst + c, r);
    }
    extProdMacScalarFrom(dst, a, b, rows, mod, c, n);
}

void
lweKsAccumulateAvx2(i64 *acc, size_t acc_stride, const i8 *digits,
                    size_t count, const u64 *row, size_t n)
{
    for (size_t c = 0; c < count; ++c) {
        i64 d = digits[c];
        if (d == 0) {
            continue;
        }
        i64 *out = acc + c * acc_stride;
        // |d| * row as two 32x32 partials (exact: the caller bounds
        // every product below 2^63), then add or subtract by sign.
        const __m256i ad = bcast256(static_cast<u64>(d < 0 ? -d : d));
        size_t x = 0;
        for (; x + 4 <= n; x += 4) {
            __m256i rv = loadu256(row + x);
            __m256i p = _mm256_add_epi64(
                _mm256_mul_epu32(rv, ad),
                _mm256_slli_epi64(
                    _mm256_mul_epu32(_mm256_srli_epi64(rv, 32), ad), 32));
            __m256i av = loadu256(reinterpret_cast<const u64 *>(out + x));
            av = d > 0 ? _mm256_add_epi64(av, p) : _mm256_sub_epi64(av, p);
            storeu256(reinterpret_cast<u64 *>(out + x), av);
        }
        lweKsAccumulateScalarFrom(out, d, row, x, n);
    }
}

} // namespace

const KernelSet *
avx2KernelsOrNull()
{
    static const KernelSet set = {
        Level::Avx2,          4,
        nttForwardAvx2,       nttInverseAvx2,
        nttForwardStagesAvx2, nttInverseStagesAvx2,
        nttForwardMulAddAvx2, nttInverseAddAvx2,
        addAvx2,              subAvx2,
        negAvx2,              mulAvx2,
        mulAddAvx2,           scalarMulAvx2,
        automorphismAvx2,     bconvPass1Avx2,
        bconvPass2Avx2,       rotateDecomposeAvx2,
        extProdMacAvx2,       lweKsAccumulateAvx2,
    };
    return &set;
}

} // namespace simd
} // namespace trinity

#else // !__AVX2__

namespace trinity {
namespace simd {

const KernelSet *
avx2KernelsOrNull()
{
    return nullptr;
}

} // namespace simd
} // namespace trinity

#endif // __AVX2__
