/**
 * @file
 * AVX-512 (F+DQ) KernelSet: 8-lane butterflies and element-wise
 * lanes. Compiled with -mavx512f -mavx512dq via per-file CMake flags;
 * degrades to a "not compiled in" stub otherwise.
 *
 * DQ's native 64-bit mullo plus mask registers shrink the modular
 * primitives; the 64x64 high half is still composed from 32x32
 * partials (no general mulhi_epu64 exists — IFMA would cap moduli at
 * 52 bits, below this repo's 62-bit bound). For wide moduli, butterfly
 * spans narrower than 8 lanes (t ∈ {1,2,4}) run the shared 256-bit
 * stage kernels from simd_avx_inl.h, so the whole network stays
 * vectorized.
 *
 * Narrow-modulus path (simd::narrowModulus: q < 2^32, n >= 16; every
 * TFHE set). Operands are residues < q < 2^32, so:
 *  - a twiddle multiply is a Shoup multiply on three `mul_epu32`
 *    (a·w' for the quotient, a·w and quot·q for the remainder) with
 *    w' = twp >> 32 = floor(w·2^32/q) taken from the same tables;
 *  - the remainder is < 2q < 2^33 and so are sums a + b; one
 *    min_epu64(r, r − q) reduces either (r − q wraps above r when
 *    r < q), and a − b reduces as min_epu64(d, d + q);
 *  - the t ∈ {1,2,4} stages run on zmm too: each 16-coefficient group
 *    (8 butterflies) is gathered into u/v halves with permutex2var,
 *    its twiddles spread with permutexvar, and scattered back;
 *  - the external-product MAC folds each lazy chunk sum with three
 *    32-bit Shoup multiplies (NarrowMacFold) instead of barrett128x8.
 * Every output is the canonical residue, as on the wide path, so the
 * two paths are bit-identical to each other and to the scalar set.
 */

#include "backend/simd_kernels.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <bit>

#include <immintrin.h>

// GCC's avx512 headers expand plain intrinsics (_mm512_mul_epu32,
// _mm512_srli_epi64, ...) through _mm512_undefined_epi32(), which
// trips -Wmaybe-uninitialized falsely on every use site.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "backend/simd_avx_inl.h"
#include "backend/simd_pbs_inl.h"
#include "poly/ntt.h"

namespace trinity {
namespace simd {

namespace {

inline __m512i
loadu512(const u64 *p)
{
    return _mm512_loadu_si512(p);
}

inline void
storeu512(u64 *p, __m512i v)
{
    _mm512_storeu_si512(p, v);
}

inline __m512i
bcast512(u64 x)
{
    return _mm512_set1_epi64(static_cast<long long>(x));
}

/** High 64 bits of the unsigned 64x64 product per lane. */
inline __m512i
mulhi64x8(__m512i a, __m512i b)
{
    const __m512i m32 = bcast512(0xffffffffULL);
    __m512i a_hi = _mm512_srli_epi64(a, 32);
    __m512i b_hi = _mm512_srli_epi64(b, 32);
    __m512i ll = _mm512_mul_epu32(a, b);
    __m512i lh = _mm512_mul_epu32(a, b_hi);
    __m512i hl = _mm512_mul_epu32(a_hi, b);
    __m512i hh = _mm512_mul_epu32(a_hi, b_hi);
    __m512i cross = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_srli_epi64(ll, 32),
                         _mm512_and_si512(lh, m32)),
        _mm512_and_si512(hl, m32));
    return _mm512_add_epi64(
        _mm512_add_epi64(hh, _mm512_srli_epi64(cross, 32)),
        _mm512_add_epi64(_mm512_srli_epi64(lh, 32),
                         _mm512_srli_epi64(hl, 32)));
}

/** a + b mod q for reduced inputs (mask-subtract, unsigned compare). */
inline __m512i
addmodx8(__m512i a, __m512i b, __m512i q)
{
    __m512i s = _mm512_add_epi64(a, b);
    __mmask8 ge = _mm512_cmpge_epu64_mask(s, q);
    return _mm512_mask_sub_epi64(s, ge, s, q);
}

/** a - b mod q for reduced inputs. */
inline __m512i
submodx8(__m512i a, __m512i b, __m512i q)
{
    __m512i d = _mm512_sub_epi64(a, b);
    __mmask8 borrow = _mm512_cmplt_epu64_mask(a, b);
    return _mm512_mask_add_epi64(d, borrow, d, q);
}

/** -a mod q (0 stays 0). */
inline __m512i
negmodx8(__m512i a, __m512i q)
{
    __mmask8 nz = _mm512_test_epi64_mask(a, a);
    return _mm512_mask_sub_epi64(_mm512_setzero_si512(), nz, q, a);
}

/** Shoup multiply by constant w, exact canonical result. */
inline __m512i
mulshoupx8(__m512i a, __m512i w, __m512i wpre, __m512i q)
{
    __m512i quot = mulhi64x8(a, wpre);
    __m512i r = _mm512_sub_epi64(_mm512_mullo_epi64(a, w),
                                 _mm512_mullo_epi64(quot, q));
    __mmask8 ge = _mm512_cmpge_epu64_mask(r, q);
    return _mm512_mask_sub_epi64(r, ge, r, q);
}

/** Exact (z_hi·2^64 + z_lo) mod q — reduce128() lane-parallel. */
inline __m512i
barrett128x8(__m512i z_lo, __m512i z_hi, __m512i q, __m512i b_lo,
             __m512i b_hi)
{
    const __m512i one = bcast512(1);
    __m512i c_ll = mulhi64x8(z_lo, b_lo);
    __m512i lh_lo = _mm512_mullo_epi64(z_lo, b_hi);
    __m512i lh_hi = mulhi64x8(z_lo, b_hi);
    __m512i hl_lo = _mm512_mullo_epi64(z_hi, b_lo);
    __m512i hl_hi = mulhi64x8(z_hi, b_lo);
    __m512i hh_lo = _mm512_mullo_epi64(z_hi, b_hi);
    __m512i s1 = _mm512_add_epi64(c_ll, lh_lo);
    __mmask8 carry1 = _mm512_cmplt_epu64_mask(s1, c_ll);
    __m512i s2 = _mm512_add_epi64(s1, hl_lo);
    __mmask8 carry2 = _mm512_cmplt_epu64_mask(s2, hl_lo);
    __m512i q_est = _mm512_add_epi64(
        hh_lo, _mm512_add_epi64(lh_hi, hl_hi));
    q_est = _mm512_mask_add_epi64(q_est, carry1, q_est, one);
    q_est = _mm512_mask_add_epi64(q_est, carry2, q_est, one);
    __m512i r =
        _mm512_sub_epi64(z_lo, _mm512_mullo_epi64(q_est, q));
    __mmask8 ge = _mm512_cmpge_epu64_mask(r, q);
    return _mm512_mask_sub_epi64(r, ge, r, q);
}

/**
 * Shoup multiply for q < 2^32: a < 2^32, w < q, wpre the 64-bit
 * shoupPrecompute(w) (its high half is the 32-bit preconditioner).
 */
inline __m512i
mulshoup32x8(__m512i a, __m512i w, __m512i wpre, __m512i q)
{
    __m512i quot = _mm512_srli_epi64(
        _mm512_mul_epu32(a, _mm512_srli_epi64(wpre, 32)), 32);
    __m512i r = _mm512_sub_epi64(_mm512_mul_epu32(a, w),
                                 _mm512_mul_epu32(quot, q));
    return _mm512_min_epu64(r, _mm512_sub_epi64(r, q));
}

/** Butterfly arithmetic policies for the zmm stage templates. */
struct WideZmm
{
    static __m512i add(__m512i a, __m512i b, __m512i q)
    {
        return addmodx8(a, b, q);
    }
    static __m512i sub(__m512i a, __m512i b, __m512i q)
    {
        return submodx8(a, b, q);
    }
    static __m512i mul(__m512i a, __m512i w, __m512i wpre, __m512i q)
    {
        return mulshoupx8(a, w, wpre, q);
    }
};

struct NarrowZmm
{
    static __m512i add(__m512i a, __m512i b, __m512i q)
    {
        __m512i s = _mm512_add_epi64(a, b);
        return _mm512_min_epu64(s, _mm512_sub_epi64(s, q));
    }
    static __m512i sub(__m512i a, __m512i b, __m512i q)
    {
        __m512i d = _mm512_sub_epi64(a, b);
        return _mm512_min_epu64(d, _mm512_add_epi64(d, q));
    }
    static __m512i mul(__m512i a, __m512i w, __m512i wpre, __m512i q)
    {
        return mulshoup32x8(a, w, wpre, q);
    }
};

/** Forward stage range with t >= 8: zmm lanes, per-block j-subranges
 *  (vector body + scalar tail; unaligned loads allow any start). */
template <class A>
inline void
fwdStageRangeVecZmm(const Modulus &mod, u64 *a, size_t m, size_t t,
                    const u64 *tw, const u64 *twp, __m512i q,
                    size_t bLo, size_t bHi)
{
    size_t iLo = bLo / t;
    size_t iHi = (bHi + t - 1) / t;
    for (size_t i = iLo; i < iHi; ++i) {
        __m512i s = bcast512(tw[m + i]);
        __m512i sp = bcast512(twp[m + i]);
        size_t lo = bLo > i * t ? bLo - i * t : 0;
        size_t hi = bHi < (i + 1) * t ? bHi - i * t : t;
        u64 *p = a + 2 * i * t;
        size_t j = lo;
        for (; j + 8 <= hi; j += 8) {
            __m512i u = loadu512(p + j);
            __m512i v = A::mul(loadu512(p + j + t), s, sp, q);
            storeu512(p + j, A::add(u, v, q));
            storeu512(p + j + t, A::sub(u, v, q));
        }
        for (; j < hi; ++j) {
            u64 u = p[j];
            u64 v = mod.mulShoup(p[j + t], tw[m + i], twp[m + i]);
            p[j] = mod.add(u, v);
            p[j + t] = mod.sub(u, v);
        }
    }
}

/** Inverse stage range with t >= 8. */
template <class A>
inline void
invStageRangeVecZmm(const Modulus &mod, u64 *a, size_t h, size_t t,
                    const u64 *tw, const u64 *twp, __m512i q,
                    size_t bLo, size_t bHi)
{
    size_t iLo = bLo / t;
    size_t iHi = (bHi + t - 1) / t;
    for (size_t i = iLo; i < iHi; ++i) {
        __m512i s = bcast512(tw[h + i]);
        __m512i sp = bcast512(twp[h + i]);
        size_t lo = bLo > i * t ? bLo - i * t : 0;
        size_t hi = bHi < (i + 1) * t ? bHi - i * t : t;
        u64 *p = a + 2 * i * t;
        size_t j = lo;
        for (; j + 8 <= hi; j += 8) {
            __m512i u = loadu512(p + j);
            __m512i v = loadu512(p + j + t);
            storeu512(p + j, A::add(u, v, q));
            storeu512(p + j + t, A::mul(A::sub(u, v, q), s, sp, q));
        }
        for (; j < hi; ++j) {
            u64 u = p[j];
            u64 v = p[j + t];
            p[j] = mod.add(u, v);
            p[j + t] =
                mod.mulShoup(mod.sub(u, v), tw[h + i], twp[h + i]);
        }
    }
}

/** Final inverse stage (one block, t == n/2 >= 8) with N^{-1} folded
 *  into both butterfly outputs. */
template <class A>
inline void
invStageRangeFusedZmm(const Modulus &mod, u64 *a, size_t t, u64 nInv,
                      u64 nInvP, u64 sL, u64 sLp, __m512i q, size_t bLo,
                      size_t bHi)
{
    __m512i ni = bcast512(nInv);
    __m512i nip = bcast512(nInvP);
    __m512i s = bcast512(sL);
    __m512i sp = bcast512(sLp);
    size_t j = bLo;
    for (; j + 8 <= bHi; j += 8) {
        __m512i u = loadu512(a + j);
        __m512i v = loadu512(a + j + t);
        storeu512(a + j, A::mul(A::add(u, v, q), ni, nip, q));
        storeu512(a + j + t, A::mul(A::sub(u, v, q), s, sp, q));
    }
    for (; j < bHi; ++j) {
        u64 u = a[j];
        u64 v = a[j + t];
        a[j] = mod.mulShoup(mod.add(u, v), nInv, nInvP);
        a[j + t] = mod.mulShoup(mod.sub(u, v), sL, sLp);
    }
}

/**
 * Lane maps of one 16-coefficient group of a stage with span t < 8.
 * Lane k is butterfly k of the group: block k/t, offset k%t, so it
 * pairs coefficients u[k] = 2t·(k/t) + k%t and v[k] = u[k] + t and
 * takes the group's twiddle tw[k] = k/t. lo/hi are the permutex2var
 * indices that scatter the outputs back: coefficient c < 8 of the
 * group is lo[c], c >= 8 is hi[c-8], where index k names lane k of
 * out_u and 8+k lane k of out_v.
 */
struct SmallStageMap
{
    alignas(64) u64 u[8];
    alignas(64) u64 v[8];
    alignas(64) u64 lo[8];
    alignas(64) u64 hi[8];
    alignas(64) u64 tw[8];
};

constexpr SmallStageMap
makeSmallStageMap(size_t t)
{
    SmallStageMap mp{};
    u64 out[16] = {};
    for (size_t k = 0; k < 8; ++k) {
        mp.u[k] = 2 * t * (k / t) + k % t;
        mp.v[k] = mp.u[k] + t;
        mp.tw[k] = k / t;
        out[mp.u[k]] = k;
        out[mp.v[k]] = 8 + k;
    }
    for (size_t c = 0; c < 8; ++c) {
        mp.lo[c] = out[c];
        mp.hi[c] = out[8 + c];
    }
    return mp;
}

/** Maps for t = 1, 2, 4, indexed by log2(t). */
constexpr SmallStageMap kSmallStageMaps[3] = {
    makeSmallStageMap(1), makeSmallStageMap(2), makeSmallStageMap(4)};

/** Loaded lane maps plus the twiddle-load mask (8/t entries). */
struct SmallStageIdx
{
    __m512i u, v, lo, hi, tw;
    __mmask8 twMask;

    explicit SmallStageIdx(size_t t)
    {
        const SmallStageMap &mp = kSmallStageMaps[std::countr_zero(t)];
        u = _mm512_load_si512(mp.u);
        v = _mm512_load_si512(mp.v);
        lo = _mm512_load_si512(mp.lo);
        hi = _mm512_load_si512(mp.hi);
        tw = _mm512_load_si512(mp.tw);
        twMask = static_cast<__mmask8>((1u << (8 / t)) - 1);
    }
};

/**
 * Narrow stage range with t ∈ {1,2,4} on zmm: vector groups of eight
 * butterflies start at block boundaries (group at butterfly b covers
 * coefficients [2b, 2b+16) and twiddles [b/t, b/t + 8/t)); scalar
 * butterflies cover the unaligned head and the short tail. Forward
 * runs CT butterflies (@p Fwd), inverse runs GS.
 */
template <bool Fwd>
inline void
stageRangeSmallZmm(const Modulus &mod, u64 *a, size_t m, size_t t,
                   const u64 *tw, const u64 *twp, __m512i q, size_t bLo,
                   size_t bHi)
{
    using A = NarrowZmm;
    const SmallStageIdx idx(t);
    auto scalar = [&](size_t b) {
        if (Fwd) {
            fwdButterflyScalar(mod, a, m, t, tw, twp, b);
        } else {
            invButterflyScalar(mod, a, m, t, tw, twp, b);
        }
    };
    size_t b = bLo;
    for (; b < bHi && b % t != 0; ++b) {
        scalar(b);
    }
    for (; b + 8 <= bHi; b += 8) {
        u64 *p = a + 2 * b;
        const size_t i = m + b / t;
        __m512i x = loadu512(p);
        __m512i y = loadu512(p + 8);
        __m512i u = _mm512_permutex2var_epi64(x, idx.u, y);
        __m512i v = _mm512_permutex2var_epi64(x, idx.v, y);
        __m512i s = _mm512_permutexvar_epi64(
            idx.tw, _mm512_maskz_loadu_epi64(idx.twMask, tw + i));
        __m512i sp = _mm512_permutexvar_epi64(
            idx.tw, _mm512_maskz_loadu_epi64(idx.twMask, twp + i));
        __m512i out_u;
        __m512i out_v;
        if (Fwd) {
            __m512i w = A::mul(v, s, sp, q);
            out_u = A::add(u, w, q);
            out_v = A::sub(u, w, q);
        } else {
            out_u = A::add(u, v, q);
            out_v = A::mul(A::sub(u, v, q), s, sp, q);
        }
        storeu512(p, _mm512_permutex2var_epi64(out_u, idx.lo, out_v));
        storeu512(p + 8, _mm512_permutex2var_epi64(out_u, idx.hi, out_v));
    }
    for (; b < bHi; ++b) {
        scalar(b);
    }
}

/** True when @p table runs the narrow zmm network (needs n >= 16 for
 *  one whole 16-coefficient group). */
inline bool
narrowTable(const NttTable &table)
{
    return narrowModulus(table.modulus().value()) && table.n() >= 16;
}

/** Narrow forward stage range: every stage on zmm. The monolithic
 *  transform is the full range [0, logn) x [0, n/2). */
void
nttForwardStagesNarrow(const NttTable &table, u64 *a, size_t stage_lo,
                       size_t stage_hi, size_t b_lo, size_t b_hi)
{
    const size_t n = table.n();
    const Modulus &mod = table.modulus();
    const u64 *tw = table.psiBr().data();
    const u64 *twp = table.psiBrPrecon().data();
    const __m512i q = bcast512(mod.value());
    for (size_t s = stage_lo; s < stage_hi; ++s) {
        size_t m = size_t{1} << s;
        size_t t = n >> (s + 1);
        if (t >= 8) {
            fwdStageRangeVecZmm<NarrowZmm>(mod, a, m, t, tw, twp, q, b_lo,
                                           b_hi);
        } else {
            stageRangeSmallZmm<true>(mod, a, m, t, tw, twp, q, b_lo, b_hi);
        }
    }
}

/** Narrow inverse stage range; the final stage (t = n/2 >= 8) folds
 *  N^{-1} when scale_n is set. */
void
nttInverseStagesNarrow(const NttTable &table, u64 *a, size_t stage_lo,
                       size_t stage_hi, size_t b_lo, size_t b_hi,
                       bool scale_n)
{
    const size_t n = table.n();
    const Modulus &mod = table.modulus();
    const u64 *tw = table.ipsiBr().data();
    const u64 *twp = table.ipsiBrPrecon().data();
    const __m512i q = bcast512(mod.value());
    for (size_t s = stage_lo; s < stage_hi; ++s) {
        size_t h = n >> (s + 1);
        size_t t = size_t{1} << s;
        if (scale_n && s + 1 == table.logn()) {
            invStageRangeFusedZmm<NarrowZmm>(
                mod, a, t, table.nInv(), table.nInvPrecon(),
                table.ipsiLastScaled(), table.ipsiLastScaledPrecon(), q,
                b_lo, b_hi);
        } else if (t >= 8) {
            invStageRangeVecZmm<NarrowZmm>(mod, a, h, t, tw, twp, q, b_lo,
                                           b_hi);
        } else {
            stageRangeSmallZmm<false>(mod, a, h, t, tw, twp, q, b_lo,
                                      b_hi);
        }
    }
}

void
nttForwardAvx512(const NttTable &table, u64 *a)
{
    const size_t n = table.n();
    if (n < 8) {
        table.forward(a);
        return;
    }
    if (narrowTable(table)) {
        nttForwardStagesNarrow(table, a, 0, table.logn(), 0, n / 2);
        return;
    }
    const u64 *tw = table.psiBr().data();
    const u64 *twp = table.psiBrPrecon().data();
    const __m512i q = bcast512(table.modulus().value());
    const __m256i q4 = bcast256(table.modulus().value());
    size_t t = n;
    for (size_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        if (t >= 8) {
            for (size_t i = 0; i < m; ++i) {
                __m512i s = bcast512(tw[m + i]);
                __m512i sp = bcast512(twp[m + i]);
                u64 *p = a + 2 * i * t;
                for (size_t j = 0; j < t; j += 8) {
                    __m512i u = loadu512(p + j);
                    __m512i v =
                        mulshoupx8(loadu512(p + j + t), s, sp, q);
                    storeu512(p + j, addmodx8(u, v, q));
                    storeu512(p + j + t, submodx8(u, v, q));
                }
            }
        } else if (t == 4) {
            fwdStageVecYmm<WideMulX4>(a, m, t, tw, twp, q4);
        } else if (t == 2) {
            fwdStageT2Ymm<WideMulX4>(a, m, tw, twp, q4);
        } else {
            fwdStageT1Ymm<WideMulX4>(a, m, tw, twp, q4);
        }
    }
}

void
nttInverseAvx512(const NttTable &table, u64 *a)
{
    const size_t n = table.n();
    if (n < 8) {
        table.inverse(a);
        return;
    }
    if (narrowTable(table)) {
        nttInverseStagesNarrow(table, a, 0, table.logn(), 0, n / 2, true);
        return;
    }
    const u64 *tw = table.ipsiBr().data();
    const u64 *twp = table.ipsiBrPrecon().data();
    const __m512i q = bcast512(table.modulus().value());
    const __m256i q4 = bcast256(table.modulus().value());
    size_t t = 1;
    for (size_t m = n; m > 1; m >>= 1) {
        size_t h = m >> 1;
        if (t >= 8) {
            for (size_t i = 0; i < h; ++i) {
                __m512i s = bcast512(tw[h + i]);
                __m512i sp = bcast512(twp[h + i]);
                u64 *p = a + 2 * i * t;
                for (size_t j = 0; j < t; j += 8) {
                    __m512i u = loadu512(p + j);
                    __m512i v = loadu512(p + j + t);
                    storeu512(p + j, addmodx8(u, v, q));
                    storeu512(p + j + t,
                              mulshoupx8(submodx8(u, v, q), s, sp, q));
                }
            }
        } else if (t == 4) {
            invStageVecYmm<WideMulX4>(a, h, t, tw, twp, q4);
        } else if (t == 2) {
            invStageT2Ymm<WideMulX4>(a, h, tw, twp, q4);
        } else {
            invStageT1Ymm<WideMulX4>(a, h, tw, twp, q4);
        }
        t <<= 1;
        if (m == 4) {
            break; // final stage handled fused below
        }
    }
    // Final stage with N^{-1} folded into both outputs — replaces the
    // separate whole-vector scaling pass (exact, so bit-identical).
    if (n / 2 >= 8) {
        invStageRangeFusedZmm<WideZmm>(table.modulus(), a, n / 2,
                                       table.nInv(), table.nInvPrecon(),
                                       table.ipsiLastScaled(),
                                       table.ipsiLastScaledPrecon(), q, 0,
                                       n / 2);
    } else {
        invStageRangeFusedYmm<WideMulX4>(table.modulus(), a, n / 2,
                                         table.nInv(), table.nInvPrecon(),
                                         table.ipsiLastScaled(),
                                         table.ipsiLastScaledPrecon(), q4,
                                         0, n / 2);
    }
}

void
nttForwardStagesAvx512(const NttTable &table, u64 *a, size_t stage_lo,
                       size_t stage_hi, size_t b_lo, size_t b_hi)
{
    const size_t n = table.n();
    if (n < 8) {
        table.forwardStages(a, stage_lo, stage_hi, b_lo, b_hi);
        return;
    }
    if (narrowTable(table)) {
        nttForwardStagesNarrow(table, a, stage_lo, stage_hi, b_lo, b_hi);
        return;
    }
    const Modulus &mod = table.modulus();
    const u64 *tw = table.psiBr().data();
    const u64 *twp = table.psiBrPrecon().data();
    const __m512i q = bcast512(mod.value());
    const __m256i q4 = bcast256(mod.value());
    for (size_t s = stage_lo; s < stage_hi; ++s) {
        size_t m = size_t{1} << s;
        size_t t = n >> (s + 1);
        if (t >= 8) {
            fwdStageRangeVecZmm<WideZmm>(mod, a, m, t, tw, twp, q, b_lo,
                                         b_hi);
        } else if (t == 4) {
            fwdStageRangeVecYmm<WideMulX4>(mod, a, m, t, tw, twp, q4, b_lo,
                                           b_hi);
        } else if (t == 2) {
            fwdStageRangeT2Ymm<WideMulX4>(mod, a, m, tw, twp, q4, b_lo,
                                          b_hi);
        } else {
            fwdStageRangeT1Ymm<WideMulX4>(mod, a, m, tw, twp, q4, b_lo,
                                          b_hi);
        }
    }
}

void
nttInverseStagesAvx512(const NttTable &table, u64 *a, size_t stage_lo,
                       size_t stage_hi, size_t b_lo, size_t b_hi,
                       bool scale_n)
{
    const size_t n = table.n();
    if (n < 8) {
        table.inverseStages(a, stage_lo, stage_hi, b_lo, b_hi, scale_n);
        return;
    }
    if (narrowTable(table)) {
        nttInverseStagesNarrow(table, a, stage_lo, stage_hi, b_lo, b_hi,
                               scale_n);
        return;
    }
    const Modulus &mod = table.modulus();
    const u64 *tw = table.ipsiBr().data();
    const u64 *twp = table.ipsiBrPrecon().data();
    const __m512i q = bcast512(mod.value());
    const __m256i q4 = bcast256(mod.value());
    const size_t logn = table.logn();
    for (size_t s = stage_lo; s < stage_hi; ++s) {
        size_t h = n >> (s + 1);
        size_t t = size_t{1} << s;
        if (scale_n && s + 1 == logn) {
            if (t >= 8) {
                invStageRangeFusedZmm<WideZmm>(
                    mod, a, t, table.nInv(), table.nInvPrecon(),
                    table.ipsiLastScaled(), table.ipsiLastScaledPrecon(),
                    q, b_lo, b_hi);
            } else {
                invStageRangeFusedYmm<WideMulX4>(
                    mod, a, t, table.nInv(), table.nInvPrecon(),
                    table.ipsiLastScaled(), table.ipsiLastScaledPrecon(),
                    q4, b_lo, b_hi);
            }
        } else if (t >= 8) {
            invStageRangeVecZmm<WideZmm>(mod, a, h, t, tw, twp, q, b_lo,
                                         b_hi);
        } else if (t == 4) {
            invStageRangeVecYmm<WideMulX4>(mod, a, h, t, tw, twp, q4, b_lo,
                                           b_hi);
        } else if (t == 2) {
            invStageRangeT2Ymm<WideMulX4>(mod, a, h, tw, twp, q4, b_lo,
                                          b_hi);
        } else {
            invStageRangeT1Ymm<WideMulX4>(mod, a, h, tw, twp, q4, b_lo,
                                          b_hi);
        }
    }
}

void mulAddAvx512(u64 *dst, const u64 *a, const u64 *b,
                  const Modulus &mod, size_t n);
void addAvx512(u64 *dst, const u64 *a, const u64 *b, const Modulus &mod,
               size_t n);

void
nttForwardMulAddAvx512(const NttTable &table, u64 *a, const u64 *b0,
                       u64 *acc0, const u64 *b1, u64 *acc1)
{
    nttForwardAvx512(table, a);
    mulAddAvx512(acc0, a, b0, table.modulus(), table.n());
    if (acc1 != nullptr) {
        mulAddAvx512(acc1, a, b1, table.modulus(), table.n());
    }
}

void
nttInverseAddAvx512(const NttTable &table, u64 *a, u64 *acc)
{
    nttInverseAvx512(table, a);
    addAvx512(acc, acc, a, table.modulus(), table.n());
}

void
addAvx512(u64 *dst, const u64 *a, const u64 *b, const Modulus &mod,
          size_t n)
{
    const __m512i q = bcast512(mod.value());
    size_t c = 0;
    for (; c + 8 <= n; c += 8) {
        storeu512(dst + c,
                  addmodx8(loadu512(a + c), loadu512(b + c), q));
    }
    for (; c < n; ++c) {
        dst[c] = mod.add(a[c], b[c]);
    }
}

void
subAvx512(u64 *dst, const u64 *a, const u64 *b, const Modulus &mod,
          size_t n)
{
    const __m512i q = bcast512(mod.value());
    size_t c = 0;
    for (; c + 8 <= n; c += 8) {
        storeu512(dst + c,
                  submodx8(loadu512(a + c), loadu512(b + c), q));
    }
    for (; c < n; ++c) {
        dst[c] = mod.sub(a[c], b[c]);
    }
}

void
negAvx512(u64 *dst, const u64 *a, const Modulus &mod, size_t n)
{
    const __m512i q = bcast512(mod.value());
    size_t c = 0;
    for (; c + 8 <= n; c += 8) {
        storeu512(dst + c, negmodx8(loadu512(a + c), q));
    }
    for (; c < n; ++c) {
        dst[c] = mod.neg(a[c]);
    }
}

void
mulAvx512(u64 *dst, const u64 *a, const u64 *b, const Modulus &mod,
          size_t n)
{
    const __m512i q = bcast512(mod.value());
    const __m512i b_lo = bcast512(mod.barrettLo());
    const __m512i b_hi = bcast512(mod.barrettHi());
    size_t c = 0;
    for (; c + 8 <= n; c += 8) {
        __m512i x = loadu512(a + c);
        __m512i y = loadu512(b + c);
        storeu512(dst + c,
                  barrett128x8(_mm512_mullo_epi64(x, y),
                               mulhi64x8(x, y), q, b_lo, b_hi));
    }
    for (; c < n; ++c) {
        dst[c] = mod.mul(a[c], b[c]);
    }
}

void
mulAddAvx512(u64 *dst, const u64 *a, const u64 *b, const Modulus &mod,
             size_t n)
{
    const __m512i q = bcast512(mod.value());
    const __m512i b_lo = bcast512(mod.barrettLo());
    const __m512i b_hi = bcast512(mod.barrettHi());
    const __m512i one = bcast512(1);
    size_t c = 0;
    for (; c + 8 <= n; c += 8) {
        __m512i x = loadu512(a + c);
        __m512i y = loadu512(b + c);
        __m512i z_lo = _mm512_mullo_epi64(x, y);
        __m512i z_hi = mulhi64x8(x, y);
        __m512i d = loadu512(dst + c);
        __m512i s = _mm512_add_epi64(z_lo, d);
        __mmask8 carry = _mm512_cmplt_epu64_mask(s, d);
        z_hi = _mm512_mask_add_epi64(z_hi, carry, z_hi, one);
        storeu512(dst + c, barrett128x8(s, z_hi, q, b_lo, b_hi));
    }
    for (; c < n; ++c) {
        dst[c] = mod.mulAdd(a[c], b[c], dst[c]);
    }
}

void
scalarMulAvx512(u64 *dst, const u64 *src, u64 scalar,
                const Modulus &mod, size_t n)
{
    u64 pre = mod.shoupPrecompute(scalar);
    const __m512i q = bcast512(mod.value());
    const __m512i w = bcast512(scalar);
    const __m512i wp = bcast512(pre);
    size_t c = 0;
    for (; c + 8 <= n; c += 8) {
        storeu512(dst + c, mulshoupx8(loadu512(src + c), w, wp, q));
    }
    for (; c < n; ++c) {
        dst[c] = mod.mulShoup(src[c], scalar, pre);
    }
}

void
automorphismAvx512(u64 *dst, const u64 *src, const u64 *perm,
                   const u64 *sign, const Modulus &mod, size_t n)
{
    const __m512i q = bcast512(mod.value());
    size_t c = 0;
    for (; c + 8 <= n; c += 8) {
        __m512i x = _mm512_i64gather_epi64(loadu512(perm + c),
                                           src, 8);
        // signMask lanes are 0 or ~0; testing them yields the mask of
        // lanes the table marked negated (0 stays 0 in negmodx8).
        __mmask8 neg =
            _mm512_test_epi64_mask(loadu512(sign + c),
                                   loadu512(sign + c));
        storeu512(dst + c,
                  _mm512_mask_mov_epi64(x, neg, negmodx8(x, q)));
    }
    for (; c < n; ++c) {
        u64 x = src[perm[c]];
        dst[c] = sign[c] ? mod.neg(x) : x;
    }
}

void
bconvPass1Avx512(u64 *v, const u64 *x, u64 w, u64 w_pre,
                 const Modulus &mod, size_t n)
{
    const __m512i q = bcast512(mod.value());
    const __m512i wv = bcast512(w);
    const __m512i wp = bcast512(w_pre);
    size_t c = 0;
    for (; c + 8 <= n; c += 8) {
        storeu512(v + c, mulshoupx8(loadu512(x + c), wv, wp, q));
    }
    for (; c < n; ++c) {
        v[c] = mod.mulShoup(x[c], w, w_pre);
    }
}

void
bconvPass2Avx512(u64 *y, const u64 *v, size_t v_stride, size_t k,
                 const u64 *w, size_t w_stride, const Modulus &mod,
                 size_t n)
{
    const __m512i q = bcast512(mod.value());
    const __m512i b_lo = bcast512(mod.barrettLo());
    const __m512i b_hi = bcast512(mod.barrettHi());
    const __m512i one = bcast512(1);
    const __m512i zero = _mm512_setzero_si512();
    size_t c = 0;
    for (; c + 8 <= n; c += 8) {
        // Lazy accumulation: raw 128-bit products, one Barrett fold
        // per kBconvChunk terms (v, w < 2^62 keeps the sum in range).
        // The fold is an exact mod, so the running residue equals the
        // scalar kernel's value no matter how the sum is chunked.
        __m512i r = zero;
        size_t i = 0;
        while (i < k) {
            size_t end = i + kBconvChunk < k ? i + kBconvChunk : k;
            __m512i acc_lo = zero;
            __m512i acc_hi = zero;
            for (; i < end; ++i) {
                __m512i vi = loadu512(v + i * v_stride + c);
                __m512i wi = bcast512(w[i * w_stride]);
                __m512i z_lo = _mm512_mullo_epi64(vi, wi);
                __m512i z_hi = mulhi64x8(vi, wi);
                __m512i s = _mm512_add_epi64(acc_lo, z_lo);
                __mmask8 carry = _mm512_cmplt_epu64_mask(s, acc_lo);
                acc_lo = s;
                acc_hi = _mm512_add_epi64(acc_hi, z_hi);
                acc_hi =
                    _mm512_mask_add_epi64(acc_hi, carry, acc_hi, one);
            }
            r = addmodx8(
                r, barrett128x8(acc_lo, acc_hi, q, b_lo, b_hi), q);
        }
        storeu512(y + c, r);
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

/** Broadcast gadget constants for the 8-lane decomposition. */
struct GadgetZmm
{
    __m512i q, halfQ, recip, bLo, bHi, mask, halfB, base;
    __m128i shift, shiftHi, logB;
    u32 levels;
    bool wide;

    explicit GadgetZmm(const Gadget &g)
        : q(bcast512(g.q())), halfQ(bcast512(g.halfQ())),
          recip(bcast512(g.recip())), bLo(bcast512(g.barrettLo())),
          bHi(bcast512(g.barrettHi())),
          mask(bcast512((u64(1) << g.logBase()) - 1)),
          halfB(bcast512(u64(1) << (g.logBase() - 1))),
          base(bcast512(u64(1) << g.logBase())),
          shift(_mm_cvtsi32_si128(static_cast<int>(g.shift()))),
          shiftHi(_mm_cvtsi32_si128(static_cast<int>(64 - g.shift()))),
          logB(_mm_cvtsi32_si128(static_cast<int>(g.logBase()))),
          levels(g.levels()), wide(g.wide())
    {
    }
};

/** Gadget::quotient per lane: round(v * 2^S / q) mod 2^64. */
inline __m512i
gadgetQuotientX8(__m512i v, const GadgetZmm &g)
{
    const __m512i one = bcast512(1);
    __m512i num;
    __m512i est;
    if (!g.wide) {
        num = _mm512_add_epi64(_mm512_sll_epi64(v, g.shift), g.halfQ);
        est = mulhi64x8(num, g.recip);
    } else {
        // 128-bit numerator (hi, num); S == 64 shifts lo out entirely.
        __m512i lo = _mm512_sll_epi64(v, g.shift);
        __m512i hi = _mm512_srl_epi64(v, g.shiftHi);
        num = _mm512_add_epi64(lo, g.halfQ);
        hi = _mm512_mask_add_epi64(hi, _mm512_cmplt_epu64_mask(num, lo),
                                   hi, one);
        // floor(num * floor(2^128/q) / 2^128), low word.
        __m512i c_ll = mulhi64x8(num, g.bLo);
        __m512i lh_lo = _mm512_mullo_epi64(num, g.bHi);
        __m512i lh_hi = mulhi64x8(num, g.bHi);
        __m512i hl_lo = _mm512_mullo_epi64(hi, g.bLo);
        __m512i hl_hi = mulhi64x8(hi, g.bLo);
        __m512i s1 = _mm512_add_epi64(c_ll, lh_lo);
        __mmask8 carry1 = _mm512_cmplt_epu64_mask(s1, c_ll);
        __m512i s2 = _mm512_add_epi64(s1, hl_lo);
        __mmask8 carry2 = _mm512_cmplt_epu64_mask(s2, hl_lo);
        est = _mm512_add_epi64(_mm512_mullo_epi64(hi, g.bHi),
                               _mm512_add_epi64(lh_hi, hl_hi));
        est = _mm512_mask_add_epi64(est, carry1, est, one);
        est = _mm512_mask_add_epi64(est, carry2, est, one);
    }
    // One correction: the remainder is < 2q.
    __m512i r = _mm512_sub_epi64(num, _mm512_mullo_epi64(est, g.q));
    return _mm512_mask_add_epi64(est, _mm512_cmpge_epu64_mask(r, g.q),
                                 est, one);
}

/** Balanced digit residues of eight values into dst[l][x..x+8). */
inline void
decomposeStoreX8(u64 *const *dst, size_t x, __m512i v, const GadgetZmm &g)
{
    const __m512i zero = _mm512_setzero_si512();
    __m512i y = gadgetQuotientX8(v, g);
    __mmask8 carry = 0;
    for (u32 l = g.levels; l-- > 0;) {
        __m512i r = _mm512_and_si512(y, g.mask);
        r = _mm512_mask_add_epi64(r, carry, r, bcast512(1));
        y = _mm512_srl_epi64(y, g.logB);
        carry = _mm512_cmpge_epu64_mask(r, g.halfB);
        // Digit d = r - B when carrying (0 when r == B); a negative
        // digit's residue is q + d.
        __m512i d = _mm512_mask_sub_epi64(r, carry, r, g.base);
        __mmask8 neg = _mm512_cmplt_epi64_mask(d, zero);
        storeu512(dst[l] + x, _mm512_mask_add_epi64(d, neg, d, g.q));
    }
}

void
rotateDecomposeAvx512(u64 *const *dst, const u64 *src, u64 t,
                      const Gadget &gadget, const Modulus &mod, size_t n)
{
    const GadgetZmm g(gadget);
    forEachRotateRange(
        src, t, n,
        [&](size_t x0, size_t x1, const u64 *rot, bool neg, bool diff) {
            size_t x = x0;
            for (; x + 8 <= x1; x += 8) {
                __m512i v = loadu512(src + x);
                if (diff) {
                    __m512i r = loadu512(rot + (x - x0));
                    if (neg) {
                        r = negmodx8(r, g.q);
                    }
                    v = submodx8(r, v, g.q);
                }
                decomposeStoreX8(dst, x, v, g);
            }
            rotateDecomposeSpanScalar(dst, src, x, x1, rot + (x - x0), neg,
                                      diff, gadget, mod);
        });
}

void
extProdMacAvx512(u64 *dst, const u64 *const *a, const u64 *const *b,
                 size_t rows, const Modulus &mod, size_t n)
{
    const __m512i q = bcast512(mod.value());
    const __m512i b_lo = bcast512(mod.barrettLo());
    const __m512i b_hi = bcast512(mod.barrettHi());
    const __m512i one = bcast512(1);
    const __m512i zero = _mm512_setzero_si512();
    // Narrow moduli (every TFHE set) multiply operands in one 32x32 ->
    // 64 lane op and fold each chunk with three 32-bit Shoup
    // multiplies; wider moduli take the full 64x64 product and a
    // Barrett fold.
    const bool narrow = narrowModulus(mod.value());
    const NarrowMacFold f(mod);
    const __m512i one_pre = bcast512(f.onePre);
    const __m512i c32 = bcast512(f.c32);
    const __m512i c32_pre = bcast512(f.c32Pre);
    const __m512i c64 = bcast512(f.c64);
    const __m512i c64_pre = bcast512(f.c64Pre);
    size_t c = 0;
    for (; c + 8 <= n; c += 8) {
        __m512i r = zero;
        size_t i = 0;
        while (i < rows) {
            size_t end = i + kBconvChunk < rows ? i + kBconvChunk : rows;
            __m512i acc_lo = zero;
            __m512i acc_hi = zero;
            for (; i < end; ++i) {
                __m512i x = loadu512(a[i] + c);
                __m512i y = loadu512(b[i] + c);
                __m512i z_lo;
                if (narrow) {
                    z_lo = _mm512_mul_epu32(x, y);
                } else {
                    z_lo = _mm512_mullo_epi64(x, y);
                    acc_hi = _mm512_add_epi64(acc_hi, mulhi64x8(x, y));
                }
                __m512i s = _mm512_add_epi64(acc_lo, z_lo);
                __mmask8 carry = _mm512_cmplt_epu64_mask(s, acc_lo);
                acc_lo = s;
                acc_hi = _mm512_mask_add_epi64(acc_hi, carry, acc_hi, one);
            }
            if (narrow) {
                // mul_epu32 reads only the low half of acc_lo: z0.
                __m512i r0 = mulshoup32x8(acc_lo, one, one_pre, q);
                __m512i r1 = mulshoup32x8(_mm512_srli_epi64(acc_lo, 32),
                                          c32, c32_pre, q);
                __m512i r2 = mulshoup32x8(acc_hi, c64, c64_pre, q);
                r = NarrowZmm::add(
                    r, NarrowZmm::add(NarrowZmm::add(r0, r1, q), r2, q), q);
            } else {
                r = addmodx8(r,
                             barrett128x8(acc_lo, acc_hi, q, b_lo, b_hi), q);
            }
        }
        storeu512(dst + c, r);
    }
    extProdMacScalarFrom(dst, a, b, rows, mod, c, n);
}

void
lweKsAccumulateAvx512(i64 *acc, size_t acc_stride, const i8 *digits,
                      size_t count, const u64 *row, size_t n)
{
    for (size_t c = 0; c < count; ++c) {
        i64 d = digits[c];
        if (d == 0) {
            continue;
        }
        i64 *out = acc + c * acc_stride;
        // DQ's 64-bit mullo is the low word of the signed product —
        // exact, since the caller bounds every product below 2^63.
        const __m512i dv = bcast512(static_cast<u64>(d));
        size_t x = 0;
        for (; x + 8 <= n; x += 8) {
            __m512i p = _mm512_mullo_epi64(loadu512(row + x), dv);
            _mm512_storeu_si512(
                out + x, _mm512_add_epi64(_mm512_loadu_si512(out + x), p));
        }
        lweKsAccumulateScalarFrom(out, d, row, x, n);
    }
}

} // namespace

const KernelSet *
avx512KernelsOrNull()
{
    static const KernelSet set = {
        Level::Avx512,          8,
        nttForwardAvx512,       nttInverseAvx512,
        nttForwardStagesAvx512, nttInverseStagesAvx512,
        nttForwardMulAddAvx512, nttInverseAddAvx512,
        addAvx512,              subAvx512,
        negAvx512,              mulAvx512,
        mulAddAvx512,           scalarMulAvx512,
        automorphismAvx512,     bconvPass1Avx512,
        bconvPass2Avx512,       rotateDecomposeAvx512,
        extProdMacAvx512,       lweKsAccumulateAvx512,
    };
    return &set;
}

} // namespace simd
} // namespace trinity

#else // !(__AVX512F__ && __AVX512DQ__)

namespace trinity {
namespace simd {

const KernelSet *
avx512KernelsOrNull()
{
    return nullptr;
}

} // namespace simd
} // namespace trinity

#endif // __AVX512F__ && __AVX512DQ__
