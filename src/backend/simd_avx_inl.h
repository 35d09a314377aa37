/**
 * @file
 * 256-bit (ymm) modular-arithmetic building blocks shared by the AVX2
 * and AVX-512 kernel translation units, plus the shuffle-based NTT
 * stages for butterfly spans narrower than a vector (t ∈ {1, 2}).
 *
 * INTERNAL HEADER: include only from simd_kernels_avx2.cpp /
 * simd_kernels_avx512.cpp. Everything lives in an anonymous namespace
 * on purpose — each TU is compiled with different -m flags, and a
 * linker deduplicating `inline` copies could keep the AVX-512-codegen
 * one and feed it to the AVX2 path on a CPU without AVX-512.
 *
 * Value-range invariants (moduli are < 2^62 repo-wide):
 *  - reduced residues and Shoup remainders stay < 2q < 2^63, so plain
 *    signed 64-bit compares are exact for them;
 *  - full-range 64-bit intermediates (Barrett partial products) use
 *    the sign-flip unsigned compare.
 *
 * Narrow-modulus path (simd::narrowModulus: q < 2^32, every TFHE set):
 * the stage templates below take their twiddle multiply as a policy,
 * WideMulX4 (64x64 Shoup, any q < 2^62) or NarrowMulX4 (three 32x32
 * `mul_epu32`). The narrow preconditioner is the table's 64-bit one
 * shifted right by 32 — exactly floor(w·2^32/q) — so both paths read
 * the same NttTable. Operands are < q < 2^32, so each 32x32 product is
 * exact in its 64-bit lane; the remainder a·w − quot·q is < 2q < 2^33
 * and one signed compare reduces it.
 *
 * Every routine computes the exact canonical residue of the scalar
 * reference (Modulus::add/sub/neg/mulShoup/reduce128), never a lazy
 * representative, so results are bit-identical lane for lane.
 */

#ifndef TRINITY_BACKEND_SIMD_AVX_INL_H
#define TRINITY_BACKEND_SIMD_AVX_INL_H

#if defined(__AVX2__)

#include <immintrin.h>

#include "common/modarith.h"
#include "common/types.h"
#include "poly/ntt.h"

namespace trinity {
namespace simd {
namespace {

inline __m256i
loadu256(const u64 *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

inline void
storeu256(u64 *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

inline __m256i
bcast256(u64 x)
{
    return _mm256_set1_epi64x(static_cast<long long>(x));
}

/** Unsigned a > b per 64-bit lane (sign-flip onto signed compare). */
inline __m256i
cmpgtu64x4(__m256i a, __m256i b)
{
    const __m256i sign = bcast256(0x8000000000000000ULL);
    return _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign),
                              _mm256_xor_si256(b, sign));
}

/** High 64 bits of the unsigned 64x64 product per lane. */
inline __m256i
mulhi64x4(__m256i a, __m256i b)
{
    const __m256i m32 = bcast256(0xffffffffULL);
    __m256i a_hi = _mm256_srli_epi64(a, 32);
    __m256i b_hi = _mm256_srli_epi64(b, 32);
    __m256i ll = _mm256_mul_epu32(a, b);
    __m256i lh = _mm256_mul_epu32(a, b_hi);
    __m256i hl = _mm256_mul_epu32(a_hi, b);
    __m256i hh = _mm256_mul_epu32(a_hi, b_hi);
    // carry-save: cross terms cannot overflow (3 * (2^32-1) < 2^64)
    __m256i cross = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_srli_epi64(ll, 32),
                         _mm256_and_si256(lh, m32)),
        _mm256_and_si256(hl, m32));
    return _mm256_add_epi64(
        _mm256_add_epi64(hh, _mm256_srli_epi64(cross, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(lh, 32),
                         _mm256_srli_epi64(hl, 32)));
}

/** Low 64 bits of the 64x64 product per lane. */
inline __m256i
mullo64x4(__m256i a, __m256i b)
{
    __m256i a_hi = _mm256_srli_epi64(a, 32);
    __m256i b_hi = _mm256_srli_epi64(b, 32);
    __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi),
                                     _mm256_mul_epu32(a_hi, b));
    return _mm256_add_epi64(_mm256_mul_epu32(a, b),
                            _mm256_slli_epi64(cross, 32));
}

/** Both product halves, sharing the four 32x32 partials. */
inline void
mul64widex4(__m256i a, __m256i b, __m256i &hi, __m256i &lo)
{
    const __m256i m32 = bcast256(0xffffffffULL);
    __m256i a_hi = _mm256_srli_epi64(a, 32);
    __m256i b_hi = _mm256_srli_epi64(b, 32);
    __m256i ll = _mm256_mul_epu32(a, b);
    __m256i lh = _mm256_mul_epu32(a, b_hi);
    __m256i hl = _mm256_mul_epu32(a_hi, b);
    __m256i hh = _mm256_mul_epu32(a_hi, b_hi);
    __m256i cross = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_srli_epi64(ll, 32),
                         _mm256_and_si256(lh, m32)),
        _mm256_and_si256(hl, m32));
    hi = _mm256_add_epi64(
        _mm256_add_epi64(hh, _mm256_srli_epi64(cross, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(lh, 32),
                         _mm256_srli_epi64(hl, 32)));
    lo = _mm256_add_epi64(ll, _mm256_slli_epi64(
                                  _mm256_add_epi64(lh, hl), 32));
}

/** a + b mod q for reduced inputs (sum < 2^63: signed compare exact). */
inline __m256i
addmodx4(__m256i a, __m256i b, __m256i q)
{
    __m256i s = _mm256_add_epi64(a, b);
    __m256i lt = _mm256_cmpgt_epi64(q, s); // q > s: already reduced
    return _mm256_sub_epi64(s, _mm256_andnot_si256(lt, q));
}

/** a - b mod q for reduced inputs. */
inline __m256i
submodx4(__m256i a, __m256i b, __m256i q)
{
    __m256i d = _mm256_sub_epi64(a, b);
    __m256i borrow = _mm256_cmpgt_epi64(b, a); // b > a: wrapped
    return _mm256_add_epi64(d, _mm256_and_si256(borrow, q));
}

/** -a mod q (0 stays 0). */
inline __m256i
negmodx4(__m256i a, __m256i q)
{
    __m256i zero = _mm256_setzero_si256();
    __m256i is_zero = _mm256_cmpeq_epi64(a, zero);
    return _mm256_andnot_si256(is_zero, _mm256_sub_epi64(q, a));
}

/** Shoup multiply by constant w (wpre = shoupPrecompute(w)), exact. */
inline __m256i
mulshoupx4(__m256i a, __m256i w, __m256i wpre, __m256i q)
{
    __m256i quot = mulhi64x4(a, wpre);
    __m256i r = _mm256_sub_epi64(mullo64x4(a, w), mullo64x4(quot, q));
    __m256i lt = _mm256_cmpgt_epi64(q, r); // r < 2q: signed compare ok
    return _mm256_sub_epi64(r, _mm256_andnot_si256(lt, q));
}

/**
 * Shoup multiply for q < 2^32 (a, w < q): three 32x32 products. wpre
 * is the 64-bit shoupPrecompute(w); its high half floor(w·2^32/q) is
 * the 32-bit preconditioner. The remainder is < 2q < 2^33.
 */
inline __m256i
mulshoup32x4(__m256i a, __m256i w, __m256i wpre, __m256i q)
{
    __m256i quot = _mm256_srli_epi64(
        _mm256_mul_epu32(a, _mm256_srli_epi64(wpre, 32)), 32);
    __m256i r = _mm256_sub_epi64(_mm256_mul_epu32(a, w),
                                 _mm256_mul_epu32(quot, q));
    __m256i lt = _mm256_cmpgt_epi64(q, r);
    return _mm256_sub_epi64(r, _mm256_andnot_si256(lt, q));
}

/** Twiddle-multiply policies for the stage templates below. */
struct WideMulX4
{
    static __m256i
    mul(__m256i a, __m256i w, __m256i wpre, __m256i q)
    {
        return mulshoupx4(a, w, wpre, q);
    }
};

struct NarrowMulX4
{
    static __m256i
    mul(__m256i a, __m256i w, __m256i wpre, __m256i q)
    {
        return mulshoup32x4(a, w, wpre, q);
    }
};

/**
 * Exact (z_hi·2^64 + z_lo) mod q — the reduce128() recurrence with
 * (b_hi, b_lo) = floor(2^128/q). The estimated quotient is off by at
 * most one, so the remainder needs a single conditional subtract, and
 * only its low 64 bits matter (true remainder < 2q < 2^64).
 */
inline __m256i
barrett128x4(__m256i z_lo, __m256i z_hi, __m256i q, __m256i b_lo,
             __m256i b_hi)
{
    __m256i one = bcast256(1);
    __m256i c_ll = mulhi64x4(z_lo, b_lo);
    __m256i lh_hi, lh_lo;
    mul64widex4(z_lo, b_hi, lh_hi, lh_lo);
    __m256i hl_hi, hl_lo;
    mul64widex4(z_hi, b_lo, hl_hi, hl_lo);
    __m256i hh_lo = mullo64x4(z_hi, b_hi);
    // mid = c_ll + lh_lo + hl_lo; carries feed the top word
    __m256i s1 = _mm256_add_epi64(c_ll, lh_lo);
    __m256i carry1 = _mm256_and_si256(cmpgtu64x4(c_ll, s1), one);
    __m256i s2 = _mm256_add_epi64(s1, hl_lo);
    __m256i carry2 = _mm256_and_si256(cmpgtu64x4(hl_lo, s2), one);
    __m256i q_est = _mm256_add_epi64(
        _mm256_add_epi64(hh_lo, _mm256_add_epi64(lh_hi, hl_hi)),
        _mm256_add_epi64(carry1, carry2));
    __m256i r = _mm256_sub_epi64(z_lo, mullo64x4(q_est, q));
    __m256i lt = _mm256_cmpgt_epi64(q, r); // r < 2q < 2^63
    return _mm256_sub_epi64(r, _mm256_andnot_si256(lt, q));
}

// ------------------------------------------------------------------
// Tail NTT stages: butterflies narrower than a ymm register, handled
// by de-interleaving 8 coefficients across two vectors so the full
// network stays vectorized instead of falling back to scalar for the
// last/first log2(lanes) stages. Callers guarantee n >= 8.
// ------------------------------------------------------------------

/** Forward stage with t >= 4: contiguous spans, one twiddle a group. */
template <class Mul>
inline void
fwdStageVecYmm(u64 *a, size_t m, size_t t, const u64 *tw,
               const u64 *twp, __m256i q)
{
    for (size_t i = 0; i < m; ++i) {
        __m256i s = bcast256(tw[m + i]);
        __m256i sp = bcast256(twp[m + i]);
        u64 *p = a + 2 * i * t;
        for (size_t j = 0; j < t; j += 4) {
            __m256i u = loadu256(p + j);
            __m256i v = Mul::mul(loadu256(p + j + t), s, sp, q);
            storeu256(p + j, addmodx4(u, v, q));
            storeu256(p + j + t, submodx4(u, v, q));
        }
    }
}

/** Forward stage with t == 2 (two groups per 8 coefficients). */
template <class Mul>
inline void
fwdStageT2Ymm(u64 *a, size_t m, const u64 *tw, const u64 *twp,
              __m256i q)
{
    for (size_t i = 0; i < m; i += 2) {
        u64 *p = a + 4 * i;
        __m256i x = loadu256(p);
        __m256i y = loadu256(p + 4);
        // u = {a0,a1,a4,a5} (first halves), v = {a2,a3,a6,a7}
        __m256i u = _mm256_permute2x128_si256(x, y, 0x20);
        __m256i v = _mm256_permute2x128_si256(x, y, 0x31);
        // twiddles {t_i, t_i, t_{i+1}, t_{i+1}}
        __m128i t2 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(tw + m + i));
        __m128i tp2 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(twp + m + i));
        __m256i s = _mm256_permute4x64_epi64(
            _mm256_castsi128_si256(t2), 0x50);
        __m256i sp = _mm256_permute4x64_epi64(
            _mm256_castsi128_si256(tp2), 0x50);
        __m256i w = Mul::mul(v, s, sp, q);
        __m256i lo = addmodx4(u, w, q);
        __m256i hi = submodx4(u, w, q);
        storeu256(p, _mm256_permute2x128_si256(lo, hi, 0x20));
        storeu256(p + 4, _mm256_permute2x128_si256(lo, hi, 0x31));
    }
}

/** Forward stage with t == 1 (four adjacent-pair butterflies). */
template <class Mul>
inline void
fwdStageT1Ymm(u64 *a, size_t m, const u64 *tw, const u64 *twp,
              __m256i q)
{
    for (size_t i = 0; i < m; i += 4) {
        u64 *p = a + 2 * i;
        __m256i x = loadu256(p);
        __m256i y = loadu256(p + 4);
        // butterfly order {0,2,1,3}: u = {a0,a4,a2,a6}, v = {a1,a5,a3,a7}
        __m256i u = _mm256_unpacklo_epi64(x, y);
        __m256i v = _mm256_unpackhi_epi64(x, y);
        // twiddles permuted to the same order
        __m256i s = _mm256_permute4x64_epi64(loadu256(tw + m + i), 0xD8);
        __m256i sp =
            _mm256_permute4x64_epi64(loadu256(twp + m + i), 0xD8);
        __m256i w = Mul::mul(v, s, sp, q);
        __m256i lo = addmodx4(u, w, q);
        __m256i hi = submodx4(u, w, q);
        storeu256(p, _mm256_unpacklo_epi64(lo, hi));
        storeu256(p + 4, _mm256_unpackhi_epi64(lo, hi));
    }
}

/** Inverse stage with t >= 4. */
template <class Mul>
inline void
invStageVecYmm(u64 *a, size_t h, size_t t, const u64 *tw,
               const u64 *twp, __m256i q)
{
    for (size_t i = 0; i < h; ++i) {
        __m256i s = bcast256(tw[h + i]);
        __m256i sp = bcast256(twp[h + i]);
        u64 *p = a + 2 * i * t;
        for (size_t j = 0; j < t; j += 4) {
            __m256i u = loadu256(p + j);
            __m256i v = loadu256(p + j + t);
            storeu256(p + j, addmodx4(u, v, q));
            storeu256(p + j + t,
                      Mul::mul(submodx4(u, v, q), s, sp, q));
        }
    }
}

/** Inverse stage with t == 1 (GS butterfly on adjacent pairs). */
template <class Mul>
inline void
invStageT1Ymm(u64 *a, size_t h, const u64 *tw, const u64 *twp,
              __m256i q)
{
    for (size_t i = 0; i < h; i += 4) {
        u64 *p = a + 2 * i;
        __m256i x = loadu256(p);
        __m256i y = loadu256(p + 4);
        __m256i u = _mm256_unpacklo_epi64(x, y);
        __m256i v = _mm256_unpackhi_epi64(x, y);
        __m256i s = _mm256_permute4x64_epi64(loadu256(tw + h + i), 0xD8);
        __m256i sp =
            _mm256_permute4x64_epi64(loadu256(twp + h + i), 0xD8);
        __m256i lo = addmodx4(u, v, q);
        __m256i hi = Mul::mul(submodx4(u, v, q), s, sp, q);
        storeu256(p, _mm256_unpacklo_epi64(lo, hi));
        storeu256(p + 4, _mm256_unpackhi_epi64(lo, hi));
    }
}

/** Inverse stage with t == 2. */
template <class Mul>
inline void
invStageT2Ymm(u64 *a, size_t h, const u64 *tw, const u64 *twp,
              __m256i q)
{
    for (size_t i = 0; i < h; i += 2) {
        u64 *p = a + 4 * i;
        __m256i x = loadu256(p);
        __m256i y = loadu256(p + 4);
        __m256i u = _mm256_permute2x128_si256(x, y, 0x20);
        __m256i v = _mm256_permute2x128_si256(x, y, 0x31);
        __m128i t2 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(tw + h + i));
        __m128i tp2 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(twp + h + i));
        __m256i s = _mm256_permute4x64_epi64(
            _mm256_castsi128_si256(t2), 0x50);
        __m256i sp = _mm256_permute4x64_epi64(
            _mm256_castsi128_si256(tp2), 0x50);
        __m256i lo = addmodx4(u, v, q);
        __m256i hi = Mul::mul(submodx4(u, v, q), s, sp, q);
        storeu256(p, _mm256_permute2x128_si256(lo, hi, 0x20));
        storeu256(p + 4, _mm256_permute2x128_si256(lo, hi, 0x31));
    }
}

// ------------------------------------------------------------------
// Butterfly-range stage variants for the stage-level entry points:
// the same networks restricted to butterflies [bLo, bHi) of one
// stage (butterfly b of a stage with span t lives at block i = b/t,
// offset j = b%t). All loads/stores are unaligned, so vector groups
// can start at any butterfly; only the shuffle stages need whole
// blocks per group, handled with scalar edge butterflies.
// ------------------------------------------------------------------

/** One scalar CT butterfly b of a forward stage with span t. */
inline void
fwdButterflyScalar(const Modulus &mod, u64 *a, size_t m, size_t t,
                   const u64 *tw, const u64 *twp, size_t b)
{
    size_t i = b / t;
    size_t j = b % t;
    u64 *p = a + 2 * i * t;
    u64 u = p[j];
    u64 v = mod.mulShoup(p[j + t], tw[m + i], twp[m + i]);
    p[j] = mod.add(u, v);
    p[j + t] = mod.sub(u, v);
}

/** One scalar GS butterfly b of an inverse stage with span t. */
inline void
invButterflyScalar(const Modulus &mod, u64 *a, size_t h, size_t t,
                   const u64 *tw, const u64 *twp, size_t b)
{
    size_t i = b / t;
    size_t j = b % t;
    u64 *p = a + 2 * i * t;
    u64 u = p[j];
    u64 v = p[j + t];
    p[j] = mod.add(u, v);
    p[j + t] = mod.mulShoup(mod.sub(u, v), tw[h + i], twp[h + i]);
}

/** Forward stage range with t >= 4: per-block j-subranges, vector
 *  body plus scalar tail inside each block. */
template <class Mul>
inline void
fwdStageRangeVecYmm(const Modulus &mod, u64 *a, size_t m, size_t t,
                    const u64 *tw, const u64 *twp, __m256i q,
                    size_t bLo, size_t bHi)
{
    size_t iLo = bLo / t;
    size_t iHi = (bHi + t - 1) / t;
    for (size_t i = iLo; i < iHi; ++i) {
        __m256i s = bcast256(tw[m + i]);
        __m256i sp = bcast256(twp[m + i]);
        size_t lo = bLo > i * t ? bLo - i * t : 0;
        size_t hi = bHi < (i + 1) * t ? bHi - i * t : t;
        u64 *p = a + 2 * i * t;
        size_t j = lo;
        for (; j + 4 <= hi; j += 4) {
            __m256i u = loadu256(p + j);
            __m256i v = Mul::mul(loadu256(p + j + t), s, sp, q);
            storeu256(p + j, addmodx4(u, v, q));
            storeu256(p + j + t, submodx4(u, v, q));
        }
        for (; j < hi; ++j) {
            u64 u = p[j];
            u64 v = mod.mulShoup(p[j + t], tw[m + i], twp[m + i]);
            p[j] = mod.add(u, v);
            p[j + t] = mod.sub(u, v);
        }
    }
}

/** Forward stage range with t == 2: a vector group covers two whole
 *  blocks (butterflies [2i, 2i+4)), so at most one scalar head
 *  butterfly aligns b to a block start. */
template <class Mul>
inline void
fwdStageRangeT2Ymm(const Modulus &mod, u64 *a, size_t m, const u64 *tw,
                   const u64 *twp, __m256i q, size_t bLo, size_t bHi)
{
    size_t b = bLo;
    for (; b < bHi && b % 2 != 0; ++b) {
        fwdButterflyScalar(mod, a, m, 2, tw, twp, b);
    }
    for (; b + 4 <= bHi; b += 4) {
        size_t i = b / 2;
        u64 *p = a + 4 * i;
        __m256i x = loadu256(p);
        __m256i y = loadu256(p + 4);
        __m256i u = _mm256_permute2x128_si256(x, y, 0x20);
        __m256i v = _mm256_permute2x128_si256(x, y, 0x31);
        __m128i t2 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(tw + m + i));
        __m128i tp2 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(twp + m + i));
        __m256i s = _mm256_permute4x64_epi64(
            _mm256_castsi128_si256(t2), 0x50);
        __m256i sp = _mm256_permute4x64_epi64(
            _mm256_castsi128_si256(tp2), 0x50);
        __m256i w = Mul::mul(v, s, sp, q);
        __m256i lo = addmodx4(u, w, q);
        __m256i hi = submodx4(u, w, q);
        storeu256(p, _mm256_permute2x128_si256(lo, hi, 0x20));
        storeu256(p + 4, _mm256_permute2x128_si256(lo, hi, 0x31));
    }
    for (; b < bHi; ++b) {
        fwdButterflyScalar(mod, a, m, 2, tw, twp, b);
    }
}

/** Forward stage range with t == 1: butterfly b IS block b, so vector
 *  groups of four start anywhere. */
template <class Mul>
inline void
fwdStageRangeT1Ymm(const Modulus &mod, u64 *a, size_t m, const u64 *tw,
                   const u64 *twp, __m256i q, size_t bLo, size_t bHi)
{
    size_t b = bLo;
    for (; b + 4 <= bHi; b += 4) {
        u64 *p = a + 2 * b;
        __m256i x = loadu256(p);
        __m256i y = loadu256(p + 4);
        __m256i u = _mm256_unpacklo_epi64(x, y);
        __m256i v = _mm256_unpackhi_epi64(x, y);
        __m256i s = _mm256_permute4x64_epi64(loadu256(tw + m + b), 0xD8);
        __m256i sp =
            _mm256_permute4x64_epi64(loadu256(twp + m + b), 0xD8);
        __m256i w = Mul::mul(v, s, sp, q);
        __m256i lo = addmodx4(u, w, q);
        __m256i hi = submodx4(u, w, q);
        storeu256(p, _mm256_unpacklo_epi64(lo, hi));
        storeu256(p + 4, _mm256_unpackhi_epi64(lo, hi));
    }
    for (; b < bHi; ++b) {
        fwdButterflyScalar(mod, a, m, 1, tw, twp, b);
    }
}

/** Inverse stage range with t >= 4. */
template <class Mul>
inline void
invStageRangeVecYmm(const Modulus &mod, u64 *a, size_t h, size_t t,
                    const u64 *tw, const u64 *twp, __m256i q,
                    size_t bLo, size_t bHi)
{
    size_t iLo = bLo / t;
    size_t iHi = (bHi + t - 1) / t;
    for (size_t i = iLo; i < iHi; ++i) {
        __m256i s = bcast256(tw[h + i]);
        __m256i sp = bcast256(twp[h + i]);
        size_t lo = bLo > i * t ? bLo - i * t : 0;
        size_t hi = bHi < (i + 1) * t ? bHi - i * t : t;
        u64 *p = a + 2 * i * t;
        size_t j = lo;
        for (; j + 4 <= hi; j += 4) {
            __m256i u = loadu256(p + j);
            __m256i v = loadu256(p + j + t);
            storeu256(p + j, addmodx4(u, v, q));
            storeu256(p + j + t,
                      Mul::mul(submodx4(u, v, q), s, sp, q));
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

/** Inverse stage range with t == 1. */
template <class Mul>
inline void
invStageRangeT1Ymm(const Modulus &mod, u64 *a, size_t h, const u64 *tw,
                   const u64 *twp, __m256i q, size_t bLo, size_t bHi)
{
    size_t b = bLo;
    for (; b + 4 <= bHi; b += 4) {
        u64 *p = a + 2 * b;
        __m256i x = loadu256(p);
        __m256i y = loadu256(p + 4);
        __m256i u = _mm256_unpacklo_epi64(x, y);
        __m256i v = _mm256_unpackhi_epi64(x, y);
        __m256i s = _mm256_permute4x64_epi64(loadu256(tw + h + b), 0xD8);
        __m256i sp =
            _mm256_permute4x64_epi64(loadu256(twp + h + b), 0xD8);
        __m256i lo = addmodx4(u, v, q);
        __m256i hi = Mul::mul(submodx4(u, v, q), s, sp, q);
        storeu256(p, _mm256_unpacklo_epi64(lo, hi));
        storeu256(p + 4, _mm256_unpackhi_epi64(lo, hi));
    }
    for (; b < bHi; ++b) {
        invButterflyScalar(mod, a, h, 1, tw, twp, b);
    }
}

/** Inverse stage range with t == 2. */
template <class Mul>
inline void
invStageRangeT2Ymm(const Modulus &mod, u64 *a, size_t h, const u64 *tw,
                   const u64 *twp, __m256i q, size_t bLo, size_t bHi)
{
    size_t b = bLo;
    for (; b < bHi && b % 2 != 0; ++b) {
        invButterflyScalar(mod, a, h, 2, tw, twp, b);
    }
    for (; b + 4 <= bHi; b += 4) {
        size_t i = b / 2;
        u64 *p = a + 4 * i;
        __m256i x = loadu256(p);
        __m256i y = loadu256(p + 4);
        __m256i u = _mm256_permute2x128_si256(x, y, 0x20);
        __m256i v = _mm256_permute2x128_si256(x, y, 0x31);
        __m128i t2 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(tw + h + i));
        __m128i tp2 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(twp + h + i));
        __m256i s = _mm256_permute4x64_epi64(
            _mm256_castsi128_si256(t2), 0x50);
        __m256i sp = _mm256_permute4x64_epi64(
            _mm256_castsi128_si256(tp2), 0x50);
        __m256i lo = addmodx4(u, v, q);
        __m256i hi = Mul::mul(submodx4(u, v, q), s, sp, q);
        storeu256(p, _mm256_permute2x128_si256(lo, hi, 0x20));
        storeu256(p + 4, _mm256_permute2x128_si256(lo, hi, 0x31));
    }
    for (; b < bHi; ++b) {
        invButterflyScalar(mod, a, h, 2, tw, twp, b);
    }
}

/** Final inverse stage with N^{-1} folded into both outputs (one
 *  block: h == 1, t == n/2, butterfly b == offset j). */
template <class Mul>
inline void
invStageRangeFusedYmm(const Modulus &mod, u64 *a, size_t t, u64 nInv,
                      u64 nInvP, u64 sL, u64 sLp, __m256i q, size_t bLo,
                      size_t bHi)
{
    __m256i ni = bcast256(nInv);
    __m256i nip = bcast256(nInvP);
    __m256i s = bcast256(sL);
    __m256i sp = bcast256(sLp);
    size_t j = bLo;
    for (; j + 4 <= bHi; j += 4) {
        __m256i u = loadu256(a + j);
        __m256i v = loadu256(a + j + t);
        storeu256(a + j, Mul::mul(addmodx4(u, v, q), ni, nip, q));
        storeu256(a + j + t,
                  Mul::mul(submodx4(u, v, q), s, sp, q));
    }
    for (; j < bHi; ++j) {
        u64 u = a[j];
        u64 v = a[j + t];
        a[j] = mod.mulShoup(mod.add(u, v), nInv, nInvP);
        a[j + t] = mod.mulShoup(mod.sub(u, v), sL, sLp);
    }
}

} // namespace
} // namespace simd
} // namespace trinity

#endif // __AVX2__
#endif // TRINITY_BACKEND_SIMD_AVX_INL_H
