/**
 * @file
 * Per-limb kernel implementations selectable by SIMD level, plus the
 * runtime CPU dispatch that picks one.
 *
 * Trinity's BUs and PEs get their throughput from wide vector lanes
 * doing modular butterflies and Barrett/Shoup multiplies in parallel;
 * the software counterpart is a KernelSet — one function pointer per
 * limb kernel (forward/inverse NTT, the Barrett-reduced element-wise
 * family, Shoup scalar multiply, the table-driven Galois automorphism
 * gather, the two BConv passes, and the three non-NTT PBS kernels:
 * fused rotate + gadget decomposition, the lazily reduced
 * external-product MAC, and the LWE keyswitch accumulate) — with
 * scalar, AVX2, and AVX-512 implementations. Every implementation
 * computes the exact canonical residues the scalar reference produces,
 * so engines composed from any set are bit-identical.
 *
 * Dispatch order is AVX-512 → AVX2 → scalar, constrained by what the
 * build compiled in (CMake probes -mavx2 / -mavx512f -mavx512dq per
 * kernel file) and what CPUID reports at run time. TRINITY_SIMD_LEVEL
 * ("scalar" | "avx2" | "avx512", strictly parsed) forces a level;
 * forcing one the build or CPU cannot run is fatal — a benchmark must
 * never silently measure a narrower lane than it claims.
 */

#ifndef TRINITY_BACKEND_SIMD_KERNELS_H
#define TRINITY_BACKEND_SIMD_KERNELS_H

#include <cstddef>
#include <string>

#include "common/gadget.h"
#include "common/modarith.h"
#include "common/types.h"

namespace trinity {

class NttTable;

namespace simd {

enum class Level
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

/** Canonical knob spelling for a level ("scalar", "avx2", "avx512"). */
const char *levelName(Level level);

/**
 * One limb-kernel implementation per batched entry point. All
 * functions operate on a single job's span; batching across jobs
 * (threads, serial order) stays with the owning engine — threads
 * across limbs, SIMD within a limb.
 */
struct KernelSet
{
    Level level;
    size_t lanes; ///< u64 lanes per vector op (1 / 4 / 8)

    /** In-place negacyclic NTT over table.n() coefficients. */
    void (*nttForward)(const NttTable &table, u64 *a);
    void (*nttInverse)(const NttTable &table, u64 *a);

    /**
     * Stage-range NTT entry points (NttTable::forwardStages /
     * inverseStages semantics): run stages [stageLo, stageHi) over the
     * butterfly range [bLo, bHi) only, with vector butterflies inside
     * the range. These are what lets the coefficient-tiled thread-pool
     * executor keep wide lanes busy inside every tile — threads across
     * coefficient chunks, lanes within a chunk — while remaining
     * bit-identical to the monolithic kernels above.
     */
    void (*nttForwardStages)(const NttTable &table, u64 *a,
                             size_t stageLo, size_t stageHi, size_t bLo,
                             size_t bHi);
    /** Inverse stage range; scaleN folds N^{-1} into the final stage. */
    void (*nttInverseStages)(const NttTable &table, u64 *a,
                             size_t stageLo, size_t stageHi, size_t bLo,
                             size_t bHi, bool scaleN);

    /**
     * Fused epilogue: forward NTT of `a` in place, then immediately
     * acc0[i] += a[i]*b0[i] and (when acc1 != nullptr)
     * acc1[i] += a[i]*b1[i] (mod q) while the transformed limb is hot
     * in cache. Exactly nttForward followed by mulAdd — keyswitch and
     * lockstep PBS hit this pairing on every digit.
     */
    void (*nttForwardMulAdd)(const NttTable &table, u64 *a,
                             const u64 *b0, u64 *acc0, const u64 *b1,
                             u64 *acc1);

    /** Fused epilogue: inverse NTT of `a` (scaling folded into the
     *  final stage), then acc[i] = acc[i] + a[i] (mod q). */
    void (*nttInverseAdd)(const NttTable &table, u64 *a, u64 *acc);

    /** dst[i] = a[i] op b[i] (mod q); dst may alias a or b exactly. */
    void (*add)(u64 *dst, const u64 *a, const u64 *b, const Modulus &mod,
                size_t n);
    void (*sub)(u64 *dst, const u64 *a, const u64 *b, const Modulus &mod,
                size_t n);
    void (*neg)(u64 *dst, const u64 *a, const Modulus &mod, size_t n);
    void (*mul)(u64 *dst, const u64 *a, const u64 *b, const Modulus &mod,
                size_t n);
    /** dst[i] = a[i] * b[i] + dst[i] (mod q). */
    void (*mulAdd)(u64 *dst, const u64 *a, const u64 *b,
                   const Modulus &mod, size_t n);
    /** dst[i] = src[i] * scalar (mod q), Shoup with one precompute. */
    void (*scalarMul)(u64 *dst, const u64 *src, u64 scalar,
                      const Modulus &mod, size_t n);

    /**
     * Table-driven Galois automorphism (tables from AutoTableCache,
     * see backend/auto_table.h): dst[c] = src[perm[c]], negated where
     * signMask[c] is all-ones. dst must not alias src.
     */
    void (*automorphism)(u64 *dst, const u64 *src, const u64 *perm,
                         const u64 *signMask, const Modulus &mod,
                         size_t n);

    /**
     * BConv pass 1: v[c] = x[c] * w mod q, Shoup with the plan's
     * precomputed preconditioner (qhatInv rows come preconditioned, so
     * no per-call division happens here).
     */
    void (*bconvPass1)(u64 *v, const u64 *x, u64 w, u64 wPrecon,
                       const Modulus &mod, size_t n);

    /**
     * BConv pass 2 for one target limb over an n-coefficient tile:
     * y[c] = (sum_i v[i*vStride + c] * w[i*wStride]) mod q. Products
     * accumulate raw (unreduced) in 128 bits for up to kBconvChunk
     * terms — safe because v, w < 2^62 — with one exact Barrett fold
     * per chunk. Every implementation computes the same fully reduced
     * value, so lane width and chunk boundaries never change outputs.
     */
    void (*bconvPass2)(u64 *y, const u64 *v, size_t vStride, size_t k,
                       const u64 *w, size_t wStride, const Modulus &mod,
                       size_t n);

    /**
     * Fused blind-rotation rotate + CMux difference + signed gadget
     * decomposition of one GLWE component of n coefficients:
     *     v[x] = (src * X^t)[x] - src[x] (mod q)   for t in [1, 2n),
     *     v[x] = src[x]                            for t == 0,
     * then dst[l][x] = digit l of v[x] (Gadget::decompose) as a residue
     * mod q, for l < gadget.levels(). The negacyclic gather runs as two
     * contiguous ranges and the quotient is division-free, so no `%`
     * or division happens per coefficient. dst must not alias src.
     */
    void (*rotateDecompose)(u64 *const *dst, const u64 *src, u64 t,
                            const Gadget &gadget, const Modulus &mod,
                            size_t n);

    /**
     * External-product MAC over @p rows operand pairs:
     * dst[i] = (sum_r a[r][i] * b[r][i]) mod q. Products accumulate raw
     * in 128 bits with one exact fold per kBconvChunk terms (operands
     * < 2^62), the bconvPass2 scheme — bit-identical to a term-by-term
     * mulAdd chain. The fold is a Barrett reduction, or three 32-bit
     * Shoup multiplies when narrowModulus(q).
     */
    void (*extProdMac)(u64 *dst, const u64 *const *a, const u64 *const *b,
                       size_t rows, const Modulus &mod, size_t n);

    /**
     * LWE keyswitch accumulate of one key row into a batch of signed
     * accumulators: acc[c*accStride + i] += digits[c] * row[i] for every
     * c < count with digits[c] != 0 and i < n. Exact while every partial
     * sum stays inside i64 — callers assert that bound from their
     * parameters (|digit| * row * terms < 2^63).
     */
    void (*lweKsAccumulate)(i64 *acc, size_t accStride, const i8 *digits,
                            size_t count, const u64 *row, size_t n);
};

/**
 * Max raw u128 products summed between pass-2 folds: 16 products of
 * two values < 2^62 total < 2^128, so the accumulator cannot wrap.
 */
constexpr size_t kBconvChunk = 16;

/**
 * The one switch of the narrow-modulus path: when q < 2^32 (every TFHE
 * set runs on a prime just below 2^32), the AVX2 and AVX-512 sets run
 * NTT butterflies as 32x32 Shoup multiplies and fold the
 * external-product MAC with 32-bit constants. Outputs are the same
 * canonical residues either way; the scalar set never switches.
 */
constexpr bool
narrowModulus(u64 q)
{
    return q < (u64{1} << 32);
}

/** The bit-exact scalar set — the reference every wider set matches. */
const KernelSet &scalarKernels();

/** AVX2 set, or nullptr when the build lacks -mavx2 support. */
const KernelSet *avx2KernelsOrNull();

/** AVX-512 (F+DQ) set, or nullptr when not compiled in. */
const KernelSet *avx512KernelsOrNull();

/** Highest level this CPU can execute (CPUID probe). */
Level detectCpuLevel();

/** True when @p level is both compiled in and runnable on this CPU. */
bool levelAvailable(Level level);

/** Highest available level — the auto-dispatch choice. */
Level bestAvailableLevel();

/** Comma-separated available levels, for messages and banners. */
std::string availableLevels();

/**
 * Resolve the level to run: TRINITY_SIMD_LEVEL when set (strictly
 * parsed; fatal on an unknown value or an unavailable level), else
 * bestAvailableLevel().
 */
Level resolveLevel();

/** The KernelSet for @p level; fatal when the level is unavailable. */
const KernelSet &kernelsForLevel(Level level);

} // namespace simd
} // namespace trinity

#endif // TRINITY_BACKEND_SIMD_KERNELS_H
