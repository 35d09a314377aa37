/**
 * @file
 * Scalar KernelSet (the bit-exact reference lane) and the runtime
 * dispatch gluing CPUID detection, build-time availability, and the
 * TRINITY_SIMD_LEVEL override together.
 */

#include "backend/simd_kernels.h"

#include "backend/simd_pbs_inl.h"
#include "common/env.h"
#include "common/logging.h"
#include "poly/ntt.h"

namespace trinity {
namespace simd {

namespace {

void
nttForwardScalar(const NttTable &table, u64 *a)
{
    table.forward(a);
}

void
nttInverseScalar(const NttTable &table, u64 *a)
{
    table.inverse(a);
}

void
nttForwardStagesScalar(const NttTable &table, u64 *a, size_t stage_lo,
                       size_t stage_hi, size_t b_lo, size_t b_hi)
{
    table.forwardStages(a, stage_lo, stage_hi, b_lo, b_hi);
}

void
nttInverseStagesScalar(const NttTable &table, u64 *a, size_t stage_lo,
                       size_t stage_hi, size_t b_lo, size_t b_hi,
                       bool scale_n)
{
    table.inverseStages(a, stage_lo, stage_hi, b_lo, b_hi, scale_n);
}

void
addScalar(u64 *dst, const u64 *a, const u64 *b, const Modulus &mod,
          size_t n)
{
    for (size_t c = 0; c < n; ++c) {
        dst[c] = mod.add(a[c], b[c]);
    }
}

void
subScalar(u64 *dst, const u64 *a, const u64 *b, const Modulus &mod,
          size_t n)
{
    for (size_t c = 0; c < n; ++c) {
        dst[c] = mod.sub(a[c], b[c]);
    }
}

void
negScalar(u64 *dst, const u64 *a, const Modulus &mod, size_t n)
{
    for (size_t c = 0; c < n; ++c) {
        dst[c] = mod.neg(a[c]);
    }
}

void
mulScalar(u64 *dst, const u64 *a, const u64 *b, const Modulus &mod,
          size_t n)
{
    for (size_t c = 0; c < n; ++c) {
        dst[c] = mod.mul(a[c], b[c]);
    }
}

void
mulAddScalar(u64 *dst, const u64 *a, const u64 *b, const Modulus &mod,
             size_t n)
{
    for (size_t c = 0; c < n; ++c) {
        dst[c] = mod.mulAdd(a[c], b[c], dst[c]);
    }
}

void
scalarMulScalar(u64 *dst, const u64 *src, u64 scalar, const Modulus &mod,
                size_t n)
{
    u64 pre = mod.shoupPrecompute(scalar);
    for (size_t c = 0; c < n; ++c) {
        dst[c] = mod.mulShoup(src[c], scalar, pre);
    }
}

void
automorphismScalar(u64 *dst, const u64 *src, const u64 *perm,
                   const u64 *sign, const Modulus &mod, size_t n)
{
    for (size_t c = 0; c < n; ++c) {
        u64 x = src[perm[c]];
        dst[c] = sign[c] ? mod.neg(x) : x;
    }
}

void
bconvPass1Scalar(u64 *v, const u64 *x, u64 w, u64 w_pre,
                 const Modulus &mod, size_t n)
{
    for (size_t c = 0; c < n; ++c) {
        v[c] = mod.mulShoup(x[c], w, w_pre);
    }
}

void
bconvPass2Scalar(u64 *y, const u64 *v, size_t v_stride, size_t k,
                 const u64 *w, size_t w_stride, const Modulus &mod,
                 size_t n)
{
    // Lazy accumulation: with v, w < 2^62 each product is < 2^124, so
    // up to kBconvChunk = 16 raw products fit a u128 without wrapping;
    // one exact fold per chunk replaces a reduction per term. The
    // folded residue equals (sum_i v_i * w_i) mod q — the same value
    // the term-by-term reduction produces — so outputs are unchanged.
    for (size_t c = 0; c < n; ++c) {
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

void
nttForwardMulAddScalar(const NttTable &table, u64 *a, const u64 *b0,
                       u64 *acc0, const u64 *b1, u64 *acc1)
{
    table.forward(a);
    mulAddScalar(acc0, a, b0, table.modulus(), table.n());
    if (acc1 != nullptr) {
        mulAddScalar(acc1, a, b1, table.modulus(), table.n());
    }
}

void
nttInverseAddScalar(const NttTable &table, u64 *a, u64 *acc)
{
    table.inverse(a);
    addScalar(acc, acc, a, table.modulus(), table.n());
}

void
rotateDecomposeScalar(u64 *const *dst, const u64 *src, u64 t,
                      const Gadget &gadget, const Modulus &mod, size_t n)
{
    forEachRotateRange(src, t, n,
                       [&](size_t x0, size_t x1, const u64 *rot, bool neg,
                           bool diff) {
                           rotateDecomposeSpanScalar(dst, src, x0, x1, rot,
                                                     neg, diff, gadget,
                                                     mod);
                       });
}

void
extProdMacScalar(u64 *dst, const u64 *const *a, const u64 *const *b,
                 size_t rows, const Modulus &mod, size_t n)
{
    extProdMacScalarFrom(dst, a, b, rows, mod, 0, n);
}

void
lweKsAccumulateScalar(i64 *acc, size_t acc_stride, const i8 *digits,
                      size_t count, const u64 *row, size_t n)
{
    for (size_t c = 0; c < count; ++c) {
        if (digits[c] != 0) {
            lweKsAccumulateScalarFrom(acc + c * acc_stride, digits[c], row,
                                      0, n);
        }
    }
}

const char *const kLevelNames[] = {"scalar", "avx2", "avx512"};

const KernelSet *
kernelsOrNull(Level level)
{
    switch (level) {
    case Level::Scalar:
        return &scalarKernels();
    case Level::Avx2:
        return avx2KernelsOrNull();
    case Level::Avx512:
        return avx512KernelsOrNull();
    }
    return nullptr;
}

} // namespace

const KernelSet &
scalarKernels()
{
    static const KernelSet set = {
        Level::Scalar,          1,
        nttForwardScalar,       nttInverseScalar,
        nttForwardStagesScalar, nttInverseStagesScalar,
        nttForwardMulAddScalar, nttInverseAddScalar,
        addScalar,              subScalar,
        negScalar,              mulScalar,
        mulAddScalar,           scalarMulScalar,
        automorphismScalar,     bconvPass1Scalar,
        bconvPass2Scalar,       rotateDecomposeScalar,
        extProdMacScalar,       lweKsAccumulateScalar,
    };
    return set;
}

const char *
levelName(Level level)
{
    return kLevelNames[static_cast<size_t>(level)];
}

Level
detectCpuLevel()
{
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq")) {
        return Level::Avx512;
    }
    if (__builtin_cpu_supports("avx2")) {
        return Level::Avx2;
    }
#endif
    return Level::Scalar;
}

bool
levelAvailable(Level level)
{
    if (level == Level::Scalar) {
        return true;
    }
    return kernelsOrNull(level) != nullptr && detectCpuLevel() >= level;
}

Level
bestAvailableLevel()
{
    for (Level level : {Level::Avx512, Level::Avx2}) {
        if (levelAvailable(level)) {
            return level;
        }
    }
    return Level::Scalar;
}

std::string
availableLevels()
{
    std::string out = levelName(Level::Scalar);
    for (Level level : {Level::Avx2, Level::Avx512}) {
        if (levelAvailable(level)) {
            out += ", ";
            out += levelName(level);
        }
    }
    return out;
}

Level
resolveLevel()
{
    size_t idx = 0;
    if (!envChoice("TRINITY_SIMD_LEVEL", kLevelNames, 3, idx)) {
        return bestAvailableLevel();
    }
    Level want = static_cast<Level>(idx);
    if (!levelAvailable(want)) {
        const char *why = kernelsOrNull(want) == nullptr
                              ? "this build does not compile it in"
                              : "this CPU does not support it";
        trinity_fatal("TRINITY_SIMD_LEVEL=%s requested but %s; available "
                      "levels: %s",
                      levelName(want), why, availableLevels().c_str());
    }
    return want;
}

const KernelSet &
kernelsForLevel(Level level)
{
    if (!levelAvailable(level)) {
        trinity_fatal("SIMD level '%s' is unavailable (available: %s)",
                      levelName(level), availableLevels().c_str());
    }
    return *kernelsOrNull(level);
}

} // namespace simd
} // namespace trinity
