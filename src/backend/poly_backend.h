/**
 * @file
 * Pluggable polynomial execution engine — the seam between the scheme
 * layers (CKKS, TFHE, conversion) and whatever actually runs the limb
 * kernels.
 *
 * Trinity's premise (Section III) is that every FHE workload bottoms
 * out in a small set of batchable polynomial kernels — NTT, ModMul,
 * ModAdd, Auto, BConv — that an accelerator executes in bulk. The
 * software stack mirrors that: scheme code emits *batches* of limb
 * jobs through the PolyBackend interface, and an interchangeable
 * engine (serial reference, thread pool, AVX2/AVX-512 SIMD lanes, a
 * simulated-accelerator timing model, and in the future GPU) owns the
 * execution. Two orthogonal axes compose: parallelFor() schedules
 * jobs across workers, and an installable simd::KernelSet executes
 * each job's span — the thread pool runs SIMD kernels inside every
 * limb job.
 *
 * A batch is a flat array of plain-old-data job descriptors over raw
 * limb pointers, so an engine can partition, reorder, or offload jobs
 * freely. Every job in a batch is independent (distinct destination
 * buffers); engines may run them in any order and must produce
 * bit-identical results to the serial reference.
 */

#ifndef TRINITY_BACKEND_POLY_BACKEND_H
#define TRINITY_BACKEND_POLY_BACKEND_H

#include <cstddef>
#include <functional>
#include <memory>

#include "backend/simd_kernels.h"
#include "common/modarith.h"
#include "common/types.h"
#include "poly/ntt.h"

namespace trinity {

class CommandStream;

/** One in-place NTT over a single limb. */
struct NttJob
{
    u64 *data;            ///< limb coefficients, length table->n()
    const NttTable *table;
};

/**
 * One element-wise limb kernel: dst[i] = a[i] op b[i] (mod *mod).
 * For unary kernels (negate) @c b is ignored; @c a may alias @c dst.
 */
struct EltwiseJob
{
    u64 *dst;
    const u64 *a;
    const u64 *b;
    const Modulus *mod;
    size_t n;
};

/** One fused multiply-accumulate: dst[i] += a[i] * b[i] (mod *mod). */
struct MulAddJob
{
    u64 *dst;
    const u64 *a;
    const u64 *b;
    const Modulus *mod;
    size_t n;
};

/**
 * One fused forward-NTT + multiply-accumulate: NTT(data) in place,
 * then acc0[i] += data[i]*b0[i] and — when acc1 is non-null —
 * acc1[i] += data[i]*b1[i]. The keyswitch inner loop in one job: the
 * freshly transformed limb feeds both evk components while it is hot
 * in cache instead of round-tripping through memory.
 */
struct NttMulAddJob
{
    u64 *data;             ///< limb to transform, length table->n()
    const NttTable *table;
    const u64 *b0;         ///< first multiplicand (eval domain)
    u64 *acc0;             ///< first accumulator
    const u64 *b1;         ///< second multiplicand, or nullptr
    u64 *acc1;             ///< second accumulator, or nullptr
};

/** One fused inverse-NTT + accumulate: iNTT(data) in place, then
 *  acc[i] = acc[i] + data[i] (mod table's modulus). The external-
 *  product epilogue (CMux accumulate) in one job. */
struct NttInvAddJob
{
    u64 *data;             ///< limb to inverse-transform
    const NttTable *table;
    u64 *acc;              ///< accumulator, length table->n()
};

/** One scalar multiply: dst[i] = src[i] * scalar (mod *mod). */
struct ScalarMulJob
{
    u64 *dst;
    const u64 *src;
    u64 scalar; ///< already reduced mod *mod
    const Modulus *mod;
    size_t n;
};

/**
 * One Galois automorphism X -> X^g over a limb (coefficient domain).
 * dst must not alias src.
 */
struct AutoJob
{
    u64 *dst;
    const u64 *src;
    const Modulus *mod;
    size_t n;
    u64 g; ///< odd automorphism index
};

/**
 * Precomputed constants for one HPS base conversion (the BConv matrix
 * product Trinity maps onto CU systolic arrays). All pointers borrow
 * from the owning BaseConverter and stay valid for the call only.
 */
struct BConvPlan
{
    const Modulus *fromMods; ///< k source moduli
    size_t numFrom;
    const Modulus *toMods;   ///< l target moduli
    size_t numTo;
    const u64 *qhatInv;        ///< (Q/q_i)^{-1} mod q_i, length k
    const u64 *qhatInvPrecon;  ///< Shoup preconditioners for qhatInv
    const u64 *qhatModP;       ///< (Q/q_i) mod p_j, row-major [i*numTo + j]
};

/**
 * BConv pass 1 for one source limb: v[c] = x[c] * w mod *mod, with w
 * Shoup-preconditioned by the plan. Independent per source limb.
 */
struct BConvPass1Job
{
    u64 *v;        ///< scratch row for this source limb
    const u64 *x;  ///< source limb coefficients
    u64 w;         ///< qhatInv[i]
    u64 wPrecon;   ///< Shoup preconditioner for w
    const Modulus *mod;
    size_t n;
};

/**
 * BConv pass 2 for one target limb over a coefficient tile:
 * y[c] = reduce128(sum_i reduce(v[i*vStride + c]) * w[i*wStride]).
 * Tiles of the same target limb write disjoint spans, so a batch may
 * mix tiles of many (limb, coefficient-range) pairs freely.
 */
struct BConvPass2Job
{
    u64 *y;          ///< target limb span (tile base)
    const u64 *v;    ///< pass-1 scratch (tile base)
    size_t vStride;  ///< row stride of v (full n, even for tiles)
    size_t k;        ///< number of source limbs summed
    const u64 *w;    ///< qhatModP column base for this target limb
    size_t wStride;  ///< row stride of w (numTo)
    const Modulus *mod;
    size_t n;        ///< tile length
};

/**
 * Abstract polynomial execution engine.
 *
 * The batched entry points have default implementations that express
 * each kernel through parallelFor(), so a concrete engine only has to
 * supply a scheduling strategy. Engines with their own kernel
 * implementations (GPU, simulated accelerator) override the batch
 * methods directly.
 */
class PolyBackend
{
  public:
    virtual ~PolyBackend() = default;

    /** Engine name as registered ("serial", "threads", ...). */
    virtual const char *name() const = 0;

    /** Number of concurrent workers the engine schedules across. */
    virtual size_t threadCount() const { return 1; }

    /** Process-unique serial of this engine instance, never reused:
     *  a cache bound to one engine compares serials, not addresses,
     *  which the allocator recycles. */
    u64 serial() const { return serial_; }

    /**
     * Batch-sizing hint for serving layers: how many independent
     * same-shape work items (e.g. ciphertexts in a fused PBS batch)
     * the engine wants in flight before its throughput saturates.
     * Engines with real parallelism report at least their worker
     * count; even single-stream engines profit from key-reuse
     * locality across a batch, hence the floor of 8.
     */
    virtual size_t
    preferredBatch() const
    {
        size_t t = threadCount();
        return t < 8 ? 8 : t;
    }

    /**
     * Open an asynchronous command stream (see
     * backend/command_stream.h): callers record dependent batch jobs
     * and the engine executes them with whatever overlap its executor
     * supports. The default is the eager executor — every command
     * runs at record time through the blocking entry points, so
     * engines without their own executor behave exactly as before.
     * Engines with real concurrency (thread pool) or a timing model
     * (sim) override this with pipelined / overlap-priced executors.
     */
    virtual std::unique_ptr<CommandStream> newStream();

    /** Forward negacyclic NTT over a batch of limbs. */
    virtual void nttForwardBatch(const NttJob *jobs, size_t count);
    /** Inverse negacyclic NTT over a batch of limbs. */
    virtual void nttInverseBatch(const NttJob *jobs, size_t count);

    /** dst = a ⊙ b per job (the ModMul kernel). */
    virtual void pointwiseMulBatch(const EltwiseJob *jobs, size_t count);
    /** dst = a + b per job. */
    virtual void addBatch(const EltwiseJob *jobs, size_t count);
    /** dst = a - b per job. */
    virtual void subBatch(const EltwiseJob *jobs, size_t count);
    /** dst = -a per job (b ignored). */
    virtual void negBatch(const EltwiseJob *jobs, size_t count);
    /** dst += a ⊙ b per job (the keyswitch inner-product kernel). */
    virtual void mulAddBatch(const MulAddJob *jobs, size_t count);
    /** Fused forward NTT + accumulate per job (keyswitch digits). */
    virtual void nttForwardMulAddBatch(const NttMulAddJob *jobs,
                                       size_t count);
    /** Fused inverse NTT + accumulate per job (external products). */
    virtual void nttInverseAddBatch(const NttInvAddJob *jobs,
                                    size_t count);
    /** dst = src * scalar per job. */
    virtual void scalarMulBatch(const ScalarMulJob *jobs, size_t count);
    /** Galois automorphism per job (the AutoU kernel). */
    virtual void automorphismBatch(const AutoJob *jobs, size_t count);

    /**
     * HPS base conversion (BConv): k coefficient-domain source limbs
     * in[0..k) to l target limbs out[0..l), each of length n. Runs
     * both passes through the phased batch entry points below over
     * backend-owned thread-local scratch (no per-call allocation).
     */
    virtual void baseConvert(const BConvPlan &plan, const u64 *const *in,
                             u64 *const *out, size_t n);

    /** BConv pass 1 (Shoup scaling) over a batch of source limbs. */
    virtual void baseConvertPass1Batch(const BConvPass1Job *jobs,
                                       size_t count);
    /** BConv pass 2 (matrix product) over a batch of limb tiles. */
    virtual void baseConvertPass2Batch(const BConvPass2Job *jobs,
                                       size_t count);

    /**
     * Escape hatch for fused kernels the named entry points do not
     * cover (rescale, ModDown scaling, ...): runs fn(0..count) with
     * the engine's parallelism. fn must only touch disjoint state per
     * index.
     */
    void
    run(size_t count, const std::function<void(size_t)> &fn)
    {
        parallelFor(count, fn);
    }

    /**
     * The limb-kernel set this engine runs (see useKernels()). Scheme
     * code that calls kernels from run() / CommandStream::task() bodies
     * takes them from here, so the serial engine stays the scalar
     * reference every wider engine is checked against.
     */
    const simd::KernelSet &kernels() const { return *kernels_; }

  protected:
    /**
     * Scheduling primitive: execute fn(i) for every i in [0, count),
     * in any order, returning only when all calls finished.
     */
    virtual void parallelFor(size_t count,
                             const std::function<void(size_t)> &fn) = 0;

    /**
     * Limb-kernel implementation the default batch entry points run
     * per job — the second composition axis next to parallelFor():
     * parallelFor schedules jobs across workers (threads across
     * limbs), the KernelSet executes one job's span (SIMD within a
     * limb). Defaults to the bit-exact scalar set; engines with
     * vector lanes install a wider one. Every set computes identical
     * canonical residues, so the choice never changes results.
     */
    void useKernels(const simd::KernelSet &kernels)
    {
        kernels_ = &kernels;
    }

  private:
    static u64 nextSerial();

    const simd::KernelSet *kernels_ = &simd::scalarKernels();
    const u64 serial_ = nextSerial();
};

} // namespace trinity

#endif // TRINITY_BACKEND_POLY_BACKEND_H
