#include "backend/poly_backend.h"

#include <atomic>
#include <vector>

#include "backend/auto_table.h"
#include "backend/command_stream.h"
#include "backend/scratch_arena.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace trinity {

std::unique_ptr<CommandStream>
PolyBackend::newStream()
{
    return std::make_unique<EagerStream>(*this);
}

// Observability: every batch entry point opens a wall-clock TraceSpan
// on the calling thread (track = engine name, so each engine gets its
// own pid row in the Chrome trace) and bumps a dispatch counter. Both
// are one relaxed atomic load when tracing/metrics are off; the
// counter references are resolved once per call site via function-
// local statics so the registry map is never touched on the hot path.

namespace {

obs::Counter &
dispatchCounter(const char *name)
{
    return obs::MetricsRegistry::instance().counter(name);
}

} // namespace

// Every named limb kernel — including the automorphism gather and the
// two BConv passes — runs through the installed simd::KernelSet
// (scalar by default, the reference every wider set is bit-identical
// to), scheduled across jobs by parallelFor(). Automorphism fetches
// its permutation/sign tables from AutoTableCache so the per-call cost
// is a pure gather; BConv decomposes into the pass-1 Shoup scaling and
// the pass-2 matrix product the accelerator maps onto CU arrays.

u64
PolyBackend::nextSerial()
{
    static std::atomic<u64> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

void
PolyBackend::nttForwardBatch(const NttJob *jobs, size_t count)
{
    static obs::Counter &batches = dispatchCounter("kernel.ntt.batches");
    static obs::Counter &njobs = dispatchCounter("kernel.ntt.jobs");
    batches.add();
    njobs.add(count);
    obs::TraceSpan span("nttForwardBatch", "op", name(), "jobs", count);
    parallelFor(count, [&](size_t i) {
        kernels().nttForward(*jobs[i].table, jobs[i].data);
    });
}

void
PolyBackend::nttInverseBatch(const NttJob *jobs, size_t count)
{
    static obs::Counter &batches = dispatchCounter("kernel.ntt.batches");
    static obs::Counter &njobs = dispatchCounter("kernel.ntt.jobs");
    batches.add();
    njobs.add(count);
    obs::TraceSpan span("nttInverseBatch", "op", name(), "jobs", count);
    parallelFor(count, [&](size_t i) {
        kernels().nttInverse(*jobs[i].table, jobs[i].data);
    });
}

void
PolyBackend::pointwiseMulBatch(const EltwiseJob *jobs, size_t count)
{
    obs::TraceSpan span("pointwiseMulBatch", "op", name(), "jobs", count);
    parallelFor(count, [&](size_t i) {
        const EltwiseJob &j = jobs[i];
        kernels().mul(j.dst, j.a, j.b, *j.mod, j.n);
    });
}

void
PolyBackend::addBatch(const EltwiseJob *jobs, size_t count)
{
    obs::TraceSpan span("addBatch", "op", name(), "jobs", count);
    parallelFor(count, [&](size_t i) {
        const EltwiseJob &j = jobs[i];
        kernels().add(j.dst, j.a, j.b, *j.mod, j.n);
    });
}

void
PolyBackend::subBatch(const EltwiseJob *jobs, size_t count)
{
    obs::TraceSpan span("subBatch", "op", name(), "jobs", count);
    parallelFor(count, [&](size_t i) {
        const EltwiseJob &j = jobs[i];
        kernels().sub(j.dst, j.a, j.b, *j.mod, j.n);
    });
}

void
PolyBackend::negBatch(const EltwiseJob *jobs, size_t count)
{
    obs::TraceSpan span("negBatch", "op", name(), "jobs", count);
    parallelFor(count, [&](size_t i) {
        const EltwiseJob &j = jobs[i];
        kernels().neg(j.dst, j.a, *j.mod, j.n);
    });
}

void
PolyBackend::mulAddBatch(const MulAddJob *jobs, size_t count)
{
    obs::TraceSpan span("mulAddBatch", "op", name(), "jobs", count);
    parallelFor(count, [&](size_t i) {
        const MulAddJob &j = jobs[i];
        kernels().mulAdd(j.dst, j.a, j.b, *j.mod, j.n);
    });
}

void
PolyBackend::nttForwardMulAddBatch(const NttMulAddJob *jobs,
                                   size_t count)
{
    static obs::Counter &batches = dispatchCounter("kernel.ntt.batches");
    static obs::Counter &njobs = dispatchCounter("kernel.ntt.jobs");
    batches.add();
    njobs.add(count);
    obs::TraceSpan span("nttForwardMulAddBatch", "op", name(), "jobs",
                        count);
    parallelFor(count, [&](size_t i) {
        const NttMulAddJob &j = jobs[i];
        kernels().nttForwardMulAdd(*j.table, j.data, j.b0, j.acc0, j.b1,
                                   j.acc1);
    });
}

void
PolyBackend::nttInverseAddBatch(const NttInvAddJob *jobs, size_t count)
{
    static obs::Counter &batches = dispatchCounter("kernel.ntt.batches");
    static obs::Counter &njobs = dispatchCounter("kernel.ntt.jobs");
    batches.add();
    njobs.add(count);
    obs::TraceSpan span("nttInverseAddBatch", "op", name(), "jobs",
                        count);
    parallelFor(count, [&](size_t i) {
        const NttInvAddJob &j = jobs[i];
        kernels().nttInverseAdd(*j.table, j.data, j.acc);
    });
}

void
PolyBackend::scalarMulBatch(const ScalarMulJob *jobs, size_t count)
{
    obs::TraceSpan span("scalarMulBatch", "op", name(), "jobs", count);
    parallelFor(count, [&](size_t i) {
        const ScalarMulJob &j = jobs[i];
        kernels().scalarMul(j.dst, j.src, j.scalar, *j.mod, j.n);
    });
}

void
PolyBackend::automorphismBatch(const AutoJob *jobs, size_t count)
{
    if (count == 0) {
        return;
    }
    static obs::Counter &njobs = dispatchCounter("kernel.auto.jobs");
    njobs.add(count);
    obs::TraceSpan span("automorphismBatch", "op", name(), "jobs",
                        count);
    // RnsPoly batches share one (n, g) across all limbs — resolve the
    // table once outside the parallel region so workers never contend
    // on the cache mutex for the common case.
    auto shared = AutoTableCache::get(jobs[0].n, jobs[0].g);
    parallelFor(count, [&](size_t i) {
        const AutoJob &j = jobs[i];
        auto table = (j.n == shared->n() && j.g == shared->g())
                         ? shared
                         : AutoTableCache::get(j.n, j.g);
        kernels().automorphism(j.dst, j.src, table->perm(),
                               table->signMask(), *j.mod, j.n);
    });
}

void
PolyBackend::baseConvert(const BConvPlan &plan, const u64 *const *in,
                         u64 *const *out, size_t n)
{
    size_t k = plan.numFrom;
    size_t l = plan.numTo;
    static obs::Counter &calls = dispatchCounter("kernel.bconv.calls");
    static obs::Counter &njobs = dispatchCounter("kernel.bconv.jobs");
    calls.add();
    njobs.add(k + l);
    obs::TraceSpan span("baseConvert", "op", name(), "jobs", k + l);
    // Pass 1 (element-wise): v_i = [x_i * (Q/q_i)^{-1}]_{q_i}.
    // Pooled scratch: after the first conversion of a given (k, n)
    // shape on a thread, the slab comes from the arena — no per-call
    // heap allocation in the BConv hot path.
    ScratchBuffer slab = ScratchArena::local().acquire(k * n);
    u64 *v = slab.data();
    parallelFor(k, [&](size_t i) {
        kernels().bconvPass1(v + i * n, in[i], plan.qhatInv[i],
                             plan.qhatInvPrecon[i], plan.fromMods[i],
                             n);
    });
    // Pass 2 (the matrix product): y_j = sum_i v_i * (Q/q_i) mod p_j.
    parallelFor(l, [&](size_t j) {
        kernels().bconvPass2(out[j], v, n, k, plan.qhatModP + j, l,
                             plan.toMods[j], n);
    });
}

void
PolyBackend::baseConvertPass1Batch(const BConvPass1Job *jobs,
                                   size_t count)
{
    static obs::Counter &njobs = dispatchCounter("kernel.bconv.jobs");
    njobs.add(count);
    obs::TraceSpan span("baseConvertPass1Batch", "op", name(), "jobs",
                        count);
    parallelFor(count, [&](size_t i) {
        const BConvPass1Job &j = jobs[i];
        kernels().bconvPass1(j.v, j.x, j.w, j.wPrecon, *j.mod, j.n);
    });
}

void
PolyBackend::baseConvertPass2Batch(const BConvPass2Job *jobs,
                                   size_t count)
{
    static obs::Counter &njobs = dispatchCounter("kernel.bconv.jobs");
    njobs.add(count);
    obs::TraceSpan span("baseConvertPass2Batch", "op", name(), "jobs",
                        count);
    parallelFor(count, [&](size_t i) {
        const BConvPass2Job &j = jobs[i];
        kernels().bconvPass2(j.y, j.v, j.vStride, j.k, j.w, j.wStride,
                             *j.mod, j.n);
    });
}

} // namespace trinity
