#include "backend/observed_backend.h"

#include "backend/kernel_events.h"
#include "common/logging.h"

namespace trinity {

using sim::KernelType;

// Event derivation lives in backend/kernel_events.h, shared with the
// CommandStream recorder so the blocking and async paths report
// identical volumes for the same work.

ObservedBackend::ObservedBackend(std::unique_ptr<PolyBackend> inner)
    : inner_(std::move(inner))
{
    trinity_assert(inner_ != nullptr, "null inner backend");
}

void
ObservedBackend::nttForwardBatch(const NttJob *jobs, size_t count)
{
    if (profilingActive() && count > 0) {
        emitKernel(kernel_events::ntt(jobs, count, true));
    }
    inner_->nttForwardBatch(jobs, count);
}

void
ObservedBackend::nttInverseBatch(const NttJob *jobs, size_t count)
{
    if (profilingActive() && count > 0) {
        emitKernel(kernel_events::ntt(jobs, count, false));
    }
    inner_->nttInverseBatch(jobs, count);
}

void
ObservedBackend::pointwiseMulBatch(const EltwiseJob *jobs, size_t count)
{
    if (profilingActive() && count > 0) {
        emitKernel(
            kernel_events::eltwise(KernelType::ModMul, jobs, count, 24));
    }
    inner_->pointwiseMulBatch(jobs, count);
}

void
ObservedBackend::addBatch(const EltwiseJob *jobs, size_t count)
{
    if (profilingActive() && count > 0) {
        emitKernel(
            kernel_events::eltwise(KernelType::ModAdd, jobs, count, 24));
    }
    inner_->addBatch(jobs, count);
}

void
ObservedBackend::subBatch(const EltwiseJob *jobs, size_t count)
{
    if (profilingActive() && count > 0) {
        emitKernel(
            kernel_events::eltwise(KernelType::ModAdd, jobs, count, 24));
    }
    inner_->subBatch(jobs, count);
}

void
ObservedBackend::negBatch(const EltwiseJob *jobs, size_t count)
{
    if (profilingActive() && count > 0) {
        emitKernel(
            kernel_events::eltwise(KernelType::ModAdd, jobs, count, 16));
    }
    inner_->negBatch(jobs, count);
}

void
ObservedBackend::mulAddBatch(const MulAddJob *jobs, size_t count)
{
    if (profilingActive() && count > 0) {
        emitKernel(kernel_events::mulAdd(jobs, count));
    }
    inner_->mulAddBatch(jobs, count);
}

void
ObservedBackend::nttForwardMulAddBatch(const NttMulAddJob *jobs,
                                       size_t count)
{
    if (profilingActive() && count > 0) {
        emitKernel(kernel_events::nttOfNttMulAdd(jobs, count));
        emitKernel(kernel_events::ipOfNttMulAdd(jobs, count));
    }
    inner_->nttForwardMulAddBatch(jobs, count);
}

void
ObservedBackend::nttInverseAddBatch(const NttInvAddJob *jobs,
                                    size_t count)
{
    if (profilingActive() && count > 0) {
        emitKernel(kernel_events::inttOfNttInvAdd(jobs, count));
        emitKernel(kernel_events::addOfNttInvAdd(jobs, count));
    }
    inner_->nttInverseAddBatch(jobs, count);
}

void
ObservedBackend::scalarMulBatch(const ScalarMulJob *jobs, size_t count)
{
    if (profilingActive() && count > 0) {
        emitKernel(kernel_events::scalarMul(jobs, count));
    }
    inner_->scalarMulBatch(jobs, count);
}

void
ObservedBackend::automorphismBatch(const AutoJob *jobs, size_t count)
{
    if (profilingActive() && count > 0) {
        emitKernel(kernel_events::automorphism(jobs, count));
    }
    inner_->automorphismBatch(jobs, count);
}

void
ObservedBackend::baseConvert(const BConvPlan &plan, const u64 *const *in,
                             u64 *const *out, size_t n)
{
    if (profilingActive()) {
        emitKernel(kernel_events::baseConvert(plan, n));
    }
    inner_->baseConvert(plan, in, out, n);
}

// The phased BConv entry points are what an eager stream calls for a
// recorded baseConvertPhased(); they price exactly the events the
// recorder attaches (pass 1 once, pass 2 once per target limb).
void
ObservedBackend::baseConvertPass1Batch(const BConvPass1Job *jobs,
                                       size_t count)
{
    if (profilingActive() && count > 0) {
        emitKernel(kernel_events::baseConvertPass1(jobs, count));
    }
    inner_->baseConvertPass1Batch(jobs, count);
}

void
ObservedBackend::baseConvertPass2Batch(const BConvPass2Job *jobs,
                                       size_t count)
{
    if (profilingActive()) {
        for (size_t i = 0; i < count; ++i) {
            emitKernel(kernel_events::baseConvertPass2(jobs[i]));
        }
    }
    inner_->baseConvertPass2Batch(jobs, count);
}

void
ObservedBackend::parallelFor(size_t count,
                             const std::function<void(size_t)> &fn)
{
    inner_->run(count, fn);
}

} // namespace trinity
