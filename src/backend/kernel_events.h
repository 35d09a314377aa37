/**
 * @file
 * Shared derivation of KernelEvents from batch job descriptors — the
 * single source of truth for how each batched entry point maps onto an
 * accelerator kernel class and its off-chip byte volume. Used by the
 * ObservedBackend decorator (blocking path) and by CommandStream
 * recording (async path) so both report identical volumes for the
 * same work.
 */

#ifndef TRINITY_BACKEND_KERNEL_EVENTS_H
#define TRINITY_BACKEND_KERNEL_EVENTS_H

#include "backend/observer.h"
#include "backend/poly_backend.h"

namespace trinity {
namespace kernel_events {

/** Sum of job lengths for an array of jobs with an `n` member. */
template <typename JobT>
inline u64
totalElems(const JobT *jobs, size_t count)
{
    u64 sum = 0;
    for (size_t i = 0; i < count; ++i) {
        sum += jobs[i].n;
    }
    return sum;
}

inline KernelEvent
make(sim::KernelType type, u64 elements, u64 poly_len, u64 bytes_per_elem)
{
    KernelEvent ev;
    ev.type = type;
    ev.elements = elements;
    ev.polyLen = poly_len;
    ev.bytes = bytes_per_elem * elements;
    return ev;
}

/** In-place transform: one read + one write per element. */
inline KernelEvent
ntt(const NttJob *jobs, size_t count, bool forward)
{
    u64 n = count > 0 ? jobs[0].table->n() : 0;
    return make(forward ? sim::KernelType::Ntt : sim::KernelType::Intt,
                count * n, n, 16);
}

/** Binary element-wise kernels: two operand reads + one write. */
inline KernelEvent
eltwise(sim::KernelType type, const EltwiseJob *jobs, size_t count,
        u64 bytes_per_elem)
{
    return make(type, totalElems(jobs, count),
                count > 0 ? jobs[0].n : 0, bytes_per_elem);
}

/** Accumulator read + write plus both operand reads. */
inline KernelEvent
mulAdd(const MulAddJob *jobs, size_t count)
{
    return make(sim::KernelType::Ip, totalElems(jobs, count),
                count > 0 ? jobs[0].n : 0, 32);
}

// Fused epilogue commands derive one event per constituent kernel,
// with the same volumes the unfused recording would produce — the
// fusion saves CPU memory traffic, not priced accelerator work. The
// recorder chains a command's events sequentially, so the sim still
// prices NTT -> MAC as dependent work within the command.

/** The transform half of a fused forward-NTT + multiply-accumulate. */
inline KernelEvent
nttOfNttMulAdd(const NttMulAddJob *jobs, size_t count)
{
    u64 n = count > 0 ? jobs[0].table->n() : 0;
    return make(sim::KernelType::Ntt, count * n, n, 16);
}

/** The MAC half: one or two accumulators per job. */
inline KernelEvent
ipOfNttMulAdd(const NttMulAddJob *jobs, size_t count)
{
    u64 elems = 0;
    for (size_t i = 0; i < count; ++i) {
        elems += jobs[i].table->n() * (jobs[i].acc1 != nullptr ? 2 : 1);
    }
    return make(sim::KernelType::Ip, elems,
                count > 0 ? jobs[0].table->n() : 0, 32);
}

/** The transform half of a fused inverse-NTT + accumulate. */
inline KernelEvent
inttOfNttInvAdd(const NttInvAddJob *jobs, size_t count)
{
    u64 n = count > 0 ? jobs[0].table->n() : 0;
    return make(sim::KernelType::Intt, count * n, n, 16);
}

/** The accumulate half (two reads + one write per element). */
inline KernelEvent
addOfNttInvAdd(const NttInvAddJob *jobs, size_t count)
{
    u64 elems = 0;
    for (size_t i = 0; i < count; ++i) {
        elems += jobs[i].table->n();
    }
    return make(sim::KernelType::ModAdd, elems,
                count > 0 ? jobs[0].table->n() : 0, 24);
}

inline KernelEvent
scalarMul(const ScalarMulJob *jobs, size_t count)
{
    return make(sim::KernelType::ModMul, totalElems(jobs, count),
                count > 0 ? jobs[0].n : 0, 16);
}

inline KernelEvent
automorphism(const AutoJob *jobs, size_t count)
{
    return make(sim::KernelType::Auto, totalElems(jobs, count),
                count > 0 ? jobs[0].n : 0, 16);
}

/** The BConv matrix product: k x l MACs per coefficient; traffic is
 *  the limb matrix in and out, not the MAC volume. */
inline KernelEvent
baseConvert(const BConvPlan &plan, size_t n)
{
    KernelEvent ev;
    ev.type = sim::KernelType::Bconv;
    ev.elements = static_cast<u64>(n) * plan.numFrom * plan.numTo;
    ev.polyLen = n;
    ev.bytes = 8 * static_cast<u64>(n) * (plan.numFrom + plan.numTo);
    return ev;
}

// Phase-chunked BConv splits one monolithic event into 1 + numTo
// events whose totals equal the monolithic derivation exactly, so an
// A/B of the two recordings measures scheduling, never accounting:
// the monolithic event prices only the k x l MAC volume (pass-1 Shoup
// scaling was never charged compute), so pass 1 keeps elements = 0 and
// carries the k source limbs' traffic, while each per-target-limb
// pass-2 event charges its n*k MAC row and its own limb written back.

/** BConv pass 1 (Shoup scaling of the k source limbs). */
inline KernelEvent
baseConvertPass1(const BConvPlan &plan, size_t n)
{
    KernelEvent ev;
    ev.type = sim::KernelType::Bconv;
    ev.elements = 0;
    ev.polyLen = n;
    ev.bytes = 8 * static_cast<u64>(n) * plan.numFrom;
    return ev;
}

/** BConv pass 2 for one target limb (the k-deep MAC row). */
inline KernelEvent
baseConvertPass2(const BConvPlan &plan, size_t n)
{
    KernelEvent ev;
    ev.type = sim::KernelType::Bconv;
    ev.elements = static_cast<u64>(n) * plan.numFrom;
    ev.polyLen = n;
    ev.bytes = 8 * static_cast<u64>(n);
    return ev;
}

/** Pass 1 derived from the blocking entry point's jobs (one per
 *  source limb): the same event the recorder derives from the plan. */
inline KernelEvent
baseConvertPass1(const BConvPass1Job *jobs, size_t count)
{
    KernelEvent ev;
    ev.type = sim::KernelType::Bconv;
    ev.elements = 0;
    ev.polyLen = count > 0 ? jobs[0].n : 0;
    ev.bytes = 8 * totalElems(jobs, count);
    return ev;
}

/** Pass 2 for one blocking job (one target limb). */
inline KernelEvent
baseConvertPass2(const BConvPass2Job &job)
{
    KernelEvent ev;
    ev.type = sim::KernelType::Bconv;
    ev.elements = static_cast<u64>(job.n) * job.k;
    ev.polyLen = job.n;
    ev.bytes = 8 * static_cast<u64>(job.n);
    return ev;
}

} // namespace kernel_events
} // namespace trinity

#endif // TRINITY_BACKEND_KERNEL_EVENTS_H
