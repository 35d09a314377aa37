/**
 * @file
 * Decorator engine that forwards every batch to an inner PolyBackend
 * while publishing one KernelEvent per batch through the observer
 * seam. Wrapping is purely additive: results are bit-identical to the
 * inner engine, so any engine — serial, threads, future SIMD/GPU —
 * can be profiled without touching its code.
 */

#ifndef TRINITY_BACKEND_OBSERVED_BACKEND_H
#define TRINITY_BACKEND_OBSERVED_BACKEND_H

#include <memory>

#include "backend/observer.h"
#include "backend/poly_backend.h"

namespace trinity {

class ObservedBackend : public PolyBackend
{
  public:
    /** Takes ownership of the engine that actually runs the kernels. */
    explicit ObservedBackend(std::unique_ptr<PolyBackend> inner);

    const char *name() const override { return "observed"; }
    size_t threadCount() const override { return inner_->threadCount(); }
    size_t preferredBatch() const override
    {
        return inner_->preferredBatch();
    }

    PolyBackend &inner() { return *inner_; }

    void nttForwardBatch(const NttJob *jobs, size_t count) override;
    void nttInverseBatch(const NttJob *jobs, size_t count) override;
    void pointwiseMulBatch(const EltwiseJob *jobs, size_t count) override;
    void addBatch(const EltwiseJob *jobs, size_t count) override;
    void subBatch(const EltwiseJob *jobs, size_t count) override;
    void negBatch(const EltwiseJob *jobs, size_t count) override;
    void mulAddBatch(const MulAddJob *jobs, size_t count) override;
    void nttForwardMulAddBatch(const NttMulAddJob *jobs,
                               size_t count) override;
    void nttInverseAddBatch(const NttInvAddJob *jobs,
                            size_t count) override;
    void scalarMulBatch(const ScalarMulJob *jobs, size_t count) override;
    void automorphismBatch(const AutoJob *jobs, size_t count) override;
    void baseConvert(const BConvPlan &plan, const u64 *const *in,
                     u64 *const *out, size_t n) override;
    void baseConvertPass1Batch(const BConvPass1Job *jobs,
                               size_t count) override;
    void baseConvertPass2Batch(const BConvPass2Job *jobs,
                               size_t count) override;

  protected:
    /** The untyped escape hatch carries no kernel class; it is only
     *  scheduled, not profiled — scheme layers emit those kernels
     *  explicitly (see backend/observer.h). */
    void parallelFor(size_t count,
                     const std::function<void(size_t)> &fn) override;

  private:
    std::unique_ptr<PolyBackend> inner_;
};

} // namespace trinity

#endif // TRINITY_BACKEND_OBSERVED_BACKEND_H
