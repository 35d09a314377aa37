/**
 * @file
 * Multithreaded batch engine: fans limb jobs of a batch across a
 * persistent worker pool — threads across limbs — while each job's
 * span executes through the dispatched SIMD KernelSet — SIMD within a
 * limb (the ROADMAP's two-axis composition). Every job touches a
 * disjoint destination limb and every kernel set computes the exact
 * canonical residues of the scalar reference, so results are
 * bit-identical to SerialBackend regardless of scheduling or lane
 * width. TRINITY_SIMD_LEVEL=scalar recovers the pure thread-pool
 * engine of PR 1.
 *
 * Two paths widen beyond plain batch fan-out:
 *  - newStream() returns a pipelined executor: recorded commands run
 *    on the pool the moment their dependencies resolve, so e.g. the
 *    NTT of blind-rotation step i+1 overlaps the MAC of step i
 *    instead of waiting behind a per-stage barrier;
 *  - underfull NTT batches (fewer limb jobs than workers, as in
 *    TFHE's N=1024 PBS shapes) are coefficient-tiled: each transform
 *    splits across workers stage by stage, exploiting that every NTT
 *    stage's butterflies are independent and that the tail (head) of
 *    the CT (GS) network decomposes into disjoint sub-blocks.
 */

#ifndef TRINITY_BACKEND_THREAD_POOL_BACKEND_H
#define TRINITY_BACKEND_THREAD_POOL_BACKEND_H

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "backend/poly_backend.h"

namespace trinity {

class ThreadPoolBackend final : public PolyBackend
{
  public:
    /**
     * @param threads total worker count (including the calling thread,
     *        which participates in every batch). 0 means: use the
     *        TRINITY_THREADS env var if set, else
     *        std::thread::hardware_concurrency().
     */
    explicit ThreadPoolBackend(size_t threads = 0);
    ~ThreadPoolBackend() override;

    ThreadPoolBackend(const ThreadPoolBackend &) = delete;
    ThreadPoolBackend &operator=(const ThreadPoolBackend &) = delete;

    const char *name() const override { return "threads"; }
    size_t threadCount() const override { return workers_.size() + 1; }

    /** Pipelined command-stream executor (dependency-counting ready
     *  queue over the pool); the base EagerStream when the pool has
     *  no workers or when called from inside a pool job. */
    std::unique_ptr<CommandStream> newStream() override;

    /** Coefficient-tiled when the batch cannot feed every worker —
     *  see nttBatchTiled() in the implementation. */
    void nttForwardBatch(const NttJob *jobs, size_t count) override;
    void nttInverseBatch(const NttJob *jobs, size_t count) override;

    /**
     * Both parallelism axes want feeding: enough jobs per batch to
     * occupy every worker, and deep enough spans per fused request
     * stream to keep each worker's vector lanes busy. Scale the base
     * hint by half the lane width (empirically lanes saturate before
     * jobs-per-lane does once threads already slice the batch).
     */
    size_t
    preferredBatch() const override
    {
        size_t base = PolyBackend::preferredBatch();
        size_t lanes = kernels().lanes;
        return lanes > 1 ? base * (lanes / 2) : base;
    }

  protected:
    void parallelFor(size_t count,
                     const std::function<void(size_t)> &fn) override;

  private:
    void workerLoop();
    void drainCurrent();
    bool nttBatchTiled(const NttJob *jobs, size_t count, bool forward);

    std::vector<std::thread> workers_;

    /** Held by an external (non-pool) caller for its whole batch: the
     *  batch state below is one-at-a-time, so concurrent submitters
     *  (server shards, concurrent key materializations) queue here
     *  instead of overwriting each other's in-flight batch. */
    std::mutex dispatch_;
    std::mutex mtx_;
    std::condition_variable wake_;
    std::condition_variable done_;
    u64 generation_ = 0;
    bool stop_ = false;
    const std::function<void(size_t)> *fn_ = nullptr;
    size_t count_ = 0;
    std::atomic<size_t> next_{0};
    size_t busy_ = 0; ///< workers still inside the current batch
};

} // namespace trinity

#endif // TRINITY_BACKEND_THREAD_POOL_BACKEND_H
