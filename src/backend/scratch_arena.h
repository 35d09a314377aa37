/**
 * @file
 * Thread-local pooled scratch arena: the one limb-buffer pool.
 *
 * Every limb-major u64 buffer on the hot paths comes from here: the
 * storage of every RnsPoly (ciphertext components, keyswitch
 * accumulators, BConv/ModDown targets, evaluator temporaries), the
 * keyswitch digit slabs, and BConv pass-1 scratch (blocking and
 * stream-recorded). Without the pool each of those paid a heap
 * allocation — and, for the 18-25 MB polys of a paper-size CKKS
 * chain, a round of page faults when glibc handed the memory back to
 * the OS on free.
 *
 * acquire() serves a request best-fit: the smallest pooled slab whose
 * capacity is at least the request and at most kSlackDiv-th larger
 * (hit), else a fresh heap slab (miss). The slack lets a level-(l-1)
 * poly reuse a level-l slab, so a rescale chain cycles one set of
 * slabs instead of one set per level. The RAII ScratchBuffer returns
 * its slab to the releasing thread's pool; a slab released on a
 * different thread than it was acquired on simply migrates — the pool
 * is per-thread only to keep the common path lock-free. Idle (pooled)
 * bytes per thread are capped at kMaxIdleBytes: a release that would
 * exceed the cap frees the slab instead, so pooling can never grow
 * RSS beyond the working set plus that bound.
 *
 * Global hit/miss counters live in the obs::MetricsRegistry
 * ("scratch_arena.hits"/"scratch_arena.misses"); they feed the bench
 * allocations-per-op rows and the zero-alloc-after-warmup tests, with
 * stats()/resetStats() kept as thin views over the registry entries.
 */

#ifndef TRINITY_BACKEND_SCRATCH_ARENA_H
#define TRINITY_BACKEND_SCRATCH_ARENA_H

#include <cstddef>
#include <map>
#include <memory>

#include "common/types.h"

namespace trinity {

class ScratchArena;

/**
 * RAII handle to one pooled slab holding `size()` u64 elements (the
 * slab's `capacity()` may be larger, within the arena's slack).
 * Move-only; the destructor returns the slab to the current thread's
 * arena. Contents are uninitialized on acquire (callers overwrite).
 */
class ScratchBuffer
{
  public:
    ScratchBuffer() = default;
    ScratchBuffer(ScratchBuffer &&other) noexcept
        : data_(std::move(other.data_)), size_(other.size_),
          capacity_(other.capacity_)
    {
        other.size_ = 0;
        other.capacity_ = 0;
    }
    ScratchBuffer &operator=(ScratchBuffer &&other) noexcept;
    ScratchBuffer(const ScratchBuffer &) = delete;
    ScratchBuffer &operator=(const ScratchBuffer &) = delete;
    ~ScratchBuffer();

    u64 *data() { return data_.get(); }
    const u64 *data() const { return data_.get(); }
    size_t size() const { return size_; }
    size_t capacity() const { return capacity_; }
    explicit operator bool() const { return data_ != nullptr; }

  private:
    friend class ScratchArena;
    ScratchBuffer(std::unique_ptr<u64[]> data, size_t size,
                  size_t capacity)
        : data_(std::move(data)), size_(size), capacity_(capacity)
    {
    }

    std::unique_ptr<u64[]> data_;
    size_t size_ = 0;
    size_t capacity_ = 0;
};

/** Per-thread slab pool. Use ScratchArena::local(). */
class ScratchArena
{
  public:
    /** A pooled slab may serve a request up to 1/kSlackDiv smaller
     *  than its capacity (a 36-limb slab serves 32..36 limbs). */
    static constexpr size_t kSlackDiv = 8;
    /** Most bytes one thread keeps pooled while idle. A paper-size
     *  (N=2^16, L=35, dnum=3) HMult -> rescale -> HRotate chain leaves
     *  about 190 MB idle between chains on the serial engine and about
     *  245 MB on the threads engine; the bound keeps the latter warm. */
    static constexpr size_t kMaxIdleBytes = size_t(256) << 20;

    /** Cumulative acquire outcomes across all threads. */
    struct Stats
    {
        u64 hits = 0;   ///< acquire served from the pool
        u64 misses = 0; ///< acquire paid a heap allocation
    };

    ~ScratchArena();
    ScratchArena(const ScratchArena &) = delete;
    ScratchArena &operator=(const ScratchArena &) = delete;

    /** The calling thread's arena (created on first use). */
    static ScratchArena &local();

    /** A slab of at least @p elems u64s — pooled when available. */
    ScratchBuffer acquire(size_t elems);

    /** Snapshot of the global hit/miss counters. */
    static Stats stats();

    /** Reset the global counters (bench/test bookkeeping). */
    static void resetStats();

    /** Bytes currently pooled (idle) on this thread. */
    size_t idleBytes() const { return idleBytes_; }

    /** Drop every pooled slab on this thread (tests). */
    void clear();

  private:
    friend class ScratchBuffer;
    ScratchArena() = default;
    static void releaseToLocal(std::unique_ptr<u64[]> data,
                               size_t capacity);
    void release(std::unique_ptr<u64[]> data, size_t capacity);

    /** Idle slabs keyed by capacity (u64 elements); lower_bound is
     *  the best fit. */
    std::multimap<size_t, std::unique_ptr<u64[]>> pool_;
    size_t idleBytes_ = 0;
};

} // namespace trinity

#endif // TRINITY_BACKEND_SCRATCH_ARENA_H
