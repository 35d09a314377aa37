#include "backend/scratch_arena.h"

#include "obs/metrics.h"

namespace trinity {

// The hit/miss tallies live in the metrics registry
// ("scratch_arena.hits"/"scratch_arena.misses") so stats dumps and
// bench reports see them alongside everything else; stats() and
// resetStats() below are thin views over the same counters.

namespace {

obs::Counter &
hitCounter()
{
    static obs::Counter &c =
        obs::MetricsRegistry::instance().counter("scratch_arena.hits");
    return c;
}

obs::Counter &
missCounter()
{
    static obs::Counter &c =
        obs::MetricsRegistry::instance().counter("scratch_arena.misses");
    return c;
}

/** Set once this thread's arena has been destroyed (thread exit), so
 *  buffers outliving it — thread_local or static RnsPolys destroyed
 *  later — free their slab instead of touching a dead pool. Trivially
 *  destructible, hence readable at any point of thread teardown. */
thread_local bool tl_arenaGone = false;

} // namespace

ScratchBuffer &
ScratchBuffer::operator=(ScratchBuffer &&other) noexcept
{
    if (this != &other) {
        if (data_ != nullptr) {
            ScratchArena::releaseToLocal(std::move(data_), capacity_);
        }
        data_ = std::move(other.data_);
        size_ = other.size_;
        capacity_ = other.capacity_;
        other.size_ = 0;
        other.capacity_ = 0;
    }
    return *this;
}

ScratchBuffer::~ScratchBuffer()
{
    if (data_ != nullptr) {
        ScratchArena::releaseToLocal(std::move(data_), capacity_);
    }
}

ScratchArena::~ScratchArena()
{
    tl_arenaGone = true;
}

ScratchArena &
ScratchArena::local()
{
    static thread_local ScratchArena arena;
    return arena;
}

ScratchBuffer
ScratchArena::acquire(size_t elems)
{
    if (elems == 0) {
        return {};
    }
    auto it = pool_.lower_bound(elems);
    if (it != pool_.end() && it->first <= elems + elems / kSlackDiv) {
        size_t capacity = it->first;
        std::unique_ptr<u64[]> slab = std::move(it->second);
        pool_.erase(it);
        idleBytes_ -= capacity * sizeof(u64);
        hitCounter().add();
        return ScratchBuffer(std::move(slab), elems, capacity);
    }
    missCounter().add();
    return ScratchBuffer(std::unique_ptr<u64[]>(new u64[elems]), elems,
                         elems);
}

void
ScratchArena::releaseToLocal(std::unique_ptr<u64[]> data, size_t capacity)
{
    if (!tl_arenaGone) {
        local().release(std::move(data), capacity);
    }
    // else: `data` frees the slab on return.
}

void
ScratchArena::release(std::unique_ptr<u64[]> data, size_t capacity)
{
    size_t bytes = capacity * sizeof(u64);
    if (idleBytes_ + bytes > kMaxIdleBytes) {
        return; // over the idle bound: free instead of pooling
    }
    pool_.emplace(capacity, std::move(data));
    idleBytes_ += bytes;
}

void
ScratchArena::clear()
{
    pool_.clear();
    idleBytes_ = 0;
}

ScratchArena::Stats
ScratchArena::stats()
{
    Stats s;
    s.hits = hitCounter().value();
    s.misses = missCounter().value();
    return s;
}

void
ScratchArena::resetStats()
{
    hitCounter().reset();
    missCounter().reset();
}

} // namespace trinity
