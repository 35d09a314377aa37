#include "backend/thread_pool_backend.h"

#include <atomic>
#include <deque>
#include <memory>
#include <utility>

#include "backend/command_stream.h"
#include "common/bitops.h"
#include "common/env.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace trinity {

namespace {

/**
 * Set while a pool worker executes jobs. A kernel that re-enters the
 * backend from inside a job (e.g. a Poly op nested in a fused
 * consumer kernel) must not block on the pool it is running on, so
 * nested batches run inline on the worker instead.
 */
thread_local bool tls_in_worker = false;

size_t
resolveThreadCount(size_t threads)
{
    size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) {
        hw = 1;
    }
    if (threads == 0) {
        u64 parsed = 0;
        if (envU64("TRINITY_THREADS", parsed)) {
            if (parsed == 0) {
                trinity_fatal("invalid TRINITY_THREADS value '0': "
                              "expected a positive integer");
            }
            threads = static_cast<size_t>(parsed);
            if (threads > hw) {
                trinity_warn("TRINITY_THREADS=%zu exceeds hardware "
                             "concurrency (%zu); clamping",
                             threads, hw);
                threads = hw;
            }
        }
    }
    return threads == 0 ? hw : threads;
}

} // namespace

/**
 * Pipelined command-stream executor with per-worker deques and
 * randomized work stealing. Every pool worker (plus the submitting
 * thread) owns a deque of (command, job) pairs; a worker pops its own
 * deque from the back (LIFO — the jobs it just unlocked are hot in its
 * cache) and steals from random victims' fronts (FIFO — the oldest,
 * coldest work travels). The former single mutex-guarded ready queue
 * made every job claim a serialization point, which at ~μs job sizes
 * (one limb kernel) throttled the pool; per-slot locks shrink the
 * critical section to one deque operation and contended claims spread
 * across nslots mutexes.
 *
 * Dependency tracking is atomic: each command counts completed jobs
 * and unresolved dependencies; the worker finishing a command's last
 * job resolves its dependents and pushes any newly-ready command's
 * jobs onto its OWN deque (stealers rebalance if it is slow). Zero-job
 * commands (fences) complete recursively at resolution. Idle workers
 * probe random victims, then sweep every slot once against an epoch
 * counter snapshotted under the idle lock — a pusher bumps the epoch
 * after publishing work, so a worker only parks when its sweep saw a
 * world no push has changed since (no lost wakeups). The seq_cst
 * atomic chains and the deque mutexes establish the happens-before
 * edges of every dependency, so results stay bit-identical to eager
 * record-order execution and the executor is clean under TSan.
 *
 * The stream replays: the dependents lists, seed set and worker deques
 * are built on the first submit and kept, so a later submit() of the
 * same DAG only resets the per-command counters before it runs.
 */
class PipelinedStream final : public CommandStream
{
  public:
    using CommandStream::CommandStream;

    bool deferredExecution() const override { return true; }

  protected:
    void
    onRecord(Command &) override
    {
        // Deferred: execution happens at submit().
    }

    void
    onSubmit() override
    {
        // Blocking-path parity: escape-hatch kernels announce their
        // recorded metadata in record order (named ops on this engine
        // never emitted events — there is no decorator here). The
        // events carry their record-time scope, so deliver them
        // without the emission-time restamp. Only a first run gets
        // here with an observer installed: submit() refuses replays
        // while profiling.
        if (profilingActive()) {
            for (const Command &c : cmds_) {
                if (c.op == Op::Task) {
                    for (const KernelEvent &ev : c.events) {
                        emitKernelPrestamped(ev);
                    }
                }
            }
        }
        if (slots_ == nullptr) {
            buildTopology();
        }
        execute();
    }

  private:
    /** One worker's deque. Own pops take the back, steals take the
     *  front; the mutex guards only the deque itself. */
    struct Slot
    {
        std::mutex mtx;
        std::deque<std::pair<u32, u32>> q; ///< (command, job) pairs
    };

    /** The DAG's shape, derived on the first submit and kept, so a
     *  replay only resets the counters: every command's dependents
     *  as one CSR array, the dependency-free seed commands, and the
     *  per-command counters and worker deques. */
    void
    buildTopology()
    {
        size_t n = cmds_.size();
        dependentsAt_.assign(n + 1, 0);
        for (const Command &c : cmds_) {
            for (u32 d : c.deps) {
                ++dependentsAt_[d + 1];
            }
        }
        for (size_t i = 0; i < n; ++i) {
            dependentsAt_[i + 1] += dependentsAt_[i];
        }
        dependents_.resize(dependentsAt_[n]);
        std::vector<u32> fill(dependentsAt_.begin(),
                              dependentsAt_.end() - 1);
        for (size_t i = 0; i < n; ++i) {
            for (u32 d : cmds_[i].deps) {
                dependents_[fill[d]++] = static_cast<u32>(i);
            }
            if (cmds_[i].deps.empty()) {
                seeds_.push_back(static_cast<u32>(i));
            }
        }
        depsLeft_.reset(new std::atomic<size_t>[n]);
        doneJobs_.reset(new std::atomic<size_t>[n]);
        nslots_ = owner_.threadCount();
        slots_ = std::make_unique<Slot[]>(nslots_);
    }

    void
    execute()
    {
        size_t n = cmds_.size();
        if (n == 0) {
            return;
        }
        PolyBackend &b = owner_;
        const size_t nslots = nslots_;
        Slot *slots = slots_.get();
        std::atomic<size_t> *deps_left = depsLeft_.get();
        std::atomic<size_t> *done_jobs = doneJobs_.get();
        std::atomic<size_t> remaining{n};
        std::mutex idle_mtx;
        std::condition_variable idle_cv;
        u64 epoch = 0; // guarded by idle_mtx

        for (size_t i = 0; i < n; ++i) {
            deps_left[i].store(cmds_[i].deps.size(),
                               std::memory_order_relaxed);
            done_jobs[i].store(0, std::memory_order_relaxed);
        }

        // Publish-then-bump: work becomes visible in a deque first,
        // the epoch moves second, so a sweep that saw the old epoch
        // and found nothing can safely park — any later push bumps
        // past its snapshot.
        auto wakeAll = [&] {
            {
                std::lock_guard<std::mutex> lk(idle_mtx);
                ++epoch;
            }
            idle_cv.notify_all();
        };

        auto pushJobs = [&](u32 id, size_t slot) {
            size_t total = cmds_[id].jobCount();
            {
                std::lock_guard<std::mutex> lk(slots[slot].mtx);
                for (size_t j = 0; j < total; ++j) {
                    slots[slot].q.emplace_back(id,
                                               static_cast<u32>(j));
                }
            }
            wakeAll();
        };

        std::function<void(u32, size_t)> complete = [&](u32 id,
                                                        size_t slot) {
            for (u32 k = dependentsAt_[id]; k < dependentsAt_[id + 1];
                 ++k) {
                u32 dep = dependents_[k];
                if (deps_left[dep].fetch_sub(1) == 1) {
                    if (cmds_[dep].jobCount() == 0) {
                        complete(dep, slot); // fences cascade
                    } else {
                        pushJobs(dep, slot);
                    }
                }
            }
            if (remaining.fetch_sub(1) == 1) {
                wakeAll(); // unpark everyone for termination
            }
        };

        // Seed: jobs of dependency-free commands striped round-robin
        // so the pool starts balanced without any stealing.
        {
            size_t r = 0;
            for (u32 i : seeds_) {
                size_t total = cmds_[i].jobCount();
                if (total == 0) {
                    complete(i, 0);
                    continue;
                }
                for (size_t j = 0; j < total; ++j, ++r) {
                    Slot &s = slots[r % nslots];
                    std::lock_guard<std::mutex> lk(s.mtx);
                    s.q.emplace_back(i, static_cast<u32>(j));
                }
            }
        }

        // Per-worker observability: each executed job gets a wall-clock
        // span named after its command's op (cat "job"), steals leave an
        // instant marker, and park waits show as "idle" spans — the
        // per-worker timeline rows of the Chrome trace. Counters
        // accumulate in locals and fold into the registry once per
        // worker, so the job loop never touches a shared cacheline for
        // stats.
        static obs::Counter &ctr_jobs =
            obs::MetricsRegistry::instance().counter(
                "stream.jobs_executed");
        static obs::Counter &ctr_steals =
            obs::MetricsRegistry::instance().counter("stream.steals");
        const char *track = b.name();
        b.run(nslots, [&](size_t slot) {
            u64 local_jobs = 0;
            u64 local_steals = 0;
            u64 rng =
                (static_cast<u64>(slot) + 1) * 0x9e3779b97f4a7c15ULL;
            auto nextRand = [&rng] {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                return rng;
            };
            auto tryPop = [&](size_t s, bool own,
                              std::pair<u32, u32> &out) {
                Slot &sl = slots[s];
                std::lock_guard<std::mutex> lk(sl.mtx);
                if (sl.q.empty()) {
                    return false;
                }
                if (own) {
                    out = sl.q.back();
                    sl.q.pop_back();
                } else {
                    out = sl.q.front();
                    sl.q.pop_front();
                }
                return true;
            };
            auto runJob = [&](const std::pair<u32, u32> &job) {
                const Command &c = cmds_[job.first];
                ++local_jobs;
                {
                    obs::TraceSpan span(opName(c.op), "job", track,
                                        "cmd", job.first);
                    executeJob(b, c, job.second);
                }
                if (done_jobs[job.first].fetch_add(1) + 1 ==
                    c.jobCount()) {
                    complete(job.first, slot);
                }
            };
            std::pair<u32, u32> job;
            while (remaining.load() != 0) {
                if (tryPop(slot, /*own=*/true, job)) {
                    runJob(job);
                    continue;
                }
                bool found = false;
                for (size_t t = 0; t < 2 * nslots && !found; ++t) {
                    size_t victim = nextRand() % nslots;
                    if (victim == slot) {
                        continue;
                    }
                    found = tryPop(victim, /*own=*/false, job);
                }
                if (found) {
                    ++local_steals;
                    obs::traceInstant("steal", "steal", track);
                    runJob(job);
                    continue;
                }
                // Park protocol: snapshot the epoch, sweep every slot
                // once, and sleep only when the sweep came up empty —
                // a push after the snapshot moves the epoch and the
                // wait falls through immediately.
                u64 seen;
                {
                    std::lock_guard<std::mutex> lk(idle_mtx);
                    seen = epoch;
                }
                for (size_t s = 0; s < nslots && !found; ++s) {
                    found = tryPop(s, /*own=*/s == slot, job);
                }
                if (found) {
                    runJob(job);
                    continue;
                }
                obs::TraceSpan idle_span("idle", "idle", track);
                std::unique_lock<std::mutex> lk(idle_mtx);
                idle_cv.wait(lk, [&] {
                    return epoch != seen ||
                           remaining.load() == 0;
                });
            }
            if (local_jobs != 0) {
                ctr_jobs.add(local_jobs);
            }
            if (local_steals != 0) {
                ctr_steals.add(local_steals);
            }
        });
    }

    std::vector<u32> dependentsAt_; ///< CSR offsets, one per command + 1
    std::vector<u32> dependents_;   ///< commands waiting on each command
    std::vector<u32> seeds_;        ///< commands with no dependency
    std::unique_ptr<std::atomic<size_t>[]> depsLeft_;
    std::unique_ptr<std::atomic<size_t>[]> doneJobs_;
    std::unique_ptr<Slot[]> slots_; ///< null until the first submit
    size_t nslots_ = 0;
};

ThreadPoolBackend::ThreadPoolBackend(size_t threads)
{
    // SIMD within each limb job; threads across the jobs of a batch.
    useKernels(simd::kernelsForLevel(simd::resolveLevel()));
    size_t total = resolveThreadCount(threads);
    // The submitting thread always participates, so spawn total-1.
    workers_.reserve(total - 1);
    for (size_t i = 0; i + 1 < total; ++i) {
        workers_.emplace_back([this] { workerLoop(); });
    }
}

ThreadPoolBackend::~ThreadPoolBackend()
{
    {
        std::lock_guard<std::mutex> lock(mtx_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &w : workers_) {
        w.join();
    }
}

std::unique_ptr<CommandStream>
ThreadPoolBackend::newStream()
{
    // Pipelining needs workers to overlap onto; a re-entrant stream
    // (recorded from inside a pool job) must not dispatch on the pool
    // it is running on. Both run in record order on the recording
    // thread, where parallelFor already runs inline and nttBatchTiled
    // declines, so the base class's eager executor does the same work
    // as any wider batching of its commands would.
    if (workers_.empty() || tls_in_worker) {
        return PolyBackend::newStream();
    }
    return std::make_unique<PipelinedStream>(*this);
}

bool
ThreadPoolBackend::nttBatchTiled(const NttJob *jobs, size_t count,
                                 bool forward)
{
    // Coefficient-tiled NTT: split one transform across workers
    // through the KernelSet's stage-level entry points, so the tiles
    // run AVX2/AVX-512 butterflies inside each chunk (threads across
    // coefficients, vector lanes within a tile). Every stage's
    // butterflies touch disjoint (j, j+t) pairs, so a stage can be
    // chunked freely with a barrier between stages; and once the CT
    // network's block count reaches `tiles`, the remaining stages
    // decompose into `tiles` independent contiguous regions — one
    // multi-stage kernel call per tile, no barriers (mirrored for the
    // GS inverse network, whose early stages are the local ones). All
    // paths compute the exact canonical butterflies, so tiling never
    // changes a single bit of the result.
    //
    // Tiling pays stage-barrier overhead to recruit idle workers, so
    // engage it only when limb fan-out alone cannot feed the pool:
    // few jobs relative to workers and a transform long enough to
    // amortize the barriers.
    size_t workers = threadCount();
    if (count == 0 || tls_in_worker || count * 2 > workers) {
        return false;
    }
    size_t n = jobs[0].table->n();
    if (n < 1024) {
        return false;
    }
    for (size_t i = 1; i < count; ++i) {
        if (jobs[i].table->n() != n) {
            return false; // mixed lengths: uniform chunking impossible
        }
    }
    size_t tiles = 1;
    while (tiles * 2 * count <= workers) {
        tiles <<= 1;
    }
    while (tiles > 1 && n / tiles < 256) {
        tiles >>= 1;
    }
    if (tiles < 2) {
        return false;
    }
    static obs::Counter &batches =
        obs::MetricsRegistry::instance().counter("kernel.ntt.batches");
    static obs::Counter &njobs =
        obs::MetricsRegistry::instance().counter("kernel.ntt.jobs");
    batches.add();
    njobs.add(count);
    obs::TraceSpan span(forward ? "nttBatchTiled.fwd"
                                : "nttBatchTiled.inv",
                        "op", name(), "tiles", tiles);
    const simd::KernelSet &ks = kernels();
    size_t logn = log2Exact(n);
    size_t log_tiles = log2Exact(tiles);
    size_t units = count * tiles;
    size_t bchunk = (n / 2) / tiles; // butterflies per chunk per stage
    if (forward) {
        // Global stages (few large-span blocks) with a barrier after
        // each, then independent contiguous regions for the bulk of
        // the network.
        for (size_t s = 0; s < log_tiles; ++s) {
            parallelFor(units, [&](size_t u) {
                const NttJob &j = jobs[u / tiles];
                size_t c = u % tiles;
                ks.nttForwardStages(*j.table, j.data, s, s + 1,
                                    c * bchunk, (c + 1) * bchunk);
            });
        }
        parallelFor(units, [&](size_t u) {
            const NttJob &j = jobs[u / tiles];
            size_t c = u % tiles;
            ks.nttForwardStages(*j.table, j.data, log_tiles, logn,
                                c * bchunk, (c + 1) * bchunk);
        });
    } else {
        // Mirror image: independent regions first, then the global
        // stages. scaleN folds the N^{-1} epilogue into the final
        // stage's butterflies — no separate scaling pass.
        parallelFor(units, [&](size_t u) {
            const NttJob &j = jobs[u / tiles];
            size_t c = u % tiles;
            ks.nttInverseStages(*j.table, j.data, 0, logn - log_tiles,
                                c * bchunk, (c + 1) * bchunk,
                                /*scaleN=*/false);
        });
        for (size_t s = logn - log_tiles; s < logn; ++s) {
            parallelFor(units, [&](size_t u) {
                const NttJob &j = jobs[u / tiles];
                size_t c = u % tiles;
                ks.nttInverseStages(*j.table, j.data, s, s + 1,
                                    c * bchunk, (c + 1) * bchunk,
                                    /*scaleN=*/true);
            });
        }
    }
    return true;
}

void
ThreadPoolBackend::nttForwardBatch(const NttJob *jobs, size_t count)
{
    if (nttBatchTiled(jobs, count, true)) {
        return;
    }
    PolyBackend::nttForwardBatch(jobs, count);
}

void
ThreadPoolBackend::nttInverseBatch(const NttJob *jobs, size_t count)
{
    if (nttBatchTiled(jobs, count, false)) {
        return;
    }
    PolyBackend::nttInverseBatch(jobs, count);
}

void
ThreadPoolBackend::drainCurrent()
{
    size_t i;
    while ((i = next_.fetch_add(1, std::memory_order_relaxed)) < count_) {
        (*fn_)(i);
    }
}

void
ThreadPoolBackend::workerLoop()
{
    tls_in_worker = true;
    u64 seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mtx_);
            wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
            if (stop_) {
                return;
            }
            seen = generation_;
        }
        drainCurrent();
        {
            std::lock_guard<std::mutex> lock(mtx_);
            if (--busy_ == 0) {
                done_.notify_all();
            }
        }
    }
}

void
ThreadPoolBackend::parallelFor(size_t count,
                               const std::function<void(size_t)> &fn)
{
    if (count == 0) {
        return;
    }
    // Inline when parallelism cannot help (single job, no workers) or
    // when called from inside a pool job (re-entrant batch).
    if (count == 1 || workers_.empty() || tls_in_worker) {
        for (size_t i = 0; i < count; ++i) {
            fn(i);
        }
        return;
    }
    // Only external callers get here (pool jobs run nested batches
    // inline above), and a batch never waits on another external
    // caller, so serializing on dispatch_ cannot deadlock.
    std::lock_guard<std::mutex> dispatch(dispatch_);
    {
        std::lock_guard<std::mutex> lock(mtx_);
        fn_ = &fn;
        count_ = count;
        next_.store(0, std::memory_order_relaxed);
        busy_ = workers_.size();
        ++generation_;
    }
    wake_.notify_all();
    // The submitting thread participates too. While it drains, any
    // nested backend call it makes must run inline — dispatching a
    // second batch would clobber the state workers are reading.
    tls_in_worker = true;
    drainCurrent();
    tls_in_worker = false;
    std::unique_lock<std::mutex> lock(mtx_);
    done_.wait(lock, [&] { return busy_ == 0; });
    fn_ = nullptr;
    count_ = 0;
}

} // namespace trinity
