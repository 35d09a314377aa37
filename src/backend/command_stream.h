/**
 * @file
 * Asynchronous command-stream execution API.
 *
 * Trinity keeps every pool busy by overlapping dependent kernel stages
 * (the paper's scheduler pipelines the NTT of blind-rotation step i+1
 * under the MAC of step i). The blocking PolyBackend batch calls cannot
 * express that: every call is a full barrier. A CommandStream is the
 * asynchronous counterpart — callers *record* the existing batch ops
 * (NTT, the element-wise family, mulAdd, automorphism, BConv, plus the
 * untyped task kernels the scheme layers emit explicitly) as jobs with
 * explicit event dependencies, then submit() the stream and wait() for
 * completion:
 *
 *     auto stream = activeBackend().newStream();
 *     Job ntt = stream->nttForward(jobs);           // no deps
 *     Job mac = stream->mulAdd(macJobs, {ntt});     // after the NTT
 *     stream->submit();
 *     stream->wait();
 *
 * Each engine has one execution policy:
 *  - the default EagerStream executes each command at record time in
 *    record order through the blocking entry points, so serial/simd
 *    engines behave exactly as before;
 *  - ThreadPoolBackend runs a dependency-counting pipelined executor
 *    over its worker pool, overlapping independent commands, and
 *    replays a submitted stream (see below). A pool with no workers,
 *    or a stream recorded from inside a pool job, has nothing to
 *    overlap onto and gets the EagerStream;
 *  - SimBackend executes functionally at record time and, at submit,
 *    charges the recorded DAG through Machine::canRun/charge with
 *    cross-pool overlap (a live list-schedule instead of sequential
 *    charging).
 *
 * Contract: every recorded resource (job buffers, task captures, the
 * BConvPlan's tables) must stay valid until the last wait() returns,
 * and two commands may touch the same memory only when ordered by a
 * dependency chain. Results are bit-identical to issuing the same ops
 * through the blocking entry points in record order, on every engine —
 * modular arithmetic is exact, so any dependency-respecting execution
 * order produces the same canonical residues.
 *
 * Record once, run many: on an executor that replays (the pipelined
 * one of ThreadPoolBackend), submit() after wait() runs the same DAG
 * again, reading the recorded buffers afresh — a caller refills them
 * between runs and keeps them alive until its last wait(). Executors
 * that run commands at record time (eager, sim) cannot replay, and no
 * stream replays while profilingActive(), so the kernel events a run
 * announces are always those of one recording. A second submit() where
 * canReplay() is false, or before wait(), is fatal.
 */

#ifndef TRINITY_BACKEND_COMMAND_STREAM_H
#define TRINITY_BACKEND_COMMAND_STREAM_H

#include <functional>
#include <vector>

#include "backend/observer.h"
#include "backend/poly_backend.h"
#include "backend/scratch_arena.h"

namespace trinity {

/**
 * Handle to one recorded command; returned by the record calls and
 * passed as a dependency to later ones. Default-constructed handles
 * are invalid and are silently ignored in dependency lists (so a
 * "previous iteration" handle needs no special-casing on the first
 * iteration).
 */
struct Job
{
    static constexpr u32 kInvalid = 0xffffffffu;
    u32 id = kInvalid;

    bool valid() const { return id != kInvalid; }
};

/** An event fence is itself a recorded (empty) job — see fence(). */
using Event = Job;

class CommandStream
{
  public:
    explicit CommandStream(PolyBackend &owner);
    virtual ~CommandStream() = default;

    CommandStream(const CommandStream &) = delete;
    CommandStream &operator=(const CommandStream &) = delete;

    // --- recording -------------------------------------------------------
    // Each call records one command made of independent jobs (the same
    // descriptors the blocking batch entry points take, owned by the
    // stream) and returns its handle. @p deps lists commands that must
    // complete before this one runs; invalid handles are skipped.

    Job nttForward(std::vector<NttJob> jobs, std::vector<Job> deps = {});
    Job nttInverse(std::vector<NttJob> jobs, std::vector<Job> deps = {});
    Job pointwiseMul(std::vector<EltwiseJob> jobs,
                     std::vector<Job> deps = {});
    Job add(std::vector<EltwiseJob> jobs, std::vector<Job> deps = {});
    Job sub(std::vector<EltwiseJob> jobs, std::vector<Job> deps = {});
    Job neg(std::vector<EltwiseJob> jobs, std::vector<Job> deps = {});
    Job mulAdd(std::vector<MulAddJob> jobs, std::vector<Job> deps = {});
    /** Fused forward NTT + multiply-accumulate (keyswitch digits):
     *  prices as an Ntt event chained into an Ip event, matching the
     *  unfused pair the fusion replaces. */
    Job nttForwardMulAdd(std::vector<NttMulAddJob> jobs,
                         std::vector<Job> deps = {});
    /** Fused inverse NTT + accumulate (external-product epilogue):
     *  prices as an Intt event chained into a ModAdd event. */
    Job nttInverseAdd(std::vector<NttInvAddJob> jobs,
                      std::vector<Job> deps = {});
    Job scalarMul(std::vector<ScalarMulJob> jobs,
                  std::vector<Job> deps = {});
    Job automorphism(std::vector<AutoJob> jobs,
                     std::vector<Job> deps = {});
    Job baseConvert(const BConvPlan &plan, std::vector<const u64 *> in,
                    std::vector<u64 *> out, size_t n,
                    std::vector<Job> deps = {});

    /**
     * Phase-chunked BConv recording: one pass-1 command (a job per
     * source limb, writing stream-owned scratch) followed by one
     * pass-2 command per *target limb*, each split into coefficient-
     * tile jobs and depending only on pass 1. Returns the per-target-
     * limb pass-2 handles, so a caller can hang each output limb's
     * follow-up (its NTT in hybrid keyswitch) off just the command
     * that produces it — the executor then spreads the k x l matrix
     * product across the pool and overlaps finished limbs' NTTs with
     * the tail of the conversion, instead of serializing behind one
     * monolithic BConv unit. Results are bit-identical to
     * baseConvert() on every engine.
     */
    std::vector<Job> baseConvertPhased(const BConvPlan &plan,
                                       std::vector<const u64 *> in,
                                       std::vector<u64 *> out, size_t n,
                                       std::vector<Job> deps = {});

    /**
     * Record an untyped parallel task (the streamed counterpart of the
     * run() escape hatch): fn(0..count) with the engine's parallelism,
     * disjoint state per index. @p events announces the kernels the
     * task performs to the profiling/timing seam, replacing the
     * explicit emitKernel() calls of the blocking path.
     */
    Job task(size_t count, std::function<void(size_t)> fn,
             std::vector<Job> deps = {},
             std::vector<KernelEvent> events = {});

    /** Record a fence: an empty job depending on every command
     *  recorded so far. Waiting on the returned event (by depending on
     *  it) orders later commands after the whole prefix. */
    Event fence();

    // --- execution -------------------------------------------------------

    /** Close recording and hand the stream to the engine's executor.
     *  Recording after submit is fatal. Submitting again re-runs the
     *  recorded DAG; that needs a wait() in between and canReplay(),
     *  and is fatal otherwise. */
    void submit();

    /** Block until every recorded command has completed. Fatal on an
     *  unsubmitted stream — a wait() that could never finish. */
    void wait();

    /** True when a submit() after wait() may re-run this stream: the
     *  executor defers (so it replays) and no observer is installed (a
     *  replay would announce no kernel events). */
    bool canReplay() const;

    /** Commands recorded so far. */
    size_t recorded() const { return cmds_.size(); }

    /**
     * True when execution is deferred to submit() — recorded buffers
     * are then live until wait(), so a recording site must keep every
     * command's buffers distinct. False when commands execute at
     * record time (eager, sim), where a site may reuse one scratch
     * buffer across commands it records back to back. The deferring
     * executor is also the one that replays (see canReplay()).
     */
    virtual bool deferredExecution() const { return false; }

    PolyBackend &backend() { return owner_; }

  protected:
    enum class Op
    {
        NttFwd,
        NttInv,
        Mul,
        Add,
        Sub,
        Neg,
        MulAdd,
        NttMulAdd, ///< fused forward NTT + multiply-accumulate
        NttInvAdd, ///< fused inverse NTT + accumulate
        ScalarMul,
        Auto,
        BConv,
        BConvP1, ///< phase-chunked pass 1: one job per source limb
        BConvP2, ///< phase-chunked pass 2: one target limb, tile jobs
        Task,
        Fence,
    };

    /** One recorded command: op + owned job descriptors + deps. */
    struct Command
    {
        Op op = Op::Fence;
        std::vector<NttJob> ntt;
        std::vector<EltwiseJob> elt;
        std::vector<MulAddJob> mad;
        std::vector<NttMulAddJob> nma;
        std::vector<NttInvAddJob> nia;
        std::vector<ScalarMulJob> smul;
        std::vector<AutoJob> aut;
        BConvPlan plan{};
        std::vector<const u64 *> bconvIn;
        std::vector<u64 *> bconvOut;
        size_t bconvN = 0;
        u64 *bconvV = nullptr;   ///< stream-owned pass-1 scratch
        size_t bconvLimb = 0;    ///< BConvP2: target limb index
        size_t bconvTile = 0;    ///< BConvP2: coefficients per tile job
        size_t bconvTiles = 0;   ///< BConvP2: number of tile jobs
        size_t taskCount = 0;
        std::function<void(size_t)> fn;
        /** Kernel metadata (scope stamped at record time) — what the
         *  blocking path would have announced to the observer seam. */
        std::vector<KernelEvent> events;
        std::vector<u32> deps; ///< earlier command indices

        /** Independently schedulable work items inside the command. */
        size_t jobCount() const;

        /** Drop the job descriptors and the task closure (and the
         *  events too unless @p keep_events) once an executor is done
         *  with them — eager executors call this from onRecord so a
         *  long recording does not hold every payload until wait(). */
        void clearPayload(bool keep_events);
    };

    /** Called once per record with the just-appended command; eager
     *  executors run it here (and may clearPayload), deferred
     *  executors do nothing. */
    virtual void onRecord(Command &c) = 0;

    /** Called by every submit(): after recording closes, and again
     *  for each replay on an executor that replays. */
    virtual void onSubmit() {}

    /** Called by wait(); deferred executors block here. */
    virtual void onWait() {}

    /** Stable display name of @p op ("nttFwd", "bconvP2", ...) for
     *  trace spans and diagnostics. */
    static const char *opName(Op op);

    /** Run a whole command through @p b's blocking entry points. Task
     *  commands run via b.run(); no kernel events are emitted — the
     *  caller owns emission policy. */
    static void executeBlocking(PolyBackend &b, const Command &c);

    /** Run job @p i of @p c on the calling thread (single-job batch
     *  through @p b, so the engine's KernelSet applies). */
    static void executeJob(PolyBackend &b, const Command &c, size_t i);

    std::vector<Command> cmds_;
    PolyBackend &owner_;
    bool submitted_ = false;
    bool running_ = false; ///< submitted and not yet waited on
    /** Derive KernelEvents for the named batch ops at record time.
     *  Only the overlap-pricing executor reads them (the eager path
     *  emits through the engine's own decorator and the pipelined
     *  path never priced named ops), so the default skips the
     *  per-record O(jobs) derivation. Task events are caller-provided
     *  and always kept. */
    bool recordEvents_ = false;

  private:
    Job record(Command c, std::vector<Job> deps);

    /** Pass-1 scratch rows owned by the stream so phased BConv data
     *  stays valid until wait() on deferred executors. One entry per
     *  baseConvertPhased() call; the outer vector may grow (entries
     *  are separate slabs, so recorded pointers stay stable). Slabs
     *  come from the recording thread's ScratchArena and return to it
     *  when the stream dies — steady-state recording allocates
     *  nothing. */
    std::vector<ScratchBuffer> scratch_;
};

/**
 * Default executor: every command runs at record time, in record
 * order, through the owner's blocking batch entry points — submit()
 * and wait() only validate the protocol. Single-stream engines
 * (serial, simd) are therefore byte-for-byte unchanged by stream
 * migration, and a thread pool that cannot pipeline falls back to it.
 */
class EagerStream final : public CommandStream
{
  public:
    using CommandStream::CommandStream;

  protected:
    void onRecord(Command &c) override;
};

} // namespace trinity

#endif // TRINITY_BACKEND_COMMAND_STREAM_H
