#include "backend/command_stream.h"

#include "backend/kernel_events.h"
#include "common/logging.h"

namespace trinity {

CommandStream::CommandStream(PolyBackend &owner) : owner_(owner) {}

void
CommandStream::Command::clearPayload(bool keep_events)
{
    ntt = {};
    elt = {};
    mad = {};
    nma = {};
    nia = {};
    smul = {};
    aut = {};
    bconvIn = {};
    bconvOut = {};
    fn = nullptr;
    if (!keep_events) {
        events = {};
    }
}

size_t
CommandStream::Command::jobCount() const
{
    switch (op) {
    case Op::NttFwd:
    case Op::NttInv:
        return ntt.size();
    case Op::Mul:
    case Op::Add:
    case Op::Sub:
    case Op::Neg:
        return elt.size();
    case Op::MulAdd:
        return mad.size();
    case Op::NttMulAdd:
        return nma.size();
    case Op::NttInvAdd:
        return nia.size();
    case Op::ScalarMul:
        return smul.size();
    case Op::Auto:
        return aut.size();
    case Op::BConv:
        // The two BConv passes carry an internal barrier, so the
        // command schedules as one unit and runs inline on a worker.
        return 1;
    case Op::BConvP1:
        return plan.numFrom; // one scaling job per source limb
    case Op::BConvP2:
        return bconvTiles; // coefficient-tile jobs of one target limb
    case Op::Task:
        return taskCount;
    case Op::Fence:
        return 0;
    }
    return 0;
}

const char *
CommandStream::opName(Op op)
{
    switch (op) {
    case Op::NttFwd:
        return "nttFwd";
    case Op::NttInv:
        return "nttInv";
    case Op::Mul:
        return "mul";
    case Op::Add:
        return "add";
    case Op::Sub:
        return "sub";
    case Op::Neg:
        return "neg";
    case Op::MulAdd:
        return "mulAdd";
    case Op::NttMulAdd:
        return "nttMulAdd";
    case Op::NttInvAdd:
        return "nttInvAdd";
    case Op::ScalarMul:
        return "scalarMul";
    case Op::Auto:
        return "auto";
    case Op::BConv:
        return "bconv";
    case Op::BConvP1:
        return "bconvP1";
    case Op::BConvP2:
        return "bconvP2";
    case Op::Task:
        return "task";
    case Op::Fence:
        return "fence";
    }
    return "?";
}

Job
CommandStream::record(Command c, std::vector<Job> deps)
{
    if (submitted_) {
        trinity_fatal("CommandStream: recording after submit() — a "
                      "stream records once, then executes");
    }
    trinity_assert(cmds_.size() < Job::kInvalid,
                   "CommandStream: too many commands");
    c.deps.reserve(deps.size());
    for (Job d : deps) {
        if (!d.valid()) {
            continue; // first-iteration handles
        }
        trinity_assert(d.id < cmds_.size(),
                       "CommandStream: dependency on a job not "
                       "recorded in this stream");
        c.deps.push_back(d.id);
    }
    // Stamp the record-time op scope into the kernel metadata so
    // deferred executors attribute work to the operation that
    // recorded it, not to whatever runs at execution time.
    for (KernelEvent &ev : c.events) {
        ev.scope = currentOpScope();
    }
    cmds_.push_back(std::move(c));
    onRecord(cmds_.back());
    return Job{static_cast<u32>(cmds_.size() - 1)};
}

Job
CommandStream::nttForward(std::vector<NttJob> jobs, std::vector<Job> deps)
{
    Command c;
    c.op = Op::NttFwd;
    if (recordEvents_) {
        c.events = {kernel_events::ntt(jobs.data(), jobs.size(), true)};
    }
    c.ntt = std::move(jobs);
    return record(std::move(c), std::move(deps));
}

Job
CommandStream::nttInverse(std::vector<NttJob> jobs, std::vector<Job> deps)
{
    Command c;
    c.op = Op::NttInv;
    if (recordEvents_) {
        c.events = {
            kernel_events::ntt(jobs.data(), jobs.size(), false)};
    }
    c.ntt = std::move(jobs);
    return record(std::move(c), std::move(deps));
}

Job
CommandStream::pointwiseMul(std::vector<EltwiseJob> jobs,
                            std::vector<Job> deps)
{
    Command c;
    c.op = Op::Mul;
    if (recordEvents_) {
        c.events = {kernel_events::eltwise(
            sim::KernelType::ModMul, jobs.data(), jobs.size(), 24)};
    }
    c.elt = std::move(jobs);
    return record(std::move(c), std::move(deps));
}

Job
CommandStream::add(std::vector<EltwiseJob> jobs, std::vector<Job> deps)
{
    Command c;
    c.op = Op::Add;
    if (recordEvents_) {
        c.events = {kernel_events::eltwise(
            sim::KernelType::ModAdd, jobs.data(), jobs.size(), 24)};
    }
    c.elt = std::move(jobs);
    return record(std::move(c), std::move(deps));
}

Job
CommandStream::sub(std::vector<EltwiseJob> jobs, std::vector<Job> deps)
{
    Command c;
    c.op = Op::Sub;
    if (recordEvents_) {
        c.events = {kernel_events::eltwise(
            sim::KernelType::ModAdd, jobs.data(), jobs.size(), 24)};
    }
    c.elt = std::move(jobs);
    return record(std::move(c), std::move(deps));
}

Job
CommandStream::neg(std::vector<EltwiseJob> jobs, std::vector<Job> deps)
{
    Command c;
    c.op = Op::Neg;
    if (recordEvents_) {
        c.events = {kernel_events::eltwise(
            sim::KernelType::ModAdd, jobs.data(), jobs.size(), 16)};
    }
    c.elt = std::move(jobs);
    return record(std::move(c), std::move(deps));
}

Job
CommandStream::mulAdd(std::vector<MulAddJob> jobs, std::vector<Job> deps)
{
    Command c;
    c.op = Op::MulAdd;
    if (recordEvents_) {
        c.events = {kernel_events::mulAdd(jobs.data(), jobs.size())};
    }
    c.mad = std::move(jobs);
    return record(std::move(c), std::move(deps));
}

Job
CommandStream::nttForwardMulAdd(std::vector<NttMulAddJob> jobs,
                                std::vector<Job> deps)
{
    Command c;
    c.op = Op::NttMulAdd;
    if (recordEvents_) {
        // Two chained events: the recorder links a command's events
        // sequentially, so the sim prices the transform feeding the
        // MAC exactly as the unfused NTT -> MulAdd pair would.
        c.events = {
            kernel_events::nttOfNttMulAdd(jobs.data(), jobs.size()),
            kernel_events::ipOfNttMulAdd(jobs.data(), jobs.size())};
    }
    c.nma = std::move(jobs);
    return record(std::move(c), std::move(deps));
}

Job
CommandStream::nttInverseAdd(std::vector<NttInvAddJob> jobs,
                             std::vector<Job> deps)
{
    Command c;
    c.op = Op::NttInvAdd;
    if (recordEvents_) {
        c.events = {
            kernel_events::inttOfNttInvAdd(jobs.data(), jobs.size()),
            kernel_events::addOfNttInvAdd(jobs.data(), jobs.size())};
    }
    c.nia = std::move(jobs);
    return record(std::move(c), std::move(deps));
}

Job
CommandStream::scalarMul(std::vector<ScalarMulJob> jobs,
                         std::vector<Job> deps)
{
    Command c;
    c.op = Op::ScalarMul;
    if (recordEvents_) {
        c.events = {
            kernel_events::scalarMul(jobs.data(), jobs.size())};
    }
    c.smul = std::move(jobs);
    return record(std::move(c), std::move(deps));
}

Job
CommandStream::automorphism(std::vector<AutoJob> jobs,
                            std::vector<Job> deps)
{
    Command c;
    c.op = Op::Auto;
    if (recordEvents_) {
        c.events = {
            kernel_events::automorphism(jobs.data(), jobs.size())};
    }
    c.aut = std::move(jobs);
    return record(std::move(c), std::move(deps));
}

Job
CommandStream::baseConvert(const BConvPlan &plan,
                           std::vector<const u64 *> in,
                           std::vector<u64 *> out, size_t n,
                           std::vector<Job> deps)
{
    trinity_assert(in.size() == plan.numFrom && out.size() == plan.numTo,
                   "baseConvert: limb pointer count mismatch");
    Command c;
    c.op = Op::BConv;
    if (recordEvents_) {
        c.events = {kernel_events::baseConvert(plan, n)};
    }
    c.plan = plan;
    c.bconvIn = std::move(in);
    c.bconvOut = std::move(out);
    c.bconvN = n;
    return record(std::move(c), std::move(deps));
}

namespace {

/** Pass-2 tile length: small enough that one target limb's matrix
 *  product splits across several workers at common ring sizes, large
 *  enough that a tile amortizes its scheduling overhead. */
constexpr size_t kBConvTile = 1024;

} // namespace

std::vector<Job>
CommandStream::baseConvertPhased(const BConvPlan &plan,
                                 std::vector<const u64 *> in,
                                 std::vector<u64 *> out, size_t n,
                                 std::vector<Job> deps)
{
    trinity_assert(in.size() == plan.numFrom && out.size() == plan.numTo,
                   "baseConvertPhased: limb pointer count mismatch");
    scratch_.push_back(ScratchArena::local().acquire(plan.numFrom * n));
    u64 *v = scratch_.back().data();

    Command p1;
    p1.op = Op::BConvP1;
    if (recordEvents_) {
        p1.events = {kernel_events::baseConvertPass1(plan, n)};
    }
    p1.plan = plan;
    p1.bconvIn = std::move(in);
    p1.bconvV = v;
    p1.bconvN = n;
    Job pass1 = record(std::move(p1), std::move(deps));

    std::vector<Job> handles(plan.numTo);
    for (size_t j = 0; j < plan.numTo; ++j) {
        Command p2;
        p2.op = Op::BConvP2;
        if (recordEvents_) {
            p2.events = {kernel_events::baseConvertPass2(plan, n)};
        }
        p2.plan = plan;
        p2.bconvOut = {out[j]};
        p2.bconvV = v;
        p2.bconvN = n;
        p2.bconvLimb = j;
        p2.bconvTile = kBConvTile;
        p2.bconvTiles = (n + kBConvTile - 1) / kBConvTile;
        handles[j] = record(std::move(p2), {pass1});
    }
    return handles;
}

Job
CommandStream::task(size_t count, std::function<void(size_t)> fn,
                    std::vector<Job> deps,
                    std::vector<KernelEvent> events)
{
    Command c;
    c.op = Op::Task;
    c.taskCount = count;
    c.fn = std::move(fn);
    c.events = std::move(events);
    return record(std::move(c), std::move(deps));
}

Event
CommandStream::fence()
{
    Command c;
    c.op = Op::Fence;
    std::vector<Job> deps;
    deps.reserve(cmds_.size());
    for (size_t i = 0; i < cmds_.size(); ++i) {
        deps.push_back(Job{static_cast<u32>(i)});
    }
    return record(std::move(c), std::move(deps));
}

bool
CommandStream::canReplay() const
{
    return deferredExecution() && !profilingActive();
}

void
CommandStream::submit()
{
    if (running_) {
        trinity_fatal("CommandStream: submit() again before wait()");
    }
    if (submitted_ && !canReplay()) {
        trinity_fatal("CommandStream: submit() called twice on a stream "
                      "that cannot replay (%s)",
                      deferredExecution()
                          ? "an observer is installed"
                          : "its executor runs at record time");
    }
    submitted_ = true;
    running_ = true;
    onSubmit();
}

void
CommandStream::wait()
{
    if (!submitted_) {
        trinity_fatal("wait() on an unsubmitted CommandStream (%zu "
                      "recorded commands would never run) — call "
                      "submit() first",
                      cmds_.size());
    }
    onWait();
    running_ = false;
}

void
CommandStream::executeBlocking(PolyBackend &b, const Command &c)
{
    switch (c.op) {
    case Op::NttFwd:
        b.nttForwardBatch(c.ntt.data(), c.ntt.size());
        break;
    case Op::NttInv:
        b.nttInverseBatch(c.ntt.data(), c.ntt.size());
        break;
    case Op::Mul:
        b.pointwiseMulBatch(c.elt.data(), c.elt.size());
        break;
    case Op::Add:
        b.addBatch(c.elt.data(), c.elt.size());
        break;
    case Op::Sub:
        b.subBatch(c.elt.data(), c.elt.size());
        break;
    case Op::Neg:
        b.negBatch(c.elt.data(), c.elt.size());
        break;
    case Op::MulAdd:
        b.mulAddBatch(c.mad.data(), c.mad.size());
        break;
    case Op::NttMulAdd:
        b.nttForwardMulAddBatch(c.nma.data(), c.nma.size());
        break;
    case Op::NttInvAdd:
        b.nttInverseAddBatch(c.nia.data(), c.nia.size());
        break;
    case Op::ScalarMul:
        b.scalarMulBatch(c.smul.data(), c.smul.size());
        break;
    case Op::Auto:
        b.automorphismBatch(c.aut.data(), c.aut.size());
        break;
    case Op::BConv:
        b.baseConvert(c.plan, c.bconvIn.data(), c.bconvOut.data(),
                      c.bconvN);
        break;
    case Op::BConvP1: {
        std::vector<BConvPass1Job> jobs(c.plan.numFrom);
        for (size_t i = 0; i < c.plan.numFrom; ++i) {
            jobs[i] = {c.bconvV + i * c.bconvN, c.bconvIn[i],
                       c.plan.qhatInv[i],       c.plan.qhatInvPrecon[i],
                       &c.plan.fromMods[i],     c.bconvN};
        }
        b.baseConvertPass1Batch(jobs.data(), jobs.size());
        break;
    }
    case Op::BConvP2: {
        BConvPass2Job j = {c.bconvOut[0],
                           c.bconvV,
                           c.bconvN,
                           c.plan.numFrom,
                           c.plan.qhatModP + c.bconvLimb,
                           c.plan.numTo,
                           &c.plan.toMods[c.bconvLimb],
                           c.bconvN};
        b.baseConvertPass2Batch(&j, 1);
        break;
    }
    case Op::Task:
        b.run(c.taskCount, c.fn);
        break;
    case Op::Fence:
        break;
    }
}

void
CommandStream::executeJob(PolyBackend &b, const Command &c, size_t i)
{
    switch (c.op) {
    case Op::NttFwd:
        b.nttForwardBatch(&c.ntt[i], 1);
        break;
    case Op::NttInv:
        b.nttInverseBatch(&c.ntt[i], 1);
        break;
    case Op::Mul:
        b.pointwiseMulBatch(&c.elt[i], 1);
        break;
    case Op::Add:
        b.addBatch(&c.elt[i], 1);
        break;
    case Op::Sub:
        b.subBatch(&c.elt[i], 1);
        break;
    case Op::Neg:
        b.negBatch(&c.elt[i], 1);
        break;
    case Op::MulAdd:
        b.mulAddBatch(&c.mad[i], 1);
        break;
    case Op::NttMulAdd:
        b.nttForwardMulAddBatch(&c.nma[i], 1);
        break;
    case Op::NttInvAdd:
        b.nttInverseAddBatch(&c.nia[i], 1);
        break;
    case Op::ScalarMul:
        b.scalarMulBatch(&c.smul[i], 1);
        break;
    case Op::Auto:
        b.automorphismBatch(&c.aut[i], 1);
        break;
    case Op::BConv:
        b.baseConvert(c.plan, c.bconvIn.data(), c.bconvOut.data(),
                      c.bconvN);
        break;
    case Op::BConvP1: {
        BConvPass1Job j = {c.bconvV + i * c.bconvN,
                           c.bconvIn[i],
                           c.plan.qhatInv[i],
                           c.plan.qhatInvPrecon[i],
                           &c.plan.fromMods[i],
                           c.bconvN};
        b.baseConvertPass1Batch(&j, 1);
        break;
    }
    case Op::BConvP2: {
        size_t c0 = i * c.bconvTile;
        size_t len = c.bconvN - c0 < c.bconvTile ? c.bconvN - c0
                                                 : c.bconvTile;
        BConvPass2Job j = {c.bconvOut[0] + c0,
                           c.bconvV + c0,
                           c.bconvN,
                           c.plan.numFrom,
                           c.plan.qhatModP + c.bconvLimb,
                           c.plan.numTo,
                           &c.plan.toMods[c.bconvLimb],
                           len};
        b.baseConvertPass2Batch(&j, 1);
        break;
    }
    case Op::Task:
        c.fn(i);
        break;
    case Op::Fence:
        break;
    }
}

void
EagerStream::onRecord(Command &c)
{
    // The blocking path announced escape-hatch kernels via explicit
    // emitKernel() calls before run(); replay the recorded metadata so
    // observers see the same events in the same order. Named batch ops
    // emit through the engine's own decorator (if any), exactly as a
    // direct blocking call would.
    if (c.op == Op::Task && profilingActive()) {
        for (const KernelEvent &ev : c.events) {
            emitKernelPrestamped(ev); // scope stamped at record
        }
    }
    executeBlocking(owner_, c);
    // Nothing reads the command after execution; drop the payload so
    // a long recording does not accumulate every job vector/closure.
    c.clearPayload(/*keep_events=*/false);
}

} // namespace trinity
