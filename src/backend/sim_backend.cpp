#include "backend/sim_backend.h"

#include <algorithm>
#include <map>

#include "backend/command_stream.h"
#include "backend/registry.h"
#include "obs/trace.h"

namespace trinity {

using sim::KernelType;

namespace {

/** Compute-side pricing of one kernel event. */
struct PricedKernel
{
    double cycles = 0;  ///< busy + pipeline fill (0 if unroutable)
    double latency = 0; ///< the fill portion of cycles
    const std::string *pool = nullptr;
};

/**
 * Book one kernel event's cells into @p ledger — the compute charge
 * plus its HBM/NoC transfer companions — and return the compute
 * pricing so callers can also schedule it (streams) or advance the
 * sequential span (eager charging). Shared by the observer and the
 * stream executor so both paths produce identical per-kernel cells.
 */
PricedKernel
priceKernel(const sim::Machine &machine, sim::TimingLedger &ledger,
            const KernelEvent &ev)
{
    PricedKernel out;
    // Compute charge: the batch's busy cycles on its unit pool (one
    // pipeline fill per batch, as schedule() charges per graph node).
    // A kernel class the machine cannot run is still counted so the
    // element totals stay complete, just at zero cycles.
    if (machine.canRun(ev.type)) {
        const sim::Route &route = machine.route(ev.type);
        out.cycles = machine.charge(ev.type, ev.elements, ev.polyLen);
        out.latency = machine.pool(route.pool).latency;
        out.pool = &route.pool;
        ledger.record(ev.scope, ev.type, ev.elements, out.cycles,
                      route.pool);
    } else {
        ledger.record(ev.scope, ev.type, ev.elements, 0, "");
    }
    if (ev.bytes == 0) {
        return out;
    }
    // Off-chip traffic of the batch's operands and results.
    if (machine.canRun(KernelType::HbmXfer)) {
        ledger.record(ev.scope, KernelType::HbmXfer, ev.bytes,
                      machine.charge(KernelType::HbmXfer, ev.bytes),
                      machine.route(KernelType::HbmXfer).pool);
    }
    // Automorphisms and base conversions reshuffle data across
    // clusters: book their volume as NoC layout-switch traffic too.
    if ((ev.type == KernelType::Auto || ev.type == KernelType::Bconv) &&
        machine.canRun(KernelType::NocXfer)) {
        ledger.record(ev.scope, KernelType::NocXfer, ev.bytes,
                      machine.charge(KernelType::NocXfer, ev.bytes),
                      machine.route(KernelType::NocXfer).pool);
    }
    return out;
}

/**
 * Overlap-priced stream executor. Functional execution is eager and
 * goes straight to the inner engine (bypassing the decorator, so
 * nothing is double-charged); submit() replays the recorded DAG
 * through the same event-driven list schedule sim::schedule() applies
 * to static graphs: commands serialize on their unit pool and on
 * their dependencies, and overlap freely otherwise. The resulting
 * makespan — at least the bottleneck pool's busy time, at most the
 * sequential charge — advances the ledger's overlapped estimate.
 */
class SimStream final : public CommandStream
{
  public:
    explicit SimStream(SimBackend &owner)
        : CommandStream(owner), sim_(owner)
    {
        recordEvents_ = true; // pricing needs the named-op events
    }

  protected:
    void
    onRecord(Command &c) override
    {
        executeBlocking(sim_.inner(), c);
        // Pricing at submit() only needs the events and deps; the job
        // descriptors and closures are done the moment they executed.
        c.clearPayload(/*keep_events=*/true);
    }

    void
    onSubmit() override
    {
        const sim::Machine &machine = sim_.machine();
        sim::TimingLedger &ledger = sim_.ledger();
        // Expand the command DAG into one SchedNode per priced event
        // (a fused task's events chain — its rotate feeds its
        // decompose — while distinct commands overlap freely) and run
        // the same earliest-start list schedule sim::schedule()
        // applies to static graphs. Unroutable events and event-less
        // commands become pool-less ordering nodes so dependency
        // chains stay intact.
        std::map<std::string, size_t> pool_ids;
        std::vector<sim::SchedNode> nodes;
        std::vector<const char *> labels; // kernel name per node
        std::vector<size_t> tail(cmds_.size()); // last node per cmd
        for (size_t i = 0; i < cmds_.size(); ++i) {
            const Command &c = cmds_[i];
            std::vector<size_t> deps;
            deps.reserve(c.deps.size());
            for (u32 d : c.deps) {
                deps.push_back(tail[d]);
            }
            size_t first = nodes.size();
            for (const KernelEvent &ev : c.events) {
                PricedKernel p = priceKernel(machine, ledger, ev);
                sim::SchedNode node;
                if (p.pool != nullptr) {
                    auto [it, inserted] =
                        pool_ids.emplace(*p.pool, pool_ids.size());
                    node.pool = it->second;
                    node.busy = p.cycles - p.latency;
                    node.latency = p.latency;
                }
                node.deps = nodes.size() == first
                                ? deps
                                : std::vector<size_t>{nodes.size() - 1};
                nodes.push_back(std::move(node));
                labels.push_back(sim::kernelTypeName(ev.type));
            }
            if (nodes.size() == first) { // fence or unpriced command
                sim::SchedNode node;
                node.deps = std::move(deps);
                nodes.push_back(std::move(node));
                labels.push_back("fence");
            }
            tail[i] = nodes.size() - 1;
        }
        if (!obs::traceActive()) {
            ledger.recordSpan(
                sim::scheduleNodes(nodes, pool_ids.size()));
            return;
        }
        // Virtual-time trace: render the list schedule's per-node
        // issue times under a sim-owned pid, one tid per unit pool,
        // offset by the ledger's running makespan so back-to-back
        // submits concatenate on one timeline.
        std::vector<double> starts;
        double makespan =
            sim::scheduleNodes(nodes, pool_ids.size(), &starts);
        double base_us =
            machine.seconds(ledger.overlappedCycles()) * 1e6;
        const char *track = obs::internTraceStr(
            "sim:" + machine.name + " (virtual)");
        std::vector<const char *> pool_names(pool_ids.size());
        for (const auto &[pname, pid] : pool_ids) {
            pool_names[pid] = obs::internTraceStr(pname);
        }
        for (size_t i = 0; i < nodes.size(); ++i) {
            const sim::SchedNode &node = nodes[i];
            if (node.pool == sim::SchedNode::kNoPool) {
                continue;
            }
            obs::traceVirtualSpan(
                labels[i], "sim", track, static_cast<u32>(node.pool),
                pool_names[node.pool],
                base_us + machine.seconds(starts[i]) * 1e6,
                machine.seconds(node.busy + node.latency) * 1e6);
        }
        ledger.recordSpan(makespan);
    }

  private:
    SimBackend &sim_;
};

} // namespace

MachineTimingObserver::MachineTimingObserver(sim::Machine machine)
    : machine_(std::move(machine))
{
}

void
MachineTimingObserver::onKernel(const KernelEvent &ev)
{
    PricedKernel p = priceKernel(machine_, ledger_, ev);
    // No overlap information exists for an eagerly charged batch: the
    // live-makespan estimate advances by its full compute charge.
    if (p.cycles > 0) {
        if (obs::traceActive() && p.pool != nullptr) {
            // Span before the advance, so it starts at the current
            // virtual makespan and ends where the estimate moves to.
            emitVirtualSpan(ev, *p.pool, p.cycles);
        }
        ledger_.recordSpan(p.cycles);
    }
}

void
MachineTimingObserver::emitVirtualSpan(const KernelEvent &ev,
                                       const std::string &pool,
                                       double cycles)
{
    const char *track;
    PoolRow row;
    {
        std::lock_guard<std::mutex> lock(trace_mtx_);
        if (trace_track_ == nullptr) {
            trace_track_ = obs::internTraceStr(
                "sim:" + machine_.name + " (virtual)");
        }
        track = trace_track_;
        auto [it, inserted] = trace_pools_.emplace(pool, PoolRow{});
        if (inserted) {
            it->second.tid =
                static_cast<u32>(trace_pools_.size() - 1);
            it->second.name = obs::internTraceStr(pool);
        }
        row = it->second;
    }
    double base_us = machine_.seconds(ledger_.overlappedCycles()) * 1e6;
    obs::traceVirtualSpan(sim::kernelTypeName(ev.type), "sim", track,
                          row.tid, row.name, base_us,
                          machine_.seconds(cycles) * 1e6);
}

SimBackend::SimBackend(std::unique_ptr<PolyBackend> inner,
                       sim::Machine machine)
    : ObservedBackend(std::move(inner)), observer_(std::move(machine))
{
    installObserver(&observer_);
}

SimBackend::~SimBackend()
{
    removeObserver(&observer_);
}

std::unique_ptr<CommandStream>
SimBackend::newStream()
{
    return std::make_unique<SimStream>(*this);
}

SimBackend *
activeSimBackend()
{
    return dynamic_cast<SimBackend *>(&activeBackend());
}

} // namespace trinity
