/**
 * @file
 * The four benchmark workloads. Each builds its inputs from the seed,
 * drives the library only through its public front doors, and
 * decrypt-verifies every answer. A workload also knows how to repeat
 * one unit of its work through the public layer functions (the
 * traced run's direct phase) and how to price that unit on the
 * simulated accelerator.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {

/** Counters the watchdog reads while the generator runs. */
struct Progress
{
    std::atomic<uint64_t> lastNs{0};    ///< last sign of life
    std::atomic<uint64_t> submitted{0}; ///< operations attempted
    std::atomic<uint64_t> correct{0};   ///< operations verified correct

    void tick() { lastNs.store(nowNs(), std::memory_order_relaxed); }
};

Progress &progress();

/** What one closed-loop window measured. */
struct LoadResult
{
    double windowS = 0;           ///< measured wall time
    uint64_t correctInWindow = 0; ///< verified answers inside it
    std::vector<double> latencyMs;
    double batchMean = 0;       ///< requests per executed batch
    double queueWaitP50Ms = 0;  ///< from the server's histogram
    std::map<std::string, double> counters; ///< layer counters
};

/** The ring shape a workload's kernels run at. */
struct BackendShape
{
    size_t n = 0;
    std::vector<uint64_t> moduli; ///< one per limb of a batch call
    std::vector<uint64_t> bconvFrom, bconvTo;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Generate keys and inputs from @p seed, materialize resident
     * state, start the server (if the workload has one) and warm it
     * up. Called once per object.
     */
    virtual void setup(uint64_t seed, SpanRecorder &rec) = 0;

    /** Closed-loop load for @p seconds; one root span per request
     *  when @p rec is enabled. */
    virtual LoadResult serve(double seconds, SpanRecorder &rec,
                             Outcomes &out) = 0;

    /** Stop the server; direct-phase calls must not share the engine
     *  with its worker thread. */
    virtual void stopServing() = 0;

    /** Name of the root span directUnit() records. */
    virtual const char *unitSpan() const = 0;

    /** One unit of work through the public layer functions, as the
     *  server worker makes them; @p batch is the PBS batch width. */
    virtual void directUnit(SpanRecorder &rec, Outcomes &out,
                            size_t batch) = 0;

    /** PBS width of one unit when no served window measured it: a
     *  full batch for pbs-serve, a tenant group for pbs-tenants. */
    virtual size_t nominalBatch() const { return 1; }

    /** Simulated cycles of one unit on the Trinity machine model, at
     *  nominalBatch() so the count repeats exactly. */
    virtual double simCycles(Outcomes &out) = 0;

    /** Kernel shape of this workload's batch calls at
     *  nominalBatch(). */
    virtual BackendShape backendShape() const = 0;

    /** Extra human-readable result line (may be empty). */
    virtual std::string summary() const { return ""; }

    /** Resident bytes the PIR fold streams (0 elsewhere). */
    virtual double residentBytes() const { return 0; }
};

std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Time the engine's batch entry points at @p shape; spans named
 *  backend.<kernel>. */
void probeBackend(const BackendShape &shape, SpanRecorder &rec);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
