/**
 * @file
 * Simulated-accelerator timing backend.
 *
 * SimBackend executes every batch *functionally* on an inner engine
 * (bit-identical to serial) while charging the batch's cycles to a
 * sim::Machine through the KernelType mapping of the batched entry
 * points, plus HBM/NoC transfer charges derived from batch byte
 * volumes. One code path therefore produces verified ciphertexts AND
 * paper-comparable cycle counts: run any workload under
 * TRINITY_BACKEND=sim and read the TimingLedger.
 *
 * Environment knobs (resolved when the registry builds the engine):
 *   TRINITY_SIM_INNER    functional engine to wrap ("serial" default,
 *                        "threads", or "simd")
 *   TRINITY_SIM_MACHINE  accel config, see accel::machineNames()
 *                        ("trinity-ckks" default — it routes every
 *                        kernel class, TFHE's included)
 */

#ifndef TRINITY_BACKEND_SIM_BACKEND_H
#define TRINITY_BACKEND_SIM_BACKEND_H

#include <map>
#include <mutex>

#include "backend/observed_backend.h"
#include "sim/machine.h"
#include "sim/timing_ledger.h"

namespace trinity {

/**
 * Observer that prices each kernel event on a Machine and books it
 * into a TimingLedger. Usable standalone around any engine (wrap it
 * in an ObservedBackend and installObserver); SimBackend bundles the
 * composition.
 */
class MachineTimingObserver final : public BackendObserver
{
  public:
    explicit MachineTimingObserver(sim::Machine machine);

    void onKernel(const KernelEvent &ev) override;

    sim::TimingLedger &ledger() { return ledger_; }
    const sim::TimingLedger &ledger() const { return ledger_; }
    const sim::Machine &machine() const { return machine_; }

  private:
    struct PoolRow
    {
        u32 tid = 0;
        const char *name = nullptr; ///< interned for the trace writer
    };

    /** Virtual-time trace row for one eagerly charged kernel. */
    void emitVirtualSpan(const KernelEvent &ev, const std::string &pool,
                         double cycles);

    sim::Machine machine_;
    sim::TimingLedger ledger_;

    std::mutex trace_mtx_; ///< guards the two members below
    const char *trace_track_ = nullptr;
    std::map<std::string, PoolRow> trace_pools_;
};

class SimBackend final : public ObservedBackend
{
  public:
    /** Wrap @p inner; charge cycles against @p machine. */
    SimBackend(std::unique_ptr<PolyBackend> inner, sim::Machine machine);
    ~SimBackend() override;

    const char *name() const override { return "sim"; }

    /**
     * Overlap-priced command stream: commands execute functionally on
     * the inner engine at record time (bit-identical to the blocking
     * path), and submit() charges the recorded DAG through
     * Machine::canRun/charge with a live list-schedule — kernels on
     * different pools overlap when their dependencies allow, exactly
     * as sim::schedule() treats a static graph. The stream's makespan
     * advances the ledger's overlapped estimate
     * (TimingLedger::overlappedCycles) while the per-kernel cells stay
     * identical to sequential charging. Note: stream-recorded kernels
     * are booked into this backend's ledger directly and are NOT
     * delivered to other globally installed BackendObservers (the
     * blocking path notifies every observer), so an extra observer
     * sees only the kernels issued through the blocking entry points.
     */
    std::unique_ptr<CommandStream> newStream() override;

    sim::TimingLedger &ledger() { return observer_.ledger(); }
    const sim::TimingLedger &ledger() const { return observer_.ledger(); }
    const sim::Machine &machine() const { return observer_.machine(); }

    /** Convert ledger cycles to seconds at the machine frequency. */
    double
    seconds(double cycles) const
    {
        return machine().seconds(cycles);
    }

  private:
    MachineTimingObserver observer_;
};

/** The active engine as a SimBackend, or nullptr if it is not one. */
SimBackend *activeSimBackend();

} // namespace trinity

#endif // TRINITY_BACKEND_SIM_BACKEND_H
