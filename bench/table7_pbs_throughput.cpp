/**
 * @file
 * Table VII: TFHE PBS throughput (operations per second) under the
 * Table IV parameter sets. Trinity, its CU ablations, and Morphling
 * are modelled; the CPU rows are *measured live* by running this
 * repository's functional NTT-based PBS on the host — per call
 * (sequential Algorithm 2) and through the serving runtime's batched
 * lockstep pipeline at B in {1, 8, 32}. One fused batch is also
 * priced on the Trinity-TFHE machine model so the per-batch
 * amortization shows in accelerator terms.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "accel/configs.h"
#include "accel/reported.h"
#include "backend/registry.h"
#include "backend/sim_backend.h"
#include "backend/thread_pool_backend.h"
#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "runtime/batched_pbs.h"
#include "runtime/pbs_server.h"
#include "sim/machine.h"
#include "workload/tfhe_ops.h"

using namespace trinity;
using namespace trinity::bench;
using namespace trinity::workload;

namespace {

/** Iteration budgets; --smoke shrinks them so the CI artifact run is
 *  wall-clock-bounded while keeping every row measured, not skipped. */
struct Budget
{
    int minIters;
    double budgetMs;
    int maxIters;
};

/** Sequential per-call baseline: warm twice, then time until the
 *  figure is backed by enough iterations not to be startup noise. */
double
measureCpuPbsOps(TfheGateBootstrapper &gb, const Budget &bd)
{
    LweCiphertext out = gb.bootstrapSign(gb.encryptBit(true));
    out = gb.bootstrapSign(out);
    Timer t;
    int iters = 0;
    while (iters < bd.minIters ||
           (t.elapsedMs() < bd.budgetMs && iters < bd.maxIters)) {
        out = gb.bootstrapSign(out);
        ++iters;
    }
    return 1000.0 * iters / t.elapsedMs();
}

/** Sim pricing of one fused batch: amortized accelerator OPS plus
 *  the sequential-charge and stream-overlapped makespans. */
struct SimPricing
{
    double ops = 0;
    double seqCycles = 0;
    double overlappedCycles = 0;
};

/** One full-width lockstep execution of @p cts: the bench sweeps the
 *  lockstep width B explicitly, so bypass run()'s preferredBatch()
 *  chunking (a B=32 row must measure 32-wide lockstep, not four
 *  8-wide chunks). */
std::vector<LweCiphertext>
runFullWidth(const runtime::BatchedBootstrapper &bb,
             const std::vector<LweCiphertext> &cts)
{
    runtime::PbsBatch batch;
    for (const auto &ct : cts) {
        batch.add(ct, bb.signTestVector());
    }
    return bb.runChunked(batch, 0);
}

/** Batched throughput through the serving runtime at batch size B.
 *  If @p sim is non-null, additionally prices one fused batch on
 *  the Trinity-TFHE machine model (latency = max(compute, transfer)
 *  ledger cycles) and returns the amortized accelerator OPS. */
double
measureBatchedPbsOps(TfheGateBootstrapper &gb,
                     const runtime::BatchedBootstrapper &bb, size_t B,
                     const Budget &bd, SimPricing *sim)
{
    std::vector<LweCiphertext> cts;
    cts.reserve(B);
    for (size_t i = 0; i < B; ++i) {
        cts.push_back(gb.encryptBit(i % 2 == 0));
    }
    std::vector<LweCiphertext> out = runFullWidth(bb, cts); // warm
    Timer t;
    int batches = 0;
    while (batches < bd.minIters ||
           (t.elapsedMs() < bd.budgetMs && batches < bd.maxIters)) {
        out = runFullWidth(bb, out);
        ++batches;
    }
    double ops = 1000.0 * static_cast<double>(batches * B) /
                 t.elapsedMs();
    if (sim != nullptr) {
        // Re-run one fused batch under a real SimBackend: the
        // Ntt/Intt events only exist behind the ObservedBackend
        // decorator, so a bare observer would miss most of the work.
        auto &reg = BackendRegistry::instance();
        std::string prev = activeBackend().name();
        reg.use(std::make_unique<SimBackend>(reg.create("serial"),
                                             accel::trinityTfhe(4)));
        SimBackend &sb = *activeSimBackend();
        sb.ledger().reset();
        out = runFullWidth(bb, out);
        sim->ops = static_cast<double>(B) /
                   sb.seconds(sb.ledger().overlappedLatencyCycles());
        sim->seqCycles = sb.ledger().computeCycles();
        sim->overlappedCycles = sb.ledger().overlappedCycles();
        reg.select(prev);
    }
    return ops;
}

/** Fused-batch PBS throughput on a freshly built thread-pool engine,
 *  whose pipelined command-stream executor runs the recorded blind
 *  rotation. */
double
measureThreadsStream(TfheGateBootstrapper &gb, size_t B, const Budget &bd)
{
    auto &reg = BackendRegistry::instance();
    std::string prev = activeBackend().name();
    reg.use(std::make_unique<ThreadPoolBackend>());
    runtime::BatchedBootstrapper bb(gb);
    double ops = measureBatchedPbsOps(gb, bb, B, bd, nullptr);
    reg.select(prev);
    return ops;
}

/** Serving-latency tail: drive a live PbsServer with @p total
 *  concurrent submissions and report the request-latency and
 *  queue-wait histograms the server feeds (obs registry,
 *  "pbs_server.*") as p50/p99/p999 rows in milliseconds. Unlike the
 *  throughput rows above, these include queueing and batching delay —
 *  the number a serving deployment actually promises. */
void
measureServerLatency(TfheGateBootstrapper &gb, const std::string &set,
                     size_t total)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    obs::Histogram &lat = reg.histogram("pbs_server.request_latency_ns");
    obs::Histogram &qw = reg.histogram("pbs_server.queue_wait_ns");
    lat.reset();
    qw.reset();
    {
        runtime::PbsServer server(gb);
        std::vector<std::future<LweCiphertext>> futures;
        futures.reserve(total);
        for (size_t i = 0; i < total; ++i) {
            futures.push_back(server.submit(gb.encryptBit(i % 2 == 0)));
        }
        for (auto &f : futures) {
            f.get();
        }
    }
    const double to_ms = 1e-6;
    std::string metric = set + " request latency";
    row("PbsServer p50", metric,
        static_cast<double>(lat.percentile(0.50)) * to_ms, "ms",
        "measured");
    row("PbsServer p99", metric,
        static_cast<double>(lat.percentile(0.99)) * to_ms, "ms",
        "measured");
    row("PbsServer p999", metric,
        static_cast<double>(lat.percentile(0.999)) * to_ms, "ms",
        "measured");
    row("PbsServer queue-wait p99", set + " queue wait",
        static_cast<double>(qw.percentile(0.99)) * to_ms, "ms",
        "measured");
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    // Smoke mode (the CI perf artifact): Set-I only, smaller batches,
    // tight iteration budgets — every row still measured live.
    const Budget seq_budget = args.smoke ? Budget{2, 150.0, 8}
                                         : Budget{8, 1000.0, 64};
    const Budget batch_budget = args.smoke ? Budget{1, 200.0, 4}
                                           : Budget{2, 800.0, 16};
    const size_t max_b = args.smoke ? 8 : 32;
    std::vector<size_t> batch_sizes = {1, 8};
    if (max_b > 8) {
        batch_sizes.push_back(max_b);
    }

    header("Table VII: Throughput for TFHE PBS (OPS)");
    for (const auto &r : accel::table7Reported()) {
        row(r.scheme, r.metric, r.value, r.unit, "reported");
    }
    std::vector<TfheParams> sets = {TfheParams::setI()};
    if (!args.smoke) {
        sets.push_back(TfheParams::setII());
        sets.push_back(TfheParams::setIII());
    }
    for (const auto &p : sets) {
        TfheGateBootstrapper gb(p, 90210);
        runtime::BatchedBootstrapper bb(gb);
        double baseline = measureCpuPbsOps(gb, seq_budget);
        row("Baseline-CPU (this host)", p.name, baseline, "OPS",
            "measured");
        double best_ops = 0;
        for (size_t B : batch_sizes) {
            SimPricing sim;
            double ops = measureBatchedPbsOps(
                gb, bb, B, batch_budget, B == max_b ? &sim : nullptr);
            row("Batched-CPU B=" + std::to_string(B), p.name, ops, "OPS",
                "measured");
            if (B == max_b) {
                best_ops = ops;
                row("Trinity-TFHE batched B=" + std::to_string(B),
                    p.name, sim.ops, "OPS", "sim-priced");
                // Sync-vs-stream makespans of the fused batch on the
                // machine model: sequential charging vs the live
                // list-scheduled stream, with the static scheduler's
                // idealized makespan alongside.
                std::string metric = p.name + " B=" +
                                     std::to_string(B) + " makespan";
                row("PBS-batch sync charge", metric, sim.seqCycles,
                    "cyc", "sim-priced");
                row("PBS-batch stream overlap", metric,
                    sim.overlappedCycles, "cyc", "sim-priced");
                row("PBS-batch static schedule", metric,
                    sim::schedule(pbsBatchGraph(p, B),
                                  accel::trinityTfhe(4))
                        .makespanCycles,
                    "cyc", "modelled");
            }
        }
        char speedup[128];
        std::snprintf(speedup, sizeof speedup,
                      "%s: batched B=%zu speedup over per-call baseline "
                      "= %.2fx",
                      p.name.c_str(), max_b, best_ops / baseline);
        note(speedup);
        row("Threads stream B=" + std::to_string(max_b), p.name,
            measureThreadsStream(gb, max_b, batch_budget), "OPS",
            "measured");
        // Tail latency through the serving front end (queueing +
        // batching + execution), from the runtime's histograms.
        measureServerLatency(gb, p.name, args.smoke ? 32 : 256);
    }
    for (const auto &p : sets) {
        row("Morphling (this model)", p.name,
            pbsThroughputOps(accel::morphling(), p), "OPS",
            "simulated");
        row("Morphling_1GHz (model)", p.name,
            pbsThroughputOps(accel::morphling1GHz(), p), "OPS",
            "simulated");
        row("Trinity-TFHE w/o CU", p.name,
            pbsThroughputOps(accel::trinityTfheWithoutCu(), p), "OPS",
            "simulated");
        row("Trinity-TFHE w/ CU", p.name,
            pbsThroughputOps(accel::trinityTfheWithCu(), p), "OPS",
            "simulated");
        row("Trinity (this model)", p.name,
            pbsThroughputOps(accel::trinityTfhe(4), p), "OPS",
            "simulated");
    }
    for (const auto &r : accel::trinityPaperResults()) {
        if (r.metric.rfind("PBS", 0) == 0) {
            row(r.scheme + " (paper)", r.metric, r.value, r.unit,
                "reported");
        }
    }
    note(std::string("host CPU rows run this repo's NTT-based PBS on "
                     "the active engine (TRINITY_BACKEND=") +
         activeBackend().name() +
         "); batched rows run the serving runtime's lockstep pipeline "
         "(src/runtime/), which shares each bootstrap-key GGSW across "
         "the whole batch");
    writeJsonReport(args, "table7_pbs_throughput");
    return 0;
}
