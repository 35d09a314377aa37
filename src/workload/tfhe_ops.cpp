#include "workload/tfhe_ops.h"

#include "common/bitops.h"

namespace trinity {
namespace workload {

using sim::KernelGraph;
using sim::KernelType;

KernelGraph
pbsBatchGraph(const TfheParams &p, size_t batch)
{
    KernelGraph g;
    u64 B = batch;
    u64 n = p.bigN;
    u64 rows = p.extRows();       // (k+1) * lb
    u64 comps = p.k + 1;

    // ModSwitch of every input ciphertext.
    size_t ms = g.addAfter(KernelType::ModSwitch, B * (p.nLwe + 1), n,
                           {}, "pbs.modswitch");
    // Each request carries its own dependency chain through the
    // n_lwe blind-rotation steps — the structure the live runtime
    // records as a command stream (one pipeline per request slot, see
    // TfheBootstrapper::blindRotateBatch). Only a request's own steps
    // chain; across requests the scheduler overlaps stages on
    // different pools, so the NTT of request A's step i+1 runs under
    // the MAC of request B's step i. pbsBatchGraph(p, 1) stays the
    // strict sequential chain of pbsGraph().
    std::vector<size_t> prev(B);
    for (size_t b = 0; b < B; ++b) {
        // Initial rotation of the test vector.
        prev[b] = g.addAfter(KernelType::Rotate, comps * n, n, {ms},
                             "pbs.rotate");
    }
    for (size_t i = 0; i < p.nLwe; ++i) {
        for (size_t b = 0; b < B; ++b) {
            size_t rot = g.addAfter(KernelType::Rotate, comps * n, n,
                                    {prev[b]}, "pbs.rotate");
            size_t dec = g.addAfter(KernelType::Decomp, comps * n, n,
                                    {rot}, "pbs.decomp");
            size_t ntt = g.addAfter(KernelType::Ntt, rows * n, n,
                                    {dec}, "pbs.ntt");
            // MAC work counts *input* elements: the systolic pass
            // broadcasts each decomposed element into the (k+1)
            // output accumulators in the same cycle.
            size_t mac = g.addAfter(KernelType::Ip, rows * n, n, {ntt},
                                    "pbs.mac");
            size_t intt = g.addAfter(KernelType::Intt, comps * n, n,
                                     {mac}, "pbs.intt");
            // CMux accumulate. Live execution also performs the
            // ACC1-ACC0 difference (another comps*n element adds);
            // the graph models the accumulate only, so ledgers see 2x
            // this ModAdd volume.
            prev[b] = g.addAfter(KernelType::ModAdd, comps * n, n,
                                 {intt}, "pbs.acc");
        }
    }
    // SampleExtract + TFHE KeySwitch (Algorithm 2 lines 14-17) fuse
    // the whole batch again after every chain completes.
    sim::Kernel ext;
    ext.type = KernelType::SampleExtract;
    ext.elements = B * p.k * n;
    ext.polyLen = n;
    ext.deps = prev;
    ext.tag = "pbs.extract";
    size_t ext_id = g.add(std::move(ext));
    g.addAfter(KernelType::LweKs,
               B * static_cast<u64>(p.k) * n * p.lk * (p.nLwe + 1) / 8,
               n, {ext_id}, "pbs.keyswitch");
    return g;
}

KernelGraph
pbsGraph(const TfheParams &p)
{
    return pbsBatchGraph(p, 1);
}

double
pbsBatchThroughputOps(const sim::Machine &m, const TfheParams &p,
                      size_t batch)
{
    KernelGraph g = pbsBatchGraph(p, batch);
    double makespan = sim::schedule(g, m).makespanCycles;
    return static_cast<double>(batch) * m.freqGhz * 1e9 / makespan;
}

double
pbsThroughputOps(const sim::Machine &m, const TfheParams &p)
{
    KernelGraph g = pbsGraph(p);
    double cycles = sim::bottleneckCycles(g, m);
    return m.freqGhz * 1e9 / cycles;
}

double
pbsLatencyCycles(const sim::Machine &m, const TfheParams &p)
{
    KernelGraph g = pbsGraph(p);
    return sim::schedule(g, m).makespanCycles;
}

MulBreakdown
pbsBreakdown(const TfheParams &p)
{
    KernelGraph g = pbsGraph(p);
    double logn = static_cast<double>(log2Exact(p.bigN));
    MulBreakdown b;
    double ntt_elems =
        static_cast<double>(g.totalElements(KernelType::Ntt) +
                            g.totalElements(KernelType::Intt));
    b.nttMuls = ntt_elems / 2.0 * logn;
    // True multiply count: each MAC input element feeds k+1
    // accumulating multiplies.
    b.macMuls =
        static_cast<double>(g.totalElements(KernelType::Ip)) * (p.k + 1) +
        static_cast<double>(g.totalElements(KernelType::LweKs));
    return b;
}

} // namespace workload
} // namespace trinity
