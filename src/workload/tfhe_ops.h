/**
 * @file
 * Kernel-graph generator for TFHE PBS (Algorithm 2) plus the derived
 * throughput / latency metrics and the Fig. 2 breakdown.
 */

#ifndef TRINITY_WORKLOAD_TFHE_OPS_H
#define TRINITY_WORKLOAD_TFHE_OPS_H

#include "sim/machine.h"
#include "tfhe/params.h"
#include "workload/ckks_ops.h"

namespace trinity {
namespace workload {

/**
 * Full PBS kernel DAG: ModSwitch, n_lwe blind-rotation iterations
 * (Rotate, Decompose, (k+1)lb NTTs, MAC, (k+1) iNTTs, accumulate),
 * SampleExtract, and the TFHE KeySwitch.
 */
sim::KernelGraph pbsGraph(const TfheParams &p);

/**
 * Pipelined batched PBS DAG: @p batch independent bootstraps, each
 * carrying its own dependency chain through the n_lwe blind-rotation
 * steps — the command stream the serving runtime (src/runtime/)
 * records (see TfheBootstrapper::blindRotateBatch). Only a request's
 * own steps chain, so the scheduler overlaps stages of different
 * requests across pools (the NTT of one request's step under the MAC
 * of another's); ModSwitch and SampleExtract/KeySwitch remain fused
 * batch-wide at the ends. pbsBatchGraph(p, 1) equals pbsGraph(p).
 */
sim::KernelGraph pbsBatchGraph(const TfheParams &p, size_t batch);

/**
 * Throughput of the pipelined batched stream in operations per
 * second: batch requests per scheduled end-to-end makespan of
 * pbsBatchGraph. Unlike the steady-state bound of pbsThroughputOps,
 * this includes pipeline fills and dependency stalls, so it rises
 * with batch toward that bound as cross-request overlap fills the
 * pools.
 */
double pbsBatchThroughputOps(const sim::Machine &m, const TfheParams &p,
                             size_t batch);

/**
 * Steady-state PBS throughput in operations per second, assuming the
 * paper's batched execution (Table VII): the bottleneck pool's busy
 * cycles per PBS set the rate.
 */
double pbsThroughputOps(const sim::Machine &m, const TfheParams &p);

/** Single-PBS latency in cycles (dependency-chained schedule). */
double pbsLatencyCycles(const sim::Machine &m, const TfheParams &p);

/** Fig. 2 right bars: NTT vs MAC multiply share of one PBS. */
MulBreakdown pbsBreakdown(const TfheParams &p);

} // namespace workload
} // namespace trinity

#endif // TRINITY_WORKLOAD_TFHE_OPS_H
