/**
 * @file
 * The metric names the benchmark prints, in BENCHMARK.json's order.
 * main.cpp fails a run whose printed set differs from these lists, and
 * the tests check them against BENCHMARK.json.
 */

#ifndef PERFBENCH_METRIC_NAMES_H
#define PERFBENCH_METRIC_NAMES_H

#include <string>
#include <vector>

namespace perfbench {

inline const std::vector<std::string> &
endToEndMetricNames()
{
    static const std::vector<std::string> names = {
        "throughput", "latency_p50_ms", "latency_p90_ms", "setup_s",
        "peak_rss_mb"};
    return names;
}

inline const std::vector<std::string> &
perLayerMetricNames()
{
    static const std::vector<std::string> names = {
        "tfhe.blind_rotate_ms",
        "tfhe.sample_extract_ms",
        "tfhe.keyswitch_ms",
        "keystore.hit_rate",
        "keystore.misses",
        "keystore.evictions",
        "keystore.materialize_ms",
        "runtime.batch_size_mean",
        "runtime.queue_wait_p50_ms",
        "pir.expand_ms",
        "pir.query_gsw_ms",
        "pir.fold_ms",
        "pir.cmux_tree_ms",
        "pir.modswitch_ms",
        "pir.fold_gbps",
        "pir_dbstore.materialize_ms",
        "ckks.hmult_ms",
        "ckks.rescale_ms",
        "ckks.rotate_ms",
        "ckks.keyswitch_ms",
        "backend.ntt_fwd_us",
        "backend.ntt_inv_us",
        "backend.mul_add_us",
        "backend.automorphism_us",
        "backend.bconv_us",
        "backend.ntt_mmul_per_s",
        "sim.op_cycles",
        "trace.unattributed_frac",
        "trace.overhead_frac",
    };
    return names;
}

} // namespace perfbench

#endif // PERFBENCH_METRIC_NAMES_H
