/**
 * @file
 * Batched-kernel throughput per execution engine — the baseline for
 * the perf trajectory of every backend (serial, SIMD at each dispatch
 * level, thread pool, and future GPU). Measures the two kernels
 * Trinity spends its area on: the batched NTT and the BConv matrix
 * product. The simd rows quantify lane-level speedup on one thread;
 * the threads rows compose workers across limbs with SIMD inside
 * each limb job. The ntt.tfhe rows run the same fwd+inv round trip at
 * the Set-I blind-rotation shape (N=1024 over the TFHE prime just
 * below 2^32), the shape the kernels' narrow-modulus path serves.
 * Every timing is the median of five repetitions after one warmup.
 *
 * Usage: bench_micro_backend [--smoke] [--json=PATH] [N [limbs [reps]]]
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "backend/registry.h"
#include "backend/serial_backend.h"
#include "backend/simd_backend.h"
#include "backend/thread_pool_backend.h"
#include "bench/bench_util.h"
#include "common/primes.h"
#include "common/rng.h"
#include "poly/ntt.h"
#include "poly/rns.h"
#include "tfhe/params.h"

using namespace trinity;

namespace {

struct Workload
{
    size_t n;
    size_t limbs;
    size_t reps;
    std::vector<u64> qs;
    std::vector<u64> ps;
    RnsPoly poly;
    std::unique_ptr<BaseConverter> bconv;
};

double
timeNtt(Workload &w)
{
    // In-place fwd+inv round trip: iNTT(NTT(x)) == x bit-exactly, so
    // no copy pollutes the timed region with engine-independent cost.
    bench::Timer t;
    for (size_t r = 0; r < w.reps; ++r) {
        w.poly.toEval();
        w.poly.toCoeff();
    }
    return t.elapsedMs();
}

double
timeBconv(Workload &w)
{
    bench::Timer t;
    for (size_t r = 0; r < w.reps; ++r) {
        RnsPoly y = w.bconv->convert(w.poly);
        (void)y;
    }
    return t.elapsedMs();
}

/** Set-I-shaped NTT batch: one blind-rotation step's worth of
 *  decomposed limbs (B=16 requests x 4 rows) at N=1024, q = Set-I. */
struct TfheNttWorkload
{
    static constexpr size_t kPolys = 64;
    size_t reps;
    NttTable table;
    std::vector<std::vector<u64>> polys;
    std::vector<NttJob> jobs;

    TfheNttWorkload(const TfheParams &p, size_t reps_, Rng &rng)
        : reps(reps_), table(p.bigN, Modulus(p.q))
    {
        for (size_t i = 0; i < kPolys; ++i) {
            polys.push_back(rng.uniformVec(p.bigN, p.q));
        }
        for (auto &poly : polys) {
            jobs.push_back({poly.data(), &table});
        }
    }
};

double
timeTfheNtt(TfheNttWorkload &w)
{
    PolyBackend &be = activeBackend();
    bench::Timer t;
    for (size_t r = 0; r < w.reps; ++r) {
        be.nttForwardBatch(w.jobs.data(), w.jobs.size());
        be.nttInverseBatch(w.jobs.data(), w.jobs.size());
    }
    return t.elapsedMs();
}

/** Repetitions behind every timed row. One descheduling moves a
 *  single-shot --smoke timing by tens of percent, enough to trip the
 *  CI gate on code nobody touched; the median of five does not. */
constexpr size_t kRepeats = 5;

/** Median of kRepeats timings of @p time after one untimed warmup on
 *  the engine just installed (first-touch pages, pool wakeup). */
template <class W>
double
medianMs(double (*time)(W &), W &w)
{
    time(w);
    std::array<double, kRepeats> ms;
    for (double &m : ms) {
        m = time(w);
    }
    std::sort(ms.begin(), ms.end());
    return ms[kRepeats / 2];
}

size_t
positionalOr(const bench::BenchArgs &args, size_t idx, size_t fallback)
{
    return idx < args.positional.size()
               ? std::strtoul(args.positional[idx].c_str(), nullptr, 10)
               : fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    size_t n = positionalOr(args, 0, 4096);
    size_t limbs = positionalOr(args, 1, args.smoke ? 8 : 16);
    size_t reps = positionalOr(args, 2, args.smoke ? 3 : 20);

    Workload w;
    w.n = n;
    w.limbs = limbs;
    w.reps = reps;
    w.qs = findNttPrimes(30, 2 * n, limbs);
    w.ps = findNttPrimes(29, 2 * n, limbs + 1);
    Rng rng(1234);
    w.poly = RnsPoly::uniform(n, w.qs, rng);
    w.bconv = std::make_unique<BaseConverter>(w.qs, w.ps);
    // One 1024-point transform is far cheaper than a limb of the
    // N=4096 batch above; 30x the reps keeps the TFHE row's vector
    // timings (tens of ms in --smoke) long enough to gate on.
    TfheNttWorkload tw(TfheParams::setI(), 30 * reps, rng);

    bench::header("micro_backend: batched NTT + BConv throughput");
    bench::note("N=" + std::to_string(n) +
                ", limbs=" + std::to_string(limbs) +
                ", reps=" + std::to_string(reps) + ", hw threads=" +
                std::to_string(std::thread::hardware_concurrency()));
    bench::note("simd dispatch: available levels = " +
                simd::availableLevels() + ", auto = " +
                simd::levelName(simd::bestAvailableLevel()));

    struct Config
    {
        std::string label;
        std::function<std::unique_ptr<PolyBackend>()> make;
    };
    std::vector<Config> configs;
    configs.push_back({"serial", [] {
                           return std::unique_ptr<PolyBackend>(
                               new SerialBackend());
                       }});
    // One single-threaded row per runnable SIMD level: the lane-width
    // ablation the acceptance gate reads (simd >= 2x serial on NTT).
    for (simd::Level level :
         {simd::Level::Scalar, simd::Level::Avx2, simd::Level::Avx512}) {
        if (!simd::levelAvailable(level)) {
            continue;
        }
        configs.push_back(
            {std::string("simd-") + simd::levelName(level), [level] {
                 return std::unique_ptr<PolyBackend>(
                     new SimdBackend(level));
             }});
    }
    // Thread-pool rows compose workers x lanes (auto-dispatched level).
    for (size_t threads : {size_t(1), size_t(2), size_t(4), size_t(8)}) {
        configs.push_back(
            {"threads-" + std::to_string(threads), [threads] {
                 return std::unique_ptr<PolyBackend>(
                     new ThreadPoolBackend(threads));
             }});
    }

    double serial_ntt = 0;
    double serial_bconv = 0;
    double serial_tfhe = 0;
    for (const Config &cfg : configs) {
        BackendRegistry::instance().use(cfg.make());
        double ntt_ms = medianMs(timeNtt, w);
        double bconv_ms = medianMs(timeBconv, w);
        double tfhe_ms = medianMs(timeTfheNtt, tw);
        if (cfg.label == "serial") {
            serial_ntt = ntt_ms;
            serial_bconv = bconv_ms;
            serial_tfhe = tfhe_ms;
        }
        // 2 transforms (fwd+inv) per limb per rep.
        double ntts = 2.0 * static_cast<double>(limbs) * reps;
        bench::row(cfg.label, "ntt.batch", ntts / (ntt_ms / 1000.0),
                   "ntt/s", "measured");
        bench::row(cfg.label, "ntt.speedup",
                   ntt_ms > 0 ? serial_ntt / ntt_ms : 0, "x",
                   "measured");
        bench::row(cfg.label, "bconv.batch",
                   static_cast<double>(reps) / (bconv_ms / 1000.0),
                   "conv/s", "measured");
        // The serial row is SerialBackend::baseConvert, the reference
        // recurrence: it reduces every term before the u128 accumulate
        // and allocates a fresh scratch vector per call. simd-scalar
        // runs PolyBackend::baseConvert on the scalar KernelSet's lazy
        // 16-term folds over an arena slab, so it reads above 1x here
        // without any lane-level speedup.
        bench::row(cfg.label, "bconv.speedup",
                   bconv_ms > 0 ? serial_bconv / bconv_ms : 0, "x",
                   "measured");
        double tfhe_ntts = 2.0 * TfheNttWorkload::kPolys * tw.reps;
        bench::row(cfg.label, "ntt.tfhe.batch",
                   tfhe_ntts / (tfhe_ms / 1000.0), "ntt/s", "measured");
        bench::row(cfg.label, "ntt.tfhe.speedup",
                   tfhe_ms > 0 ? serial_tfhe / tfhe_ms : 0, "x",
                   "measured");
    }
    BackendRegistry::instance().select("serial");
    // Non-default ring sizes report under their own key so a CI run
    // can merge several invocations (jq -s add clobbers duplicates).
    bench::writeJsonReport(args, n == 4096
                                     ? "micro_backend"
                                     : "micro_backend_n" +
                                           std::to_string(n));
    return 0;
}
