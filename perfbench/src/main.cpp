/**
 * @file
 * perfbench: the repository's benchmark. One workload per invocation,
 * on the `threads` engine at its default width.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--commit <id>] [--trace-dir <dir>]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 prints the
 * per-layer metrics from a separately traced run (see README.md).
 * The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Every answer is verified; any mismatch, failure or watchdog stop
 * makes the exit code nonzero.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "backend/registry.h"
#include "backend/simd_kernels.h"
#include "metric_names.h"
#include "spans.h"
#include "stats.h"
#include "watchdog.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

/** Set-up rounds per untraced run; setup_s is their median. */
constexpr int kSetupRounds = 3;
/** Direct-phase units of the traced workload, and of each layer's
 *  home workload when the traced workload does not call that layer. */
constexpr int kDirectUnits = 3;
constexpr int kHomeUnits = 2;
/** Served window of a home workload; its KeyStore counters stand in
 *  for workloads that serve without one. */
constexpr double kHomeServeSeconds = 2;
/** Watchdog bounds: no completion for this long, or a run this long. */
constexpr double kStallSeconds = 60;
constexpr double kTotalSeconds = 170;

const uint64_t g_startNs = nowNs();
std::mutex g_outMtx;     ///< one writer of the result line
bool g_resultOut = false; ///< guarded by g_outMtx

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string commit = "unknown";
    std::string traceDir = ".bench_build/traces";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--commit <id>] "
                 "[--trace-dir <dir>]\nworkloads:",
                 why.c_str());
    for (const std::string &w : workloadNames()) {
        std::fprintf(stderr, " %s", w.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + key);
        }
        std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end != '\0') {
                usage("bad --seed " + val);
            }
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(a.seconds > 0) ||
                a.seconds > 120) {
                usage("bad --seconds " + val);
            }
        } else if (key == "--trace") {
            if (val != "0" && val != "1") {
                usage("bad --trace " + val);
            }
            a.trace = val == "1";
        } else if (key == "--commit") {
            a.commit = val;
        } else if (key == "--trace-dir") {
            a.traceDir = val;
        } else {
            usage("unknown argument " + key);
        }
    }
    if (a.workload.empty() || a.seconds == 0 || a.trace < 0) {
        usage("--workload, --seconds and --trace are required");
    }
    return a;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2],
                    &regs[3]) &&
        regs[0] >= 0x80000004u) {
        char brand[49] = {};
        for (unsigned leaf = 0; leaf < 3; ++leaf) {
            __get_cpuid(0x80000002u + leaf, &regs[0], &regs[1], &regs[2],
                        &regs[3]);
            std::memcpy(brand + 16 * leaf, regs, 16);
        }
        std::string s(brand);
        size_t b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

int
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) {
        return 0;
    }
    return CPU_COUNT(&set);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            o += '\\';
        }
        if (static_cast<unsigned char>(c) >= 0x20) {
            o += c;
        }
    }
    return o;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** The result line; the only thing on stdout after the human lines. */
void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char val[64];
        std::snprintf(val, sizeof val, "%.17g", metrics[i].value);
        line += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + val + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

/** Layer groups each workload calls itself, and the workload whose
 *  direct phase measures the group for workloads that do not. */
const std::map<std::string, std::set<std::string>> kCalls = {
    {"pbs-serve", {"tfhe"}},
    {"pbs-tenants", {"tfhe", "keystore"}},
    {"pir-serve", {"pir"}},
    {"ckks-chain", {"ckks"}},
};
const std::map<std::string, std::string> kHome = {
    {"tfhe", "pbs-serve"},
    {"keystore", "pbs-tenants"},
    {"pir", "pir-serve"},
    {"ckks", "ckks-chain"},
};

double
throughputOf(const LoadResult &r)
{
    return static_cast<double>(r.correctInWindow) / r.windowS;
}

std::vector<Metric>
endToEnd(const Args &a, Outcomes &out, std::string &extra)
{
    std::vector<double> setupS;
    std::unique_ptr<Workload> w;
    SpanRecorder off;
    for (int r = 0; r < kSetupRounds; ++r) {
        w.reset();
        uint64_t t0 = r == 0 ? g_startNs : nowNs();
        w = makeWorkload(a.workload);
        w->setup(a.seed, off);
        setupS.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    LoadResult load = w->serve(a.seconds, off, out);
    w->stopServing();
    extra = w->summary();
    if (load.latencyMs.empty()) {
        throw std::runtime_error("no request completed in the window");
    }
    extra += (extra.empty() ? "" : "\n") +
             std::string("latency samples = ") +
             std::to_string(load.latencyMs.size());
    return {
        {"throughput", throughputOf(load), "1/s"},
        {"latency_p50_ms", percentile(load.latencyMs, 0.50), "ms"},
        {"latency_p90_ms", percentile(load.latencyMs, 0.90), "ms"},
        {"setup_s", median(setupS), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

std::vector<Metric>
perLayer(const Args &a, Outcomes &out, std::string &extra)
{
    SpanRecorder rec;
    rec.enable(true);
    std::unique_ptr<Workload> w = makeWorkload(a.workload);
    w->setup(a.seed, rec);

    // Alternating untraced and traced quarters of the window: their
    // throughput ratio is the tracing overhead, with slow drift in the
    // host's speed cancelled.
    std::vector<LoadResult> windows;
    for (int i = 0; i < 4; ++i) {
        rec.enable(i % 2 == 1);
        windows.push_back(w->serve(a.seconds / 4, rec, out));
    }
    rec.enable(true);
    w->stopServing();
    auto throughputTraced = [&](bool traced) {
        double ops = 0;
        double secs = 0;
        for (size_t i = 0; i < windows.size(); ++i) {
            if ((i % 2 == 1) == traced) {
                ops += static_cast<double>(windows[i].correctInWindow);
                secs += windows[i].windowS;
            }
        }
        return ops / secs;
    };
    double batchMean = 0;
    double queueWaitMs = 0;
    for (const LoadResult &r : windows) {
        batchMean += r.batchMean / static_cast<double>(windows.size());
        queueWaitMs +=
            r.queueWaitP50Ms / static_cast<double>(windows.size());
    }
    size_t batch = std::max<size_t>(
        1, static_cast<size_t>(std::lround(batchMean)));
    for (int i = 0; i < kDirectUnits; ++i) {
        w->directUnit(rec, out, batch);
    }
    BackendShape shape = w->backendShape();
    probeBackend(shape, rec);
    double simCycles = w->simCycles(out);
    double pirBytes = w->residentBytes();
    std::string unitSpan = w->unitSpan();
    extra = w->summary();
    w.reset();

    // Layers this workload never calls are measured by their home
    // workload (a short served window plus its direct units), so every
    // run reports every layer.
    std::map<std::string, SpanRecorder> home;
    std::map<std::string, LoadResult> homeLoad;
    for (const auto &[group, owner] : kHome) {
        if (kCalls.at(a.workload).count(group) || home.count(owner)) {
            continue;
        }
        SpanRecorder &hr = home[owner];
        hr.enable(true);
        std::unique_ptr<Workload> hw = makeWorkload(owner);
        hw->setup(a.seed, hr);
        homeLoad[owner] = hw->serve(kHomeServeSeconds, hr, out);
        hw->stopServing();
        for (int i = 0; i < kHomeUnits; ++i) {
            hw->directUnit(hr, out, hw->nominalBatch());
        }
        pirBytes = std::max(pirBytes, hw->residentBytes());
    }

    auto layer = [&](const std::string &span,
                     const std::string &group) -> double {
        std::vector<double> d = rec.durationsMs(span);
        auto it = home.find(kHome.at(group));
        if (d.empty() && it != home.end()) {
            d = it->second.durationsMs(span);
        }
        return d.empty() ? 0.0 : median(d);
    };
    // KeyStore counters: this workload's window, or the home's.
    std::vector<const LoadResult *> keyWindows;
    for (const LoadResult &r : windows) {
        keyWindows.push_back(&r);
    }
    if (!kCalls.at(a.workload).count("keystore")) {
        keyWindows = {&homeLoad.at(kHome.at("keystore"))};
    }
    auto counter = [&](const std::string &name) {
        double sum = 0;
        for (const LoadResult *r : keyWindows) {
            auto it = r->counters.find(name);
            sum += it == r->counters.end() ? 0.0 : it->second;
        }
        return sum;
    };
    auto usOf = [&](const char *span) {
        return median(rec.durationsMs(span)) * 1e3;
    };

    double hits = counter("keystore.hits");
    double misses = counter("keystore.misses");
    double foldMs = layer("pir.fold", "pir");
    double nttUs = usOf("backend.ntt_fwd");
    // (N/2) log2 N modular multiplications per transform.
    double mmuls = static_cast<double>(shape.moduli.size()) *
                   static_cast<double>(shape.n / 2) *
                   std::log2(static_cast<double>(shape.n));

    std::vector<Metric> m = {
        {"tfhe.blind_rotate_ms", layer("tfhe.blind_rotate", "tfhe"), "ms"},
        {"tfhe.sample_extract_ms", layer("tfhe.sample_extract", "tfhe"),
         "ms"},
        {"tfhe.keyswitch_ms", layer("tfhe.keyswitch", "tfhe"), "ms"},
        {"keystore.hit_rate",
         hits + misses == 0 ? 0.0 : hits / (hits + misses), "ratio"},
        {"keystore.misses", misses, "count"},
        {"keystore.evictions", counter("keystore.evictions"), "count"},
        {"keystore.materialize_ms",
         layer("keystore.materialize", "keystore"), "ms"},
        {"runtime.batch_size_mean", batchMean, "requests"},
        {"runtime.queue_wait_p50_ms", queueWaitMs, "ms"},
        {"pir.expand_ms", layer("pir.expand", "pir"), "ms"},
        {"pir.query_gsw_ms", layer("pir.query_gsw", "pir"), "ms"},
        {"pir.fold_ms", foldMs, "ms"},
        {"pir.cmux_tree_ms", layer("pir.cmux_tree", "pir"), "ms"},
        {"pir.modswitch_ms", layer("pir.modswitch", "pir"), "ms"},
        {"pir.fold_gbps", foldMs > 0 ? pirBytes / (foldMs * 1e-3) / 1e9 : 0,
         "GB/s"},
        {"pir_dbstore.materialize_ms",
         layer("pir_dbstore.materialize", "pir"), "ms"},
        {"ckks.hmult_ms", layer("ckks.hmult", "ckks"), "ms"},
        {"ckks.rescale_ms", layer("ckks.rescale", "ckks"), "ms"},
        {"ckks.rotate_ms", layer("ckks.rotate", "ckks"), "ms"},
        {"ckks.keyswitch_ms", layer("ckks.keyswitch", "ckks"), "ms"},
        {"backend.ntt_fwd_us", nttUs, "us"},
        {"backend.ntt_inv_us", usOf("backend.ntt_inv"), "us"},
        {"backend.mul_add_us", usOf("backend.mul_add"), "us"},
        {"backend.automorphism_us", usOf("backend.automorphism"), "us"},
        {"backend.bconv_us", usOf("backend.bconv"), "us"},
        {"backend.ntt_mmul_per_s", mmuls / (nttUs * 1e-6), "1/s"},
        {"sim.op_cycles", simCycles, "cycles"},
        {"trace.unattributed_frac", rec.unattributedFrac(unitSpan),
         "ratio"},
        {"trace.overhead_frac",
         1.0 - throughputTraced(true) / throughputTraced(false), "ratio"},
    };

    std::error_code ec;
    std::filesystem::create_directories(a.traceDir, ec);
    std::string base = a.traceDir + "/" + a.workload + "-seed" +
                       std::to_string(a.seed);
    bool wrote = rec.writeJson(base + ".json");
    for (const auto &[owner, hr] : home) {
        wrote = hr.writeJson(base + "-home-" + owner + ".json") && wrote;
    }
    extra += (extra.empty() ? "" : "\n") + std::string("spans written to ") +
             base + "*.json" + (wrote ? "" : " (FAILED)");
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    const std::vector<std::string> &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
        usage("unknown workload " + a.workload);
    }
    trinity::BackendRegistry::instance().select("threads");
    trinity::PolyBackend &be = trinity::activeBackend();

    char host[512];
    std::snprintf(
        host, sizeof host,
        "host: {\"cpu\": \"%s\", \"simd\": \"%s\", \"nproc\": %d, "
        "\"engine\": \"%s\", \"pool_width\": %zu, \"build\": \"%s\", "
        "\"commit\": \"%s\", \"workload\": \"%s\", \"seed\": %" PRIu64
        ", \"trace\": %d}",
        jsonEscape(cpuModel()).c_str(),
        trinity::simd::levelName(trinity::simd::resolveLevel()),
        onlineCpus(), be.name(), be.threadCount(), PERFBENCH_BUILD_TYPE,
        jsonEscape(a.commit).c_str(), jsonEscape(a.workload).c_str(),
        a.seed, a.trace);
    std::printf("%s\n", host);
    std::fflush(stdout);

    Progress &prog = progress();
    prog.tick();
    Watchdog dog(prog.lastNs, static_cast<uint64_t>(kStallSeconds * 1e9),
                 static_cast<uint64_t>(kTotalSeconds * 1e9),
                 [&prog](const std::string &reason) {
                     std::lock_guard<std::mutex> lock(g_outMtx);
                     if (g_resultOut) {
                         return; // the run finished first
                     }
                     Outcomes o;
                     o.correct = prog.correct.load();
                     o.attempted =
                         std::max(prog.submitted.load(), o.correct + 1);
                     // Wrong answers are not told apart here; every
                     // attempt without a correct answer counts.
                     o.timedOut = o.attempted - o.correct;
                     std::printf("watchdog: %s\nerror_rate = %.6g "
                                 "(%" PRIu64 " of %" PRIu64
                                 " attempted unanswered or wrong)\n",
                                 reason.c_str(), o.errorRate(), o.timedOut,
                                 o.attempted);
                     printResult(false, o.attempted, o.errors(), {});
                     std::_Exit(3);
                 });

    Outcomes out;
    std::vector<Metric> metrics;
    std::string extra;
    std::string error;
    try {
        metrics = a.trace ? perLayer(a, out, extra)
                          : endToEnd(a, out, extra);
    } catch (const std::exception &e) {
        error = e.what();
    }

    std::vector<std::string> printed;
    for (const Metric &m : metrics) {
        printed.push_back(m.name);
    }
    if (error.empty() &&
        printed != (a.trace ? perLayerMetricNames() : endToEndMetricNames())) {
        error = "printed metrics differ from the BENCHMARK.json list";
    }

    std::lock_guard<std::mutex> lock(g_outMtx);
    bool correct = error.empty() && out.attempted > 0 &&
                   out.errors() == 0 && out.balanced();
    for (const Metric &m : metrics) {
        if (!validMetricName(m.name)) {
            error = "invalid metric name " + m.name;
            correct = false;
        }
        std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("error_rate = %.6g (wrong %" PRIu64 ", failed %" PRIu64
                ", rejected %" PRIu64 ", shed %" PRIu64
                ", timed-out %" PRIu64 " of %" PRIu64 " attempted)\n",
                out.errorRate(), out.wrong, out.failed, out.rejected,
                out.shed, out.timedOut, out.attempted);
    if (!extra.empty()) {
        std::printf("%s\n", extra.c_str());
    }
    if (!error.empty()) {
        std::printf("error: %s\n", error.c_str());
    }
    printResult(correct, std::max<uint64_t>(out.attempted, 1),
                correct ? 0 : std::max<uint64_t>(out.errors(), 1), metrics);
    g_resultOut = true;
    return correct ? 0 : 1;
}
