/**
 * @file
 * Simulated-accelerator timing backend tests.
 *
 * The "sim" engine must be a perfect functional citizen — bit-exact
 * with the serial reference on full scheme pipelines — while its
 * TimingLedger must be deterministic across runs and consistent with
 * the static workload/ kernel graphs: executing Algorithm 1 live
 * produces exactly the element volumes keySwitchGraph() predicts
 * (inner-product lanes count executed MACs, i.e. the graph's
 * broadcast-input convention times the two evk accumulators).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "accel/configs.h"
#include "backend/observed_backend.h"
#include "backend/registry.h"
#include "backend/serial_backend.h"
#include "backend/sim_backend.h"
#include "backend/thread_pool_backend.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"
#include "common/primes.h"
#include "tfhe/gates.h"
#include "workload/ckks_ops.h"
#include "workload/tfhe_ops.h"

namespace trinity {
namespace {

using sim::KernelType;

/** Run fn under a named engine, restoring "serial" afterwards. */
template <typename Fn>
void
withBackend(const std::string &name, Fn &&fn)
{
    BackendRegistry::instance().select(name);
    fn();
    BackendRegistry::instance().select("serial");
}

TEST(SimBackend, RegisteredAndSelectable)
{
    auto names = BackendRegistry::instance().names();
    EXPECT_NE(std::find(names.begin(), names.end(), "sim"),
              names.end());
    withBackend("sim", [] {
        EXPECT_STREQ(activeBackend().name(), "sim");
        ASSERT_NE(activeSimBackend(), nullptr);
        // The default machine routes every kernel class we emit.
        EXPECT_TRUE(activeSimBackend()->machine().canRun(
            KernelType::Ntt));
        EXPECT_TRUE(activeSimBackend()->machine().canRun(
            KernelType::Decomp));
    });
    EXPECT_EQ(activeSimBackend(), nullptr);
}

TEST(SimBackend, UnknownEngineErrorListsRegistered)
{
    EXPECT_EXIT(BackendRegistry::instance().select("warp-drive"),
                ::testing::ExitedWithCode(1),
                "registered engines: .*serial.*threads.*sim");
}

TEST(SimBackend, UnknownMachineErrorListsConfigs)
{
    EXPECT_EXIT(accel::machineByName("not-a-machine"),
                ::testing::ExitedWithCode(1),
                "known: .*trinity-ckks.*trinity-tfhe");
    EXPECT_FALSE(accel::machineNames().empty());
    for (const auto &name : accel::machineNames()) {
        EXPECT_FALSE(accel::machineByName(name).pools.empty()) << name;
    }
}

TEST(ThreadPoolEnv, RejectsNonNumericAndZeroThreadCounts)
{
    ::setenv("TRINITY_THREADS", "banana", 1);
    EXPECT_EXIT({ ThreadPoolBackend b; }, ::testing::ExitedWithCode(1),
                "invalid TRINITY_THREADS");
    ::setenv("TRINITY_THREADS", "0", 1);
    EXPECT_EXIT({ ThreadPoolBackend b; }, ::testing::ExitedWithCode(1),
                "invalid TRINITY_THREADS");
    ::setenv("TRINITY_THREADS", "12x", 1);
    EXPECT_EXIT({ ThreadPoolBackend b; }, ::testing::ExitedWithCode(1),
                "invalid TRINITY_THREADS");
    // strtoul would silently wrap a negative value into a huge one,
    // and skips leading whitespace before the sign.
    ::setenv("TRINITY_THREADS", "-2", 1);
    EXPECT_EXIT({ ThreadPoolBackend b; }, ::testing::ExitedWithCode(1),
                "invalid TRINITY_THREADS");
    ::setenv("TRINITY_THREADS", " -2", 1);
    EXPECT_EXIT({ ThreadPoolBackend b; }, ::testing::ExitedWithCode(1),
                "invalid TRINITY_THREADS");
    // A sane value still works, clamped to hardware concurrency.
    size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) {
        hw = 1;
    }
    ::setenv("TRINITY_THREADS", "2", 1);
    {
        ThreadPoolBackend b;
        EXPECT_EQ(b.threadCount(), std::min<size_t>(2, hw));
    }
    ::unsetenv("TRINITY_THREADS");
}

/** Full CKKS pipeline bit-identical between sim and serial. */
TEST(SimBackend, CkksPipelineBitIdenticalToSerial)
{
    auto run = [](const std::string &backend) {
        BackendRegistry::instance().select(backend);
        auto ctx =
            std::make_shared<CkksContext>(CkksParams::testSmall());
        CkksKeyGenerator keygen(ctx, 42);
        CkksEncoder encoder(ctx);
        CkksEncryptor enc(ctx, keygen.makePublicKey(), 43);
        CkksEvaluator eval(ctx);
        auto relin = keygen.makeRelinKey();

        std::vector<double> vals(ctx->params().slots(), 0.25);
        auto pt = encoder.encodeReal(vals, ctx->params().maxLevel, 0);
        auto ct = enc.encrypt(pt);
        auto prod = eval.multiply(ct, ct, relin);
        eval.rescaleInPlace(prod);
        std::vector<u64> out(prod.c0.flat().begin(),
                             prod.c0.flat().end());
        std::span<const u64> c1 = prod.c1.flat();
        out.insert(out.end(), c1.begin(), c1.end());
        return out;
    };
    auto serial = run("serial");
    auto sim = run("sim");
    BackendRegistry::instance().select("serial");
    EXPECT_EQ(serial, sim);
}

/** TFHE gate bootstrap bit-identical between sim and serial. */
TEST(SimBackend, TfheGateBitIdenticalToSerial)
{
    auto run = [](const std::string &backend) {
        BackendRegistry::instance().select(backend);
        TfheGateBootstrapper gb(TfheParams::testTiny(), 44);
        auto out = gb.gateNand(gb.encryptBit(true), gb.encryptBit(false));
        std::vector<u64> flat = out.a;
        flat.push_back(out.b);
        return flat;
    };
    auto serial = run("serial");
    auto sim = run("sim");
    BackendRegistry::instance().select("serial");
    EXPECT_EQ(serial, sim);
}

TEST(SimBackend, CycleTotalsDeterministicAcrossRuns)
{
    BackendRegistry::instance().select("sim");
    auto ctx = std::make_shared<CkksContext>(CkksParams::testSmall());
    CkksKeyGenerator keygen(ctx, 7);
    CkksEvaluator eval(ctx);
    auto relin = keygen.makeRelinKey();
    size_t level = ctx->params().maxLevel;
    Rng rng(99);
    RnsPoly d = RnsPoly::uniform(ctx->n(), ctx->qChain(), rng,
                                 Domain::Eval);

    SimBackend *sb = activeSimBackend();
    ASSERT_NE(sb, nullptr);

    struct Snapshot
    {
        double compute;
        double transfer;
        std::map<KernelType, sim::LedgerCell> kernels;
    };
    auto measure = [&] {
        sb->ledger().reset();
        RnsPoly copy = d;
        eval.keySwitch(copy, relin, level);
        return Snapshot{sb->ledger().computeCycles(),
                        sb->ledger().transferCycles(),
                        sb->ledger().byKernel()};
    };
    Snapshot first = measure();
    Snapshot second = measure();
    EXPECT_GT(first.compute, 0.0);
    EXPECT_EQ(first.compute, second.compute);
    EXPECT_EQ(first.transfer, second.transfer);
    ASSERT_EQ(first.kernels.size(), second.kernels.size());
    for (const auto &[type, cell] : first.kernels) {
        const auto &other = second.kernels.at(type);
        EXPECT_EQ(cell.elements, other.elements)
            << kernelTypeName(type);
        EXPECT_EQ(cell.cycles, other.cycles) << kernelTypeName(type);
        EXPECT_EQ(cell.calls, other.calls) << kernelTypeName(type);
    }
    BackendRegistry::instance().select("serial");
}

/**
 * Executing Algorithm 1 under the timing backend must reproduce the
 * element volumes of the static keySwitchGraph() kernel DAG exactly:
 * same NTT/iNTT/BConv/ModAdd/ModMul volumes, and twice the graph's
 * Ip volume (the graph counts broadcast input elements; the ledger
 * counts executed MAC lanes — one per evk accumulator component).
 */
TEST(SimBackend, LedgerMatchesKeySwitchGraph)
{
    BackendRegistry::instance().select("sim");
    auto params = CkksParams::testSmall();
    auto ctx = std::make_shared<CkksContext>(params);
    CkksKeyGenerator keygen(ctx, 21);
    CkksEvaluator eval(ctx);
    auto relin = keygen.makeRelinKey();
    size_t level = params.maxLevel;
    Rng rng(5);
    RnsPoly d = RnsPoly::uniform(ctx->n(), ctx->qChain(), rng,
                                 Domain::Eval);

    SimBackend *sb = activeSimBackend();
    ASSERT_NE(sb, nullptr);
    sb->ledger().reset();
    eval.keySwitch(d, relin, level);

    workload::CkksShape shape{params.n, level, params.maxLevel,
                              params.dnum};
    auto graph = workload::keySwitchGraph(shape);
    const auto &ledger = sb->ledger();
    for (auto type : {KernelType::Ntt, KernelType::Intt,
                      KernelType::Bconv, KernelType::ModAdd,
                      KernelType::ModMul}) {
        EXPECT_EQ(ledger.elements(type), graph.totalElements(type))
            << kernelTypeName(type);
    }
    EXPECT_EQ(ledger.elements(KernelType::Ip),
              2 * graph.totalElements(KernelType::Ip));
    // Every charge landed in the KeySwitch scope.
    auto scoped = ledger.byScope();
    ASSERT_EQ(scoped.count("KeySwitch"), 1u);
    EXPECT_EQ(scoped.size(), 1u);
    BackendRegistry::instance().select("serial");
}

/** Live PBS kernel volumes against the static pbsGraph(). */
TEST(SimBackend, LedgerMatchesPbsGraph)
{
    ::setenv("TRINITY_SIM_MACHINE", "trinity-tfhe", 1);
    BackendRegistry::instance().select("sim");
    ::unsetenv("TRINITY_SIM_MACHINE");
    auto params = TfheParams::testTiny();
    TfheGateBootstrapper gb(params, 44);

    SimBackend *sb = activeSimBackend();
    ASSERT_NE(sb, nullptr);
    EXPECT_EQ(sb->machine().name, "Trinity");
    sb->ledger().reset();
    auto out = gb.gateNand(gb.encryptBit(true), gb.encryptBit(false));
    EXPECT_TRUE(gb.decryptBit(out));

    auto graph = workload::pbsGraph(params);
    const auto &ledger = sb->ledger();
    // Exact-volume kernels. Blind rotation skips an iteration whose
    // switched mask digit is zero (probability 1/2N per iteration);
    // allow that data-dependent slack.
    double slack = 1.0 / (2.0 * params.bigN) * params.nLwe;
    for (auto type :
         {KernelType::Ntt, KernelType::Intt, KernelType::Rotate,
          KernelType::Decomp, KernelType::ModSwitch,
          KernelType::SampleExtract}) {
        double want = static_cast<double>(graph.totalElements(type));
        double got = static_cast<double>(ledger.elements(type));
        EXPECT_LE(got, want) << kernelTypeName(type);
        EXPECT_GE(got, want * (1.0 - slack) - 1.0)
            << kernelTypeName(type);
    }
    // MAC lanes: graph counts broadcast inputs, live executes one
    // lane per output component (k+1).
    double want_ip =
        static_cast<double>(graph.totalElements(KernelType::Ip)) *
        (params.k + 1);
    double got_ip = static_cast<double>(ledger.elements(KernelType::Ip));
    EXPECT_LE(got_ip, want_ip);
    EXPECT_GE(got_ip, want_ip * (1.0 - slack));
    BackendRegistry::instance().select("serial");
}

/** The decorator seam profiles any engine, not just sim. */
TEST(ObservedBackend, CountsEventsAroundThreadPool)
{
    struct Counter final : BackendObserver
    {
        u64 nttElems = 0;
        u64 mulElems = 0;
        u64 events = 0;
        void
        onKernel(const KernelEvent &ev) override
        {
            ++events;
            if (ev.type == KernelType::Ntt) {
                nttElems += ev.elements;
            }
            if (ev.type == KernelType::ModMul) {
                mulElems += ev.elements;
            }
        }
    };
    Counter counter;
    installObserver(&counter);
    BackendRegistry::instance().use(std::make_unique<ObservedBackend>(
        std::make_unique<ThreadPoolBackend>(2)));

    size_t n = 64;
    auto qs = findNttPrimes(30, 2 * n, 3);
    Rng rng(3);
    RnsPoly x = RnsPoly::uniform(n, qs, rng);
    RnsPoly y = RnsPoly::uniform(n, qs, rng, Domain::Eval);
    x.toEval();
    x.mulPointwiseInPlace(y);

    removeObserver(&counter);
    BackendRegistry::instance().select("serial");
    EXPECT_EQ(counter.nttElems, 3 * n);
    EXPECT_EQ(counter.mulElems, 3 * n);
    EXPECT_GE(counter.events, 2u);
}

} // namespace
} // namespace trinity
