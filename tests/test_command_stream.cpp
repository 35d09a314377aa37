/**
 * @file
 * Command-stream executor tests: bit-exactness of recorded-stream vs
 * blocking execution on every engine (serial/threads/simd/sim, and the
 * thread pool's eager fallback without workers or inside a pool job),
 * out-of-order-completion stress over randomized dependency graphs,
 * record-once replay (a resubmitted stream and the blind-rotation plan
 * it serves), protocol death tests, the coefficient-tiled NTT path of
 * the thread pool, and the sim ledger's overlapped-makespan bracketing
 * for a fused PBS batch.
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "accel/configs.h"
#include "backend/command_stream.h"
#include "backend/registry.h"
#include "backend/sim_backend.h"
#include "backend/thread_pool_backend.h"
#include "common/primes.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "runtime/batched_pbs.h"
#include "sim/machine.h"
#include "workload/tfhe_ops.h"

namespace trinity {
namespace {

/** Temporarily force an env var, restoring the prior state. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        hadOld_ = old != nullptr;
        if (hadOld_) {
            old_ = old;
        }
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (hadOld_) {
            ::setenv(name_, old_.c_str(), 1);
        } else {
            ::unsetenv(name_);
        }
    }

  private:
    const char *name_;
    bool hadOld_ = false;
    std::string old_;
};

/**
 * A deterministic workload recorded against externally owned buffers:
 * a mix of NTT round-trips, element-wise chains, mulAdd accumulation,
 * automorphism, scalar multiply, and raw tasks, with genuine
 * dependencies (later commands read earlier results). Recording it on
 * any engine must produce the bytes the serial blocking path does.
 */
struct Workload
{
    size_t n = 1024;
    Modulus mod;
    std::shared_ptr<const NttTable> table;
    std::vector<std::vector<u64>> buf; ///< 6 buffers of length n

    explicit Workload(u64 seed)
        : mod(findNttPrimes(40, 2 * n, 1)[0]),
          table(NttTableCache::get(n, mod.value()))
    {
        Rng rng(seed);
        buf.resize(6);
        for (auto &b : buf) {
            b.resize(n);
            for (auto &x : b) {
                x = rng.uniform(mod.value());
            }
        }
    }

    void
    record(CommandStream &s)
    {
        u64 *b0 = buf[0].data();
        u64 *b1 = buf[1].data();
        u64 *b2 = buf[2].data();
        u64 *b3 = buf[3].data();
        u64 *b4 = buf[4].data();
        u64 *b5 = buf[5].data();
        // b0, b1 to the NTT domain.
        Job ntt = s.nttForward({{b0, table.get()}, {b1, table.get()}});
        // b2 = b0 * b1 (pointwise, NTT domain).
        Job mul =
            s.pointwiseMul({{b2, b0, b1, &mod, n}}, {ntt});
        // b3 += b2 * b0 twice, chained (RMW on b3).
        Job ma1 = s.mulAdd({{b3, b2, b0, &mod, n}}, {mul});
        Job ma2 = s.mulAdd({{b3, b2, b1, &mod, n}}, {ma1});
        // b2 back to coefficients; fence pins the whole prefix.
        Job intt = s.nttInverse({{b2, table.get()}}, {mul, ma2});
        Event fence = s.fence();
        // b4 = automorphism(b2), b5 = 3 * b4, then a raw task folds
        // b3 into b5 (disjoint chunks per index).
        Job aut = s.automorphism({{b4, b2, &mod, n, 5}}, {intt, fence});
        Job sc = s.scalarMul({{b5, b4, 3, &mod, n}}, {aut});
        s.task(
            4,
            [this, b5, b3](size_t i) {
                size_t chunk = n / 4;
                for (size_t c = i * chunk; c < (i + 1) * chunk; ++c) {
                    b5[c] = mod.add(b5[c], b3[c]);
                }
            },
            {sc, ma2});
        // b0/b1 stay in the NTT domain — also part of the output.
    }

    std::vector<u64>
    flat() const
    {
        std::vector<u64> out;
        for (const auto &b : buf) {
            out.insert(out.end(), b.begin(), b.end());
        }
        return out;
    }
};

/** Activate an engine; "threads" gets an explicit 4-worker pool so
 *  the pipelined executor is exercised even on single-core hosts
 *  (the default constructor sizes to hardware concurrency), and
 *  "threads-1" a pool with no workers, whose streams run eagerly. */
void
activateEngine(const std::string &engine)
{
    auto &reg = BackendRegistry::instance();
    if (engine == "threads") {
        reg.use(std::make_unique<ThreadPoolBackend>(4));
    } else if (engine == "threads-1") {
        reg.use(std::make_unique<ThreadPoolBackend>(1));
    } else {
        reg.select(engine);
    }
}

std::vector<u64>
runWorkloadOn(const std::string &engine, u64 seed)
{
    activateEngine(engine);
    Workload w(seed);
    auto stream = activeBackend().newStream();
    w.record(*stream);
    stream->submit();
    stream->wait();
    BackendRegistry::instance().select("serial");
    return w.flat();
}

TEST(CommandStream, RecordedStreamBitExactAcrossEngines)
{
    // Blocking reference: the same ops issued eagerly on serial (an
    // EagerStream is by construction the blocking path).
    std::vector<u64> ref = runWorkloadOn("serial", 99);
    for (const char *engine : {"threads", "threads-1", "simd", "sim"}) {
        EXPECT_EQ(runWorkloadOn(engine, 99), ref) << engine;
    }
}

/** A pool that cannot pipeline hands out the eager executor: commands
 *  run at record time and the stream cannot replay. That holds for a
 *  pool without workers, and for streams recorded from inside run()
 *  jobs of a 4-worker pool (dispatching on the pool they run on would
 *  clobber its batch state); each of the latter must reproduce the
 *  serial bytes. */
TEST(CommandStream, PoolThatCannotPipelineRecordsEagerly)
{
    ThreadPoolBackend single(1);
    auto eager = single.newStream();
    EXPECT_FALSE(eager->deferredExecution());
    EXPECT_FALSE(eager->canReplay());

    constexpr size_t kJobs = 3;
    std::vector<std::vector<u64>> ref(kJobs);
    for (size_t i = 0; i < kJobs; ++i) {
        ref[i] = runWorkloadOn("serial", 40 + i);
    }
    ThreadPoolBackend pool(4);
    std::vector<std::vector<u64>> got(kJobs);
    std::vector<int> deferred(kJobs, -1), replays(kJobs, -1);
    pool.run(kJobs, [&](size_t i) {
        Workload w(40 + i);
        auto stream = pool.newStream();
        deferred[i] = stream->deferredExecution();
        replays[i] = stream->canReplay();
        w.record(*stream);
        stream->submit();
        stream->wait();
        got[i] = w.flat();
    });
    for (size_t i = 0; i < kJobs; ++i) {
        EXPECT_EQ(deferred[i], 0) << i;
        EXPECT_EQ(replays[i], 0) << i;
        EXPECT_EQ(got[i], ref[i]) << i;
    }
}

/**
 * Randomized-DAG stress: many commands with random dependency edges,
 * where each command's declared deps are exactly the hazards it has
 * (last writer of its sources, last toucher of its destination). Any
 * dependency-respecting execution order — including the thread pool's
 * out-of-order completion — must reproduce the serial record-order
 * result bit for bit.
 */
TEST(CommandStream, RandomDagStressMatchesSerial)
{
    constexpr size_t kBufs = 8;
    constexpr size_t kCmds = 120;
    constexpr size_t kLen = 512;
    Modulus mod(findNttPrimes(30, 2 * kLen, 1)[0]);

    auto run = [&](const std::string &engine, u64 seed) {
        activateEngine(engine);
        Rng rng(seed);
        std::vector<std::vector<u64>> buf(kBufs);
        for (auto &b : buf) {
            b.resize(kLen);
            for (auto &x : b) {
                x = rng.uniform(mod.value());
            }
        }
        std::vector<Job> lastWriter(kBufs);
        std::vector<std::vector<Job>> readersSince(kBufs);
        auto stream = activeBackend().newStream();
        for (size_t c = 0; c < kCmds; ++c) {
            size_t a = rng.uniform(kBufs);
            size_t b = rng.uniform(kBufs);
            size_t d = rng.uniform(kBufs);
            // Hazard deps: RAW on sources, WAW+WAR on the dest.
            std::vector<Job> deps = {lastWriter[a], lastWriter[b],
                                     lastWriter[d]};
            for (Job r : readersSince[d]) {
                deps.push_back(r);
            }
            u64 *pa = buf[a].data();
            u64 *pb = buf[b].data();
            u64 *pd = buf[d].data();
            Job j;
            switch (rng.uniform(4)) {
            case 0:
                j = stream->add({{pd, pa, pb, &mod, kLen}}, deps);
                break;
            case 1:
                j = stream->sub({{pd, pa, pb, &mod, kLen}}, deps);
                break;
            case 2:
                j = stream->pointwiseMul({{pd, pa, pb, &mod, kLen}},
                                         deps);
                break;
            default:
                j = stream->task(
                    2,
                    [pd, pa, pb, &mod, kLen](size_t half) {
                        size_t lo = half * (kLen / 2);
                        size_t hi = lo + kLen / 2;
                        for (size_t i = lo; i < hi; ++i) {
                            pd[i] = mod.mulAdd(pa[i], pb[i], pd[i]);
                        }
                    },
                    deps);
                break;
            }
            lastWriter[d] = j;
            readersSince[d].clear();
            readersSince[a].push_back(j);
            readersSince[b].push_back(j);
        }
        stream->submit();
        stream->wait();
        BackendRegistry::instance().select("serial");
        std::vector<u64> out;
        for (const auto &bb : buf) {
            out.insert(out.end(), bb.begin(), bb.end());
        }
        return out;
    };

    for (u64 seed : {7u, 1234u, 80211u}) {
        auto ref = run("serial", seed);
        EXPECT_EQ(run("threads", seed), ref) << "seed " << seed;
        EXPECT_EQ(run("threads-1", seed), ref) << "seed " << seed;
        EXPECT_EQ(run("sim", seed), ref) << "seed " << seed;
    }
}

/** End-to-end: the fully recorded blind rotation (one stream over
 *  all lockstep steps) executed by the pipelined pool must reproduce
 *  the serial bytes — per-request chains reuse scratch regions across
 *  steps, so this exercises the WAR/WAW ordering for real. */
TEST(CommandStream, PipelinedPbsBatchMatchesSerialBitExact)
{
    TfheGateBootstrapper gb(TfheParams::testTiny(), 777);
    std::vector<bool> bits = {true, false, true, true, false};
    std::vector<LweCiphertext> cts;
    for (bool b : bits) {
        cts.push_back(gb.encryptBit(b));
    }
    runtime::BatchedBootstrapper bb(gb);
    BackendRegistry::instance().select("serial");
    std::vector<LweCiphertext> ref = bb.bootstrapSignBatch(cts);
    activateEngine("threads");
    std::vector<LweCiphertext> piped = bb.bootstrapSignBatch(cts);
    BackendRegistry::instance().select("serial");
    ASSERT_EQ(piped.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(piped[i].a, ref[i].a) << i;
        EXPECT_EQ(piped[i].b, ref[i].b) << i;
        EXPECT_EQ(gb.decryptBit(piped[i]), bits[i]) << i;
    }
}

/** Record once, run many: a pipelined stream submitted, waited on
 *  and submitted again runs its whole DAG a second time. With the
 *  inputs restored in place between the runs, both runs reproduce the
 *  serial bytes, and a counting task runs once per submit. */
TEST(CommandStream, ResubmitAfterWaitReplaysTheDag)
{
    std::vector<u64> ref = runWorkloadOn("serial", 5);
    activateEngine("threads");
    Workload w(5);
    const std::vector<std::vector<u64>> inputs = w.buf;
    std::atomic<int> runs{0};
    auto stream = activeBackend().newStream();
    w.record(*stream);
    stream->task(1, [&runs](size_t) { runs.fetch_add(1); });
    ASSERT_TRUE(stream->canReplay());
    for (int run = 1; run <= 2; ++run) {
        for (size_t b = 0; b < inputs.size(); ++b) {
            std::copy(inputs[b].begin(), inputs[b].end(),
                      w.buf[b].begin());
        }
        stream->submit();
        stream->wait();
        EXPECT_EQ(w.flat(), ref) << "run " << run;
        EXPECT_EQ(runs.load(), run);
    }
    BackendRegistry::instance().select("serial");
}

/** Three batches through one thread's blind-rotation plan. On the
 *  pipelined pool the stream recorded for the first batch is submitted
 *  again for the next two, and its jobs read each batch's rotations
 *  and accumulators when they run; a slot whose a_i mod-switches to 0
 *  skips that step. Every batch must match the sequential per-request
 *  blind rotation on every engine. */
TEST(CommandStream, BlindRotationPlanReplaysAcrossBatches)
{
    TfheGateBootstrapper gb(TfheParams::testTiny(), 4242);
    const TfheBootstrapper &boot = gb.bootstrapper();
    const TfheParams &p = gb.params();
    const size_t kBatch = 3;
    const size_t kRounds = 3;
    Rng rng(17);
    std::vector<std::vector<LweCiphertext>> rounds(kRounds);
    for (size_t r = 0; r < kRounds; ++r) {
        for (size_t j = 0; j < kBatch; ++j) {
            LweCiphertext ct;
            ct.a.resize(p.nLwe);
            for (size_t i = 0; i < p.nLwe; ++i) {
                ct.a[i] = (i + j + r) % 4 == 0 ? 0 : rng.uniform(p.q);
            }
            ct.b = rng.uniform(p.q);
            rounds[r].push_back(std::move(ct));
        }
    }
    std::vector<Poly> tvs;
    for (size_t j = 0; j < kBatch; ++j) {
        tvs.push_back(boot.makeTestVector(
            [j](size_t i) { return (i * 31 + j * 7) & 0xffff; }));
    }
    auto flat = [&](const std::vector<GlweCiphertext> &accs) {
        std::vector<u64> out;
        for (const auto &acc : accs) {
            for (size_t c = 0; c <= p.k; ++c) {
                const Poly &comp = c < p.k ? acc.a[c] : acc.b;
                out.insert(out.end(), comp.coeffs().begin(),
                           comp.coeffs().end());
            }
        }
        return out;
    };
    BackendRegistry::instance().select("serial");
    std::vector<std::vector<u64>> ref;
    for (const auto &cts : rounds) {
        std::vector<GlweCiphertext> accs;
        for (size_t j = 0; j < kBatch; ++j) {
            accs.push_back(
                boot.blindRotate(cts[j], tvs[j], gb.bootstrapKey()));
        }
        ref.push_back(flat(accs));
    }
    obs::overrideMetrics(1);
    obs::Counter &replays =
        obs::MetricsRegistry::instance().counter("tfhe.plan.replays");
    for (const char *engine : {"serial", "threads", "threads-1", "sim"}) {
        activateEngine(engine);
        u64 before = replays.value();
        for (size_t r = 0; r < kRounds; ++r) {
            std::vector<const LweCiphertext *> ins;
            std::vector<const Poly *> tv_ptrs;
            for (size_t j = 0; j < kBatch; ++j) {
                ins.push_back(&rounds[r][j]);
                tv_ptrs.push_back(&tvs[j]);
            }
            EXPECT_EQ(flat(boot.blindRotateBatch(ins.data(),
                                                 tv_ptrs.data(), kBatch,
                                                 gb.bootstrapKey())),
                      ref[r])
                << engine << " round " << r;
        }
        bool replayable = activeBackend().newStream()->canReplay();
        EXPECT_EQ(replays.value() - before, replayable ? kRounds - 1 : 0)
            << engine;
    }
    obs::overrideMetrics(-1);
    BackendRegistry::instance().select("serial");
}

TEST(CommandStreamDeath, WaitOnUnsubmittedStreamIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            BackendRegistry::instance().select("serial");
            Workload w(1);
            auto stream = activeBackend().newStream();
            w.record(*stream);
            stream->wait();
        },
        ::testing::ExitedWithCode(1), "unsubmitted CommandStream");
}

TEST(CommandStreamDeath, ResubmitOnEagerStreamIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            BackendRegistry::instance().select("serial");
            Workload w(1);
            auto stream = activeBackend().newStream();
            w.record(*stream);
            stream->submit();
            stream->wait();
            stream->submit();
        },
        ::testing::ExitedWithCode(1), "cannot replay");
}

TEST(CommandStreamDeath, ResubmitBeforeWaitIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            activateEngine("threads");
            Workload w(1);
            auto stream = activeBackend().newStream();
            w.record(*stream);
            stream->submit();
            stream->submit();
        },
        ::testing::ExitedWithCode(1), "before wait");
}

TEST(CommandStreamDeath, RecordingAfterSubmitIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            BackendRegistry::instance().select("serial");
            Workload w(1);
            auto stream = activeBackend().newStream();
            stream->submit();
            w.record(*stream);
        },
        ::testing::ExitedWithCode(1), "recording after submit");
}

/** The coefficient-tiled path engages exactly when limb fan-out
 *  cannot feed the pool (scalar kernels, few large jobs) and must be
 *  bit-identical to the monolithic transform. */
TEST(TiledNtt, UnderfullBatchesMatchSerialBitExact)
{
    ScopedEnv scalar("TRINITY_SIMD_LEVEL", "scalar");
    ThreadPoolBackend tp(8); // count*2 <= 8 engages tiling for <=4 jobs
    for (size_t n : {1024u, 4096u}) {
        u64 q = findNttPrimes(50, 2 * n, 1)[0];
        auto table = NttTableCache::get(n, q);
        for (size_t count : {1u, 3u}) {
            Rng rng(n + count);
            std::vector<std::vector<u64>> tiled(count), ref(count);
            std::vector<NttJob> jobs;
            for (size_t j = 0; j < count; ++j) {
                tiled[j].resize(n);
                for (auto &x : tiled[j]) {
                    x = rng.uniform(q);
                }
                ref[j] = tiled[j];
                jobs.push_back({tiled[j].data(), table.get()});
            }
            tp.nttForwardBatch(jobs.data(), jobs.size());
            for (size_t j = 0; j < count; ++j) {
                table->forward(ref[j].data());
                EXPECT_EQ(tiled[j], ref[j])
                    << "forward n=" << n << " count=" << count
                    << " job=" << j;
            }
            tp.nttInverseBatch(jobs.data(), jobs.size());
            for (size_t j = 0; j < count; ++j) {
                table->inverse(ref[j].data());
                EXPECT_EQ(tiled[j], ref[j])
                    << "inverse n=" << n << " count=" << count
                    << " job=" << j;
            }
        }
    }
}

/**
 * The acceptance bracket for live overlap pricing: on a fused PBS
 * batch, the ledger's overlapped makespan must improve on sequential
 * charging (streams expose cross-pool overlap) while staying above
 * the static scheduler's idealized makespan for the same pipelined
 * graph (the live path charges extra difference adds and eagerly
 * serialized prologue/epilogue kernels).
 */
TEST(SimStream, OverlappedMakespanBracketsOnFusedPbsBatch)
{
    {
        ScopedEnv machine("TRINITY_SIM_MACHINE", "trinity-tfhe");
        BackendRegistry::instance().select("sim");
    }
    auto params = TfheParams::testTiny();
    TfheGateBootstrapper gb(params, 31337);
    runtime::BatchedBootstrapper bb(gb);
    const size_t B = 8;
    std::vector<LweCiphertext> cts;
    for (size_t i = 0; i < B; ++i) {
        cts.push_back(gb.encryptBit(i % 3 != 0));
    }
    SimBackend *sb = activeSimBackend();
    ASSERT_NE(sb, nullptr);
    sb->ledger().reset();
    std::vector<LweCiphertext> out = bb.runChunked(
        {{&cts[0], &cts[1], &cts[2], &cts[3], &cts[4], &cts[5], &cts[6],
          &cts[7]},
         std::vector<const Poly *>(B, &gb.signVector())},
        B);
    for (size_t i = 0; i < B; ++i) {
        EXPECT_EQ(gb.decryptBit(out[i]), i % 3 != 0);
    }
    double sequential = sb->ledger().computeCycles();
    double overlapped = sb->ledger().overlappedCycles();
    double static_span =
        sim::schedule(workload::pbsBatchGraph(params, B), sb->machine())
            .makespanCycles;
    EXPECT_LT(overlapped, sequential);
    EXPECT_GT(overlapped, static_span);
    BackendRegistry::instance().select("serial");
}

} // namespace
} // namespace trinity
