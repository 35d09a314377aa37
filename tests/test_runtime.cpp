/**
 * @file
 * Serving-runtime tests: bit-exactness of the batched PBS pipeline
 * against sequential bootstrapping (on whatever engine TRINITY_BACKEND
 * selects — CI sweeps serial/threads/simd/sim), mixed test vectors in
 * one batch, queue aggregation under concurrent submitters, the
 * batch-size/deadline policy, and the backend batch-sizing hints.
 */

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "backend/registry.h"
#include "runtime/batched_pbs.h"
#include "runtime/pbs_server.h"

namespace trinity {
namespace {

using runtime::BatchedBootstrapper;
using runtime::PbsBatch;
using runtime::PbsServer;
using runtime::ServerOptions;
using runtime::ServerStats;

bool
sameCiphertext(const LweCiphertext &x, const LweCiphertext &y)
{
    return x.b == y.b && x.a == y.a;
}

struct RuntimeFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        gb = std::make_unique<TfheGateBootstrapper>(
            TfheParams::testTiny(), 20240);
    }

    std::unique_ptr<TfheGateBootstrapper> gb;
};

TEST_F(RuntimeFixture, BatchedSignMatchesSequentialBitExact)
{
    BatchedBootstrapper bb(*gb);
    std::vector<LweCiphertext> cts;
    std::vector<bool> bits = {true, false, true, true, false, false,
                              true};
    for (bool b : bits) {
        cts.push_back(gb->encryptBit(b));
    }
    std::vector<LweCiphertext> batched = bb.bootstrapSignBatch(cts);
    ASSERT_EQ(batched.size(), cts.size());
    for (size_t i = 0; i < cts.size(); ++i) {
        LweCiphertext seq = gb->bootstrapSign(cts[i]);
        EXPECT_TRUE(sameCiphertext(batched[i], seq)) << "request " << i;
        EXPECT_EQ(gb->decryptBit(batched[i]), bits[i]) << "request " << i;
    }
}

TEST_F(RuntimeFixture, MixedTestVectorsInOneBatch)
{
    const auto &p = gb->params();
    const TfheBootstrapper &boot = gb->bootstrapper();
    // Three different LUTs: sign, a two-marker step, and a ramp.
    Poly sign = boot.signTestVector(p.q / 8);
    Poly step = boot.makeTestVector([&](size_t i) {
        return i < p.bigN / 2 ? p.q / 16 : p.q / 5;
    });
    Poly ramp = boot.makeTestVector([&](size_t i) { return i * 977; });
    const Poly *tvs[] = {&sign, &step, &ramp, &step, &sign};

    TfheContext &ctx = gb->context();
    std::vector<LweCiphertext> cts;
    cts.push_back(gb->encryptBit(true));
    cts.push_back(ctx.lweEncrypt(p.q / 8, gb->lweKey()));
    cts.push_back(ctx.lweEncrypt(p.q / 4, gb->lweKey()));
    cts.push_back(ctx.lweEncrypt(3 * (p.q / 8), gb->lweKey()));
    cts.push_back(gb->encryptBit(false));

    PbsBatch batch;
    for (size_t i = 0; i < cts.size(); ++i) {
        batch.add(cts[i], *tvs[i]);
    }
    BatchedBootstrapper bb(*gb);
    std::vector<LweCiphertext> out = bb.run(batch);
    ASSERT_EQ(out.size(), cts.size());
    for (size_t i = 0; i < cts.size(); ++i) {
        LweCiphertext seq = boot.pbs(cts[i], *tvs[i], gb->bootstrapKey(),
                                     gb->keySwitchKey());
        EXPECT_TRUE(sameCiphertext(out[i], seq)) << "request " << i;
    }
}

TEST_F(RuntimeFixture, OversizedBatchesSplitPerChunkBitExact)
{
    // An aggregation wider than the engine's appetite executes as
    // consecutive lockstep chunks; chunking regroups independent
    // requests only, so any chunk width gives identical bytes.
    BatchedBootstrapper bb(*gb);
    std::vector<LweCiphertext> cts;
    std::vector<bool> bits;
    for (size_t i = 0; i < 11; ++i) {
        bits.push_back((i % 4) != 2);
        cts.push_back(gb->encryptBit(bits.back()));
    }
    PbsBatch batch;
    for (const auto &ct : cts) {
        batch.add(ct, gb->signVector());
    }
    std::vector<LweCiphertext> whole = bb.runChunked(batch, 0);
    for (size_t chunk : {1u, 3u, 4u, 16u}) {
        std::vector<LweCiphertext> split = bb.runChunked(batch, chunk);
        ASSERT_EQ(split.size(), whole.size()) << "chunk " << chunk;
        for (size_t i = 0; i < whole.size(); ++i) {
            EXPECT_TRUE(sameCiphertext(split[i], whole[i]))
                << "chunk " << chunk << " request " << i;
        }
    }
    // The default path caps lockstep width at preferredBatch().
    std::vector<LweCiphertext> deflt = bb.run(batch);
    for (size_t i = 0; i < whole.size(); ++i) {
        EXPECT_TRUE(sameCiphertext(deflt[i], whole[i])) << i;
        EXPECT_EQ(gb->decryptBit(deflt[i]), bits[i]) << i;
    }
}

TEST_F(RuntimeFixture, EmptyAndSingletonBatches)
{
    BatchedBootstrapper bb(*gb);
    EXPECT_TRUE(bb.bootstrapSignBatch({}).empty());

    LweCiphertext ct = gb->encryptBit(true);
    std::vector<LweCiphertext> one = bb.bootstrapSignBatch({ct});
    ASSERT_EQ(one.size(), 1u);
    EXPECT_TRUE(sameCiphertext(one[0], gb->bootstrapSign(ct)));
}

TEST_F(RuntimeFixture, ServerAggregatesUpToMaxBatch)
{
    ServerOptions opts;
    opts.maxBatch = 4;
    opts.maxWaitUs = 2000000; // hold the batch open; size triggers
    PbsServer server(*gb, opts);
    std::vector<bool> bits = {true, false, false, true};
    std::vector<std::future<LweCiphertext>> futures;
    for (bool b : bits) {
        futures.push_back(server.submit(gb->encryptBit(b)));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
        EXPECT_EQ(gb->decryptBit(futures[i].get()), bits[i]);
    }
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests, bits.size());
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.largestBatch, bits.size());
}

TEST_F(RuntimeFixture, ServerFlushesUnderfullBatchOnDeadline)
{
    ServerOptions opts;
    opts.maxBatch = 64;
    opts.maxWaitUs = 500;
    PbsServer server(*gb, opts);
    auto f0 = server.submit(gb->encryptBit(true));
    auto f1 = server.submit(gb->encryptBit(false));
    auto f2 = server.submit(gb->encryptBit(true));
    EXPECT_TRUE(gb->decryptBit(f0.get()));
    EXPECT_FALSE(gb->decryptBit(f1.get()));
    EXPECT_TRUE(gb->decryptBit(f2.get()));
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests, 3u);
    EXPECT_GE(stats.batches, 1u);
    EXPECT_LE(stats.largestBatch, 3u);
}

TEST_F(RuntimeFixture, ServerHandlesConcurrentSubmitters)
{
    ServerOptions opts;
    opts.maxBatch = 8;
    opts.maxWaitUs = 300;
    const size_t submitters = 4;
    const size_t per_thread = 6;
    std::vector<std::vector<LweCiphertext>> inputs(submitters);
    std::vector<std::vector<bool>> bits(submitters);
    // Encrypt up front: the context RNG is not thread-safe.
    for (size_t t = 0; t < submitters; ++t) {
        for (size_t i = 0; i < per_thread; ++i) {
            bool b = ((t + i) % 3) != 1;
            bits[t].push_back(b);
            inputs[t].push_back(gb->encryptBit(b));
        }
    }
    std::atomic<size_t> correct{0};
    {
        PbsServer server(*gb, opts);
        std::vector<std::thread> clients;
        for (size_t t = 0; t < submitters; ++t) {
            clients.emplace_back([&, t] {
                std::vector<std::future<LweCiphertext>> futures;
                for (auto &ct : inputs[t]) {
                    futures.push_back(server.submit(ct));
                }
                for (size_t i = 0; i < futures.size(); ++i) {
                    if (gb->decryptBit(futures[i].get()) == bits[t][i]) {
                        correct.fetch_add(1);
                    }
                }
            });
        }
        for (auto &c : clients) {
            c.join();
        }
        ServerStats stats = server.stats();
        EXPECT_EQ(stats.requests, submitters * per_thread);
        EXPECT_LE(stats.largestBatch, opts.maxBatch);
        EXPECT_GE(stats.batches,
                  submitters * per_thread / opts.maxBatch);
    }
    EXPECT_EQ(correct.load(), submitters * per_thread);
}

TEST_F(RuntimeFixture, DestructorDrainsQueuedRequests)
{
    ServerOptions opts;
    opts.maxBatch = 16;
    opts.maxWaitUs = 1000000; // deadline alone would stall for 1s
    std::vector<std::future<LweCiphertext>> futures;
    {
        PbsServer server(*gb, opts);
        futures.push_back(server.submit(gb->encryptBit(true)));
        futures.push_back(server.submit(gb->encryptBit(false)));
        // Shutdown must flush the underfull batch immediately.
    }
    EXPECT_TRUE(gb->decryptBit(futures[0].get()));
    EXPECT_FALSE(gb->decryptBit(futures[1].get()));
}

/** Malformed requests interleaved with good traffic on the threads
 *  engine: each bad one fails its own future with InvalidRequest, the
 *  good ones decrypt, and the process survives. */
TEST_F(RuntimeFixture, MalformedRequestsFailOnlyTheirOwnFuture)
{
    std::string prev = BackendRegistry::instance().active().name();
    BackendRegistry::instance().select("threads");
    const TfheParams &p = gb->params();
    Poly tiny_tv(p.bigN / 2, p.q);
    std::vector<std::future<LweCiphertext>> good;
    std::vector<bool> bits;
    std::vector<std::future<LweCiphertext>> bad;
    {
        ServerOptions opts;
        opts.maxBatch = 4;
        PbsServer server(*gb, opts);
        for (size_t i = 0; i < 12; ++i) {
            bool b = i % 3 != 0;
            LweCiphertext ct = gb->encryptBit(b);
            switch (i % 4) {
            case 0: { // short mask
                LweCiphertext s = ct;
                s.a.pop_back();
                bad.push_back(server.submit(std::move(s)));
                break;
            }
            case 1: { // unreduced mask coefficient
                LweCiphertext s = ct;
                s.a[i] = p.q + 1;
                bad.push_back(server.submit(std::move(s)));
                break;
            }
            case 2: { // unreduced body, then a test vector off the ring
                LweCiphertext s = ct;
                s.b = ~u64{0};
                bad.push_back(server.submit(std::move(s)));
                bad.push_back(server.submit(ct, tiny_tv));
                break;
            }
            default:
                break;
            }
            bits.push_back(b);
            good.push_back(server.submit(std::move(ct)));
        }
    }
    for (auto &f : bad) {
        EXPECT_THROW(f.get(), runtime::InvalidRequest);
    }
    for (size_t i = 0; i < good.size(); ++i) {
        EXPECT_EQ(gb->decryptBit(good[i].get()), bits[i]) << "request " << i;
    }
    BackendRegistry::instance().select(prev);
}

TEST(RuntimeOptions, EnginesReportPositiveBatchHints)
{
    auto &reg = BackendRegistry::instance();
    for (const char *name : {"serial", "threads", "simd"}) {
        auto engine = reg.create(name);
        EXPECT_GE(engine->preferredBatch(), engine->threadCount())
            << name;
        EXPECT_GE(engine->preferredBatch(), 1u) << name;
    }
}

#if !defined(__SANITIZE_THREAD__)
TEST(RuntimeOptions, RecursiveSimInnerIsRejected)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("TRINITY_SIM_INNER", "sim", 1);
            BackendRegistry::instance().create("sim");
        },
        ::testing::ExitedWithCode(1), "recursive self-wrapping");
}

TEST(RuntimeOptions, UnknownSimInnerListsValidEngines)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("TRINITY_SIM_INNER", "warp-drive", 1);
            BackendRegistry::instance().create("sim");
        },
        ::testing::ExitedWithCode(1), "valid inner engines");
}
#endif

} // namespace
} // namespace trinity
