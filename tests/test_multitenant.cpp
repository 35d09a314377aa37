/**
 * @file
 * Multi-tenant serving tests: tenant-grouped batching on the
 * multi-tenant PbsServer (bit-exact against direct PBS), the
 * admission (maxQueue -> AdmissionRejected) and deadline
 * (deadlineUs -> DeadlineExceeded) policies with deterministic
 * counts, consistent key-affine shard routing, materialization
 * landing only on a tenant's home shard, and destructor drain of the
 * sharded fleet.
 */

#include <atomic>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/modarith.h"
#include "runtime/sharded_server.h"

namespace trinity {
namespace {

using runtime::AdmissionRejected;
using runtime::DeadlineExceeded;
using runtime::KeyStore;
using runtime::PbsServer;
using runtime::ResidentKeys;
using runtime::ServerOptions;
using runtime::ShardedOptions;
using runtime::ShardedPbsServer;
using runtime::TenantId;
using runtime::TenantKeyMaterial;

struct MultiTenantFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        ctx = std::make_shared<TfheContext>(TfheParams::testTiny(),
                                            777001);
        boot = std::make_unique<TfheBootstrapper>(ctx);
        for (size_t i = 0; i < 5; ++i) {
            tenants.push_back(TenantKeyMaterial::generate(*ctx, *boot));
        }
    }

    KeyStore::Provider
    provider()
    {
        return [this](TenantId t) -> const TenantKeyMaterial & {
            return tenants[static_cast<size_t>(t)];
        };
    }

    LweCiphertext
    encryptBit(TenantId t, bool bit)
    {
        u64 mu = ctx->params().q / 8;
        u64 m = bit ? mu : ctx->modulus().neg(mu);
        return ctx->lweEncrypt(m, tenants[t].lweKey);
    }

    bool
    decryptBit(TenantId t, const LweCiphertext &ct) const
    {
        u64 phase = ctx->lwePhase(ct, tenants[t].lweKey);
        return centeredRep(phase, ctx->q()) > 0;
    }

    ResidentKeys
    materializeDirect(TenantId t) const
    {
        ResidentKeys keys;
        keys.bsk.bsk = tenants[t].bskStored.bsk;
        for (GgswCiphertext &g : keys.bsk.bsk) {
            ctx->ggswToEval(g);
        }
        keys.ksk = tenants[t].ksk;
        keys.signTv = tenants[t].signTv;
        return keys;
    }

    std::shared_ptr<TfheContext> ctx;
    std::unique_ptr<TfheBootstrapper> boot;
    std::vector<TenantKeyMaterial> tenants;
};

TEST_F(MultiTenantFixture, ShardRoutingIsConsistentAndSpreads)
{
    ShardedOptions opts;
    opts.shards = 4;
    opts.server.maxWaitUs = 50;
    ShardedPbsServer server(ctx, provider(), opts);
    std::vector<size_t> counts(opts.shards, 0);
    for (TenantId t = 0; t < 1000; ++t) {
        size_t s = server.shardOf(t);
        ASSERT_LT(s, opts.shards);
        // Affinity: the mapping never changes for a tenant.
        EXPECT_EQ(server.shardOf(t), s);
        ++counts[s];
    }
    // splitmix64 spreads even sequential ids: no shard should be
    // starved or hoard the fleet.
    for (size_t s = 0; s < opts.shards; ++s) {
        EXPECT_GT(counts[s], 150u) << "shard " << s;
        EXPECT_LT(counts[s], 350u) << "shard " << s;
    }
}

TEST_F(MultiTenantFixture, MixedTenantTrafficIsBitExact)
{
    std::vector<ResidentKeys> ref;
    for (TenantId t = 0; t < tenants.size(); ++t) {
        ref.push_back(materializeDirect(t));
    }
    // Interleaved tenants in one submission burst: the server must
    // group each drained window by tenant (a fused batch shares one
    // key set) and still return bit-identical results per request.
    std::vector<TenantId> order = {0, 3, 1, 0, 4, 2, 3, 0, 1, 4};
    std::vector<bool> bits = {true,  false, true, false, true,
                              false, false, true, true,  false};
    std::vector<LweCiphertext> cts;
    for (size_t i = 0; i < order.size(); ++i) {
        cts.push_back(encryptBit(order[i], bits[i]));
    }

    ShardedOptions opts;
    opts.shards = 2;
    opts.server.maxBatch = 8;
    opts.server.maxWaitUs = 2000;
    ShardedPbsServer server(ctx, provider(), opts);
    std::vector<std::future<LweCiphertext>> futures;
    for (size_t i = 0; i < order.size(); ++i) {
        futures.push_back(server.submit(order[i], cts[i]));
    }
    for (size_t i = 0; i < order.size(); ++i) {
        LweCiphertext out = futures[i].get();
        LweCiphertext expect =
            boot->pbs(cts[i], ref[order[i]].signTv, ref[order[i]].bsk,
                      ref[order[i]].ksk);
        EXPECT_EQ(out.b, expect.b) << "request " << i;
        EXPECT_EQ(out.a, expect.a) << "request " << i;
        EXPECT_EQ(decryptBit(order[i], out), bits[i]) << "request " << i;
    }
    runtime::ShardedStats stats = server.stats();
    EXPECT_EQ(stats.serving.requests, order.size());
    // Each tenant materialized once, on one shard only.
    EXPECT_EQ(stats.keystore.materializations, tenants.size());
}

TEST_F(MultiTenantFixture, CallerLutOverridesTenantDefault)
{
    KeyStore store(*ctx, provider(), 0, "keystore.test.lut");
    ServerOptions opts;
    opts.maxWaitUs = 50;
    opts.label = "pbs_server.test.lut";
    PbsServer server(ctx, store, opts);
    const auto &p = ctx->params();
    Poly ramp = boot->makeTestVector([&](size_t i) { return i * 977; });
    LweCiphertext ct = encryptBit(1, true);
    LweCiphertext out = server.submit(1, ct, ramp).get();
    std::shared_ptr<const ResidentKeys> keys = store.acquire(1);
    LweCiphertext expect = boot->pbs(ct, ramp, keys->bsk, keys->ksk);
    EXPECT_EQ(out.b, expect.b);
    EXPECT_EQ(out.a, expect.a);
    (void)p;
}

TEST_F(MultiTenantFixture, AdmissionRejectsBeyondMaxQueue)
{
    KeyStore store(*ctx, provider(), 0, "keystore.test.admit");
    ServerOptions opts;
    opts.maxBatch = 64;     // never fills from 10 requests
    opts.maxWaitUs = 400000; // the batch stays open while we burst
    opts.maxQueue = 4;
    opts.label = "pbs_server.test.admit";
    std::vector<LweCiphertext> cts;
    for (size_t i = 0; i < 10; ++i) {
        cts.push_back(encryptBit(0, i % 2 == 0));
    }
    size_t accepted = 0;
    size_t rejected = 0;
    {
        PbsServer server(ctx, store, opts);
        std::vector<std::future<LweCiphertext>> futures;
        for (size_t i = 0; i < 10; ++i) {
            futures.push_back(server.submit(0, cts[i]));
        }
        for (size_t i = 0; i < futures.size(); ++i) {
            try {
                LweCiphertext out = futures[i].get();
                EXPECT_EQ(decryptBit(0, out), i % 2 == 0)
                    << "request " << i;
                ++accepted;
            } catch (const AdmissionRejected &) {
                ++rejected;
            }
        }
        EXPECT_EQ(server.stats().rejected, rejected);
    }
    // The queue admits exactly maxQueue requests; the rest bounce.
    EXPECT_EQ(accepted, opts.maxQueue);
    EXPECT_EQ(rejected, 10 - opts.maxQueue);
}

TEST_F(MultiTenantFixture, DeadlineShedsStaleRequests)
{
    KeyStore store(*ctx, provider(), 0, "keystore.test.shed");
    ServerOptions opts;
    opts.maxBatch = 64;
    opts.maxWaitUs = 30000; // every request waits ~30ms before drain
    opts.deadlineUs = 1;    // ...which exceeds a 1us budget
    opts.label = "pbs_server.test.shed";
    size_t shed = 0;
    {
        PbsServer server(ctx, store, opts);
        std::vector<std::future<LweCiphertext>> futures;
        for (size_t i = 0; i < 3; ++i) {
            futures.push_back(server.submit(0, encryptBit(0, true)));
        }
        for (auto &f : futures) {
            try {
                f.get();
            } catch (const DeadlineExceeded &) {
                ++shed;
            }
        }
        EXPECT_EQ(server.stats().shed, 3u);
    }
    EXPECT_EQ(shed, 3u);
}

TEST_F(MultiTenantFixture, MaterializationLandsOnHomeShardOnly)
{
    ShardedOptions opts;
    opts.shards = 2;
    opts.server.maxWaitUs = 50;
    ShardedPbsServer server(ctx, provider(), opts);
    // Pick one tenant per shard (the fixture's five give us both).
    TenantId onShard0 = tenants.size();
    TenantId onShard1 = tenants.size();
    for (TenantId t = 0; t < tenants.size(); ++t) {
        if (server.shardOf(t) == 0 && onShard0 == tenants.size()) {
            onShard0 = t;
        }
        if (server.shardOf(t) == 1 && onShard1 == tenants.size()) {
            onShard1 = t;
        }
    }
    ASSERT_LT(onShard0, tenants.size());
    ASSERT_LT(onShard1, tenants.size());

    server.submit(onShard0, encryptBit(onShard0, true)).get();
    EXPECT_EQ(server.store(0).stats().materializations, 1u);
    EXPECT_EQ(server.store(1).stats().materializations, 0u);

    server.submit(onShard1, encryptBit(onShard1, false)).get();
    EXPECT_EQ(server.store(0).stats().materializations, 1u);
    EXPECT_EQ(server.store(1).stats().materializations, 1u);

    // Repeat traffic hits the resident keys — no new faults anywhere.
    server.submit(onShard0, encryptBit(onShard0, false)).get();
    server.submit(onShard1, encryptBit(onShard1, true)).get();
    EXPECT_EQ(server.store(0).stats().materializations, 1u);
    EXPECT_EQ(server.store(1).stats().materializations, 1u);
    EXPECT_EQ(server.stats().keystore.hits, 2u);
}

TEST_F(MultiTenantFixture, ConcurrentTenantsAcrossShards)
{
    // Four client threads, five tenants, tiny per-shard budgets so
    // eviction runs during traffic; everything must still decode.
    ShardedOptions opts;
    opts.shards = 2;
    opts.keystoreBudgetBytes =
        3 * KeyStore::residentBytesFor(ctx->params());
    opts.server.maxBatch = 4;
    opts.server.maxWaitUs = 200;
    const size_t perThread = 8;
    std::vector<std::vector<LweCiphertext>> cts(4);
    std::vector<std::vector<TenantId>> who(4);
    std::vector<std::vector<bool>> bits(4);
    for (size_t w = 0; w < 4; ++w) {
        for (size_t i = 0; i < perThread; ++i) {
            TenantId t = (w * 3 + i) % tenants.size();
            bool b = ((w + i) % 3) != 0;
            who[w].push_back(t);
            bits[w].push_back(b);
            cts[w].push_back(encryptBit(t, b));
        }
    }
    std::atomic<size_t> correct{0};
    {
        ShardedPbsServer server(ctx, provider(), opts);
        std::vector<std::thread> clients;
        for (size_t w = 0; w < 4; ++w) {
            clients.emplace_back([&, w] {
                std::vector<std::future<LweCiphertext>> futures;
                for (size_t i = 0; i < perThread; ++i) {
                    futures.push_back(
                        server.submit(who[w][i], cts[w][i]));
                }
                for (size_t i = 0; i < perThread; ++i) {
                    if (decryptBit(who[w][i], futures[i].get()) ==
                        bits[w][i]) {
                        correct.fetch_add(1);
                    }
                }
            });
        }
        for (auto &c : clients) {
            c.join();
        }
        runtime::ShardedStats stats = server.stats();
        EXPECT_EQ(stats.serving.requests, 4 * perThread);
    }
    EXPECT_EQ(correct.load(), 4 * perThread);
}

/** Requests for tenants the provider does not know, mixed into good
 *  traffic on a PbsServer and on a ShardedPbsServer: each unknown one
 *  fails its own future with InvalidRequest (not the provider's raw
 *  std::out_of_range), and every good request still decrypts. */
TEST_F(MultiTenantFixture, UnknownTenantFailsOnlyItsOwnGroup)
{
    KeyStore::Provider known = [this](TenantId t)
        -> const TenantKeyMaterial & { return tenants.at(t); };
    const std::vector<TenantId> unknown = {5, 77, 1000};
    auto drive = [&](auto &server) {
        std::vector<std::future<LweCiphertext>> good;
        std::vector<std::future<LweCiphertext>> bad;
        std::vector<TenantId> who;
        std::vector<bool> bits;
        for (size_t i = 0; i < 12; ++i) {
            TenantId t = i % tenants.size();
            bool b = i % 3 != 0;
            who.push_back(t);
            bits.push_back(b);
            good.push_back(server.submit(t, encryptBit(t, b)));
            if (i % 4 == 1) {
                LweCiphertext ct = encryptBit(0, true);
                bad.push_back(
                    server.submit(unknown[i / 4 % unknown.size()], ct));
            }
        }
        for (auto &f : bad) {
            EXPECT_THROW(f.get(), runtime::InvalidRequest);
        }
        for (size_t i = 0; i < good.size(); ++i) {
            EXPECT_EQ(decryptBit(who[i], good[i].get()), bits[i])
                << "request " << i;
        }
    };
    {
        KeyStore store(*ctx, known, 0, "keystore.test.unknown");
        ServerOptions opts;
        opts.maxBatch = 8;
        opts.label = "pbs_server.test.unknown";
        PbsServer server(ctx, store, opts);
        drive(server);
        EXPECT_FALSE(store.resident(unknown[0]));
    }
    {
        ShardedOptions opts;
        opts.shards = 2;
        opts.server.maxBatch = 8;
        ShardedPbsServer server(ctx, known, opts);
        drive(server);
    }
}

TEST_F(MultiTenantFixture, ShardedDestructorDrainsQueuedRequests)
{
    std::vector<std::future<LweCiphertext>> futures;
    {
        ShardedOptions opts;
        opts.shards = 2;
        opts.server.maxBatch = 16;
        opts.server.maxWaitUs = 1000000;
        ShardedPbsServer server(ctx, provider(), opts);
        futures.push_back(server.submit(0, encryptBit(0, true)));
        futures.push_back(server.submit(1, encryptBit(1, false)));
        futures.push_back(server.submit(2, encryptBit(2, true)));
        // Shutdown must flush every shard's underfull batch.
    }
    EXPECT_TRUE(decryptBit(0, futures[0].get()));
    EXPECT_FALSE(decryptBit(1, futures[1].get()));
    EXPECT_TRUE(decryptBit(2, futures[2].get()));
}

} // namespace
} // namespace trinity
