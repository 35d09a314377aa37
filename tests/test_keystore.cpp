/**
 * @file
 * KeyStore tests: weight-accounted LRU eviction order, lazy
 * materialization exactly once under concurrent acquires
 * (counter-asserted through the provider), pinned keys surviving
 * eviction while a batch runs on them, bit-exact evict/refault
 * mid-workload, and the single-tenant-over-budget admission rule.
 * The concurrent cases double as the TSan surface for the store.
 */

#include <atomic>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "common/modarith.h"
#include "runtime/key_store.h"
#include "runtime/pbs_server.h"

namespace trinity {
namespace {

using runtime::KeyStore;
using runtime::ResidentKeys;
using runtime::TenantId;
using runtime::TenantKeyMaterial;

struct KeyStoreFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        ctx = std::make_shared<TfheContext>(TfheParams::testTiny(),
                                            31337);
        boot = std::make_unique<TfheBootstrapper>(ctx);
        // Serial generation: the context RNG is not thread-safe.
        for (size_t i = 0; i < 4; ++i) {
            tenants.push_back(TenantKeyMaterial::generate(*ctx, *boot));
        }
        providerCalls = 0;
        // Learn what one resident tenant actually weighs.
        KeyStore probe(*ctx, provider(), 0, "keystore.test.probe");
        perKey = probe.acquire(0)->bytes;
        ASSERT_GT(perKey, 0u);
        providerCalls = 0;
    }

    KeyStore::Provider
    provider()
    {
        return [this](TenantId t) -> const TenantKeyMaterial & {
            providerCalls.fetch_add(1);
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

    /** Reference working set: materialize the stored key by hand. */
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
    std::atomic<u64> providerCalls{0};
    size_t perKey = 0;
};

TEST_F(KeyStoreFixture, ResidentBytesForMatchesActualWeight)
{
    EXPECT_EQ(KeyStore::residentBytesFor(ctx->params()), perKey);
}

TEST_F(KeyStoreFixture, LruEvictionOrderUnderWeightAccounting)
{
    // Room for exactly two resident tenants.
    KeyStore store(*ctx, provider(), 2 * perKey + perKey / 2,
                   "keystore.test.lru");
    store.acquire(0);
    store.acquire(1);
    EXPECT_TRUE(store.resident(0));
    EXPECT_TRUE(store.resident(1));
    EXPECT_EQ(store.residentBytes(), 2 * perKey);

    // Touch 0 so 1 becomes the LRU tail, then fault in 2.
    store.acquire(0);
    store.acquire(2);
    EXPECT_TRUE(store.resident(0));
    EXPECT_FALSE(store.resident(1));
    EXPECT_TRUE(store.resident(2));
    EXPECT_EQ(store.residentBytes(), 2 * perKey);

    // Fault 3: now 0 is the tail (2 was used last).
    store.acquire(3);
    EXPECT_FALSE(store.resident(0));
    EXPECT_TRUE(store.resident(2));
    EXPECT_TRUE(store.resident(3));

    KeyStore::Stats stats = store.stats();
    EXPECT_EQ(stats.evictions, 2u);
    EXPECT_EQ(stats.materializations, 4u);
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_EQ(stats.hits, 1u);
}

TEST_F(KeyStoreFixture, MaterializesExactlyOnceUnderConcurrentAcquire)
{
    KeyStore store(*ctx, provider(), 0, "keystore.test.once");
    const size_t threads = 8;
    std::vector<std::shared_ptr<const ResidentKeys>> got(threads);
    std::vector<std::thread> workers;
    for (size_t i = 0; i < threads; ++i) {
        workers.emplace_back([&, i] { got[i] = store.acquire(2); });
    }
    for (auto &w : workers) {
        w.join();
    }
    // One materialization, one provider lookup; everyone shares the
    // same resident object.
    EXPECT_EQ(providerCalls.load(), 1u);
    KeyStore::Stats stats = store.stats();
    EXPECT_EQ(stats.materializations, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, threads - 1);
    for (size_t i = 1; i < threads; ++i) {
        EXPECT_EQ(got[i].get(), got[0].get()) << "thread " << i;
    }
}

TEST_F(KeyStoreFixture, PinnedKeysSurviveEviction)
{
    // Budget for one tenant: faulting in tenant 1 must evict tenant 0
    // from the store, but the acquired pointer keeps the keys alive.
    KeyStore store(*ctx, provider(), perKey + perKey / 2,
                   "keystore.test.pin");
    std::shared_ptr<const ResidentKeys> pinned = store.acquire(0);
    store.acquire(1);
    EXPECT_FALSE(store.resident(0));
    EXPECT_TRUE(store.resident(1));
    EXPECT_EQ(store.stats().evictions, 1u);

    // The evicted-but-pinned keys still run a correct bootstrap.
    LweCiphertext ct = encryptBit(0, true);
    LweCiphertext out =
        boot->pbs(ct, pinned->signTv, pinned->bsk, pinned->ksk);
    EXPECT_TRUE(decryptBit(0, out));

    ResidentKeys ref = materializeDirect(0);
    LweCiphertext expect = boot->pbs(ct, ref.signTv, ref.bsk, ref.ksk);
    EXPECT_EQ(out.b, expect.b);
    EXPECT_EQ(out.a, expect.a);
}

TEST_F(KeyStoreFixture, ConcurrentAcquireUnderEvictionPressure)
{
    // Thrash: budget for one tenant, four threads acquiring all four
    // tenants; every handed-out pointer must stay usable regardless
    // of concurrent evictions (the TSan job runs this).
    KeyStore store(*ctx, provider(), perKey + perKey / 2,
                   "keystore.test.thrash");
    std::atomic<u64> bad{0};
    std::vector<std::thread> workers;
    for (size_t w = 0; w < 4; ++w) {
        workers.emplace_back([&, w] {
            for (size_t i = 0; i < 12; ++i) {
                TenantId t = (w + i) % 4;
                std::shared_ptr<const ResidentKeys> keys =
                    store.acquire(t);
                if (keys == nullptr || keys->bytes != perKey ||
                    keys->bsk.bsk.empty() ||
                    !keys->bsk.bsk.front().inEval) {
                    bad.fetch_add(1);
                }
            }
        });
    }
    for (auto &w : workers) {
        w.join();
    }
    EXPECT_EQ(bad.load(), 0u);
    KeyStore::Stats stats = store.stats();
    EXPECT_EQ(stats.hits + stats.misses, 48u);
    EXPECT_GE(stats.evictions, 3u);
    EXPECT_LE(store.residentBytes(), 2 * perKey);
}

TEST_F(KeyStoreFixture, SingleTenantWiderThanBudgetIsStillServed)
{
    KeyStore store(*ctx, provider(), perKey / 2, "keystore.test.wide");
    std::shared_ptr<const ResidentKeys> keys = store.acquire(0);
    ASSERT_NE(keys, nullptr);
    EXPECT_TRUE(store.resident(0));
    EXPECT_GT(store.residentBytes(), store.budgetBytes());
    // The over-budget tenant evicts as soon as anyone else faults in.
    store.acquire(1);
    EXPECT_FALSE(store.resident(0));
}

TEST_F(KeyStoreFixture, ExplicitEvictAndClear)
{
    KeyStore store(*ctx, provider(), 0, "keystore.test.evict");
    store.acquire(0);
    store.acquire(1);
    EXPECT_TRUE(store.evict(0));
    EXPECT_FALSE(store.evict(0));
    EXPECT_FALSE(store.resident(0));
    EXPECT_EQ(store.residentBytes(), perKey);
    store.clear();
    EXPECT_FALSE(store.resident(1));
    EXPECT_EQ(store.residentBytes(), 0u);
}

/** A materialization that throws while a second caller waits on the
 *  same tenant: both callers see the exception, and the failed entry
 *  leaves nothing behind — no residency, no weight, no counted
 *  materialization, no obstacle to eviction — so the next acquire
 *  materializes normally. */
TEST_F(KeyStoreFixture, FailedMaterializationReachesEveryWaiterAndLeavesNoEntry)
{
    std::atomic<bool> failNext{true};
    KeyStore *self = nullptr;
    KeyStore store(
        *ctx,
        [&](TenantId t) -> const TenantKeyMaterial & {
            if (t == 1 && failNext.exchange(false)) {
                // Hold the in-flight materialization until the second
                // caller has found the entry (a hit) and waits on it.
                while (self->stats().hits == 0) {
                    std::this_thread::yield();
                }
                throw std::runtime_error("injected materialization fault");
            }
            return tenants[static_cast<size_t>(t)];
        },
        perKey + perKey / 2, "keystore.test.fault");
    self = &store;
    store.acquire(0);
    const size_t bytesBefore = store.residentBytes();
    const u64 materializedBefore = store.stats().materializations;

    std::atomic<int> failures{0};
    auto acquireOne = [&] {
        try {
            store.acquire(1);
        } catch (const std::runtime_error &) {
            failures.fetch_add(1);
        }
    };
    std::thread first(acquireOne);
    while (!store.resident(1)) {
        std::this_thread::yield();
    }
    std::thread second(acquireOne);
    first.join();
    second.join();

    EXPECT_EQ(failures.load(), 2);
    EXPECT_FALSE(store.resident(1));
    EXPECT_EQ(store.residentBytes(), bytesBefore);
    EXPECT_EQ(store.stats().materializations, materializedBefore);

    // The failed entry does not hold up eviction: faulting tenant 2 in
    // under a one-tenant budget still evicts tenant 0.
    store.acquire(2);
    EXPECT_FALSE(store.resident(0));
    EXPECT_EQ(store.residentBytes(), perKey);

    std::shared_ptr<const ResidentKeys> keys = store.acquire(1);
    ASSERT_NE(keys, nullptr);
    EXPECT_EQ(keys->bytes, perKey);
    EXPECT_TRUE(keys->bsk.bsk.front().inEval);
    EXPECT_TRUE(store.resident(1));
    EXPECT_EQ(store.stats().materializations, materializedBefore + 2);
}

TEST_F(KeyStoreFixture, EvictRefaultMidWorkloadIsBitExact)
{
    // Budget for one tenant, alternating tenants through a
    // multi-tenant PbsServer: every request refaults its tenant's
    // keys (evicting the other), and every response must match the
    // direct single-shot PBS on freshly materialized keys.
    KeyStore store(*ctx, provider(), perKey + perKey / 2,
                   "keystore.test.refault");
    std::vector<ResidentKeys> ref;
    for (TenantId t = 0; t < 2; ++t) {
        ref.push_back(materializeDirect(t));
    }
    std::vector<TenantId> order = {0, 1, 0, 1, 0, 1};
    std::vector<bool> bits = {true, false, false, true, true, true};
    std::vector<LweCiphertext> cts;
    for (size_t i = 0; i < order.size(); ++i) {
        cts.push_back(encryptBit(order[i], bits[i]));
    }
    runtime::ServerOptions opts;
    opts.maxBatch = 1; // one batch per request: forced refault churn
    opts.maxWaitUs = 50;
    opts.label = "pbs_server.test.refault";
    {
        runtime::PbsServer server(ctx, store, opts);
        for (size_t i = 0; i < order.size(); ++i) {
            LweCiphertext out = server.submit(order[i], cts[i]).get();
            LweCiphertext expect =
                boot->pbs(cts[i], ref[order[i]].signTv,
                          ref[order[i]].bsk, ref[order[i]].ksk);
            EXPECT_EQ(out.b, expect.b) << "request " << i;
            EXPECT_EQ(out.a, expect.a) << "request " << i;
            EXPECT_EQ(decryptBit(order[i], out), bits[i])
                << "request " << i;
        }
    }
    KeyStore::Stats stats = store.stats();
    // Alternating under a one-tenant budget refaults every time.
    EXPECT_EQ(stats.materializations, order.size());
    EXPECT_GE(stats.evictions, order.size() - 2);
}

} // namespace
} // namespace trinity
