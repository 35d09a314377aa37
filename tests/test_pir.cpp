/**
 * @file
 * PIR subsystem tests: gadget exactness, keyswitched automorphisms,
 * oblivious query expansion (exact one-hot for random indices),
 * RLWE->GSW conversion, CMux-tree-vs-direct-index equivalence, the
 * end-to-end answer/decode path on every engine (bit-identical
 * serial vs threads vs simd vs sim), and the weight-accounted
 * database residency cache.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "backend/registry.h"
#include "backend/thread_pool_backend.h"
#include "pir/database.h"
#include "common/gadget.h"
#include "pir/pir.h"
#include "runtime/pir_server.h"

namespace trinity {
namespace pir {
namespace {

/** Engines every test host can run ("simd" resolves to the best
 *  compiled-in level, scalar at worst). */
std::vector<std::string>
engines()
{
    return {"serial", "threads", "simd", "sim"};
}

/** Activate an engine; "threads" gets an explicit 4-worker pool so
 *  the pipelined executor is exercised even on single-core hosts. */
void
activateEngine(const std::string &engine)
{
    auto &reg = BackendRegistry::instance();
    if (engine == "threads") {
        reg.use(std::make_unique<ThreadPoolBackend>(4));
    } else {
        reg.select(engine);
    }
}

struct SerialGuard
{
    ~SerialGuard() { BackendRegistry::instance().select("serial"); }
};

u64
centeredAbs(const Modulus &mod, u64 x)
{
    i64 c = centeredRep(x, mod.value());
    return static_cast<u64>(c < 0 ? -c : c);
}

// ----------------------------------------------------------------- gadget

void
checkGadgetReconstruction(u64 q, u32 logB, u32 levels)
{
    Gadget g(q, logB, levels);
    Modulus mod(q);
    Rng rng(7);
    std::vector<i64> digits(levels);
    // Truncation term q / B^levels (zero once the gadget covers all
    // of q) plus the per-level rounding of g_l = round(q / B^(l+1)).
    u32 width = logB * levels;
    u64 bound = (width >= 63 ? 0 : (q >> width)) +
                u64(levels) * (1ULL << logB);
    for (int trial = 0; trial < 200; ++trial) {
        u64 x = rng.uniform(q);
        g.decompose(x, digits.data());
        u64 recon = 0;
        for (u32 l = 0; l < levels; ++l) {
            EXPECT_LT(std::abs(digits[l]),
                      i64(1) << (logB - 1) | 1);
            u64 d = toResidue(digits[l], mod.value());
            recon = mod.add(recon, mod.mul(d, g.element(l)));
        }
        EXPECT_LE(centeredAbs(mod, mod.sub(recon, x)), bound)
            << "x=" << x << " logB=" << logB << " levels=" << levels;
    }
}

TEST(PirGadget, ReconstructsWithinBound)
{
    PirParams pp = PirParams::testTiny();
    const u64 q = pp.tfhe.q;
    // Fold/CMux gadget: top-32 truncated decomposition.
    checkGadgetReconstruction(q, pp.tfhe.logBg, pp.tfhe.lb);
    // Expansion keyswitch gadget: full-width, near-exact.
    checkGadgetReconstruction(q, pp.tfhe.logBks, pp.tfhe.lk);
}

// --------------------------------------------------- keyswitched automorphism

TEST(PirGalois, KeyswitchTracksAutomorphism)
{
    SerialGuard guard;
    PirParams pp = PirParams::testTiny();
    PirClient client(pp, 11);
    TfheContext &ctx = client.ctx();
    const TfheParams &p = ctx.params();
    const Modulus &mod = ctx.modulus();

    Rng rng(12);
    Poly msg(p.bigN, p.q);
    for (size_t i = 0; i < p.bigN; ++i) {
        msg[i] = mod.mul(rng.uniform(1ULL << pp.logP),
                         pp.delta());
    }
    GlweCiphertext ct = ctx.glweEncrypt(msg, client.secretKey());

    for (u32 j = 0; j < pp.expansionLevels(); ++j) {
        u64 g = expansionGaloisElement(p.bigN, j);
        GaloisKey key = makeGaloisKey(ctx, client.secretKey(), g);
        GlweCiphertext out = applyGalois(ctx, key, ct);
        Poly want = msg.automorphism(g);
        Poly got = ctx.glwePhase(out, client.secretKey());
        for (size_t i = 0; i < p.bigN; ++i) {
            EXPECT_LT(centeredAbs(mod, mod.sub(got[i], want[i])),
                      pp.delta() / 2)
                << "g=" << g << " coeff " << i;
        }
    }
}

// ------------------------------------------------------------- expansion

TEST(PirExpand, DecryptsToExactOneHot)
{
    SerialGuard guard;
    PirParams pp = PirParams::testTiny();
    PirClient client(pp, 21);
    TfheContext &ctx = client.ctx();
    const Modulus &mod = ctx.modulus();
    PirQueryKeys keys = client.makeQueryKeys();
    PirEngine engine(client.sharedCtx(), pp);
    Gadget gadget(pp.tfhe.q, pp.tfhe.logBg, pp.tfhe.lb);

    Rng rng(22);
    for (int trial = 0; trial < 3; ++trial) {
        size_t index = rng.uniform(pp.records());
        size_t row = index % pp.dim1;
        size_t col = index / pp.dim1;
        PirQuery query = client.makeQuery(index);
        std::vector<GlweCiphertext> expanded =
            engine.expand(keys, query);
        ASSERT_EQ(expanded.size(),
                  size_t(1) << pp.expansionLevels());

        // Selection slots: Delta at exactly the queried row.
        for (size_t i = 0; i < pp.dim1; ++i) {
            Poly ph = ctx.glwePhase(expanded[i], client.secretKey());
            u64 want = (i == row) ? pp.delta() : 0;
            for (size_t c = 0; c < pp.tfhe.bigN; ++c) {
                u64 expect = (c == 0) ? want : 0;
                EXPECT_LT(centeredAbs(mod, mod.sub(ph[c], expect)),
                          pp.delta() / 2)
                    << "entry " << i << " coeff " << c;
            }
        }
        // GSW slots: g_l * bit_t(col), exact up to expansion noise.
        for (u32 t = 0; t < pp.gswDims; ++t) {
            u64 bit = (col >> t) & 1;
            for (u32 l = 0; l < pp.tfhe.lb; ++l) {
                const GlweCiphertext &e =
                    expanded[pp.dim1 + t * pp.tfhe.lb + l];
                Poly ph = ctx.glwePhase(e, client.secretKey());
                u64 want = bit ? gadget.element(l) : 0;
                EXPECT_LT(centeredAbs(mod, mod.sub(ph[0], want)),
                          pp.delta() / 2)
                    << "t=" << t << " l=" << l;
            }
        }
    }
}

// ------------------------------------------------------- RLWE->GSW + CMux

TEST(PirGsw, ConvertedGswDrivesCmux)
{
    SerialGuard guard;
    PirParams pp = PirParams::testTiny();
    PirClient client(pp, 31);
    TfheContext &ctx = client.ctx();
    const Modulus &mod = ctx.modulus();
    PirQueryKeys keys = client.makeQueryKeys();
    PirEngine engine(client.sharedCtx(), pp);

    size_t col = 0b10 % (size_t(1) << pp.gswDims);
    size_t index = col * pp.dim1 + 3;
    PirQuery query = client.makeQuery(index);
    std::vector<GlweCiphertext> expanded = engine.expand(keys, query);

    Poly m0(pp.tfhe.bigN, pp.tfhe.q), m1(pp.tfhe.bigN, pp.tfhe.q);
    m0[0] = mod.mul(1, pp.delta());
    m1[0] = mod.mul(2, pp.delta());
    GlweCiphertext c0 = ctx.glweTrivial(m0);
    GlweCiphertext c1 = ctx.glweTrivial(m1);

    for (u32 t = 0; t < pp.gswDims; ++t) {
        u64 bit = (col >> t) & 1;
        GgswCiphertext gsw = engine.queryGsw(keys, expanded, t);
        GlweCiphertext sel = ctx.cmux(gsw, c0, c1);
        Poly ph = ctx.glwePhase(sel, client.secretKey());
        u64 want = mod.mul(bit ? 2 : 1, pp.delta());
        EXPECT_LT(centeredAbs(mod, mod.sub(ph[0], want)),
                  pp.delta() / 2)
            << "t=" << t << " bit=" << bit;
    }
}

// --------------------------------------------------------------- end to end

TEST(PirE2e, AnswerMatchesDirectIndex)
{
    SerialGuard guard;
    PirParams pp = PirParams::testTiny();
    PirClient client(pp, 41);
    PirQueryKeys keys = client.makeQueryKeys();
    PirEngine engine(client.sharedCtx(), pp);
    PirDatabase db = PirDatabase::random(pp, 42);
    ResidentPirDb resident = materializePirDb(client.ctx(), db);

    Rng rng(43);
    std::set<size_t> indices = {0, pp.records() - 1};
    while (indices.size() < 5) {
        indices.insert(rng.uniform(pp.records()));
    }
    for (size_t index : indices) {
        PirQuery query = client.makeQuery(index);
        PirResponse resp = engine.answer(resident, keys, query);
        EXPECT_EQ(client.decode(resp), db.record(index))
            << "index " << index;
    }
}

TEST(PirE2e, BitIdenticalAcrossEngines)
{
    SerialGuard guard;
    PirParams pp = PirParams::testTiny();
    PirClient client(pp, 51);
    PirQueryKeys keys = client.makeQueryKeys();
    PirEngine engine(client.sharedCtx(), pp);
    PirDatabase db = PirDatabase::random(pp, 52);
    size_t index = pp.records() / 2 + 1;
    PirQuery query = client.makeQuery(index);

    PirResponse reference;
    bool haveReference = false;
    for (const std::string &name : engines()) {
        activateEngine(name);
        // Materialize per engine too: the serving form must also be
        // engine-independent.
        ResidentPirDb resident = materializePirDb(client.ctx(), db);
        PirResponse resp = engine.answer(resident, keys, query);
        BackendRegistry::instance().select("serial");
        EXPECT_EQ(client.decode(resp), db.record(index))
            << "engine " << name;
        if (!haveReference) {
            reference = resp;
            haveReference = true;
        } else {
            EXPECT_TRUE(resp == reference)
                << "engine " << name
                << " response differs from serial";
        }
    }
}

// ---------------------------------------------------------------- residency

TEST(PirDbStoreTest, LruEvictionAndPinning)
{
    SerialGuard guard;
    PirParams pp = PirParams::testTiny();
    PirClient client(pp, 61);
    std::vector<PirDatabase> dbs;
    for (u64 t = 0; t < 3; ++t) {
        dbs.push_back(PirDatabase::random(pp, 100 + t));
    }
    size_t perDb = pp.residentBytes();
    // Budget fits exactly two resident databases.
    PirDbStore store(
        client.ctx(), [&](PirTenantId t) -> const PirDatabase & {
            return dbs[t];
        },
        2 * perDb, "pir_dbstore_test");

    auto a = store.acquire(0);
    auto b = store.acquire(1);
    EXPECT_EQ(store.stats().misses, 2u);
    EXPECT_EQ(store.residentBytes(), 2 * perDb);

    // Touch 0, then fault 2: LRU should evict 1.
    store.acquire(0);
    EXPECT_EQ(store.stats().hits, 1u);
    auto c = store.acquire(2);
    EXPECT_TRUE(store.resident(0));
    EXPECT_FALSE(store.resident(1));
    EXPECT_TRUE(store.resident(2));
    EXPECT_EQ(store.stats().evictions, 1u);

    // The pinned pointer outlives eviction.
    EXPECT_EQ(b->polys.size(),
              pp.records() * pp.tfhe.lb);
    // Re-acquire of the evicted tenant is a fresh materialization.
    auto b2 = store.acquire(1);
    EXPECT_EQ(store.stats().materializations, 4u);
    EXPECT_NE(b.get(), b2.get());

    EXPECT_TRUE(store.evict(2));
    EXPECT_FALSE(store.resident(2));
    EXPECT_FALSE(store.evict(2));
}

// ------------------------------------------------------------------ server

TEST(PirServerTest, ConcurrentQueriesDecodeCorrectly)
{
    SerialGuard guard;
    PirParams pp = PirParams::testTiny();
    PirClient client(pp, 71);
    PirQueryKeys keys = client.makeQueryKeys();
    PirDatabase db = PirDatabase::random(pp, 72);
    PirDbStore store(
        client.ctx(),
        [&](PirTenantId) -> const PirDatabase & { return db; }, 0,
        "pir_server_test_store");

    runtime::ServerOptions opts;
    opts.label = "pir_server_test";
    opts.maxBatch = 4;
    opts.maxQueue = 64;
    runtime::PirServer server(
        client.sharedCtx(), pp, store,
        [&](PirTenantId) -> const PirQueryKeys & { return keys; },
        opts);

    std::vector<size_t> indices;
    std::vector<std::future<PirResponse>> futs;
    Rng rng(73);
    for (int i = 0; i < 8; ++i) {
        size_t index = rng.uniform(pp.records());
        indices.push_back(index);
        futs.push_back(
            server.submit(i % 2, client.makeQuery(index)));
    }
    for (size_t i = 0; i < futs.size(); ++i) {
        PirResponse resp = futs[i].get();
        EXPECT_EQ(client.decode(resp), db.record(indices[i]))
            << "query " << i;
    }
    runtime::ServerStats st = server.stats();
    EXPECT_EQ(st.requests, 8u);
    EXPECT_EQ(st.rejected, 0u);
    EXPECT_GE(st.batches, 1u);
}

/** Malformed queries and queries for unknown tenants, interleaved with
 *  good traffic on the threads engine, fail only their own future:
 *  no abort, and every good query still decodes. Tenants 0 and 1 are
 *  served; the store also knows tenant 2 (so its unknown-tenant
 *  failure comes from the keys provider), and neither knows 6 or 10. */
TEST(PirServerTest, MalformedQueriesFailOnlyTheirOwnFuture)
{
    SerialGuard guard;
    BackendRegistry::instance().select("threads");
    PirParams pp = PirParams::testTiny();
    const TfheParams &tp = pp.tfhe;
    PirClient client(pp, 81);
    PirQueryKeys keys = client.makeQueryKeys();
    PirDatabase db = PirDatabase::random(pp, 82);
    const std::vector<const PirDatabase *> tenant_dbs = {&db, &db, &db};
    const std::vector<const PirQueryKeys *> tenant_keys = {&keys, &keys};
    PirDbStore store(
        client.ctx(),
        [&](PirTenantId t) -> const PirDatabase & {
            return *tenant_dbs.at(t);
        },
        0, "pir_invalid_test_store");
    const u64 other_q = tp.q == 65537 ? 12289 : 65537;
    const std::vector<std::function<void(PirQuery &)>> breakers = {
        [&](PirQuery &q) { q.ct.b = Poly(tp.bigN / 2, tp.q); },
        [&](PirQuery &q) { q.ct.a.push_back(q.ct.a[0]); },
        [&](PirQuery &q) { q.ct.a.clear(); },
        [&](PirQuery &q) { q.ct.a[0] = Poly(tp.bigN, other_q); },
        [&](PirQuery &q) { q.ct.b.setDomain(Domain::Eval); },
        [&](PirQuery &q) { q.ct.a[0][5] = tp.q + 3; },
    };

    std::vector<size_t> indices;
    std::vector<std::future<PirResponse>> good;
    std::vector<std::future<PirResponse>> bad;
    Rng rng(83);
    {
        runtime::ServerOptions opts;
        opts.label = "pir_invalid_test";
        opts.maxBatch = 4;
        opts.maxQueue = 64;
        runtime::PirServer server(
            client.sharedCtx(), pp, store,
            [&](PirTenantId t) -> const PirQueryKeys & {
                return *tenant_keys.at(t);
            },
            opts);
        for (size_t i = 0; i < 12; ++i) {
            size_t index = rng.uniform(pp.records());
            PirQuery broken = client.makeQuery(index);
            breakers[i % breakers.size()](broken);
            bad.push_back(server.submit(i % 2, std::move(broken)));
            if (i % 4 == 0) { // well-formed, but nobody's tenant
                bad.push_back(server.submit(2 + i, client.makeQuery(0)));
            }
            indices.push_back(index);
            good.push_back(server.submit(i % 2, client.makeQuery(index)));
        }
    }
    for (auto &f : bad) {
        EXPECT_THROW(f.get(), runtime::InvalidRequest);
    }
    for (size_t i = 0; i < good.size(); ++i) {
        EXPECT_EQ(client.decode(good[i].get()), db.record(indices[i]))
            << "query " << i;
    }
}

} // namespace
} // namespace pir
} // namespace trinity
