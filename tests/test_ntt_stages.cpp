/**
 * @file
 * Stage-level NTT and fused-epilogue tests: the KernelSet's stage-range
 * entry points must be bit-identical to the monolithic transforms for
 * ANY stage/butterfly chunking — including chunk boundaries that are
 * not lane multiples — at every SIMD level the host can run; the
 * coefficient-tiled thread-pool executor that is built on them must be
 * bit-identical to serial (down to a 1-worker pool); the fused
 * NTT+MAC / iNTT+add entry points must equal their unfused pairs on
 * every engine; and the pooled scratch arena must make the keyswitch
 * and PBS hot loops allocation-free after warmup.
 */

#include <algorithm>
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "backend/registry.h"
#include "backend/scratch_arena.h"
#include "backend/simd_backend.h"
#include "backend/simd_kernels.h"
#include "backend/thread_pool_backend.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"
#include "common/primes.h"
#include "poly/ntt.h"
#include "poly/rns.h"
#include "runtime/batched_pbs.h"

namespace trinity {
namespace {

std::vector<simd::Level>
availableLevels()
{
    std::vector<simd::Level> out = {simd::Level::Scalar};
    for (simd::Level level : {simd::Level::Avx2, simd::Level::Avx512}) {
        if (simd::levelAvailable(level)) {
            out.push_back(level);
        }
    }
    return out;
}

std::vector<u64>
randomSpan(size_t n, u64 q, u64 seed)
{
    Rng rng(seed);
    return rng.uniformVec(n, q);
}

/** Uneven butterfly split points for one stage: boundaries that are
 *  neither lane multiples nor block multiples. */
std::vector<size_t>
unevenSplits(size_t half)
{
    std::vector<size_t> cuts = {0};
    for (size_t c : {size_t(1), size_t(3), size_t(7), half / 2 - 1,
                     half / 2 + 5, half - 3}) {
        if (c > cuts.back() && c < half) {
            cuts.push_back(c);
        }
    }
    cuts.push_back(half);
    return cuts;
}

/** Stage-by-stage over the full butterfly range == monolithic. */
TEST(NttStages, FullRangePerStageMatchesMonolithic)
{
    for (simd::Level level : availableLevels()) {
        const auto &ks = simd::kernelsForLevel(level);
        for (size_t n : {size_t(16), size_t(1024), size_t(4096)}) {
            for (u32 bits : {30u, 50u, 59u}) {
                u64 q = findNttPrimes(bits, 2 * n, 1)[0];
                auto table = NttTableCache::get(n, q);
                size_t logn = table->logn();
                auto ref = randomSpan(n, q, n + bits);
                auto fwd = ref;
                table->forward(fwd.data());

                auto got = ref;
                for (size_t s = 0; s < logn; ++s) {
                    ks.nttForwardStages(*table, got.data(), s, s + 1, 0,
                                        n / 2);
                }
                EXPECT_EQ(got, fwd)
                    << simd::levelName(level) << " fwd n=" << n
                    << " bits=" << bits;

                auto inv = fwd;
                table->inverse(inv.data());
                EXPECT_EQ(inv, ref) << "inverse round-trip n=" << n;

                got = fwd;
                for (size_t s = 0; s < logn; ++s) {
                    ks.nttInverseStages(*table, got.data(), s, s + 1, 0,
                                        n / 2, /*scaleN=*/true);
                }
                EXPECT_EQ(got, ref)
                    << simd::levelName(level) << " inv n=" << n
                    << " bits=" << bits;
            }
        }
    }
}

/** Butterfly chunk boundaries that are NOT lane multiples (and not
 *  block multiples) must still reproduce the monolithic transform. */
TEST(NttStages, UnevenChunkBoundariesMatchMonolithic)
{
    for (simd::Level level : availableLevels()) {
        const auto &ks = simd::kernelsForLevel(level);
        for (size_t n : {size_t(16), size_t(1024), size_t(4096)}) {
            u64 q = findNttPrimes(50, 2 * n, 1)[0];
            auto table = NttTableCache::get(n, q);
            size_t logn = table->logn();
            auto cuts = unevenSplits(n / 2);
            auto ref = randomSpan(n, q, 3 * n + 1);
            auto fwd = ref;
            table->forward(fwd.data());

            auto got = ref;
            for (size_t s = 0; s < logn; ++s) {
                for (size_t c = 0; c + 1 < cuts.size(); ++c) {
                    ks.nttForwardStages(*table, got.data(), s, s + 1,
                                        cuts[c], cuts[c + 1]);
                }
            }
            EXPECT_EQ(got, fwd)
                << simd::levelName(level) << " fwd n=" << n;

            got = fwd;
            for (size_t s = 0; s < logn; ++s) {
                for (size_t c = 0; c + 1 < cuts.size(); ++c) {
                    ks.nttInverseStages(*table, got.data(), s, s + 1,
                                        cuts[c], cuts[c + 1],
                                        /*scaleN=*/true);
                }
            }
            EXPECT_EQ(got, ref)
                << simd::levelName(level) << " inv n=" << n;
        }
    }
}

/** The tiled executor's exact phase decomposition — per-stage chunks
 *  for the global stages, one multi-stage region call per tile —
 *  replayed at the kernel level for several tile counts. */
TEST(NttStages, TileRegionDecompositionMatchesMonolithic)
{
    for (simd::Level level : availableLevels()) {
        const auto &ks = simd::kernelsForLevel(level);
        size_t n = 4096;
        u64 q = findNttPrimes(55, 2 * n, 1)[0];
        auto table = NttTableCache::get(n, q);
        size_t logn = table->logn();
        auto ref = randomSpan(n, q, 77);
        auto fwd = ref;
        table->forward(fwd.data());
        for (size_t tiles : {size_t(2), size_t(4), size_t(8)}) {
            size_t log_tiles = 0;
            while ((size_t{1} << log_tiles) < tiles) {
                ++log_tiles;
            }
            size_t bchunk = (n / 2) / tiles;

            auto got = ref;
            for (size_t s = 0; s < log_tiles; ++s) {
                for (size_t c = 0; c < tiles; ++c) {
                    ks.nttForwardStages(*table, got.data(), s, s + 1,
                                        c * bchunk, (c + 1) * bchunk);
                }
            }
            for (size_t c = 0; c < tiles; ++c) {
                ks.nttForwardStages(*table, got.data(), log_tiles, logn,
                                    c * bchunk, (c + 1) * bchunk);
            }
            EXPECT_EQ(got, fwd)
                << simd::levelName(level) << " tiles=" << tiles;

            got = fwd;
            for (size_t c = 0; c < tiles; ++c) {
                ks.nttInverseStages(*table, got.data(), 0,
                                    logn - log_tiles, c * bchunk,
                                    (c + 1) * bchunk, /*scaleN=*/false);
            }
            for (size_t s = logn - log_tiles; s < logn; ++s) {
                for (size_t c = 0; c < tiles; ++c) {
                    ks.nttInverseStages(*table, got.data(), s, s + 1,
                                        c * bchunk, (c + 1) * bchunk,
                                        /*scaleN=*/true);
                }
            }
            EXPECT_EQ(got, ref)
                << simd::levelName(level) << " tiles=" << tiles;
        }
    }
}

/** The thread-pool tiled path (now running SIMD stage kernels inside
 *  each tile) stays bit-identical to serial, including a 1-worker
 *  pool and lengths below the tiling threshold. */
TEST(NttStages, TiledThreadPoolBitIdentical)
{
    for (size_t n : {size_t(16), size_t(1024), size_t(4096)}) {
        auto qs = findNttPrimes(40, 2 * n, 2);
        Rng rng(n);
        RnsPoly ref = RnsPoly::uniform(n, qs, rng);
        RnsPoly expect = ref;
        BackendRegistry::instance().select("serial");
        expect.toEval();
        for (size_t threads : {1, 4, 8}) {
            RnsPoly got = ref;
            BackendRegistry::instance().use(
                std::make_unique<ThreadPoolBackend>(threads));
            got.toEval();
            EXPECT_TRUE(std::ranges::equal(got.flat(), expect.flat()))
                << threads << " threads fwd n=" << n;
            got.toCoeff();
            EXPECT_TRUE(std::ranges::equal(got.flat(), ref.flat()))
                << threads << " threads inv n=" << n;
        }
        BackendRegistry::instance().select("serial");
    }
}

/** Fused forward NTT + one/two-accumulator MAC == the unfused pair,
 *  at the kernel level per SIMD level. */
TEST(NttFused, ForwardMulAddMatchesUnfused)
{
    for (simd::Level level : availableLevels()) {
        const auto &ks = simd::kernelsForLevel(level);
        for (size_t n : {size_t(16), size_t(1024)}) {
            u64 q = findNttPrimes(50, 2 * n, 1)[0];
            Modulus mod(q);
            auto table = NttTableCache::get(n, q);
            auto a = randomSpan(n, q, 21);
            auto b0 = randomSpan(n, q, 22);
            auto b1 = randomSpan(n, q, 23);
            auto acc0 = randomSpan(n, q, 24);
            auto acc1 = randomSpan(n, q, 25);

            auto ea = a;
            auto e0 = acc0;
            auto e1 = acc1;
            table->forward(ea.data());
            const auto &ref = simd::scalarKernels();
            ref.mulAdd(e0.data(), ea.data(), b0.data(), mod, n);
            ref.mulAdd(e1.data(), ea.data(), b1.data(), mod, n);

            auto ga = a;
            auto g0 = acc0;
            auto g1 = acc1;
            ks.nttForwardMulAdd(*table, ga.data(), b0.data(), g0.data(),
                                b1.data(), g1.data());
            EXPECT_EQ(ga, ea) << simd::levelName(level) << " n=" << n;
            EXPECT_EQ(g0, e0) << simd::levelName(level) << " n=" << n;
            EXPECT_EQ(g1, e1) << simd::levelName(level) << " n=" << n;

            // Single-accumulator form (acc1 == nullptr).
            ga = a;
            g0 = acc0;
            ks.nttForwardMulAdd(*table, ga.data(), b0.data(), g0.data(),
                                nullptr, nullptr);
            EXPECT_EQ(g0, e0)
                << simd::levelName(level) << " single-acc n=" << n;
        }
    }
}

/** Fused inverse NTT + accumulate == the unfused pair per level. */
TEST(NttFused, InverseAddMatchesUnfused)
{
    for (simd::Level level : availableLevels()) {
        const auto &ks = simd::kernelsForLevel(level);
        for (size_t n : {size_t(16), size_t(1024)}) {
            u64 q = findNttPrimes(50, 2 * n, 1)[0];
            Modulus mod(q);
            auto table = NttTableCache::get(n, q);
            auto a = randomSpan(n, q, 31);
            auto acc = randomSpan(n, q, 32);

            auto ea = a;
            auto eacc = acc;
            table->inverse(ea.data());
            simd::scalarKernels().add(eacc.data(), eacc.data(),
                                      ea.data(), mod, n);

            auto ga = a;
            auto gacc = acc;
            ks.nttInverseAdd(*table, ga.data(), gacc.data());
            EXPECT_EQ(ga, ea) << simd::levelName(level) << " n=" << n;
            EXPECT_EQ(gacc, eacc)
                << simd::levelName(level) << " n=" << n;
        }
    }
}

/** The fused batch entry points are bit-identical to the unfused
 *  recording on every engine (serial, threads, simd, sim). */
TEST(NttFused, BatchMatchesUnfusedAcrossEngines)
{
    size_t n = 1024;
    size_t limbs = 4;
    auto qs = findNttPrimes(45, 2 * n, limbs);

    // Unfused reference, computed once with the serial tables.
    std::vector<std::vector<u64>> a(limbs), b(limbs), acc(limbs),
        inv_a(limbs), inv_acc(limbs);
    for (size_t i = 0; i < limbs; ++i) {
        a[i] = randomSpan(n, qs[i], 41 + i);
        b[i] = randomSpan(n, qs[i], 51 + i);
        acc[i] = randomSpan(n, qs[i], 61 + i);
        inv_a[i] = randomSpan(n, qs[i], 71 + i);
        inv_acc[i] = randomSpan(n, qs[i], 81 + i);
    }
    std::vector<std::vector<u64>> efwd_a = a, efwd_acc = acc,
                                  einv_a = inv_a, einv_acc = inv_acc;
    for (size_t i = 0; i < limbs; ++i) {
        Modulus mod(qs[i]);
        auto table = NttTableCache::get(n, qs[i]);
        table->forward(efwd_a[i].data());
        simd::scalarKernels().mulAdd(efwd_acc[i].data(),
                                     efwd_a[i].data(), b[i].data(), mod,
                                     n);
        table->inverse(einv_a[i].data());
        simd::scalarKernels().add(einv_acc[i].data(),
                                  einv_acc[i].data(), einv_a[i].data(),
                                  mod, n);
    }

    auto &reg = BackendRegistry::instance();
    std::vector<std::unique_ptr<PolyBackend>> engines;
    engines.push_back(reg.create("serial"));
    engines.push_back(std::make_unique<ThreadPoolBackend>(4));
    engines.push_back(reg.create("simd"));
    engines.push_back(reg.create("sim"));
    for (auto &engine : engines) {
        std::vector<std::vector<u64>> ga = a, gacc = acc,
                                      gia = inv_a, giacc = inv_acc;
        std::vector<NttMulAddJob> fwd(limbs);
        std::vector<NttInvAddJob> inv(limbs);
        std::vector<std::shared_ptr<const NttTable>> tables(limbs);
        for (size_t i = 0; i < limbs; ++i) {
            tables[i] = NttTableCache::get(n, qs[i]);
            fwd[i] = {ga[i].data(),   tables[i].get(), b[i].data(),
                      gacc[i].data(), nullptr,         nullptr};
            inv[i] = {gia[i].data(), tables[i].get(), giacc[i].data()};
        }
        engine->nttForwardMulAddBatch(fwd.data(), limbs);
        engine->nttInverseAddBatch(inv.data(), limbs);
        for (size_t i = 0; i < limbs; ++i) {
            EXPECT_EQ(ga[i], efwd_a[i])
                << engine->name() << " fwd limb " << i;
            EXPECT_EQ(gacc[i], efwd_acc[i])
                << engine->name() << " fwd acc limb " << i;
            EXPECT_EQ(gia[i], einv_a[i])
                << engine->name() << " inv limb " << i;
            EXPECT_EQ(giacc[i], einv_acc[i])
                << engine->name() << " inv acc limb " << i;
        }
    }
}

/** The scratch arena recycles slabs: after one warmup call at a given
 *  shape, the CKKS keyswitch hot loop acquires every scratch buffer
 *  from the pool — zero heap allocations per call. After one warmup
 *  chain, a full HMult -> rescale -> HRotate chain — every ciphertext
 *  component, evaluator temporary and keyswitch slab — does too. */
TEST(ScratchArenaReuse, KeySwitchZeroMissAfterWarmup)
{
    for (const char *engine : {"serial", "threads"}) {
        BackendRegistry::instance().select(engine);
        auto ctx =
            std::make_shared<CkksContext>(CkksParams::testSmall());
        CkksKeyGenerator keygen(ctx, 7);
        CkksEncoder encoder(ctx);
        CkksEncryptor enc(ctx, keygen.makePublicKey(), 8);
        CkksEvaluator eval(ctx);
        auto relin = keygen.makeRelinKey();
        auto rot = keygen.makeRotationKey(1);
        std::vector<double> vals(ctx->params().slots(), 0.25);
        auto pt = encoder.encodeReal(vals, ctx->params().maxLevel, 0);
        auto ct = enc.encrypt(pt);
        auto chain = [&] {
            CkksCiphertext prod = eval.multiply(ct, ct, relin);
            eval.rescaleInPlace(prod);
            return eval.rotate(prod, 1, rot);
        };

        eval.multiply(ct, ct, relin); // warmup fills the arena
        ScratchArena::resetStats();
        for (int rep = 0; rep < 3; ++rep) {
            eval.multiply(ct, ct, relin);
        }
        auto stats = ScratchArena::stats();
        EXPECT_EQ(stats.misses, 0u)
            << engine << ": keyswitch allocated after warmup";
        EXPECT_GT(stats.hits, 0u)
            << engine << ": keyswitch never touched the arena";

        chain(); // warms the rescaled and rotated shapes
        ScratchArena::resetStats();
        for (int rep = 0; rep < 3; ++rep) {
            CkksCiphertext out = chain();
            EXPECT_EQ(out.c0.numLimbs(), ctx->params().maxLevel);
        }
        stats = ScratchArena::stats();
        EXPECT_EQ(stats.misses, 0u)
            << engine << ": a warmed chain allocated";
        // multiply: 4 operand copies + d0 + 2 accumulators + ModDown
        // target + digit slabs; rotate: 2 automorphism outputs + the
        // same keyswitch set. At least one slab per RnsPoly.
        EXPECT_GE(stats.hits, 3u * 10u)
            << engine << ": chain polys bypass the arena";
    }
    BackendRegistry::instance().select("serial");
}

/** A keyswitch output a caller keeps (a rotated ciphertext's c1) holds
 *  a slab sized for its own q limbs, not the extended-basis
 *  accumulator it was computed in. */
TEST(ScratchArenaReuse, RotatedCiphertextHoldsCompactSlabs)
{
    BackendRegistry::instance().select("serial");
    auto ctx = std::make_shared<CkksContext>(CkksParams::testSmall());
    CkksKeyGenerator keygen(ctx, 7);
    CkksEncoder encoder(ctx);
    CkksEncryptor enc(ctx, keygen.makePublicKey(), 8);
    CkksEvaluator eval(ctx);
    auto rot = keygen.makeRotationKey(1);
    std::vector<double> vals(ctx->params().slots(), 0.25);
    auto ct = enc.encrypt(
        encoder.encodeReal(vals, ctx->params().maxLevel, 0));
    eval.rescaleInPlace(ct);

    ScratchArena &arena = ScratchArena::local();
    CkksCiphertext out = eval.rotate(ct, 1, rot);
    const size_t limb_bytes = out.c1.n() * sizeof(u64);
    const size_t compact = out.c1.numLimbs() * limb_bytes;
    const size_t fits = compact + compact / ScratchArena::kSlackDiv;
    ASSERT_GT(compact + ctx->params().alpha() * limb_bytes, fits)
        << "shape cannot tell a compact slab from an extended one";
    for (RnsPoly *comp : {&out.c0, &out.c1}) {
        size_t idle = arena.idleBytes();
        *comp = RnsPoly(); // release the slab into this thread's pool
        EXPECT_GT(arena.idleBytes(), idle);
        EXPECT_LE(arena.idleBytes() - idle, fits);
    }
}

/** Same contract for the batched PBS path: warmed up, the blind-
 *  rotation loop never allocates from the arena's slab classes. */
TEST(ScratchArenaReuse, PbsZeroMissAfterWarmup)
{
    BackendRegistry::instance().select("serial");
    TfheGateBootstrapper gb(TfheParams::testTiny(), 515);
    runtime::BatchedBootstrapper bb(gb);
    std::vector<LweCiphertext> cts;
    for (bool b : {true, false, true}) {
        cts.push_back(gb.encryptBit(b));
    }
    bb.bootstrapSignBatch(cts); // warmup
    ScratchArena::resetStats();
    bb.bootstrapSignBatch(cts);
    EXPECT_EQ(ScratchArena::stats().misses, 0u);
}

/** Arena mechanics: exact-size reuse, cross-size isolation, stats. */
TEST(ScratchArenaReuse, BucketsReuseExactSizes)
{
    ScratchArena &arena = ScratchArena::local();
    arena.clear();
    ScratchArena::resetStats();
    u64 *p = nullptr;
    {
        ScratchBuffer b = arena.acquire(1024);
        p = b.data();
        EXPECT_EQ(b.size(), 1024u);
    }
    EXPECT_EQ(ScratchArena::stats().misses, 1u);
    {
        ScratchBuffer b = arena.acquire(1024);
        EXPECT_EQ(b.data(), p); // same slab back
        ScratchBuffer c = arena.acquire(1024);
        EXPECT_NE(c.data(), p); // pool empty -> fresh slab
        ScratchBuffer d = arena.acquire(512);
        EXPECT_NE(d.data(), nullptr);
    }
    auto stats = ScratchArena::stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 3u);
    arena.clear();
}

/** Paper-like limb counts (L = 35, dnum = 3) at a test-size ring, so
 *  the 36/35-limb shapes of a rescale chain run in milliseconds. */
CkksParams
wideChainParams()
{
    CkksParams p = CkksParams::paperDefault();
    p.n = 1 << 10;
    return p;
}

/** Best fit across a dropped limb: a poly that lost its last limb
 *  keeps its slab, and a one-limb-shorter request reuses a pooled slab
 *  of the longer shape instead of allocating. The smallest fitting
 *  slab wins; a request far below a slab's capacity does not take it. */
TEST(ScratchArenaReuse, BestFitReusesSlabAcrossDroppedLimb)
{
    ScratchArena &arena = ScratchArena::local();
    arena.clear();
    const size_t n = 1024;
    std::vector<u64> qs = findNttPrimes(36, 2 * n, 36);
    std::vector<u64> qs35(qs.begin(), qs.end() - 1);

    RnsPoly p(n, qs);
    const u64 *slab = p.limbData(0);
    p.dropLastLimb();
    EXPECT_EQ(p.limbData(0), slab); // dropLastLimb keeps the slab
    EXPECT_EQ(p.flat().size(), 35 * n);
    p = RnsPoly(); // release the 36-limb slab

    ScratchArena::resetStats();
    {
        RnsPoly q = RnsPoly::uninitialized(n, qs35);
        EXPECT_EQ(q.limbData(0), slab); // 35 limbs reuse the 36 slab
    }
    EXPECT_EQ(ScratchArena::stats().hits, 1u);
    EXPECT_EQ(ScratchArena::stats().misses, 0u);

    // Best fit: with 36- and 39-limb slabs pooled, 35 limbs take 36.
    u64 *p36 = nullptr;
    u64 *p39 = nullptr;
    {
        ScratchBuffer a = arena.acquire(36 * n);
        ScratchBuffer b = arena.acquire(39 * n);
        p36 = a.data();
        p39 = b.data();
    }
    {
        ScratchBuffer c = arena.acquire(35 * n);
        EXPECT_EQ(c.data(), p36);
        EXPECT_EQ(c.size(), 35 * n);
        EXPECT_GE(c.capacity(), 36 * n);
        // 30 limbs are more than 1/kSlackDiv below the 39-limb slab.
        ScratchBuffer d = arena.acquire(30 * n);
        EXPECT_NE(d.data(), p39);
        ScratchBuffer e = arena.acquire(36 * n);
        EXPECT_EQ(e.data(), p39); // 36 fits the 39 slab's slack
    }
    arena.clear();
    EXPECT_EQ(arena.idleBytes(), 0u);
}

/** Alternating 36- and 35-limb chains settle on one set of slabs: no
 *  misses once both shapes ran, idle bytes flat from round to round
 *  (RSS cannot creep), and never above the bound. Releases past the
 *  bound are freed, not pooled. */
TEST(ScratchArenaReuse, IdleBoundHoldsAcrossAlternatingLevels)
{
    BackendRegistry::instance().select("serial");
    ScratchArena &arena = ScratchArena::local();
    arena.clear();
    CkksParams params = wideChainParams();
    auto ctx = std::make_shared<CkksContext>(params);
    CkksKeyGenerator keygen(ctx, 9);
    CkksEncoder encoder(ctx);
    CkksEncryptor enc(ctx, keygen.makePublicKey(), 10);
    CkksEvaluator eval(ctx);
    auto relin = keygen.makeRelinKey();
    auto rot = keygen.makeRotationKey(1);
    std::vector<double> vals(params.slots(), 0.5);
    CkksCiphertext top = enc.encrypt(encoder.encodeReal(vals, 35));
    CkksCiphertext below = enc.encrypt(encoder.encodeReal(vals, 34));
    ASSERT_EQ(top.c0.numLimbs(), 36u);
    ASSERT_EQ(below.c0.numLimbs(), 35u);
    auto chain = [&](const CkksCiphertext &ct) {
        CkksCiphertext prod = eval.multiply(ct, ct, relin);
        eval.rescaleInPlace(prod);
        return eval.rotate(prod, 1, rot);
    };

    chain(top); // warm both shapes
    chain(below);
    size_t idle = arena.idleBytes();
    EXPECT_GT(idle, 0u);
    ScratchArena::resetStats();
    for (int round = 0; round < 3; ++round) {
        chain(top);
        chain(below);
        EXPECT_EQ(arena.idleBytes(), idle) << "round " << round;
        EXPECT_LE(arena.idleBytes(), ScratchArena::kMaxIdleBytes);
    }
    EXPECT_EQ(ScratchArena::stats().misses, 0u);

    // Past the bound: three slabs of 40% of it each; only two fit, the
    // third is freed on release. (Untouched slabs cost no RSS.)
    arena.clear();
    const size_t big = ScratchArena::kMaxIdleBytes * 2 / 5 / sizeof(u64);
    {
        ScratchBuffer a = arena.acquire(big);
        ScratchBuffer b = arena.acquire(big);
        ScratchBuffer c = arena.acquire(big);
    }
    EXPECT_LE(arena.idleBytes(), ScratchArena::kMaxIdleBytes);
    EXPECT_EQ(arena.idleBytes(), 2 * big * sizeof(u64));
    arena.clear();
}

/** A slab released on another thread migrates to that thread's pool:
 *  the acquiring thread's pool does not get it back, the releasing
 *  thread reuses it, and a poly destroyed after its thread's arena
 *  (thread_local teardown order) frees its slab instead of touching
 *  the dead pool. */
TEST(ScratchArenaReuse, SlabReleasedOnAnotherThreadMigrates)
{
    ScratchArena &arena = ScratchArena::local();
    arena.clear();
    const size_t n = 256;
    std::vector<u64> qs = findNttPrimes(36, 2 * n, 4);
    RnsPoly p(n, qs);
    const u64 *slab = p.limbData(0);
    size_t elems = qs.size() * n;

    std::thread([&, moved = std::move(p)]() mutable {
        ScratchArena &mine = ScratchArena::local();
        EXPECT_EQ(mine.idleBytes(), 0u);
        moved = RnsPoly(); // released here, on this thread
        EXPECT_EQ(mine.idleBytes(), elems * sizeof(u64));
        RnsPoly again = RnsPoly::uninitialized(n, qs);
        EXPECT_EQ(again.limbData(0), slab); // reused on this thread
        // Outlives this thread's arena: declared before the arena's
        // first use on a fresh thread, so destroyed after it.
        std::thread([&] {
            thread_local RnsPoly late;
            late = RnsPoly(n, qs);
            EXPECT_EQ(late.numLimbs(), qs.size());
        }).join();
    }).join();
    EXPECT_EQ(arena.idleBytes(), 0u); // never came back here
}

} // namespace
} // namespace trinity
