/**
 * @file
 * SIMD-engine tests: the "simd" backend (and the thread pool that
 * composes its kernels) must be bit-identical to the serial reference
 * at every dispatch level the host can run — over every limb-modulus
 * width the repo supports, on spans that are not a multiple of the
 * lane width, through the full CKKS pipeline and the TFHE batched
 * PBS — and the TRINITY_SIMD_LEVEL knob must be strict: unknown or
 * unavailable levels are fatal, never a silent fallback.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "backend/registry.h"
#include "backend/serial_backend.h"
#include "backend/simd_backend.h"
#include "backend/thread_pool_backend.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"
#include "backend/simd_kernels.h"
#include "common/primes.h"
#include "poly/ntt.h"
#include "poly/rns.h"
#include "runtime/batched_pbs.h"
#include "tfhe/params.h"

namespace trinity {
namespace {

/** Every level the build compiled in AND this CPU can execute. */
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

/** Run fn with a pinned-level SimdBackend active, then restore serial. */
template <typename Fn>
void
withSimd(simd::Level level, Fn &&fn)
{
    BackendRegistry::instance().use(
        std::make_unique<SimdBackend>(level));
    fn();
    BackendRegistry::instance().select("serial");
}

std::vector<u64>
randomSpan(size_t n, u64 q, u64 seed)
{
    Rng rng(seed);
    return rng.uniformVec(n, q);
}

TEST(SimdRegistry, SimdEngineIsRegisteredAndListed)
{
    auto &reg = BackendRegistry::instance();
    auto names = reg.names();
    EXPECT_NE(std::find(names.begin(), names.end(), "simd"),
              names.end());
    // The unknown-engine error and the explorer banner both print
    // listEngines(); the new engine must be advertised there.
    EXPECT_NE(reg.listEngines().find("simd"), std::string::npos);
    auto engine = reg.create("simd");
    EXPECT_STREQ(engine->name(), "simd");
    EXPECT_GE(engine->preferredBatch(), engine->threadCount());
}

TEST(SimdRegistry, DispatchPicksBestAvailableLevel)
{
    // CI exports TRINITY_SIMD_LEVEL to pin levels; drop it here so
    // this test sees the pure auto-dispatch path, then restore.
    const char *saved = std::getenv("TRINITY_SIMD_LEVEL");
    std::string saved_val = saved != nullptr ? saved : "";
    unsetenv("TRINITY_SIMD_LEVEL");
    SimdBackend engine;
    EXPECT_EQ(engine.level(), simd::bestAvailableLevel());
    EXPECT_EQ(engine.lanes(),
              simd::kernelsForLevel(engine.level()).lanes);
    if (saved != nullptr) {
        setenv("TRINITY_SIMD_LEVEL", saved_val.c_str(), 1);
    }
}

/** NTT fwd/inv bit-exact vs serial across every supported modulus
 *  width (the repo allows q < 2^62) and several transform lengths. */
TEST(SimdEquivalence, NttAllLimbModuli)
{
    for (simd::Level level : availableLevels()) {
        for (size_t n : {size_t(64), size_t(1024), size_t(4096)}) {
            for (u32 bits : {30u, 40u, 50u, 55u, 59u}) {
                auto qs = findNttPrimes(bits, 2 * n, 2);
                Rng rng(1000 + bits);
                RnsPoly a = RnsPoly::uniform(n, qs, rng);
                RnsPoly b = a;
                BackendRegistry::instance().select("serial");
                a.toEval();
                withSimd(level, [&] { b.toEval(); });
                EXPECT_TRUE(std::ranges::equal(a.flat(), b.flat()))
                    << simd::levelName(level) << " fwd n=" << n
                    << " bits=" << bits;
                BackendRegistry::instance().select("serial");
                a.toCoeff();
                withSimd(level, [&] { b.toCoeff(); });
                EXPECT_TRUE(std::ranges::equal(a.flat(), b.flat()))
                    << simd::levelName(level) << " inv n=" << n
                    << " bits=" << bits;
            }
        }
    }
}

/** First NTT prime above 2^32 for transform length n (wide path). */
u64
nttPrimeAbove2p32(size_t n)
{
    u64 p = (u64{1} << 32) + 1; // == 1 mod 2n
    while (!isPrime(p)) {
        p += 2 * n;
    }
    return p;
}

/**
 * The narrow-modulus boundary (simd::narrowModulus: q < 2^32). Primes
 * just below 2^32 (Set-I/II and Set-III: 2q > 2^32, so remainders and
 * sums need the 33rd bit), a 31-bit prime, and primes just above 2^32
 * (testTiny's, and the first NTT prime above 2^32 for each n), which
 * must take the wide path. Every NTT entry point at every level —
 * forward, inverse, both fused epilogues, and the stage-range calls
 * over uneven stage and butterfly splits — must match the serial
 * reference on random and all-(q-1) inputs.
 */
TEST(SimdEquivalence, NttNarrowModulusBoundary)
{
    const u64 q_set1 = TfheParams::setI().q;
    const u64 q_set3 = TfheParams::setIII().q;
    const u64 q_tiny = TfheParams::testTiny().q;
    ASSERT_EQ(TfheParams::setII().q, q_set1);
    ASSERT_TRUE(simd::narrowModulus(q_set1));
    ASSERT_TRUE(simd::narrowModulus(q_set3));
    ASSERT_FALSE(simd::narrowModulus(q_tiny));
    const auto &ref = simd::scalarKernels();
    for (size_t n : {size_t(16), size_t(32), size_t(256), size_t(1024),
                     size_t(2048)}) {
        const size_t logn = std::countr_zero(n);
        // Uneven stage groups (single first stage, then two unequal
        // multi-stage groups) and butterfly cuts that are neither lane
        // nor block multiples.
        const std::vector<size_t> stage_cuts = {0, 1, logn / 2 + 1, logn};
        std::vector<size_t> b_cuts = {0};
        for (size_t c : {size_t(3), n / 4 - 1, n / 4 + 5, n / 2 - 3}) {
            if (c > b_cuts.back() && c < n / 2) {
                b_cuts.push_back(c);
            }
        }
        b_cuts.push_back(n / 2);
        for (u64 q : {q_set1, q_set3, findNttPrimes(31, 2 * n, 1)[0],
                      q_tiny, nttPrimeAbove2p32(n)}) {
            if ((q - 1) % (2 * n) != 0) {
                continue; // no 2n-th root of unity for this ring size
            }
            Modulus mod(q);
            auto table = NttTableCache::get(n, q);
            for (bool saturated : {false, true}) {
                const auto in = saturated ? std::vector<u64>(n, q - 1)
                                          : randomSpan(n, q, q ^ n);
                const auto b0 = randomSpan(n, q, n + 1);
                const auto b1 = saturated ? std::vector<u64>(n, q - 1)
                                          : randomSpan(n, q, n + 2);
                auto fwd = in;
                table->forward(fwd.data());
                auto inv = in;
                table->inverse(inv.data());
                auto fma_a = in, fma0 = b1, fma1 = b0;
                ref.nttForwardMulAdd(*table, fma_a.data(), b0.data(),
                                     fma0.data(), b1.data(), fma1.data());
                auto ia_a = in, ia_acc = b1;
                ref.nttInverseAdd(*table, ia_a.data(), ia_acc.data());
                auto fs = in, is = in;
                for (size_t g = 0; g + 1 < stage_cuts.size(); ++g) {
                    for (size_t c = 0; c + 1 < b_cuts.size(); ++c) {
                        table->forwardStages(fs.data(), stage_cuts[g],
                                             stage_cuts[g + 1], b_cuts[c],
                                             b_cuts[c + 1]);
                        table->inverseStages(is.data(), stage_cuts[g],
                                             stage_cuts[g + 1], b_cuts[c],
                                             b_cuts[c + 1], true);
                    }
                }

                for (simd::Level level : availableLevels()) {
                    const auto &ks = simd::kernelsForLevel(level);
                    const std::string at =
                        std::string(simd::levelName(level)) +
                        " q=" + std::to_string(q) +
                        " n=" + std::to_string(n) +
                        (saturated ? " all q-1" : " random");
                    auto got = in;
                    ks.nttForward(*table, got.data());
                    EXPECT_EQ(got, fwd) << "fwd " << at;
                    ks.nttInverse(*table, got.data());
                    EXPECT_EQ(got, in) << "fwd+inv " << at;
                    got = in;
                    ks.nttInverse(*table, got.data());
                    EXPECT_EQ(got, inv) << "inv " << at;

                    auto ga = in, g0 = b1, g1 = b0;
                    ks.nttForwardMulAdd(*table, ga.data(), b0.data(),
                                        g0.data(), b1.data(), g1.data());
                    EXPECT_EQ(ga, fma_a) << "fwdMulAdd limb " << at;
                    EXPECT_EQ(g0, fma0) << "fwdMulAdd acc0 " << at;
                    EXPECT_EQ(g1, fma1) << "fwdMulAdd acc1 " << at;
                    ga = in;
                    auto gacc = b1;
                    ks.nttInverseAdd(*table, ga.data(), gacc.data());
                    EXPECT_EQ(ga, ia_a) << "invAdd limb " << at;
                    EXPECT_EQ(gacc, ia_acc) << "invAdd acc " << at;

                    auto gfs = in, gis = in;
                    for (size_t g = 0; g + 1 < stage_cuts.size(); ++g) {
                        for (size_t c = 0; c + 1 < b_cuts.size(); ++c) {
                            ks.nttForwardStages(*table, gfs.data(),
                                                stage_cuts[g],
                                                stage_cuts[g + 1],
                                                b_cuts[c], b_cuts[c + 1]);
                            ks.nttInverseStages(*table, gis.data(),
                                                stage_cuts[g],
                                                stage_cuts[g + 1],
                                                b_cuts[c], b_cuts[c + 1],
                                                true);
                        }
                    }
                    EXPECT_EQ(gfs, fs) << "fwd stages " << at;
                    EXPECT_EQ(gis, is) << "inv stages " << at;
                }
            }
        }
    }
}

/** Tiny transforms exercise the n < 8 scalar guard inside the wide
 *  kernels. */
TEST(SimdEquivalence, NttShorterThanVector)
{
    for (simd::Level level : availableLevels()) {
        for (size_t n : {size_t(4), size_t(8), size_t(16)}) {
            auto qs = findNttPrimes(30, 2 * n, 1);
            Rng rng(7 + n);
            RnsPoly a = RnsPoly::uniform(n, qs, rng);
            RnsPoly b = a;
            BackendRegistry::instance().select("serial");
            a.toEval();
            a.toCoeff();
            withSimd(level, [&] {
                b.toEval();
                b.toCoeff();
            });
            EXPECT_TRUE(std::ranges::equal(a.flat(), b.flat()))
                << simd::levelName(level) << " n=" << n;
        }
    }
}

/** Element-wise kernels on span lengths that are NOT lane multiples:
 *  the vector body plus the scalar tail must both match serial. */
TEST(SimdEquivalence, EltwiseNonLaneMultipleTails)
{
    auto &reg = BackendRegistry::instance();
    for (simd::Level level : availableLevels()) {
        for (size_t n : {size_t(1), size_t(3), size_t(7), size_t(37),
                         size_t(64), size_t(129)}) {
            for (u32 bits : {30u, 50u, 59u}) {
                u64 q = findNttPrimes(bits, 128, 1)[0];
                Modulus mod(q);
                auto a = randomSpan(n, q, 11 * n + bits);
                auto b = randomSpan(n, q, 13 * n + bits);
                auto acc = randomSpan(n, q, 17 * n + bits);

                auto run = [&](PolyBackend &engine) {
                    std::vector<std::vector<u64>> out;
                    std::vector<u64> d(n);
                    EltwiseJob ej{d.data(), a.data(), b.data(), &mod,
                                  n};
                    engine.addBatch(&ej, 1);
                    out.push_back(d);
                    engine.subBatch(&ej, 1);
                    out.push_back(d);
                    engine.negBatch(&ej, 1);
                    out.push_back(d);
                    engine.pointwiseMulBatch(&ej, 1);
                    out.push_back(d);
                    std::vector<u64> m = acc;
                    MulAddJob mj{m.data(), a.data(), b.data(), &mod, n};
                    engine.mulAddBatch(&mj, 1);
                    out.push_back(m);
                    ScalarMulJob sj{d.data(), a.data(), q / 3, &mod, n};
                    engine.scalarMulBatch(&sj, 1);
                    out.push_back(d);
                    return out;
                };
                auto serial = reg.create("serial");
                SimdBackend simd_engine(level);
                auto expect = run(*serial);
                auto got = run(simd_engine);
                EXPECT_EQ(expect, got)
                    << simd::levelName(level) << " n=" << n
                    << " bits=" << bits;
            }
        }
    }
}

/** In-place aliasing (dst == a) is part of the job contract. */
TEST(SimdEquivalence, AliasedDstMatchesSerial)
{
    u64 q = findNttPrimes(45, 128, 1)[0];
    Modulus mod(q);
    for (simd::Level level : availableLevels()) {
        auto a = randomSpan(21, q, 5);
        auto b = randomSpan(21, q, 6);
        auto a2 = a;
        EltwiseJob js{a.data(), a.data(), b.data(), &mod, a.size()};
        BackendRegistry::instance().create("serial")->pointwiseMulBatch(
            &js, 1);
        SimdBackend engine(level);
        EltwiseJob jv{a2.data(), a2.data(), b.data(), &mod, a2.size()};
        engine.pointwiseMulBatch(&jv, 1);
        EXPECT_EQ(a, a2) << simd::levelName(level);
    }
}

/** Full CKKS encrypt -> multiply -> rescale, bit-for-bit per level. */
TEST(SimdEquivalence, CkksPipelineBitIdentical)
{
    auto run = [] {
        auto ctx =
            std::make_shared<CkksContext>(CkksParams::testSmall());
        CkksKeyGenerator keygen(ctx, 42);
        CkksEncoder encoder(ctx);
        CkksEncryptor enc(ctx, keygen.makePublicKey(), 43);
        CkksEvaluator eval(ctx);
        auto relin = keygen.makeRelinKey();
        std::vector<double> vals(ctx->params().slots(), 0.5);
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
    BackendRegistry::instance().select("serial");
    auto expect = run();
    for (simd::Level level : availableLevels()) {
        std::vector<u64> got;
        withSimd(level, [&] { got = run(); });
        EXPECT_EQ(expect, got) << simd::levelName(level);
    }
}

/** TFHE fused batched PBS, bit-exact against serial per level. */
TEST(SimdEquivalence, TfhePbsBatchBitIdentical)
{
    TfheGateBootstrapper gb(TfheParams::testTiny(), 20240);
    runtime::BatchedBootstrapper bb(gb);
    std::vector<bool> bits = {true, false, false, true, true};
    std::vector<LweCiphertext> cts;
    for (bool b : bits) {
        cts.push_back(gb.encryptBit(b));
    }
    BackendRegistry::instance().select("serial");
    std::vector<LweCiphertext> expect = bb.bootstrapSignBatch(cts);
    for (simd::Level level : availableLevels()) {
        std::vector<LweCiphertext> got;
        withSimd(level, [&] { got = bb.bootstrapSignBatch(cts); });
        ASSERT_EQ(got.size(), expect.size());
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].a, expect[i].a)
                << simd::levelName(level) << " request " << i;
            EXPECT_EQ(got[i].b, expect[i].b)
                << simd::levelName(level) << " request " << i;
            EXPECT_EQ(gb.decryptBit(got[i]), bits[i]);
        }
    }
}

/** The thread pool composes the same kernels: threads across limbs,
 *  SIMD within a limb, still bit-identical to serial. */
TEST(SimdEquivalence, ThreadPoolComposesSimdKernels)
{
    size_t n = 1024;
    auto qs = findNttPrimes(40, 2 * n, 6);
    Rng rng(99);
    RnsPoly ref = RnsPoly::uniform(n, qs, rng);
    RnsPoly expect = ref;
    BackendRegistry::instance().select("serial");
    expect.toEval();
    for (size_t threads : {2, 4}) {
        RnsPoly got = ref;
        BackendRegistry::instance().use(
            std::make_unique<ThreadPoolBackend>(threads));
        got.toEval();
        EXPECT_TRUE(std::ranges::equal(got.flat(), expect.flat())) << threads << " threads";
    }
    BackendRegistry::instance().select("serial");
}

TEST(SimdDispatch, WiderLanesWidenTheBatchHint)
{
    for (simd::Level level : availableLevels()) {
        SimdBackend engine(level);
        EXPECT_GE(engine.preferredBatch(), 8u);
        EXPECT_GE(engine.preferredBatch(), 4 * engine.lanes());
    }
}

TEST(SimdDispatch, LevelRoundTripsThroughEnv)
{
    const char *saved = std::getenv("TRINITY_SIMD_LEVEL");
    std::string saved_val = saved != nullptr ? saved : "";
    for (simd::Level level : availableLevels()) {
        setenv("TRINITY_SIMD_LEVEL", simd::levelName(level), 1);
        SimdBackend engine;
        EXPECT_EQ(engine.level(), level);
    }
    if (saved != nullptr) {
        setenv("TRINITY_SIMD_LEVEL", saved_val.c_str(), 1);
    } else {
        unsetenv("TRINITY_SIMD_LEVEL");
    }
}

#if !defined(__SANITIZE_THREAD__)
TEST(SimdDispatch, UnknownLevelIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("TRINITY_SIMD_LEVEL", "turbo", 1);
            BackendRegistry::instance().create("simd");
        },
        ::testing::ExitedWithCode(1), "TRINITY_SIMD_LEVEL");
}

TEST(SimdDispatch, EmptyLevelIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("TRINITY_SIMD_LEVEL", "", 1);
            BackendRegistry::instance().create("simd");
        },
        ::testing::ExitedWithCode(1), "expected one of");
}

TEST(SimdDispatch, UnavailableLevelIsFatalNotSilent)
{
    if (simd::levelAvailable(simd::Level::Avx512)) {
        GTEST_SKIP() << "host runs avx512; no unavailable level to force";
    }
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("TRINITY_SIMD_LEVEL", "avx512", 1);
            BackendRegistry::instance().create("simd");
        },
        ::testing::ExitedWithCode(1), "TRINITY_SIMD_LEVEL=avx512");
}

TEST(SimdDispatch, UnknownBackendErrorListsSimd)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(BackendRegistry::instance().create("warp-drive"),
                ::testing::ExitedWithCode(1), "simd");
}
#endif

} // namespace
} // namespace trinity
