/**
 * @file
 * Backend-equivalence and flat-RNS-layout tests.
 *
 * The ThreadPoolBackend must be bit-identical to the SerialBackend on
 * every batched kernel — the scheduling may differ, the limb kernels
 * may not. These tests run randomized batches through both engines and
 * compare flat buffers exactly, then check the limb-major RnsPoly
 * layout round-trips through every access path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "backend/registry.h"
#include "backend/serial_backend.h"
#include "backend/thread_pool_backend.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"
#include "common/primes.h"
#include "poly/rns.h"

namespace trinity {
namespace {

/** Run fn under a named engine, restoring "serial" afterwards. */
template <typename Fn>
void
withBackend(const std::string &name, Fn &&fn)
{
    BackendRegistry::instance().select(name);
    fn();
    BackendRegistry::instance().select("serial");
}

std::vector<u64>
testModuli(size_t n, size_t count)
{
    return findNttPrimes(30, 2 * n, count);
}

RnsPoly
randomRns(size_t n, const std::vector<u64> &qs, u64 seed)
{
    Rng rng(seed);
    return RnsPoly::uniform(n, qs, rng);
}

TEST(BackendRegistry, BuiltinsRegistered)
{
    auto names = BackendRegistry::instance().names();
    ASSERT_GE(names.size(), 2u);
    EXPECT_NE(std::find(names.begin(), names.end(), "serial"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "threads"),
              names.end());
}

TEST(BackendRegistry, SelectSwitchesActive)
{
    withBackend("threads", [] {
        EXPECT_STREQ(activeBackend().name(), "threads");
    });
    EXPECT_STREQ(activeBackend().name(), "serial");
}

TEST(BackendEquivalence, NttBatch)
{
    size_t n = 64;
    auto qs = testModuli(n, 5);
    RnsPoly a = randomRns(n, qs, 101);
    RnsPoly b = a;

    withBackend("serial", [&] { a.toEval(); });
    withBackend("threads", [&] { b.toEval(); });
    EXPECT_TRUE(std::ranges::equal(a.flat(), b.flat()));

    withBackend("serial", [&] { a.toCoeff(); });
    withBackend("threads", [&] { b.toCoeff(); });
    EXPECT_TRUE(std::ranges::equal(a.flat(), b.flat()));
}

TEST(BackendEquivalence, PointwiseAndAddBatches)
{
    size_t n = 64;
    auto qs = testModuli(n, 4);
    RnsPoly x = randomRns(n, qs, 7);
    RnsPoly y = randomRns(n, qs, 8);
    x.setDomain(Domain::Eval);
    y.setDomain(Domain::Eval);

    RnsPoly xs = x, xt = x;
    withBackend("serial", [&] {
        xs.mulPointwiseInPlace(y);
        xs.addInPlace(y);
        xs.subInPlace(y);
        xs.negInPlace();
    });
    withBackend("threads", [&] {
        xt.mulPointwiseInPlace(y);
        xt.addInPlace(y);
        xt.subInPlace(y);
        xt.negInPlace();
    });
    EXPECT_TRUE(std::ranges::equal(xs.flat(), xt.flat()));
}

TEST(BackendEquivalence, AutomorphismBatch)
{
    size_t n = 64;
    auto qs = testModuli(n, 3);
    RnsPoly x = randomRns(n, qs, 21);
    RnsPoly rs, rt;
    withBackend("serial", [&] { rs = x.automorphism(5); });
    withBackend("threads", [&] { rt = x.automorphism(5); });
    EXPECT_TRUE(std::ranges::equal(rs.flat(), rt.flat()));
}

TEST(BackendEquivalence, BaseConvertBatch)
{
    size_t n = 32;
    auto from = findNttPrimes(30, 2 * n, 4);
    auto to = findNttPrimes(29, 2 * n, 3);
    BaseConverter bc(from, to);
    RnsPoly x = randomRns(n, from, 33);

    RnsPoly ys, yt;
    withBackend("serial", [&] { ys = bc.convert(x); });
    withBackend("threads", [&] { yt = bc.convert(x); });
    ASSERT_EQ(ys.numLimbs(), to.size());
    EXPECT_TRUE(std::ranges::equal(ys.flat(), yt.flat()));
}

TEST(BackendEquivalence, ThreadCountSweepIsBitExact)
{
    size_t n = 128;
    auto qs = testModuli(n, 6);
    RnsPoly ref = randomRns(n, qs, 55);
    RnsPoly expect = ref;
    BackendRegistry::instance().use(
        std::make_unique<SerialBackend>());
    expect.toEval();
    for (size_t threads : {1, 2, 3, 8}) {
        RnsPoly got = ref;
        BackendRegistry::instance().use(
            std::make_unique<ThreadPoolBackend>(threads));
        got.toEval();
        EXPECT_TRUE(std::ranges::equal(got.flat(), expect.flat())) << threads << " threads";
    }
    BackendRegistry::instance().select("serial");
}

/** Full CKKS pipeline must produce bit-identical ciphertexts. */
TEST(BackendEquivalence, CkksPipelineBitIdentical)
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
    auto serial = run("serial");
    auto threads = run("threads");
    BackendRegistry::instance().select("serial");
    EXPECT_EQ(serial, threads);
}

TEST(FlatLayout, GatherRoundTrip)
{
    size_t n = 32;
    auto qs = testModuli(n, 3);
    Rng rng(9);
    std::vector<Poly> limbs;
    for (u64 q : qs) {
        limbs.push_back(Poly::uniform(n, q, rng));
    }
    RnsPoly p(limbs);
    ASSERT_EQ(p.numLimbs(), limbs.size());
    ASSERT_EQ(p.n(), n);
    // Limb-major layout: limb i occupies [i*n, (i+1)*n).
    for (size_t i = 0; i < limbs.size(); ++i) {
        EXPECT_EQ(p.limb(i).coeffs(), limbs[i].coeffs());
        for (size_t c = 0; c < n; ++c) {
            EXPECT_EQ(p.flat()[i * n + c], limbs[i][c]);
        }
        // Materialized Poly round-trips bit-exactly.
        Poly back = p.limbPoly(i);
        EXPECT_EQ(back.coeffs(), limbs[i].coeffs());
        EXPECT_EQ(back.q(), limbs[i].q());
    }
}

TEST(FlatLayout, PrefixAndDropLastLimb)
{
    size_t n = 32;
    auto qs = testModuli(n, 4);
    RnsPoly p = randomRns(n, qs, 11);
    RnsPoly pre = p.prefix(2);
    ASSERT_EQ(pre.numLimbs(), 2u);
    EXPECT_EQ(pre.limb(0).coeffs(), p.limb(0).coeffs());
    EXPECT_EQ(pre.limb(1).coeffs(), p.limb(1).coeffs());

    RnsPoly q = p;
    q.dropLastLimb();
    ASSERT_EQ(q.numLimbs(), 3u);
    EXPECT_EQ(q.flat().size(), 3 * n);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(q.limb(i).coeffs(), p.limb(i).coeffs());
    }
}

TEST(FlatLayout, LimbViewWritesLandInFlatBuffer)
{
    size_t n = 32;
    auto qs = testModuli(n, 2);
    RnsPoly p(n, qs);
    LimbView v = p.limb(1);
    v[3] = 7;
    EXPECT_EQ(p.flat()[n + 3], 7u);

    Rng rng(4);
    Poly fresh = Poly::uniform(n, qs[0], rng);
    p.limb(0) = fresh;
    EXPECT_EQ(p.limb(0).coeffs(), fresh.coeffs());
}

TEST(ThreadPool, NestedRunDoesNotDeadlock)
{
    BackendRegistry::instance().use(
        std::make_unique<ThreadPoolBackend>(4));
    std::atomic<int> total{0};
    activeBackend().run(8, [&](size_t) {
        // A job that re-enters the backend — from a worker or from
        // the submitting thread — must run inline, not block.
        activeBackend().run(4, [&](size_t) { ++total; });
    });
    EXPECT_EQ(total.load(), 32);
    BackendRegistry::instance().select("serial");
}

/** Several external threads submitting batches to one pool at once
 *  (server shards, concurrent key materializations): every call must
 *  run each of its own indices exactly once and return. */
TEST(ThreadPool, ConcurrentExternalSubmittersRunEveryIndexOnce)
{
    ThreadPoolBackend pool(4);
    const size_t submitters = 4;
    const size_t calls = 200;
    const size_t count = 37;
    std::vector<std::vector<std::atomic<int>>> hits(submitters);
    for (auto &h : hits) {
        h = std::vector<std::atomic<int>>(calls * count);
    }
    std::vector<std::thread> threads;
    for (size_t t = 0; t < submitters; ++t) {
        threads.emplace_back([&, t] {
            for (size_t c = 0; c < calls; ++c) {
                pool.run(count, [&, t, c](size_t i) {
                    hits[t][c * count + i].fetch_add(1);
                });
            }
        });
    }
    for (auto &th : threads) {
        th.join();
    }
    for (size_t t = 0; t < submitters; ++t) {
        for (size_t k = 0; k < calls * count; ++k) {
            ASSERT_EQ(hits[t][k].load(), 1)
                << "submitter " << t << " call " << k / count
                << " index " << k % count;
        }
    }
}

} // namespace
} // namespace trinity
