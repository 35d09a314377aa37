/**
 * @file
 * Non-NTT hot-kernel tests: the SIMD automorphism and two-phase BConv
 * kernels must be bit-identical to an independent naive reference at
 * every dispatch level, over every limb-modulus width, on spans that
 * are not a multiple of the lane width; phase-chunked BConv recording
 * must reproduce the monolithic kernel bit for bit on every engine
 * (including through the work-stealing pipelined executor under
 * chained-round stress, a TSan target); and on the sim engine the
 * phased recording must strictly reduce the overlapped makespan of a
 * BConv -> NTT chain versus monolithic recording.
 */

#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backend/auto_table.h"
#include "backend/command_stream.h"
#include "backend/registry.h"
#include "backend/sim_backend.h"
#include "backend/simd_backend.h"
#include "backend/thread_pool_backend.h"
#include "common/primes.h"
#include "common/rng.h"
#include "poly/poly.h"
#include "poly/rns.h"

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

/** Activate an engine; "threads" gets an explicit 4-worker pool so
 *  the work-stealing pipelined executor is exercised even on
 *  single-core hosts. */
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

/** Naive input-walk automorphism: coefficient c of X^c maps to
 *  X^{cg} with X^n = -1, written without any table machinery. */
std::vector<u64>
naiveAutomorphism(const std::vector<u64> &src, u64 g, const Modulus &mod)
{
    size_t n = src.size();
    u64 two_n = 2 * static_cast<u64>(n);
    std::vector<u64> dst(n);
    for (size_t c = 0; c < n; ++c) {
        u64 e = (static_cast<u64>(c) * g) % two_n;
        u64 x = src[c];
        if (e < n) {
            dst[e] = x;
        } else {
            dst[e - n] = mod.neg(x);
        }
    }
    return dst;
}

/** Automorphism at every SIMD level == the naive map, including odd
 *  (non-power-of-two, non-lane-multiple) lengths, odd generators up
 *  to 2n-1, and the full 30..59-bit modulus range. */
TEST(NonNttKernels, AutomorphismMatchesNaiveMapAllLevels)
{
    for (simd::Level level : availableLevels()) {
        SimdBackend engine(level);
        for (size_t n :
             {size_t(4), size_t(8), size_t(37), size_t(129),
              size_t(1024)}) {
            u64 two_n = 2 * static_cast<u64>(n);
            for (u32 bits : {30u, 45u, 59u}) {
                Modulus mod(findNttPrimes(bits, 2048, 1)[0]);
                Rng rng(n * bits);
                std::vector<u64> src = rng.uniformVec(n, mod.value());
                for (u64 g : {u64(3), u64(5), two_n - 1}) {
                    if (std::gcd(g, two_n) != 1) {
                        continue;
                    }
                    std::vector<u64> dst(n, u64(0xdead));
                    AutoJob job{dst.data(), src.data(), &mod, n, g};
                    engine.automorphismBatch(&job, 1);
                    EXPECT_EQ(dst, naiveAutomorphism(src, g, mod))
                        << "level=" << static_cast<int>(level)
                        << " n=" << n << " bits=" << bits << " g=" << g;
                }
            }
        }
    }
}

/** The cached tables themselves: a bijective permutation whose sign
 *  mask is all-ones exactly on outputs that crossed X^n = -1, shared
 *  by reference across lookups. */
TEST(NonNttKernels, AutoTableCacheBuildsBijectionAndShares)
{
    size_t n = 64;
    auto t1 = AutoTableCache::get(n, 5);
    auto t2 = AutoTableCache::get(n, 5);
    EXPECT_EQ(t1.get(), t2.get()); // cache hit shares the table
    std::vector<bool> seen(n, false);
    for (size_t c = 0; c < n; ++c) {
        u64 p = t1->perm()[c];
        ASSERT_LT(p, n);
        EXPECT_FALSE(seen[p]) << "perm not a bijection at " << c;
        seen[p] = true;
        u64 m = t1->signMask()[c];
        EXPECT_TRUE(m == 0 || m == ~u64(0));
    }
}

/** A synthetic-but-consistent conversion fixture: real BaseConverter
 *  constants over mixed-width prime bases. */
struct BConvFixture
{
    std::vector<u64> from, to;
    BaseConverter conv;
    BConvPlan plan;

    BConvFixture(u32 fromBits, size_t k, size_t l)
        : from(findNttPrimes(fromBits, 2048, k)),
          to(findNttPrimes(fromBits == 59 ? 31 : 50, 2048, l)),
          conv(from, to), plan(conv.plan())
    {
    }
};

/** Independent u128 reference for the whole conversion: pass 1 as a
 *  plain widening mul-mod, pass 2 as an exact 128-bit dot product. */
std::vector<std::vector<u64>>
naiveBaseConvert(const BConvPlan &plan,
                 const std::vector<std::vector<u64>> &x, size_t n)
{
    size_t k = plan.numFrom;
    size_t l = plan.numTo;
    std::vector<std::vector<u64>> v(k, std::vector<u64>(n));
    for (size_t i = 0; i < k; ++i) {
        u64 q = plan.fromMods[i].value();
        for (size_t c = 0; c < n; ++c) {
            v[i][c] = static_cast<u64>(
                static_cast<u128>(x[i][c]) * plan.qhatInv[i] % q);
        }
    }
    std::vector<std::vector<u64>> y(l, std::vector<u64>(n));
    for (size_t j = 0; j < l; ++j) {
        u64 p = plan.toMods[j].value();
        for (size_t c = 0; c < n; ++c) {
            u128 acc = 0;
            for (size_t i = 0; i < k; ++i) {
                acc += static_cast<u128>(v[i][c] % p) *
                       plan.qhatModP[i * l + j];
            }
            y[j][c] = static_cast<u64>(acc % p);
        }
    }
    return y;
}

/** Full two-phase BConv at every SIMD level (and through the thread
 *  pool) == the naive u128 reference, on lengths with every possible
 *  lane tail and with 30..59-bit source moduli. */
TEST(NonNttKernels, BaseConvertMatchesNaiveU128AllLevels)
{
    for (u32 fromBits : {30u, 45u, 59u}) {
        BConvFixture fx(fromBits, 3, 2);
        for (size_t n :
             {size_t(1), size_t(7), size_t(37), size_t(129),
              size_t(515)}) {
            Rng rng(fromBits + n);
            std::vector<std::vector<u64>> x(fx.from.size());
            std::vector<const u64 *> in;
            for (size_t i = 0; i < fx.from.size(); ++i) {
                x[i] = rng.uniformVec(n, fx.from[i]);
                in.push_back(x[i].data());
            }
            auto ref = naiveBaseConvert(fx.plan, x, n);
            auto check = [&](PolyBackend &engine, const char *tag) {
                std::vector<std::vector<u64>> y(
                    fx.to.size(), std::vector<u64>(n, u64(0xbeef)));
                std::vector<u64 *> out;
                for (auto &row : y) {
                    out.push_back(row.data());
                }
                engine.baseConvert(fx.plan, in.data(), out.data(), n);
                for (size_t j = 0; j < fx.to.size(); ++j) {
                    EXPECT_EQ(y[j], ref[j])
                        << tag << " fromBits=" << fromBits << " n=" << n
                        << " limb=" << j;
                }
            };
            for (simd::Level level : availableLevels()) {
                SimdBackend engine(level);
                check(engine, "simd");
            }
            ThreadPoolBackend pool(4);
            check(pool, "threads");
        }
    }
}

/** Pass 1 is documented as alias-safe (v may be x, the in-place
 *  scaling the evaluator's flat buffers want): in-place == out-of-
 *  place at every level. */
TEST(NonNttKernels, BConvPass1InPlaceAliasingAllLevels)
{
    Modulus mod(findNttPrimes(59, 2048, 1)[0]);
    u64 w = mod.value() / 3;
    u64 wp = mod.shoupPrecompute(w);
    for (simd::Level level : availableLevels()) {
        const simd::KernelSet &ks = simd::kernelsForLevel(level);
        for (size_t n : {size_t(5), size_t(129), size_t(1024)}) {
            Rng rng(n);
            std::vector<u64> x = rng.uniformVec(n, mod.value());
            std::vector<u64> outOfPlace(n);
            ks.bconvPass1(outOfPlace.data(), x.data(), w, wp, mod, n);
            std::vector<u64> inPlace = x;
            ks.bconvPass1(inPlace.data(), inPlace.data(), w, wp, mod,
                          n);
            EXPECT_EQ(inPlace, outOfPlace)
                << "level=" << static_cast<int>(level) << " n=" << n;
        }
    }
}

/** Phase-chunked recording == monolithic recording == the blocking
 *  kernel, on every engine, with downstream commands hung off the
 *  per-limb handles. */
TEST(NonNttKernels, PhasedStreamMatchesMonolithicAcrossEngines)
{
    BConvFixture fx(45, 4, 3);
    size_t n = 515; // odd tail on every lane width
    Rng rng(77);
    std::vector<std::vector<u64>> x(fx.from.size());
    std::vector<const u64 *> in;
    for (size_t i = 0; i < fx.from.size(); ++i) {
        x[i] = rng.uniformVec(n, fx.from[i]);
        in.push_back(x[i].data());
    }
    // Blocking serial reference, scaled by the same follow-up the
    // streams hang off the conversion handles.
    std::vector<std::vector<u64>> ref(fx.to.size(),
                                      std::vector<u64>(n));
    {
        BackendRegistry::instance().select("serial");
        std::vector<u64 *> out;
        for (auto &row : ref) {
            out.push_back(row.data());
        }
        activeBackend().baseConvert(fx.plan, in.data(), out.data(), n);
        for (size_t j = 0; j < fx.to.size(); ++j) {
            ScalarMulJob job{ref[j].data(), ref[j].data(), 3,
                             &fx.plan.toMods[j], n};
            activeBackend().scalarMulBatch(&job, 1);
        }
    }
    for (const char *engine : {"serial", "threads", "simd", "sim"}) {
        for (bool phased : {false, true}) {
            activateEngine(engine);
            std::vector<std::vector<u64>> y(
                fx.to.size(), std::vector<u64>(n, u64(0xabcd)));
            std::vector<u64 *> out;
            for (auto &row : y) {
                out.push_back(row.data());
            }
            auto stream = activeBackend().newStream();
            if (phased) {
                std::vector<Job> convs = stream->baseConvertPhased(
                    fx.plan, in, out, n);
                ASSERT_EQ(convs.size(), fx.to.size());
                for (size_t j = 0; j < fx.to.size(); ++j) {
                    stream->scalarMul(
                        {{out[j], out[j], 3, &fx.plan.toMods[j], n}},
                        {convs[j]});
                }
            } else {
                Job conv = stream->baseConvert(fx.plan, in, out, n);
                for (size_t j = 0; j < fx.to.size(); ++j) {
                    stream->scalarMul(
                        {{out[j], out[j], 3, &fx.plan.toMods[j], n}},
                        {conv});
                }
            }
            stream->submit();
            stream->wait();
            BackendRegistry::instance().select("serial");
            for (size_t j = 0; j < fx.to.size(); ++j) {
                EXPECT_EQ(y[j], ref[j])
                    << engine << (phased ? " phased" : " monolithic")
                    << " limb=" << j;
            }
        }
    }
}

/**
 * Chained-round stress through the work-stealing executor: each round
 * records a phased conversion, per-limb scalar multiplies hung off the
 * per-limb handles, and an input-mutating scalar multiply that the
 * next round depends on — a deep DAG whose single/multi-job commands
 * land on different worker deques and get stolen. Bit-exact vs serial
 * for several seeds. (This test is part of the TSan CI job.)
 */
TEST(NonNttKernels, StealingExecutorPhasedRoundsMatchSerial)
{
    BConvFixture fx(50, 3, 3);
    constexpr size_t kN = 256;
    constexpr size_t kRounds = 12;

    auto run = [&](const std::string &engine, u64 seed) {
        activateEngine(engine);
        Rng rng(seed);
        std::vector<std::vector<u64>> x(fx.from.size());
        std::vector<const u64 *> in;
        std::vector<u64 *> inMut;
        for (size_t i = 0; i < fx.from.size(); ++i) {
            x[i] = rng.uniformVec(kN, fx.from[i]);
            in.push_back(x[i].data());
            inMut.push_back(x[i].data());
        }
        std::vector<std::vector<std::vector<u64>>> y(
            kRounds,
            std::vector<std::vector<u64>>(fx.to.size(),
                                          std::vector<u64>(kN)));
        auto stream = activeBackend().newStream();
        std::vector<Job> prev; // previous round's input mutations
        for (size_t r = 0; r < kRounds; ++r) {
            std::vector<u64 *> out;
            for (auto &row : y[r]) {
                out.push_back(row.data());
            }
            std::vector<Job> convs = stream->baseConvertPhased(
                fx.plan, in, out, kN, prev);
            std::vector<Job> scaled;
            for (size_t j = 0; j < fx.to.size(); ++j) {
                scaled.push_back(stream->scalarMul(
                    {{out[j], out[j], 5 + r, &fx.plan.toMods[j], kN}},
                    {convs[j]}));
            }
            // Mutate the shared inputs for the next round; the writes
            // must wait for this round's pass 1 (transitively covered
            // by the pass-2 handles) to read them.
            prev.clear();
            for (size_t i = 0; i < fx.from.size(); ++i) {
                std::vector<Job> deps = convs;
                deps.insert(deps.end(), scaled.begin(), scaled.end());
                prev.push_back(stream->scalarMul(
                    {{inMut[i], inMut[i], 3, &fx.plan.fromMods[i],
                      kN}},
                    std::move(deps)));
            }
        }
        stream->submit();
        stream->wait();
        BackendRegistry::instance().select("serial");
        std::vector<u64> flat;
        for (const auto &round : y) {
            for (const auto &row : round) {
                flat.insert(flat.end(), row.begin(), row.end());
            }
        }
        for (const auto &row : x) {
            flat.insert(flat.end(), row.begin(), row.end());
        }
        return flat;
    };

    for (u64 seed : {u64(1), u64(42), u64(1234)}) {
        std::vector<u64> ref = run("serial", seed);
        EXPECT_EQ(run("threads", seed), ref) << "seed=" << seed;
    }
}

/** On the sim engine, phase-chunked BConv + per-limb NTTs must price
 *  strictly below the monolithic BConv + one wide NTT for the same
 *  work: the per-limb handles let the NTTU pool start on finished
 *  limbs while the CU pool is still converting the rest. Results stay
 *  bit-identical either way. */
TEST(NonNttKernels, PhasedBConvReducesSimMakespan)
{
    constexpr size_t kN = 4096;
    std::vector<u64> from = findNttPrimes(45, 2 * kN, 6);
    std::vector<u64> to = findNttPrimes(50, 2 * kN, 6);
    BaseConverter conv(from, to);
    BConvPlan plan = conv.plan();
    std::vector<std::shared_ptr<const NttTable>> tables;
    for (u64 p : to) {
        tables.push_back(NttTableCache::get(kN, p));
    }
    Rng rng(2024);
    std::vector<std::vector<u64>> x(from.size());
    std::vector<const u64 *> in;
    for (size_t i = 0; i < from.size(); ++i) {
        x[i] = rng.uniformVec(kN, from[i]);
        in.push_back(x[i].data());
    }

    auto span = [&](bool phased, std::vector<std::vector<u64>> &y) {
        {
            ScopedEnv machine("TRINITY_SIM_MACHINE", "trinity-ckks");
            BackendRegistry::instance().select("sim");
        }
        SimBackend *sb = activeSimBackend();
        EXPECT_NE(sb, nullptr);
        sb->ledger().reset();
        y.assign(to.size(), std::vector<u64>(kN));
        std::vector<u64 *> out;
        for (auto &row : y) {
            out.push_back(row.data());
        }
        auto stream = activeBackend().newStream();
        if (phased) {
            std::vector<Job> convs =
                stream->baseConvertPhased(plan, in, out, kN);
            for (size_t j = 0; j < to.size(); ++j) {
                stream->nttForward({{out[j], tables[j].get()}},
                                   {convs[j]});
            }
        } else {
            Job c = stream->baseConvert(plan, in, out, kN);
            std::vector<NttJob> ntts;
            for (size_t j = 0; j < to.size(); ++j) {
                ntts.push_back({out[j], tables[j].get()});
            }
            stream->nttForward(std::move(ntts), {c});
        }
        stream->submit();
        stream->wait();
        double cycles = sb->ledger().overlappedCycles();
        BackendRegistry::instance().select("serial");
        return cycles;
    };

    std::vector<std::vector<u64>> yMono, yPhased;
    double mono = span(false, yMono);
    double phased = span(true, yPhased);
    EXPECT_EQ(yPhased, yMono);
    EXPECT_GT(mono, 0.0);
    EXPECT_LT(phased, mono)
        << "phased=" << phased << " mono=" << mono;
}

/** The block-rotation mulMonomial (one memcpy block + one negated
 *  block) == the naive per-coefficient negacyclic shift, for every
 *  rotation class including the identity, the X^n = -1 crossing, and
 *  full wraps — on Poly and RnsPoly. */
TEST(NonNttKernels, MulMonomialBlockRotationMatchesNaive)
{
    constexpr size_t kN = 64;
    std::vector<u64> mods = findNttPrimes(40, 2 * kN, 2);
    Rng rng(9);
    RnsPoly a = RnsPoly::uniform(kN, mods, rng);
    for (u64 t : {u64(0), u64(1), u64(5), u64(kN - 1), u64(kN),
                  u64(kN + 3), u64(2 * kN - 1), u64(2 * kN),
                  u64(2 * kN + 7)}) {
        RnsPoly r = a.mulMonomial(t);
        for (size_t i = 0; i < a.numLimbs(); ++i) {
            const Modulus &mod = a.limb(i).modulus();
            std::vector<u64> expect(kN, 0);
            for (size_t c = 0; c < kN; ++c) {
                u64 e = (c + t) % (2 * kN);
                u64 v = a.limbData(i)[c];
                if (e < kN) {
                    expect[e] = v;
                } else {
                    expect[e - kN] = mod.neg(v);
                }
            }
            for (size_t c = 0; c < kN; ++c) {
                ASSERT_EQ(r.limbData(i)[c], expect[c])
                    << "t=" << t << " limb=" << i << " c=" << c;
            }
        }
    }
    // Single-modulus Poly path shares the decomposition.
    Poly p = Poly::uniform(kN, mods[0], rng);
    for (u64 t : {u64(1), u64(kN), u64(2 * kN - 1)}) {
        Poly r = p.mulMonomial(t);
        Modulus mod(mods[0]);
        for (size_t c = 0; c < kN; ++c) {
            u64 e = (c + t) % (2 * kN);
            u64 v = p.coeffs()[c];
            u64 want = e < kN ? v : mod.neg(v);
            size_t at = e < kN ? e : e - kN;
            ASSERT_EQ(r.coeffs()[at], want) << "t=" << t << " c=" << c;
        }
    }
}

} // namespace
} // namespace trinity
