/**
 * @file
 * The three non-NTT PBS kernels of simd::KernelSet — rotateDecompose,
 * extProdMac and lweKsAccumulate — must be bit-identical at every
 * dispatch level to scalar references of the textbook formulas kept
 * here (u128-division rounding, `%` negacyclic gather, toResidue
 * digits, a term-by-term Barrett MAC, the per-ciphertext keyswitch
 * loop): over every TFHE parameter set and both PIR gadgets, on
 * rounding boundaries, every rotation edge, and spans that are not a
 * lane multiple. The batch-lockstep keySwitchBatch must reproduce the
 * per-ciphertext loop on every engine, and one PBS batch must price
 * the same kernel lanes on the sim ledger as it always has. Batches
 * through the cached blind-rotation plan (tenant switches, width
 * changes, zero rotations, a fresh engine) must equal per-call pbs().
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backend/command_stream.h"
#include "backend/registry.h"
#include "backend/sim_backend.h"
#include "backend/simd_backend.h"
#include "backend/thread_pool_backend.h"
#include "common/gadget.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "pir/params.h"
#include "tfhe/gates.h"
#include "tfhe/pbs.h"

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

/** Restores the active engine (by name) when the test leaves. */
struct EngineGuard
{
    std::string prev = BackendRegistry::instance().active().name();
    ~EngineGuard() { BackendRegistry::instance().select(prev); }
};

// ------------------------------------------------------ scalar references

/** The textbook balanced decomposition: u128 division rounding. */
void
refDigits(u64 x, u64 q, u32 log_b, u32 levels, i64 *digits)
{
    u64 base = 1ULL << log_b;
    u64 half = base >> 1;
    u128 y = ((u128(x) << (log_b * levels)) + q / 2) / q;
    u64 carry = 0;
    for (u32 l = levels; l-- > 0;) {
        u64 r = static_cast<u64>(y & (base - 1)) + carry;
        y >>= log_b;
        if (r >= half) {
            digits[l] = static_cast<i64>(r) - static_cast<i64>(base);
            carry = 1;
        } else {
            digits[l] = static_cast<i64>(r);
            carry = 0;
        }
    }
}

/** The old fused gather: `%` per coefficient, toResidue per digit. */
std::vector<std::vector<u64>>
refRotateDecompose(const std::vector<u64> &src, u64 t, u64 q, u32 log_b,
                   u32 levels)
{
    Modulus mod(q);
    size_t n = src.size();
    size_t two_n = 2 * n;
    std::vector<std::vector<u64>> out(levels, std::vector<u64>(n));
    std::vector<i64> digits(levels);
    for (size_t x = 0; x < n; ++x) {
        u64 v = src[x];
        if (t != 0) {
            size_t i0 = (x + two_n - t) % two_n;
            u64 rot = i0 < n ? src[i0] : mod.neg(src[i0 - n]);
            v = mod.sub(rot, src[x]);
        }
        refDigits(v, q, log_b, levels, digits.data());
        for (u32 l = 0; l < levels; ++l) {
            out[l][x] = toResidue(digits[l], q);
        }
    }
    return out;
}

/** The old per-ciphertext keyswitch loop, Barrett mul per term. */
LweCiphertext
refKeySwitch(const LweCiphertext &wide, const TfheKeySwitchKey &ksk,
             u64 q, size_t n_lwe)
{
    Modulus m(q);
    LweCiphertext out;
    out.a.assign(n_lwe, 0);
    out.b = wide.b;
    std::vector<i64> digits(ksk.levels);
    for (size_t i = 0; i < wide.a.size(); ++i) {
        if (wide.a[i] == 0) {
            continue;
        }
        refDigits(wide.a[i], q, ksk.logB, ksk.levels, digits.data());
        for (u32 j = 0; j < ksk.levels; ++j) {
            if (digits[j] == 0) {
                continue;
            }
            u64 d = toResidue(digits[j], q);
            const LweCiphertext &row = ksk.rows[i][j];
            for (size_t t = 0; t < n_lwe; ++t) {
                out.a[t] = m.sub(out.a[t], m.mul(d, row.a[t]));
            }
            out.b = m.sub(out.b, m.mul(d, row.b));
        }
    }
    return out;
}

// --------------------------------------------------------- gadget shapes

struct Shape
{
    std::string name;
    u64 q;
    u32 logB;
    u32 levels;
    size_t n; ///< ring size the shape runs at
};

std::vector<Shape>
gadgetShapes()
{
    std::vector<Shape> out;
    for (const TfheParams &p :
         {TfheParams::setI(), TfheParams::setII(), TfheParams::setIII(),
          TfheParams::testTiny()}) {
        out.push_back({p.name + "/ext", p.q, p.logBg, p.lb, p.bigN});
        out.push_back({p.name + "/ks", p.q, p.logBks, p.lk, p.bigN});
    }
    // PIR: q ~ 2^60, so both gadgets take the 128-bit quotient path.
    const TfheParams pir = pir::PirParams::standard().tfhe;
    out.push_back({"pir/ext", pir.q, pir.logBg, pir.lb, pir.bigN});
    out.push_back({"pir/ks", pir.q, pir.logBks, pir.lk, pir.bigN});
    // Full 64 covered bits (the shift-by-64 edge) and a tiny prime.
    out.push_back({"pir/s64", pir.q, 8, 8, 256});
    out.push_back({"small-q", 12289, 4, 3, 512});
    return out;
}

/** Edge residues plus the values on either side of several rounding
 *  boundaries (where round(x * 2^S / q) steps). */
std::vector<u64>
edgeValues(const Gadget &g, u64 seed)
{
    u64 q = g.q();
    std::vector<u64> out = {0, 1, 2, q - 1, q - 2, q / 2, q / 2 + 1};
    Rng rng(seed);
    u32 s = g.shift();
    u128 top = u128(1) << s;
    for (int i = 0; i < 40; ++i) {
        u128 y = i == 0 ? top : (u128(rng.next()) % top) + 1;
        // Smallest x with x * 2^S + floor(q/2) >= y * q.
        u128 need = y * q - q / 2;
        u128 xb = (need + top - 1) >> s;
        for (u128 x : {xb - 1, xb, xb + 1}) {
            if (x < q) {
                out.push_back(static_cast<u64>(x));
            }
        }
    }
    return out;
}

TEST(GadgetKernel, QuotientAndDigitsMatchDivision)
{
    for (const Shape &sh : gadgetShapes()) {
        Gadget g(sh.q, sh.logB, sh.levels);
        std::vector<u64> xs = edgeValues(g, 5);
        Rng rng(6);
        for (int i = 0; i < 2000; ++i) {
            xs.push_back(rng.uniform(sh.q));
        }
        std::vector<i64> want(sh.levels);
        std::vector<i64> got(sh.levels);
        for (u64 x : xs) {
            u128 y = ((u128(x) << g.shift()) + sh.q / 2) / sh.q;
            ASSERT_EQ(g.quotient(x), static_cast<u64>(y))
                << sh.name << " x=" << x;
            refDigits(x, sh.q, sh.logB, sh.levels, want.data());
            g.decompose(x, got.data());
            ASSERT_EQ(got, want) << sh.name << " x=" << x;
        }
    }
}

TEST(GadgetKernel, RotateDecomposeEveryLevelMatchesReference)
{
    for (const Shape &sh : gadgetShapes()) {
        Gadget g(sh.q, sh.logB, sh.levels);
        Modulus mod(sh.q);
        std::vector<u64> edges = edgeValues(g, 7);
        // The parameter ring plus spans that are no lane multiple.
        for (size_t n : {sh.n, size_t(13), size_t(67)}) {
            Rng rng(n);
            std::vector<u64> src = rng.uniformVec(n, sh.q);
            for (size_t i = 0; i < edges.size() && i < n; ++i) {
                src[(i * 7) % n] = edges[i];
            }
            std::vector<u64> ts = {0, 1, n - 1, n, n + 1, 2 * n - 1,
                                   rng.uniform(2 * n)};
            for (u64 t : ts) {
                auto want = refRotateDecompose(src, t, sh.q, sh.logB,
                                               sh.levels);
                for (simd::Level level : availableLevels()) {
                    const simd::KernelSet &ks = simd::kernelsForLevel(level);
                    std::vector<std::vector<u64>> got(
                        sh.levels, std::vector<u64>(n, ~u64{0}));
                    std::vector<u64 *> dst;
                    for (auto &row : got) {
                        dst.push_back(row.data());
                    }
                    ks.rotateDecompose(dst.data(), src.data(), t, g, mod, n);
                    ASSERT_EQ(got, want)
                        << sh.name << " n=" << n << " t=" << t << " "
                        << simd::levelName(level);
                }
            }
        }
    }
}

TEST(GadgetKernel, ExtProdMacEveryLevelMatchesMulAddChain)
{
    const u64 q_pir = pir::PirParams::standard().tfhe.q;
    for (u64 q : {TfheParams::setI().q, TfheParams::testTiny().q, q_pir}) {
        Modulus mod(q);
        for (size_t rows : {1, 4, 6, 16, 17, 40}) {
            for (size_t n : {size_t(1024), size_t(13)}) {
                Rng rng(q ^ (rows * 131 + n));
                std::vector<std::vector<u64>> a(rows), b(rows);
                std::vector<const u64 *> ap, bp;
                for (size_t r = 0; r < rows; ++r) {
                    a[r] = rng.uniformVec(n, q);
                    b[r] = rng.uniformVec(n, q);
                    // Saturate the first coefficients: the largest
                    // possible lazy sums.
                    a[r][0] = b[r][0] = q - 1;
                    a[r][n - 1] = b[r][n - 1] = q - 1;
                    ap.push_back(a[r].data());
                    bp.push_back(b[r].data());
                }
                std::vector<u64> want(n, 0);
                for (size_t r = 0; r < rows; ++r) {
                    for (size_t i = 0; i < n; ++i) {
                        want[i] = mod.mulAdd(a[r][i], b[r][i], want[i]);
                    }
                }
                for (simd::Level level : availableLevels()) {
                    std::vector<u64> got(n, ~u64{0});
                    simd::kernelsForLevel(level).extProdMac(
                        got.data(), ap.data(), bp.data(), rows, mod, n);
                    ASSERT_EQ(got, want)
                        << "q=" << q << " rows=" << rows << " n=" << n
                        << " " << simd::levelName(level);
                }
            }
        }
    }
}

/**
 * Saturated MAC at the TFHE primes next to 2^32: every operand q-1, so
 * each 16-row chunk carries the largest lazy sum (acc_hi up to 15) and
 * 17 / 40 rows fold several chunks. Set-I takes the narrow fold
 * (2^64, 2^32 and 1 as 32-bit Shoup constants); testTiny's prime just
 * above 2^32 takes the Barrett fold. Checked against one u128 sum.
 */
TEST(GadgetKernel, ExtProdMacSaturatedMatchesU128)
{
    for (u64 q : {TfheParams::setI().q, TfheParams::testTiny().q}) {
        Modulus mod(q);
        for (size_t rows : {1, 4, 16, 17, 40}) {
            for (size_t n : {size_t(1024), size_t(13)}) {
                std::vector<u64> ones(n, q - 1);
                std::vector<const u64 *> ap(rows, ones.data());
                // rows * (q-1)^2 < 40 * 2^64 fits a u128.
                u128 sum = u128(rows) * (q - 1) * (q - 1);
                const std::vector<u64> want(n, u64(sum % q));
                for (simd::Level level : availableLevels()) {
                    std::vector<u64> got(n, 0);
                    simd::kernelsForLevel(level).extProdMac(
                        got.data(), ap.data(), ap.data(), rows, mod, n);
                    ASSERT_EQ(got, want)
                        << "q=" << q << " rows=" << rows << " n=" << n
                        << " " << simd::levelName(level);
                }
            }
        }
    }
}

TEST(GadgetKernel, LweKsAccumulateEveryLevelMatchesReference)
{
    const u64 q = TfheParams::setI().q;
    const size_t count = 5;
    for (size_t n : {size_t(500), size_t(64), size_t(13)}) {
        Rng rng(n);
        std::vector<u64> row = rng.uniformVec(n, q);
        row[0] = q - 1;
        std::vector<i8> digits = {-8, 0, 7, 1, -1};
        std::vector<i64> init(count * n);
        for (auto &v : init) {
            v = static_cast<i64>(rng.uniform(1ULL << 40)) - (1LL << 39);
        }
        std::vector<i64> want = init;
        for (size_t c = 0; c < count; ++c) {
            for (size_t i = 0; i < n; ++i) {
                want[c * n + i] += digits[c] * static_cast<i64>(row[i]);
            }
        }
        for (simd::Level level : availableLevels()) {
            std::vector<i64> got = init;
            simd::kernelsForLevel(level).lweKsAccumulate(
                got.data(), n, digits.data(), count, row.data(), n);
            ASSERT_EQ(got, want) << "n=" << n << " "
                                 << simd::levelName(level);
        }
    }
}

// --------------------------------------------------- lockstep keyswitch

/** Random wide ciphertexts with zero and q-1 coefficients mixed in,
 *  and one all-zero mask. */
std::vector<LweCiphertext>
wideInputs(const TfheParams &p, size_t count, u64 seed)
{
    Rng rng(seed);
    std::vector<LweCiphertext> out(count);
    for (size_t c = 0; c < count; ++c) {
        out[c].a = rng.uniformVec(p.k * p.bigN, p.q);
        out[c].b = rng.uniform(p.q);
        for (size_t i = 0; i < out[c].a.size(); i += 9) {
            out[c].a[i] = 0;
        }
        out[c].a[1] = p.q - 1;
        if (c == 1) {
            out[c].a.assign(out[c].a.size(), 0);
        }
    }
    return out;
}

void
checkKeySwitchBatch(const TfheParams &p, const std::vector<size_t> &sizes)
{
    auto ctx = std::make_shared<TfheContext>(p, 99);
    TfheBootstrapper boot(ctx);
    LweSecretKey lwe = ctx->makeLweKey();
    GlweSecretKey glwe = ctx->makeGlweKey();
    TfheKeySwitchKey ksk = boot.makeKeySwitchKey(glwe, lwe);
    EngineGuard guard;
    std::vector<std::string> engines = {"serial", "threads", "sim"};
    for (size_t count : sizes) {
        std::vector<LweCiphertext> wides = wideInputs(p, count, count);
        std::vector<LweCiphertext> want;
        for (const auto &w : wides) {
            want.push_back(refKeySwitch(w, ksk, p.q, p.nLwe));
        }
        auto check = [&](const std::string &label) {
            std::vector<LweCiphertext> got =
                boot.keySwitchBatch(wides.data(), count, ksk);
            ASSERT_EQ(got.size(), count);
            for (size_t c = 0; c < count; ++c) {
                EXPECT_EQ(got[c].a, want[c].a)
                    << p.name << " B=" << count << " " << label << " #"
                    << c;
                EXPECT_EQ(got[c].b, want[c].b)
                    << p.name << " B=" << count << " " << label << " #"
                    << c;
            }
            LweCiphertext single = boot.keySwitch(wides[0], ksk);
            EXPECT_EQ(single.a, want[0].a) << label;
            EXPECT_EQ(single.b, want[0].b) << label;
        };
        for (const std::string &engine : engines) {
            BackendRegistry::instance().select(engine);
            check(engine);
        }
        for (simd::Level level : availableLevels()) {
            BackendRegistry::instance().use(
                std::make_unique<SimdBackend>(level));
            check(std::string("simd-") + simd::levelName(level));
        }
    }
}

TEST(LweKeySwitch, LockstepBatchMatchesPerCiphertextLoop)
{
    checkKeySwitchBatch(TfheParams::testTiny(), {1, 3, 16});
}

TEST(LweKeySwitch, LockstepBatchMatchesAtSetI)
{
    checkKeySwitchBatch(TfheParams::setI(), {16});
}

// ------------------------------------------------------------ sim ledger

/** Lane totals (and output hash) of one 3-request PBS batch on the sim
 *  ledger, recorded with the scalar task bodies these kernels
 *  replaced: the priced DAG and the outputs must not move. */
TEST(PbsLedger, LaneTotalsMatchRecordedValues)
{
    struct Expect
    {
        TfheParams params;
        u64 lweKs, decomp, ip, decompCalls;
        u64 hash;
    };
    const Expect cases[] = {
        {TfheParams::testTiny(), 234585, 98304, 589824, 192,
         11085104844086889209ULL},
        {TfheParams::setI(), 7197867, 3069952, 12279808, 1499,
         3848732518412331803ULL},
    };
    EngineGuard guard;
    for (const Expect &e : cases) {
        BackendRegistry::instance().select("sim");
        TfheGateBootstrapper gb(e.params, 2024);
        std::vector<LweCiphertext> cts;
        for (int i = 0; i < 3; ++i) {
            cts.push_back(gb.encryptBit(i % 2 == 0));
        }
        std::vector<const LweCiphertext *> ins;
        std::vector<const Poly *> tvs;
        for (const auto &c : cts) {
            ins.push_back(&c);
            tvs.push_back(&gb.signVector());
        }
        SimBackend *sb = activeSimBackend();
        ASSERT_NE(sb, nullptr);
        sb->ledger().reset();
        std::vector<LweCiphertext> out = gb.bootstrapper().pbsBatch(
            ins.data(), tvs.data(), ins.size(), gb.bootstrapKey(),
            gb.keySwitchKey());
        const sim::TimingLedger &ledger = sb->ledger();
        EXPECT_EQ(ledger.elements(sim::KernelType::LweKs), e.lweKs)
            << e.params.name;
        EXPECT_EQ(ledger.elements(sim::KernelType::Decomp), e.decomp)
            << e.params.name;
        EXPECT_EQ(ledger.elements(sim::KernelType::Ip), e.ip)
            << e.params.name;
        EXPECT_EQ(ledger.calls(sim::KernelType::Decomp), e.decompCalls)
            << e.params.name;
        EXPECT_EQ(ledger.calls(sim::KernelType::Ip), e.decompCalls)
            << e.params.name;
        EXPECT_EQ(ledger.calls(sim::KernelType::LweKs), 1u)
            << e.params.name;
        u64 h = 0;
        for (const auto &o : out) {
            for (u64 v : o.a) {
                h = h * 1000003 + v;
            }
            h = h * 31 + o.b;
        }
        EXPECT_EQ(h, e.hash) << e.params.name;
        for (size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(gb.decryptBit(out[i]), i % 2 == 0);
        }
    }
}

// ------------------------------------------------------ blind-rotation plan

/** pbsBatch outputs for @p ins under @p gb's keys. */
std::vector<LweCiphertext>
runPbsBatch(const TfheGateBootstrapper &gb,
            const std::vector<LweCiphertext> &ins)
{
    std::vector<const LweCiphertext *> cts;
    std::vector<const Poly *> tvs;
    for (const LweCiphertext &ct : ins) {
        cts.push_back(&ct);
        tvs.push_back(&gb.signVector());
    }
    return gb.bootstrapper().pbsBatch(cts.data(), tvs.data(), cts.size(),
                                      gb.bootstrapKey(), gb.keySwitchKey());
}

/** Two tenants' keys under the same parameters, each with a pool of
 *  five inputs; input 1 has a_1 = 0 and a_2 = q-1, which both
 *  mod-switch to a zero rotation. Refs are the per-call serial pbs(). */
struct PlanFixture
{
    TfheGateBootstrapper gb[2] = {
        TfheGateBootstrapper(TfheParams::testTiny(), 71),
        TfheGateBootstrapper(TfheParams::testTiny(), 72)};
    std::vector<LweCiphertext> ins[2];
    std::vector<LweCiphertext> ref[2];

    PlanFixture()
    {
        EngineGuard guard;
        BackendRegistry::instance().select("serial");
        for (int t = 0; t < 2; ++t) {
            for (int i = 0; i < 5; ++i) {
                ins[t].push_back(gb[t].encryptBit((i + t) % 2 == 0));
            }
            ins[t][1].a[1] = 0;
            ins[t][1].a[2] = gb[t].params().q - 1;
            for (const LweCiphertext &ct : ins[t]) {
                ref[t].push_back(gb[t].bootstrapper().pbs(
                    ct, gb[t].signVector(), gb[t].bootstrapKey(),
                    gb[t].keySwitchKey()));
            }
        }
    }

    /** Run tenant @p t's first @p batch inputs and compare each output
     *  with the per-call reference. */
    void
    check(int t, size_t batch, const std::string &what)
    {
        std::vector<LweCiphertext> first(ins[t].begin(),
                                         ins[t].begin() + batch);
        std::vector<LweCiphertext> out = runPbsBatch(gb[t], first);
        ASSERT_EQ(out.size(), batch) << what;
        for (size_t i = 0; i < batch; ++i) {
            EXPECT_EQ(out[i].a, ref[t][i].a) << what << " input " << i;
            EXPECT_EQ(out[i].b, ref[t][i].b) << what << " input " << i;
        }
    }
};

/** Counter deltas of the blind-rotation plan cache. */
struct PlanCounters
{
    obs::Counter &builds =
        obs::MetricsRegistry::instance().counter("tfhe.plan.builds");
    obs::Counter &replays =
        obs::MetricsRegistry::instance().counter("tfhe.plan.replays");
    u64 builds0 = builds.value();
    u64 replays0 = replays.value();

    u64 newBuilds() const { return builds.value() - builds0; }
    u64 newReplays() const { return replays.value() - replays0; }
};

/** A tenant switch with the same batch width replays the plan; a new
 *  width builds one. On the engine under test (TRINITY_BACKEND), a
 *  sequence alternating two keys of the same parameters through
 *  B = 3, 5, 3 builds three plans and, where the engine replays,
 *  replays every other batch — and every output equals the per-call
 *  serial pbs() bit for bit, zero-rotation steps included. */
TEST(PbsPlan, ReplayAcrossTenantsAndWidthsMatchesPerCallPbs)
{
    PlanFixture f;
    EngineGuard guard;
    // A fresh instance of the engine under test: no cached plan fits.
    BackendRegistry::instance().select(guard.prev);
    obs::overrideMetrics(1);
    PlanCounters ctr;
    const size_t widths[] = {3, 3, 5, 5, 3, 3};
    for (size_t s = 0; s < 6; ++s) {
        f.check(static_cast<int>(s % 2), widths[s],
                guard.prev + " batch " + std::to_string(s));
    }
    bool replayable = activeBackend().newStream()->canReplay();
    EXPECT_EQ(ctr.newBuilds(), 3u);
    EXPECT_EQ(ctr.newReplays(), replayable ? 3u : 0u);
    obs::overrideMetrics(-1);
}

/** A registry use() of a fresh threads engine between batches (what a
 *  benchmark's switch to the simulator and back does) must rebuild the
 *  plan, never replay a stream bound to the destroyed engine. */
TEST(PbsPlan, FreshEngineRebuildsThePlan)
{
    PlanFixture f;
    EngineGuard guard;
    obs::overrideMetrics(1);
    PlanCounters ctr;
    for (int round = 0; round < 2; ++round) {
        BackendRegistry::instance().use(
            std::make_unique<ThreadPoolBackend>(2));
        f.check(0, 3, "fresh engine " + std::to_string(round));
    }
    f.check(1, 3, "same engine, other tenant");
    bool replayable = activeBackend().newStream()->canReplay();
    EXPECT_EQ(ctr.newBuilds(), 2u);
    EXPECT_EQ(ctr.newReplays(), replayable ? 1u : 0u);
    obs::overrideMetrics(-1);
}

} // namespace
} // namespace trinity
