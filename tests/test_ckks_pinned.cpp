/**
 * @file
 * CKKS outputs pinned to recorded values. One HMult -> rescale ->
 * HRotate(1) chain (and one HSquare -> rescale) is hashed over c0||c1
 * at testSmall and at a dnum = 3 shape (testMedium), on every engine:
 * serial, threads, the simd engine at each level this CPU runs, and
 * the sim timing backend over the serial, threads and simd inner
 * engines. The hashes were recorded before the evaluator stopped
 * copying its temporaries and RnsPoly moved onto ScratchArena slabs,
 * so any buffer-reuse or in-place rewrite that changes a single
 * residue fails here. The sim ledger's per-kernel volumes and priced
 * cycles for the same chain are pinned too: the rewrite must emit the
 * same kernel events.
 */

#include <cmath>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backend/registry.h"
#include "backend/sim_backend.h"
#include "backend/simd_backend.h"
#include "ckks/evaluator.h"

namespace trinity {
namespace {

/** Restores the active engine (by name) when the test leaves. */
struct EngineGuard
{
    std::string prev = BackendRegistry::instance().active().name();
    ~EngineGuard() { BackendRegistry::instance().select(prev); }
};

/** FNV-1a over every residue of c0 then c1. */
u64
hashCiphertext(const CkksCiphertext &ct)
{
    u64 h = 1469598103934665603ULL;
    for (const RnsPoly *p : {&ct.c0, &ct.c1}) {
        for (u64 v : p->flat()) {
            for (int b = 0; b < 8; ++b) {
                h ^= (v >> (8 * b)) & 0xff;
                h *= 1099511628211ULL;
            }
        }
    }
    return h;
}

/** Fixed keys and inputs for one parameter set. */
struct ChainSetup
{
    explicit ChainSetup(const CkksParams &params)
        : ctx(std::make_shared<CkksContext>(params)), keygen(ctx, 1313),
          encoder(ctx), enc(ctx, keygen.makePublicKey(), 1314), eval(ctx),
          relin(keygen.makeRelinKey()), rot(keygen.makeRotationKey(1))
    {
        size_t slots = params.slots();
        std::vector<double> a(slots), b(slots);
        for (size_t i = 0; i < slots; ++i) {
            a[i] = 0.75 * std::sin(0.37 * static_cast<double>(i));
            b[i] = 0.5 * std::cos(0.11 * static_cast<double>(i) + 0.2);
        }
        ctA = enc.encrypt(encoder.encodeReal(a, params.maxLevel));
        ctB = enc.encrypt(encoder.encodeReal(b, params.maxLevel));
    }

    CkksCiphertext
    chain() const
    {
        CkksCiphertext prod = eval.multiply(ctA, ctB, relin);
        eval.rescaleInPlace(prod);
        return eval.rotate(prod, 1, rot);
    }

    CkksCiphertext
    squared() const
    {
        CkksCiphertext sq = eval.square(ctA, relin);
        eval.rescaleInPlace(sq);
        return sq;
    }

    std::shared_ptr<CkksContext> ctx;
    CkksKeyGenerator keygen;
    CkksEncoder encoder;
    CkksEncryptor enc;
    CkksEvaluator eval;
    CkksEvalKey relin, rot;
    CkksCiphertext ctA, ctB;
};

/** Every engine configuration the hashes must hold on. */
std::vector<std::pair<std::string, std::function<void()>>>
engineConfigs()
{
    std::vector<std::pair<std::string, std::function<void()>>> out;
    for (const char *name : {"serial", "threads"}) {
        out.emplace_back(name, [name] {
            BackendRegistry::instance().select(name);
        });
    }
    for (simd::Level level :
         {simd::Level::Scalar, simd::Level::Avx2, simd::Level::Avx512}) {
        if (!simd::levelAvailable(level)) {
            continue;
        }
        out.emplace_back(std::string("simd-") + simd::levelName(level),
                         [level] {
                             BackendRegistry::instance().use(
                                 std::make_unique<SimdBackend>(level));
                         });
    }
    for (const char *inner : {"serial", "threads", "simd"}) {
        out.emplace_back(std::string("sim/") + inner, [inner] {
            ::setenv("TRINITY_SIM_INNER", inner, 1);
            BackendRegistry::instance().select("sim");
            ::unsetenv("TRINITY_SIM_INNER");
        });
    }
    return out;
}

struct Pinned
{
    const char *name;
    CkksParams params;
    u64 chainHash;
    u64 squareHash;
};

const Pinned kPinned[] = {
    {"testSmall", CkksParams::testSmall(), 15636033685390309624ULL,
     16050681371905756543ULL},
    {"testMedium", CkksParams::testMedium(), 6924792840410536292ULL,
     7280491249321261580ULL},
};

TEST(CkksPinned, ChainIsBitIdenticalOnEveryEngine)
{
    EngineGuard guard;
    for (const Pinned &p : kPinned) {
        for (const auto &[label, use] : engineConfigs()) {
            use();
            // Keys and inputs are drawn on the engine under test too:
            // keygen and encryption run the same RnsPoly paths.
            ChainSetup s(p.params);
            u64 chain = hashCiphertext(s.chain());
            u64 sq = hashCiphertext(s.squared());
            EXPECT_EQ(chain, p.chainHash) << p.name << " on " << label;
            EXPECT_EQ(sq, p.squareHash) << p.name << " on " << label;
        }
    }
}

/** Kernel volumes, batch counts and priced cycles of one chain on the
 *  sim ledger (serial inner engine, default machine). */
TEST(CkksPinned, ChainLedgerMatchesRecordedValues)
{
    struct Row
    {
        sim::KernelType type;
        u64 elements, calls;
    };
    struct Expect
    {
        const char *name;
        CkksParams params;
        std::vector<Row> rows;
        double computeCycles, overlappedCycles;
    };
    const Expect cases[] = {
        {"testSmall",
         CkksParams::testSmall(),
         {{sim::KernelType::Ntt, 38912, 26},
          {sim::KernelType::Intt, 34816, 7},
          {sim::KernelType::Bconv, 55296, 23},
          {sim::KernelType::Ip, 45056, 22},
          {sim::KernelType::ModMul, 36864, 10},
          {sim::KernelType::ModAdd, 35840, 10},
          {sim::KernelType::Auto, 6144, 2},
          {sim::KernelType::HbmXfer, 4612096, 100},
          {sim::KernelType::NocXfer, 458752, 25}},
         925.62280701754412,
         473.81578947368416},
        {"testMedium",
         CkksParams::testMedium(),
         {{sim::KernelType::Ntt, 282624, 49},
          {sim::KernelType::Intt, 196608, 7},
          {sim::KernelType::Bconv, 434176, 44},
          {sim::KernelType::Ip, 368640, 45},
          {sim::KernelType::ModMul, 229376, 10},
          {sim::KernelType::ModAdd, 225280, 10},
          {sim::KernelType::Auto, 40960, 2},
          {sim::KernelType::HbmXfer, 32112640, 167},
          {sim::KernelType::NocXfer, 3112960, 46}},
         2229.2982456140353,
         1098.7719298245618},
    };
    EngineGuard guard;
    // The recorded DAG is priced with overlap; the per-kernel cells
    // stay those of sequential charging.
    for (const Expect &e : cases) {
        BackendRegistry::instance().select("sim");
        ChainSetup s(e.params);
        SimBackend *sb = activeSimBackend();
        ASSERT_NE(sb, nullptr);
        sb->ledger().reset();
        s.chain();
        const sim::TimingLedger &ledger = sb->ledger();
        for (const Row &r : e.rows) {
            EXPECT_EQ(ledger.elements(r.type), r.elements)
                << e.name << " " << sim::kernelTypeName(r.type);
            EXPECT_EQ(ledger.calls(r.type), r.calls)
                << e.name << " " << sim::kernelTypeName(r.type);
        }
        EXPECT_EQ(ledger.byKernel().size(), e.rows.size()) << e.name;
        EXPECT_DOUBLE_EQ(ledger.computeCycles(), e.computeCycles)
            << e.name;
        EXPECT_DOUBLE_EQ(ledger.overlappedCycles(), e.overlappedCycles)
            << e.name;
    }
}

} // namespace
} // namespace trinity
