/**
 * @file
 * Single-thread non-NTT hot-kernel throughput: the table-driven
 * Galois automorphism and the two BConv phases (Shoup scaling pass 1,
 * lazily folded u128 matrix-product pass 2), per SIMD dispatch level,
 * against the serial reference engine (direct index map, term-by-term
 * reduced accumulate — the recurrences every engine is verified
 * against). The acceptance gate reads auto.speedup and
 * bconv_p2.speedup: avx2 >= 2x and avx512 >= 3x serial at N=4096.
 *
 * The three non-NTT PBS kernels run at Set-I against the textbook
 * scalar loops they replaced: rotate + gadget decomposition of one
 * GLWE component (decomp.*, `%` gather and u128-division rounding),
 * the external-product MAC over extRows() rows (extprod.*, one
 * reduce128 call per coefficient), and a batch-16 LWE keyswitch
 * (lweks.*, the per-ciphertext loop with a Barrett mul per term vs
 * the lockstep keySwitchBatch on a single-thread simd engine).
 *
 * ckks.allocs_per_op counts ScratchArena misses per warmed CKKS HMult
 * + HRotate (testSmall with --smoke, else testMedium) on each engine:
 * every RnsPoly and keyswitch slab comes from the pool, so a warmed
 * evaluator should report 0.
 *
 * Usage: bench_micro_kernels [--smoke] [--json=PATH] [N [limbs [reps]]]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "backend/auto_table.h"
#include "backend/registry.h"
#include "backend/scratch_arena.h"
#include "backend/serial_backend.h"
#include "backend/simd_backend.h"
#include "backend/simd_kernels.h"
#include "bench/bench_util.h"
#include "ckks/evaluator.h"
#include "common/primes.h"
#include "common/rng.h"
#include "poly/rns.h"
#include "tfhe/pbs.h"

using namespace trinity;

namespace {

size_t
positionalOr(const bench::BenchArgs &args, size_t idx, size_t fallback)
{
    return idx < args.positional.size()
               ? std::strtoul(args.positional[idx].c_str(), nullptr, 10)
               : fallback;
}

/** The pre-KernelSet blind-rotation decompose loop: `%` gather,
 *  u128-division rounding, toResidue per digit. */
void
oldRotateDecompose(u64 *const *dst, const u64 *s, u64 t, const Gadget &g,
                   const Modulus &mod, size_t n)
{
    size_t two_n = 2 * n;
    u32 lb = g.levels();
    u64 bg = 1ULL << g.logBase();
    i64 digits[16];
    for (size_t x = 0; x < n; ++x) {
        size_t i0 = (x + two_n - t) % two_n;
        u64 rot = i0 < n ? s[i0] : mod.neg(s[i0 - n]);
        u64 v = mod.sub(rot, s[x]);
        u128 y = ((u128(v) << g.shift()) + g.q() / 2) / g.q();
        u64 carry = 0;
        for (u32 l = lb; l-- > 0;) {
            u64 r = static_cast<u64>(y & (bg - 1)) + carry;
            y >>= g.logBase();
            carry = r >= bg / 2 ? 1 : 0;
            digits[l] = static_cast<i64>(r) - static_cast<i64>(carry * bg);
        }
        for (u32 l = 0; l < lb; ++l) {
            dst[l][x] = toResidue(digits[l], g.q());
        }
    }
}

/** The pre-KernelSet per-ciphertext keyswitch: a Barrett mul per term. */
void
oldKeySwitch(const LweCiphertext &wide, const TfheKeySwitchKey &ksk,
             const Gadget &g, const Modulus &m, size_t n_lwe,
             LweCiphertext &out)
{
    out.a.assign(n_lwe, 0);
    out.b = wide.b;
    i64 digits[16];
    for (size_t i = 0; i < wide.a.size(); ++i) {
        if (wide.a[i] == 0) {
            continue;
        }
        g.decompose(wide.a[i], digits);
        for (u32 j = 0; j < ksk.levels; ++j) {
            if (digits[j] == 0) {
                continue;
            }
            u64 d = toResidue(digits[j], g.q());
            const LweCiphertext &row = ksk.rows[i][j];
            for (size_t t = 0; t < n_lwe; ++t) {
                out.a[t] = m.sub(out.a[t], m.mul(d, row.a[t]));
            }
            out.b = m.sub(out.b, m.mul(d, row.b));
        }
    }
}

/** decomp.* / extprod.* / lweks.* rows at Set-I, serial reference vs
 *  each available SIMD level, single thread. */
void
benchPbsKernels(bool smoke)
{
    const TfheParams p = TfheParams::setI();
    const size_t n = p.bigN;
    const size_t rows = p.extRows();
    const size_t batch = 16;
    const size_t reps = smoke ? 2000 : 20000;
    const size_t ks_reps = smoke ? 2 : 10;
    const u64 t_rot = 3 * n / 2 + 7; // crosses X^N = -1
    Modulus mod(p.q);
    Gadget gadget(p.q, p.logBg, p.lb);

    Rng rng(43);
    std::vector<u64> src = rng.uniformVec(n, p.q);
    std::vector<std::vector<u64>> dec(p.lb, std::vector<u64>(n));
    std::vector<u64 *> dec_ptr;
    for (auto &d : dec) {
        dec_ptr.push_back(d.data());
    }
    std::vector<std::vector<u64>> lhs(rows), rhs(rows);
    std::vector<const u64 *> lhs_ptr, rhs_ptr;
    for (size_t r = 0; r < rows; ++r) {
        lhs[r] = rng.uniformVec(n, p.q);
        rhs[r] = rng.uniformVec(n, p.q);
        lhs_ptr.push_back(lhs[r].data());
        rhs_ptr.push_back(rhs[r].data());
    }
    std::vector<u64> mac_out(n);

    auto ctx = std::make_shared<TfheContext>(p, 44);
    TfheBootstrapper boot(ctx);
    TfheKeySwitchKey ksk =
        boot.makeKeySwitchKey(ctx->makeGlweKey(), ctx->makeLweKey());
    Gadget ks_gadget(p.q, ksk.logB, ksk.levels);
    std::vector<LweCiphertext> wides(batch);
    for (auto &w : wides) {
        w.a = rng.uniformVec(p.k * n, p.q);
        w.b = rng.uniform(p.q);
    }
    std::vector<LweCiphertext> ks_out(batch);

    bench::note("PBS kernels: Set-I, N=" + std::to_string(n) +
                ", extRows=" + std::to_string(rows) +
                ", keyswitch batch=" + std::to_string(batch));

    struct Timed
    {
        double decMs, macMs, ksMs;
    };
    // Best of three passes (the first also warms caches and tables):
    // the minimum is the least host-noise-sensitive estimate, which
    // keeps the speedup ratios steady enough to gate.
    auto timeLevel = [&](const simd::KernelSet *ks) {
        Timed best{1e300, 1e300, 1e300};
        for (int pass = 0; pass < 3; ++pass) {
            Timed out{};
            bench::Timer td;
            for (size_t r = 0; r < reps; ++r) {
                if (ks == nullptr) {
                    oldRotateDecompose(dec_ptr.data(), src.data(), t_rot,
                                       gadget, mod, n);
                } else {
                    ks->rotateDecompose(dec_ptr.data(), src.data(), t_rot,
                                        gadget, mod, n);
                }
            }
            out.decMs = td.elapsedMs();
            bench::Timer tm;
            for (size_t r = 0; r < reps; ++r) {
                if (ks == nullptr) {
                    for (size_t i = 0; i < n; ++i) {
                        u128 acc = 0;
                        for (size_t k = 0; k < rows; ++k) {
                            acc += static_cast<u128>(lhs[k][i]) * rhs[k][i];
                        }
                        mac_out[i] = mod.reduce128(acc);
                    }
                } else {
                    ks->extProdMac(mac_out.data(), lhs_ptr.data(),
                                   rhs_ptr.data(), rows, mod, n);
                }
            }
            out.macMs = tm.elapsedMs();
            bench::Timer tk;
            for (size_t r = 0; r < ks_reps; ++r) {
                if (ks == nullptr) {
                    for (size_t c = 0; c < batch; ++c) {
                        oldKeySwitch(wides[c], ksk, ks_gadget, mod, p.nLwe,
                                     ks_out[c]);
                    }
                } else {
                    ks_out = boot.keySwitchBatch(wides.data(), batch, ksk);
                }
            }
            out.ksMs = tk.elapsedMs();
            best.decMs = std::min(best.decMs, out.decMs);
            best.macMs = std::min(best.macMs, out.macMs);
            best.ksMs = std::min(best.ksMs, out.ksMs);
        }
        return best;
    };

    Timed base = timeLevel(nullptr);
    auto emit = [&](const std::string &label, const Timed &t) {
        double coeffs = static_cast<double>(n) * reps;
        double cts = static_cast<double>(batch) * ks_reps;
        bench::row(label, "decomp.thru", coeffs / (t.decMs / 1000.0),
                   "coef/s", "measured");
        bench::row(label, "decomp.speedup", base.decMs / t.decMs, "x",
                   "measured");
        bench::row(label, "extprod.thru", coeffs / (t.macMs / 1000.0),
                   "coef/s", "measured");
        bench::row(label, "extprod.speedup", base.macMs / t.macMs, "x",
                   "measured");
        bench::row(label, "lweks.thru", cts / (t.ksMs / 1000.0), "ct/s",
                   "measured");
        bench::row(label, "lweks.speedup", base.ksMs / t.ksMs, "x",
                   "measured");
    };
    emit("serial", base);
    for (simd::Level level :
         {simd::Level::Scalar, simd::Level::Avx2, simd::Level::Avx512}) {
        if (!simd::levelAvailable(level)) {
            continue;
        }
        // The keyswitch runs through the engine; a simd engine is the
        // single-thread executor of one level's kernels.
        BackendRegistry::instance().use(std::make_unique<SimdBackend>(level));
        emit(std::string("simd-") + simd::levelName(level),
             timeLevel(&simd::kernelsForLevel(level)));
    }
    BackendRegistry::instance().select("serial");
}

/** ckks.allocs_per_op: arena misses per warmed HMult + HRotate. */
void
benchCkksAllocs(bool smoke)
{
    auto ctx = std::make_shared<CkksContext>(
        smoke ? CkksParams::testSmall() : CkksParams::testMedium());
    CkksKeyGenerator keygen(ctx, 77);
    CkksEncoder encoder(ctx);
    CkksEncryptor enc(ctx, keygen.makePublicKey(), 78);
    CkksEvaluator eval(ctx);
    CkksEvalKey relin = keygen.makeRelinKey();
    CkksEvalKey rot = keygen.makeRotationKey(1);
    std::vector<double> vals(ctx->params().slots(), 0.5);
    CkksCiphertext ct = enc.encrypt(
        encoder.encodeReal(vals, ctx->params().maxLevel));
    const size_t reps = smoke ? 4 : 16;

    auto emit = [&](const std::string &label) {
        auto op = [&] {
            CkksCiphertext prod = eval.multiply(ct, ct, relin);
            return eval.rotate(prod, 1, rot);
        };
        op(); // warm the pool at this shape
        ScratchArena::resetStats();
        for (size_t r = 0; r < reps; ++r) {
            op();
        }
        bench::row(label, "ckks.allocs_per_op",
                   static_cast<double>(ScratchArena::stats().misses) /
                       reps,
                   "allocs", "measured");
    };
    for (const char *engine : {"serial", "threads"}) {
        BackendRegistry::instance().select(engine);
        emit(engine);
    }
    for (simd::Level level :
         {simd::Level::Scalar, simd::Level::Avx2, simd::Level::Avx512}) {
        if (!simd::levelAvailable(level)) {
            continue;
        }
        BackendRegistry::instance().use(std::make_unique<SimdBackend>(level));
        emit(std::string("simd-") + simd::levelName(level));
    }
    BackendRegistry::instance().select("serial");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    size_t n = positionalOr(args, 0, 4096);
    size_t limbs = positionalOr(args, 1, 8);
    size_t reps = positionalOr(args, 2, args.smoke ? 100 : 2000);

    std::vector<u64> qs = findNttPrimes(45, 2 * n, limbs);
    std::vector<u64> ps = findNttPrimes(50, 2 * n, limbs);
    BaseConverter bconv(qs, ps);
    BConvPlan plan = bconv.plan();
    Modulus q0(qs[0]);
    auto table = AutoTableCache::get(n, 5);

    Rng rng(42);
    std::vector<u64> src = rng.uniformVec(n, qs[0]);
    std::vector<u64> dst(n);
    std::vector<std::vector<u64>> x(limbs);
    std::vector<const u64 *> in;
    for (size_t i = 0; i < limbs; ++i) {
        x[i] = rng.uniformVec(n, qs[i]);
        in.push_back(x[i].data());
    }
    std::vector<u64> v(limbs * n); // pass-1 scratch, limb-major
    std::vector<std::vector<u64>> y(limbs, std::vector<u64>(n));
    std::vector<u64 *> out;
    for (auto &row : y) {
        out.push_back(row.data());
    }

    bench::header("micro_kernels: non-NTT hot kernels per SIMD level");
    bench::note("N=" + std::to_string(n) +
                ", limbs=" + std::to_string(limbs) +
                ", reps=" + std::to_string(reps) +
                " (single thread; speedups vs the serial reference)");
    bench::note("simd dispatch: available levels = " +
                simd::availableLevels() + ", auto = " +
                simd::levelName(simd::bestAvailableLevel()));

    // Each config times the same four kernels; serial runs the
    // reference recurrences, the simd rows the KernelSet of one level.
    struct Config
    {
        std::string label;
        std::function<double()> autoMs, p1Ms, p2Ms, convMs;
    };
    std::vector<Config> configs;

    static SerialBackend serial;
    configs.push_back(
        {"serial",
         [&, reps] {
             AutoJob job{dst.data(), src.data(), &q0, n, 5};
             bench::Timer t;
             for (size_t r = 0; r < reps; ++r) {
                 serial.automorphismBatch(&job, 1);
             }
             return t.elapsedMs();
         },
         [&, reps] {
             bench::Timer t;
             for (size_t r = 0; r < reps; ++r) {
                 for (size_t i = 0; i < limbs; ++i) {
                     const Modulus &qi = plan.fromMods[i];
                     u64 *vi = v.data() + i * n;
                     for (size_t c = 0; c < n; ++c) {
                         vi[c] = qi.mulShoup(in[i][c], plan.qhatInv[i],
                                             plan.qhatInvPrecon[i]);
                     }
                 }
             }
             return t.elapsedMs();
         },
         [&, reps] {
             bench::Timer t;
             for (size_t r = 0; r < reps; ++r) {
                 for (size_t j = 0; j < limbs; ++j) {
                     const Modulus &pj = plan.toMods[j];
                     for (size_t c = 0; c < n; ++c) {
                         u128 acc = 0;
                         for (size_t i = 0; i < limbs; ++i) {
                             acc += static_cast<u128>(
                                        pj.reduce(v[i * n + c])) *
                                    plan.qhatModP[i * limbs + j];
                         }
                         out[j][c] = pj.reduce128(acc);
                     }
                 }
             }
             return t.elapsedMs();
         },
         [&, reps] {
             bench::Timer t;
             for (size_t r = 0; r < reps; ++r) {
                 serial.baseConvert(plan, in.data(), out.data(), n);
             }
             return t.elapsedMs();
         }});

    for (simd::Level level :
         {simd::Level::Scalar, simd::Level::Avx2, simd::Level::Avx512}) {
        if (!simd::levelAvailable(level)) {
            continue;
        }
        const simd::KernelSet *ks = &simd::kernelsForLevel(level);
        auto engine = std::make_shared<SimdBackend>(level);
        configs.push_back(
            {std::string("simd-") + simd::levelName(level),
             [&, engine, reps] {
                 AutoJob job{dst.data(), src.data(), &q0, n, 5};
                 bench::Timer t;
                 for (size_t r = 0; r < reps; ++r) {
                     engine->automorphismBatch(&job, 1);
                 }
                 return t.elapsedMs();
             },
             [&, ks, reps] {
                 bench::Timer t;
                 for (size_t r = 0; r < reps; ++r) {
                     for (size_t i = 0; i < limbs; ++i) {
                         ks->bconvPass1(v.data() + i * n, in[i],
                                       plan.qhatInv[i],
                                       plan.qhatInvPrecon[i],
                                       plan.fromMods[i], n);
                     }
                 }
                 return t.elapsedMs();
             },
             [&, ks, reps] {
                 bench::Timer t;
                 for (size_t r = 0; r < reps; ++r) {
                     for (size_t j = 0; j < limbs; ++j) {
                         ks->bconvPass2(out[j], v.data(), n, limbs,
                                       plan.qhatModP + j, limbs,
                                       plan.toMods[j], n);
                     }
                 }
                 return t.elapsedMs();
             },
             [&, engine, reps] {
                 bench::Timer t;
                 for (size_t r = 0; r < reps; ++r) {
                     engine->baseConvert(plan, in.data(), out.data(),
                                         n);
                 }
                 return t.elapsedMs();
             }});
    }

    double base_auto = 0;
    double base_p1 = 0;
    double base_p2 = 0;
    double base_conv = 0;
    for (const Config &cfg : configs) {
        cfg.autoMs(); // warm: tables, converter constants, caches
        double auto_ms = cfg.autoMs();
        double p1_ms = cfg.p1Ms();
        double p2_ms = cfg.p2Ms();
        // Allocation accounting next to the cycles: the full-BConv
        // loop runs over the pooled scratch arena; with the slab
        // warmed, every acquire should hit the pool. allocs/op is
        // arena misses per conversion — 0 in steady state.
        double conv_ms = cfg.convMs(); // warms the arena slab
        ScratchArena::resetStats();
        conv_ms = cfg.convMs();
        auto arena = ScratchArena::stats();
        if (cfg.label == "serial") {
            base_auto = auto_ms;
            base_p1 = p1_ms;
            base_p2 = p2_ms;
            base_conv = conv_ms;
        }
        double coeffs = static_cast<double>(n) * reps;
        bench::row(cfg.label, "auto.thru", coeffs / (auto_ms / 1000.0),
                   "coef/s", "measured");
        bench::row(cfg.label, "auto.speedup",
                   auto_ms > 0 ? base_auto / auto_ms : 0, "x",
                   "measured");
        bench::row(cfg.label, "bconv_p1.speedup",
                   p1_ms > 0 ? base_p1 / p1_ms : 0, "x", "measured");
        bench::row(cfg.label, "bconv_p2.speedup",
                   p2_ms > 0 ? base_p2 / p2_ms : 0, "x", "measured");
        bench::row(cfg.label, "bconv.full.speedup",
                   conv_ms > 0 ? base_conv / conv_ms : 0, "x",
                   "measured");
        bench::row(cfg.label, "bconv.allocs_per_op",
                   reps > 0 ? static_cast<double>(arena.misses) / reps
                            : 0,
                   "allocs", "measured");
        bench::row(cfg.label, "bconv.arena_hits_per_op",
                   reps > 0 ? static_cast<double>(arena.hits) / reps
                            : 0,
                   "hits", "measured");
    }
    benchPbsKernels(args.smoke);
    benchCkksAllocs(args.smoke);
    bench::writeJsonReport(args, "micro_kernels");
    return 0;
}
