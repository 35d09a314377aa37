#include "tfhe/pbs.h"

#include <algorithm>
#include <array>

#include "backend/command_stream.h"
#include "backend/observer.h"
#include "backend/registry.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace trinity {

namespace {

/** Component c of a GLWE, counting the body as component k. */
Poly &
glweComp(GlweCiphertext &ct, size_t c)
{
    return c < ct.a.size() ? ct.a[c] : ct.b;
}

const Poly &
glweComp(const GlweCiphertext &ct, size_t c)
{
    return c < ct.a.size() ? ct.a[c] : ct.b;
}

/**
 * One thread's blind-rotation plan: the workspace of a lockstep batch
 * of `batch` requests and, on an engine that replays, the stream
 * recording all steps x batch CMux chains. Its jobs read the rotation
 * table and the batch's bootstrap key when they run, not when they
 * are recorded, so a batch with the same key (any tenant) only refills
 * the table and the accumulators and submits the stream again.
 */
struct BlindRotationPlan
{
    /** What the recorded DAG depends on: the engine instance (its
     *  serial, never its address), the GLWE and gadget shape, the
     *  step count n_lwe, and the batch width. */
    using Key = std::array<u64, 8>;

    static Key
    keyOf(const TfheParams &p, const PolyBackend &engine, size_t steps,
          size_t batch)
    {
        return {engine.serial(), p.bigN, p.q,    p.k,
                p.lb,            p.logBg, steps, batch};
    }

    BlindRotationPlan(const TfheContext &ctx, const PolyBackend &engine,
                      size_t steps_, size_t batch_)
        : key(keyOf(ctx.params(), engine, steps_, batch_)),
          mod(ctx.modulus()), gadget(ctx.extGadget()),
          table(NttTableCache::get(ctx.params().bigN, ctx.q())),
          ks(&engine.kernels()), n(ctx.params().bigN),
          comps(ctx.params().k + 1), rows(ctx.params().extRows()),
          steps(steps_), batch(batch_), acc(batch_),
          dec(batch_ * rows * n), prod(batch_ * comps * n),
          rot(steps_ * batch_)
    {
        // Bounds the fixed-size digit/pointer arrays of the jobs.
        trinity_assert(rows <= 16, "blind rotation: unsupported gadget "
                                   "shape");
        for (GlweCiphertext &a : acc) {
            a = ctx.glweTrivial(Poly(n, ctx.q()));
        }
    }

    u64 *decAt(size_t slot, size_t r)
    {
        return &dec[(slot * rows + r) * n];
    }
    u64 *prodAt(size_t slot, size_t c)
    {
        return &prod[(slot * comps + c) * n];
    }

    const Key key;
    const Modulus mod;
    const Gadget gadget;
    const std::shared_ptr<const NttTable> table;
    const simd::KernelSet *const ks; ///< the keyed engine's kernels
    const size_t n, comps, rows, steps, batch;

    std::vector<GlweCiphertext> acc; ///< per-slot accumulators
    std::vector<u64> dec;            ///< rows decomposed limbs per slot
    std::vector<u64> prod;           ///< comps product limbs per slot
    std::vector<u64> rot;            ///< rotations, [step * batch + slot]
    const TfheBootstrapKey *bsk = nullptr; ///< the running batch's key
    /** Kept across batches only when it records every (step, slot)
     *  on an executor that replays; else null between batches. */
    std::unique_ptr<CommandStream> stream;
};

/** Where a job works: its plan, step and request slot. Sixteen bytes,
 *  so the task closures that capture it need no heap block. */
struct PlanAt
{
    BlindRotationPlan *plan;
    u32 step;
    u32 slot;

    u64 rotation() const
    {
        return plan->rot[size_t(step) * plan->batch + slot];
    }
};

/**
 * Record the blind rotation of @p plan's batch into @p stream: per
 * request slot one dependency chain through the steps, four commands
 * per step — rotate+decompose, forward NTTs, MAC against the step's
 * GGSW, and inverse NTT + accumulate. Distinct slots share no buffers,
 * so a pipelined engine overlaps them freely and runs the NTTs of step
 * i+1 under the MACs of step i. Every job reads its rotation when it
 * runs and returns at once when it is zero: a zero-rotation CMux adds
 * 0, so skipping it is exact.
 *
 * With @p every_step the stream holds every (step, slot) and its NTT
 * stages are tasks too, so a replay serves any rotations. Otherwise a
 * zero-rotation step is left out at record time and the NTT stages
 * are the named ops — the DAG an executor that runs (or prices) at
 * record time sees.
 */
void
recordBlindRotate(CommandStream &stream, BlindRotationPlan &plan,
                  bool every_step)
{
    size_t n = plan.n;
    size_t comps = plan.comps;
    size_t rows = plan.rows;
    std::vector<Job> tail(plan.batch); // per-slot chain tail
    for (u32 i = 0; i < plan.steps; ++i) {
        for (u32 j = 0; j < plan.batch; ++j) {
            PlanAt at{&plan, i, j};
            if (!every_step && at.rotation() == 0) {
                continue;
            }
            // (1+2) Rotator, CMux difference, and gadget decomposition
            // fused into one gather pass per component: the difference
            //     diff_j[x] = (acc_j * X^{t_j})[x] - acc_j[x]
            // is decomposed the moment it is produced, never
            // materialized. Depends on the slot's previous accumulate
            // (RAW on the accumulator, WAW on the slot's scratch).
            Job dec = stream.task(
                comps,
                [at](size_t c) {
                    BlindRotationPlan &p = *at.plan;
                    u64 t = at.rotation();
                    if (t == 0) {
                        return;
                    }
                    u64 *dst[16]; // lb <= rows <= 16
                    for (u32 l = 0; l < p.gadget.levels(); ++l) {
                        dst[l] = p.decAt(at.slot,
                                         c * p.gadget.levels() + l);
                    }
                    p.ks->rotateDecompose(
                        dst, glweComp(p.acc[at.slot], c).coeffs().data(),
                        t, p.gadget, p.mod, p.n);
                },
                {tail[j]},
                {{sim::KernelType::Rotate, comps * n, n, 16 * comps * n},
                 {sim::KernelType::ModAdd, comps * n, n, 16 * comps * n},
                 {sim::KernelType::Decomp, comps * n, n,
                  16 * comps * n}});

            // (3) Forward NTTs of the slot's `rows` decomposed limbs.
            Job ntt;
            if (every_step) {
                ntt = stream.task(
                    rows,
                    [at](size_t r) {
                        if (at.rotation() != 0) {
                            BlindRotationPlan &p = *at.plan;
                            p.ks->nttForward(*p.table,
                                             p.decAt(at.slot, r));
                        }
                    },
                    {dec});
            } else {
                std::vector<NttJob> fwd(rows);
                for (size_t r = 0; r < rows; ++r) {
                    fwd[r] = {plan.decAt(j, r), plan.table.get()};
                }
                ntt = stream.nttForward(std::move(fwd), {dec});
            }

            // (4) External-product MACs against the step's GGSW rows,
            // read from the running batch's key, with lazy reduction
            // (KernelSet::extProdMac): one exact fold per coefficient,
            // bit-identical to a sequential mulAdd chain.
            Job mac = stream.task(
                comps,
                [at](size_t c) {
                    BlindRotationPlan &p = *at.plan;
                    if (at.rotation() == 0) {
                        return;
                    }
                    const GgswCiphertext &g = p.bsk->bsk[at.step];
                    const u64 *lhs[16];
                    const u64 *rhs[16];
                    for (size_t r = 0; r < p.rows; ++r) {
                        lhs[r] = p.decAt(at.slot, r);
                        rhs[r] = glweComp(g.rows[r], c).coeffs().data();
                    }
                    p.ks->extProdMac(p.prodAt(at.slot, c), lhs, rhs,
                                     p.rows, p.mod, p.n);
                },
                {ntt},
                {{sim::KernelType::Ip, static_cast<u64>(rows) * comps * n,
                  n, 16 * static_cast<u64>(rows) * comps * n}});

            // (5+6) Fused inverse NTT + CMux accumulate: each product
            // limb leaves its final GS stage (N^{-1} folded in) and is
            // added onto the accumulator while still hot in cache.
            if (every_step) {
                tail[j] = stream.task(
                    comps,
                    [at](size_t c) {
                        BlindRotationPlan &p = *at.plan;
                        if (at.rotation() != 0) {
                            p.ks->nttInverseAdd(
                                *p.table, p.prodAt(at.slot, c),
                                glweComp(p.acc[at.slot], c)
                                    .coeffs()
                                    .data());
                        }
                    },
                    {mac});
            } else {
                std::vector<NttInvAddJob> inv(comps);
                for (size_t c = 0; c < comps; ++c) {
                    inv[c] = {plan.prodAt(j, c), plan.table.get(),
                              glweComp(plan.acc[j], c).coeffs().data()};
                }
                tail[j] = stream.nttInverseAdd(std::move(inv), {mac});
            }
        }
    }
}

/** This thread's plan for (engine, shape, batch): the cached one when
 *  its key matches, else a new one — the old plan and its stream are
 *  freed first, so at most one is alive per thread. A stale plan never
 *  touches its engine, which may be gone. */
BlindRotationPlan &
threadPlan(const TfheContext &ctx, const PolyBackend &engine,
           size_t steps, size_t batch)
{
    static thread_local std::unique_ptr<BlindRotationPlan> plan;
    static obs::Counter &builds =
        obs::MetricsRegistry::instance().counter("tfhe.plan.builds");
    if (plan == nullptr ||
        plan->key != BlindRotationPlan::keyOf(ctx.params(), engine, steps,
                                              batch)) {
        plan.reset();
        plan = std::make_unique<BlindRotationPlan>(ctx, engine, steps,
                                                   batch);
        builds.add();
    }
    return *plan;
}

} // namespace

TfheBootstrapper::TfheBootstrapper(std::shared_ptr<TfheContext> ctx)
    : ctx_(std::move(ctx))
{
}

TfheBootstrapKey
TfheBootstrapper::makeBootstrapKey(const LweSecretKey &lwe_sk,
                                   const GlweSecretKey &glwe_sk,
                                   bool toEval)
{
    TfheBootstrapKey out;
    out.bsk.reserve(lwe_sk.s.size());
    for (i64 bit : lwe_sk.s) {
        GgswCiphertext g = ctx_->ggswEncrypt(bit, glwe_sk);
        if (toEval) {
            ctx_->ggswToEval(g);
        }
        out.bsk.push_back(std::move(g));
    }
    return out;
}

TfheKeySwitchKey
TfheBootstrapper::makeKeySwitchKey(const GlweSecretKey &from,
                                   const LweSecretKey &to)
{
    const auto &p = ctx_->params();
    LweSecretKey wide = from.extractLweKey();
    TfheKeySwitchKey ksk;
    ksk.logB = p.logBks;
    ksk.levels = p.lk;
    ksk.rows.resize(wide.s.size());
    Gadget gadget(p.q, p.logBks, p.lk);
    for (size_t i = 0; i < wide.s.size(); ++i) {
        ksk.rows[i].reserve(p.lk);
        for (u32 j = 0; j < p.lk; ++j) {
            u64 msg = wide.s[i] ? gadget.element(j) : 0;
            ksk.rows[i].push_back(ctx_->lweEncrypt(msg, to));
        }
    }
    return ksk;
}

u64
TfheBootstrapper::modSwitch(u64 x) const
{
    const auto &p = ctx_->params();
    u64 two_n = 2 * p.bigN;
    // round(2N * x / q) mod 2N
    u128 num = u128(x) * two_n + p.q / 2;
    return static_cast<u64>(num / p.q) % two_n;
}

GlweCiphertext
TfheBootstrapper::blindRotate(const LweCiphertext &ct, const Poly &tv,
                              const TfheBootstrapKey &bsk) const
{
    const auto &p = ctx_->params();
    u64 two_n = 2 * p.bigN;
    trinity_assert(ct.a.size() == bsk.bsk.size(),
                   "bsk/ciphertext dimension mismatch");
    emitKernel(sim::KernelType::ModSwitch, ct.a.size() + 1, p.bigN);
    u64 b_tilde = modSwitch(ct.b);
    // ACC_0 = Rotate(tv, -b~)  (Algorithm 2 line 2).
    GlweCiphertext acc =
        ctx_->glweMulMonomial(ctx_->glweTrivial(tv), two_n - b_tilde);
    for (size_t i = 0; i < ct.a.size(); ++i) {
        u64 a_tilde = modSwitch(ct.a[i]);
        if (a_tilde == 0) {
            continue;
        }
        // ACC = CMux(bsk_i, ACC, X^{a~_i} * ACC): selects the rotated
        // accumulator when s_i = 1 (lines 5-11).
        GlweCiphertext rotated = ctx_->glweMulMonomial(acc, a_tilde);
        acc = ctx_->cmux(bsk.bsk[i], acc, rotated);
    }
    return acc;
}

void
TfheBootstrapper::extractInto(const GlweCiphertext &acc, size_t idx,
                              LweCiphertext &out) const
{
    const auto &p = ctx_->params();
    size_t n = p.bigN;
    const Modulus &m = ctx_->modulus();
    trinity_assert(idx < n, "extract index out of range");
    out.a.resize(p.k * n);
    for (size_t j = 0; j < p.k; ++j) {
        const Poly &aj = acc.a[j];
        trinity_assert(aj.domain() == Domain::Coeff,
                       "sample extract needs coefficient domain");
        for (size_t i = 0; i < n; ++i) {
            // a'_{jN+i} = A_j[idx-i], negacyclic wrap brings a sign.
            u64 v;
            if (i <= idx) {
                v = aj[idx - i];
            } else {
                v = m.neg(aj[n + idx - i]);
            }
            out.a[j * n + i] = v;
        }
    }
    out.b = acc.b[idx];
}

LweCiphertext
TfheBootstrapper::sampleExtract(const GlweCiphertext &acc,
                                size_t idx) const
{
    const auto &p = ctx_->params();
    emitKernel(sim::KernelType::SampleExtract, p.k * p.bigN, p.bigN);
    LweCiphertext out;
    extractInto(acc, idx, out);
    return out;
}

u64
TfheBootstrapper::keySwitchLockstep(const LweCiphertext *wides,
                                    size_t count,
                                    const TfheKeySwitchKey &ksk,
                                    LweCiphertext *outs) const
{
    const auto &p = ctx_->params();
    const Modulus &m = ctx_->modulus();
    size_t rows = ksk.rows.size();
    u32 lk = ksk.levels;
    size_t n = p.nLwe;
    if (count == 0) {
        return 0;
    }
    // The signed accumulators hold at most rows * lk terms of
    // |digit| <= B/2 times a residue < q; bound the sum below 2^63 so
    // the i64 never wraps (Set-I: 5120 * 8 * 2^32 < 2^48). Digits are
    // stored as i8, which needs B/2 <= 128.
    trinity_assert(ksk.logB >= 1 && ksk.logB <= 8,
                   "keyswitch base 2^%u unsupported", ksk.logB);
    trinity_assert(u128(rows) * lk * (u64(1) << (ksk.logB - 1)) *
                           (p.q - 1) <
                       (u128(1) << 63),
                   "keyswitch accumulator bound exceeds 2^63");
    for (size_t c = 0; c < count; ++c) {
        trinity_assert(wides[c].a.size() == rows, "ksk dimension mismatch");
    }
    Gadget gadget(p.q, ksk.logB, lk);
    PolyBackend &backend = activeBackend();
    const simd::KernelSet &ks = backend.kernels();

    // Pass 1: every ciphertext's digits, laid out [row*lk + l][c] so
    // the lockstep pass reads one key row's digits contiguously. A
    // zero coefficient decomposes to all-zero digits (skipped). MAC
    // lanes count nonzero digits, nLwe + 1 lanes each.
    std::vector<i8> digits(rows * lk * count, 0);
    std::vector<u64> lanes(count, 0);
    backend.run(count, [&](size_t c) {
        i64 d[64];
        for (size_t i = 0; i < rows; ++i) {
            u64 x = wides[c].a[i];
            if (x == 0) {
                continue;
            }
            gadget.decompose(x, d);
            for (u32 l = 0; l < lk; ++l) {
                digits[(i * lk + l) * count + c] = static_cast<i8>(d[l]);
                lanes[c] += d[l] != 0 ? n + 1 : 0;
            }
        }
        outs[c].a.assign(n, 0);
    });

    // Pass 2: walk the key once per batch. Column slice s of every key
    // row is applied to every ciphertext's nonzero digit while it is
    // hot in cache; the extra task s == slices does the body column.
    // One slice per thread (at least 64 columns, a lane multiple)
    // keeps each key-row read a long contiguous run. Each output is
    // reduced once: a' = -sum d * ksk.a, b' = b - sum d * ksk.b.
    size_t per_thread = (n + backend.threadCount() - 1) /
                        backend.threadCount();
    size_t slice = std::max<size_t>(64, (per_thread + 7) / 8 * 8);
    size_t slices = (n + slice - 1) / slice;
    std::vector<i64> acc(count * n, 0);
    auto reduce = [&](i64 v) {
        i64 r = v % static_cast<i64>(p.q);
        return static_cast<u64>(r < 0 ? r + static_cast<i64>(p.q) : r);
    };
    backend.run(slices + 1, [&](size_t s) {
        if (s == slices) {
            std::vector<i64> body(count, 0);
            for (size_t i = 0; i < rows; ++i) {
                for (u32 l = 0; l < lk; ++l) {
                    const i8 *dd = &digits[(i * lk + l) * count];
                    i64 b = static_cast<i64>(ksk.rows[i][l].b);
                    for (size_t c = 0; c < count; ++c) {
                        body[c] += dd[c] * b;
                    }
                }
            }
            for (size_t c = 0; c < count; ++c) {
                outs[c].b = m.sub(wides[c].b, reduce(body[c]));
            }
            return;
        }
        size_t t0 = s * slice;
        size_t len = std::min(slice, n - t0);
        for (size_t i = 0; i < rows; ++i) {
            for (u32 l = 0; l < lk; ++l) {
                ks.lweKsAccumulate(acc.data() + t0, n,
                                   &digits[(i * lk + l) * count], count,
                                   ksk.rows[i][l].a.data() + t0, len);
            }
        }
        for (size_t c = 0; c < count; ++c) {
            for (size_t t = t0; t < t0 + len; ++t) {
                outs[c].a[t] = m.neg(reduce(acc[c * n + t]));
            }
        }
    });
    u64 mac_lanes = 0;
    for (u64 l : lanes) {
        mac_lanes += l;
    }
    return mac_lanes;
}

LweCiphertext
TfheBootstrapper::keySwitch(const LweCiphertext &wide,
                            const TfheKeySwitchKey &ksk) const
{
    LweCiphertext out;
    u64 mac_lanes = keySwitchLockstep(&wide, 1, ksk, &out);
    emitKernel(sim::KernelType::LweKs, mac_lanes,
               ctx_->params().nLwe);
    return out;
}

LweCiphertext
TfheBootstrapper::pbs(const LweCiphertext &in, const Poly &tv,
                      const TfheBootstrapKey &bsk,
                      const TfheKeySwitchKey &ksk) const
{
    OpScope scope("PBS");
    GlweCiphertext acc = blindRotate(in, tv, bsk);
    LweCiphertext wide = sampleExtract(acc, 0);
    return keySwitch(wide, ksk);
}

std::vector<GlweCiphertext>
TfheBootstrapper::blindRotateBatch(const LweCiphertext *const *cts,
                                   const Poly *const *tvs, size_t count,
                                   const TfheBootstrapKey &bsk) const
{
    const auto &p = ctx_->params();
    u64 two_n = 2 * p.bigN;
    if (count == 0) {
        return {};
    }
    emitKernel(sim::KernelType::ModSwitch,
               count * (cts[0]->a.size() + 1), p.bigN);
    for (size_t j = 0; j < count; ++j) {
        trinity_assert(cts[j]->a.size() == bsk.bsk.size(),
                       "bsk/ciphertext dimension mismatch");
    }
    for (const GgswCiphertext &g : bsk.bsk) {
        trinity_assert(g.inEval,
                       "GGSW must be in the NTT domain (call ggswToEval)");
    }
    // Lockstep over the LWE mask: step i applies bsk_i to every
    // request at once, so the GGSW rows are read once per step for
    // the whole batch instead of once per request. The whole rotation
    // is one command stream in this thread's plan (see
    // recordBlindRotate). Where the engine replays, the stream is
    // recorded once per plan and every later batch submits it again;
    // elsewhere it is recorded per batch.
    PolyBackend &engine = activeBackend();
    BlindRotationPlan &plan =
        threadPlan(*ctx_, engine, bsk.bsk.size(), count);
    bool replay = plan.stream != nullptr && plan.stream->canReplay();
    bool keep = replay;
    {
        // The serial phase before any job runs: the table fill and the
        // ACC_0 copies, plus the recording when there is no replay.
        obs::TraceSpan span("recordBlindRotate", "tfhe", "tfhe",
                            "requests", count, "replay", replay);
        for (size_t j = 0; j < count; ++j) {
            const LweCiphertext &ct = *cts[j];
            for (size_t i = 0; i < plan.steps; ++i) {
                plan.rot[i * count + j] = modSwitch(ct.a[i]);
            }
            // ACC_0 = Rotate(tv, -b~) per request (Algorithm 2 line 2).
            GlweCiphertext acc0 = ctx_->glweMulMonomial(
                ctx_->glweTrivial(*tvs[j]), two_n - modSwitch(ct.b));
            for (size_t c = 0; c <= p.k; ++c) {
                const std::vector<u64> &src = glweComp(acc0, c).coeffs();
                std::copy(src.begin(), src.end(),
                          glweComp(plan.acc[j], c).coeffs().begin());
            }
        }
        plan.bsk = &bsk;
        if (!replay) {
            plan.stream.reset();
            plan.stream = engine.newStream();
            keep = plan.stream->canReplay();
            recordBlindRotate(*plan.stream, plan, keep);
        }
    }
    if (replay) {
        static obs::Counter &replays =
            obs::MetricsRegistry::instance().counter("tfhe.plan.replays");
        replays.add();
    }
    plan.stream->submit();
    plan.stream->wait();
    if (!keep) {
        plan.stream.reset(); // it left this batch's zero steps out
    }
    return {plan.acc.begin(), plan.acc.end()};
}

std::vector<LweCiphertext>
TfheBootstrapper::sampleExtractBatch(const GlweCiphertext *accs,
                                     size_t count, size_t idx) const
{
    const auto &p = ctx_->params();
    std::vector<LweCiphertext> out(count);
    emitKernel(sim::KernelType::SampleExtract, count * p.k * p.bigN,
               p.bigN);
    activeBackend().run(count, [&](size_t j) {
        extractInto(accs[j], idx, out[j]);
    });
    return out;
}

std::vector<LweCiphertext>
TfheBootstrapper::keySwitchBatch(const LweCiphertext *wides, size_t count,
                                 const TfheKeySwitchKey &ksk) const
{
    std::vector<LweCiphertext> out(count);
    u64 mac_lanes = keySwitchLockstep(wides, count, ksk, out.data());
    emitKernel(sim::KernelType::LweKs, mac_lanes, ctx_->params().nLwe);
    return out;
}

std::vector<LweCiphertext>
TfheBootstrapper::pbsBatch(const LweCiphertext *const *ins,
                           const Poly *const *tvs, size_t count,
                           const TfheBootstrapKey &bsk,
                           const TfheKeySwitchKey &ksk) const
{
    OpScope scope("PBS");
    std::vector<GlweCiphertext> accs =
        blindRotateBatch(ins, tvs, count, bsk);
    std::vector<LweCiphertext> wides =
        sampleExtractBatch(accs.data(), count, 0);
    return keySwitchBatch(wides.data(), count, ksk);
}

Poly
TfheBootstrapper::makeTestVector(
    const std::function<u64(size_t)> &f) const
{
    const auto &p = ctx_->params();
    Poly tv(p.bigN, p.q);
    for (size_t i = 0; i < p.bigN; ++i) {
        tv[i] = f(i);
    }
    return tv;
}

Poly
TfheBootstrapper::signTestVector(u64 amplitude) const
{
    return makeTestVector([amplitude](size_t) { return amplitude; });
}

} // namespace trinity
