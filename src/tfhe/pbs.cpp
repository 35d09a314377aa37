#include "tfhe/pbs.h"

#include <algorithm>
#include <cstring>

#include "backend/observer.h"
#include "backend/registry.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace trinity {

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
    std::vector<GlweCiphertext> accs;
    if (count == 0) {
        return accs;
    }
    accs.reserve(count);
    emitKernel(sim::KernelType::ModSwitch,
               count * (cts[0]->a.size() + 1), p.bigN);
    for (size_t j = 0; j < count; ++j) {
        trinity_assert(cts[j]->a.size() == bsk.bsk.size(),
                       "bsk/ciphertext dimension mismatch");
        u64 b_tilde = modSwitch(cts[j]->b);
        // ACC_0 = Rotate(tv, -b~) per request (Algorithm 2 line 2).
        accs.push_back(ctx_->glweMulMonomial(ctx_->glweTrivial(*tvs[j]),
                                             two_n - b_tilde));
    }
    // Lockstep over the LWE mask: step i applies bsk_i to every
    // request at once, so the GGSW rows are read once per step for
    // the whole batch instead of once per request. All n_lwe steps
    // are recorded into ONE command stream: each request carries its
    // own dependency chain through the steps, so a pipelined engine
    // runs the NTTs of step i+1 under the MACs of step i (and the
    // timing backend prices exactly that overlap). Rotation amounts
    // are captured at record time, so the rot buffer is reusable
    // per step. The scratch outlives the stream (declared first) and
    // is pooled per thread across calls — its decomposition/product
    // polynomials are sized once for a given GLWE shape, so the PBS
    // hot loop stops allocating after the first batch. A shape change
    // (different params or a wider batch) rebuilds it.
    static thread_local CmuxBatchScratch scratch;
    static thread_local u64 scratch_shape[4] = {0, 0, 0, 0};
    u64 shape[4] = {p.bigN, p.q, p.k, p.extRows()};
    if (std::memcmp(shape, scratch_shape, sizeof shape) != 0) {
        scratch = CmuxBatchScratch{};
        std::memcpy(scratch_shape, shape, sizeof shape);
    }
    auto stream = activeBackend().newStream();
    std::vector<u64> rot(count);
    {
        // The record phase runs serially on this thread before any
        // command executes; the span makes that share of a batch
        // visible next to the stream's own command spans.
        obs::TraceSpan span("recordBlindRotate", "tfhe", "tfhe",
                            "requests", count);
        for (size_t i = 0; i < bsk.bsk.size(); ++i) {
            for (size_t j = 0; j < count; ++j) {
                rot[j] = modSwitch(cts[j]->a[i]);
            }
            ctx_->recordCmuxRotateBatch(*stream, bsk.bsk[i], accs.data(),
                                        rot.data(), count, scratch);
        }
    }
    stream->submit();
    stream->wait();
    return accs;
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
