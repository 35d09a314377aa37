#include "ckks/evaluator.h"

#include <cmath>
#include <cstring>

#include "backend/command_stream.h"
#include "backend/kernel_events.h"
#include "backend/observer.h"
#include "backend/registry.h"
#include "backend/scratch_arena.h"
#include "common/logging.h"

namespace trinity {

CkksEvaluator::CkksEvaluator(std::shared_ptr<const CkksContext> ctx)
    : ctx_(std::move(ctx))
{
}

void
CkksEvaluator::checkAligned(const CkksCiphertext &a,
                            const CkksCiphertext &b) const
{
    trinity_assert(a.level == b.level,
                   "ciphertext levels differ (%zu vs %zu)", a.level,
                   b.level);
    double ratio = a.scale / b.scale;
    trinity_assert(ratio > 0.999 && ratio < 1.001,
                   "ciphertext scales differ (%g vs %g)", a.scale,
                   b.scale);
}

CkksCiphertext
CkksEvaluator::add(const CkksCiphertext &a, const CkksCiphertext &b) const
{
    OpScope scope("HAdd");
    checkAligned(a, b);
    CkksCiphertext r = a;
    r.c0.addInPlace(b.c0);
    r.c1.addInPlace(b.c1);
    return r;
}

CkksCiphertext
CkksEvaluator::sub(const CkksCiphertext &a, const CkksCiphertext &b) const
{
    // Same kernel class and volume as add; attributed together.
    OpScope scope("HAdd");
    checkAligned(a, b);
    CkksCiphertext r = a;
    r.c0.subInPlace(b.c0);
    r.c1.subInPlace(b.c1);
    return r;
}

CkksCiphertext
CkksEvaluator::negate(const CkksCiphertext &a) const
{
    CkksCiphertext r = a;
    r.c0.negInPlace();
    r.c1.negInPlace();
    return r;
}

CkksCiphertext
CkksEvaluator::addPlain(const CkksCiphertext &a,
                        const CkksPlaintext &pt) const
{
    OpScope scope("PAdd");
    trinity_assert(a.level == pt.level, "plaintext level mismatch");
    CkksCiphertext r = a;
    r.c0.toCoeff();
    RnsPoly p = pt.poly;
    p.toCoeff();
    r.c0.addInPlace(p);
    return r;
}

CkksCiphertext
CkksEvaluator::mulPlain(const CkksCiphertext &a,
                        const CkksPlaintext &pt) const
{
    OpScope scope("PMult");
    trinity_assert(a.level == pt.level, "plaintext level mismatch");
    CkksCiphertext r = a;
    RnsPoly p = pt.poly;
    p.toEval();
    r.c0.toEval();
    r.c1.toEval();
    r.c0.mulPointwiseInPlace(p);
    r.c1.mulPointwiseInPlace(p);
    r.c0.toCoeff();
    r.c1.toCoeff();
    r.scale = a.scale * pt.scale;
    return r;
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::keySwitch(const RnsPoly &d, const CkksEvalKey &evk,
                         size_t level) const
{
    OpScope scope("KeySwitch");
    size_t n = ctx_->n();
    const auto &params = ctx_->params();
    size_t alpha = params.alpha();
    size_t beta = params.beta(level);
    size_t nq = level + 1;
    auto ext_basis = ctx_->extendedBasis(level);
    size_t next = ext_basis.size(); // nq + alpha
    size_t big_l = params.maxLevel;

    trinity_assert(d.numLimbs() == nq, "keyswitch level mismatch");
    trinity_assert(evk.digits.size() >= beta, "evk has too few digits");

    // The digits are cut from the coefficient domain. Both evaluator
    // callers already pass Coeff, so only an Eval input pays a copy.
    RnsPoly d_converted;
    if (d.domain() != Domain::Coeff) {
        d_converted = d;
        d_converted.toCoeff();
    }
    const RnsPoly &d_coeff =
        d.domain() == Domain::Coeff ? d : d_converted;

    // Accumulators over the extended basis, evaluation domain (fresh
    // zeros are valid in either domain, so just tag them).
    RnsPoly acc0(n, ext_basis);
    RnsPoly acc1(n, ext_basis);
    acc0.setDomain(Domain::Eval);
    acc1.setDomain(Domain::Eval);

    // The beta digit pipelines are recorded as one command stream:
    // each digit's copy/BConv -> fused NTT+MAC chain only depends on
    // the previous digit through the shared accumulators, so a
    // pipelined engine runs digit j+1's BConv under digit j's MACs
    // instead of synchronizing per batch. The digit slabs come from
    // the thread's ScratchArena (zero heap allocation after the first
    // call at a given shape) and live in `fulls` until wait() returns
    // on deferred engines; engines that execute at record time consume
    // each digit before the next records, so one slab serves them all.
    auto stream = activeBackend().newStream();
    size_t nbuf = stream->deferredExecution() ? beta : 1;
    std::vector<ScratchBuffer> fulls;
    fulls.reserve(nbuf);
    // One read-modify-write chain PER accumulator limb: limb t of
    // digit j+1 waits only on limb t of digit j, not on the whole
    // digit's inner product.
    std::vector<Job> prev(next);
    for (size_t j = 0; j < beta; ++j) {
        auto [begin, end] = ctx_->digitRange(level, j);
        // Assemble the extended-basis polynomial in one flat limb-major
        // slab: digit limbs are copied straight in (line 1 of
        // Algorithm 1), the rest is produced by BConv (line 4) writing
        // directly into the target rows — conv outputs are ordered
        // (q limbs excluding digit, then special primes).
        if (fulls.size() < nbuf) {
            fulls.push_back(ScratchArena::local().acquire(next * n));
        }
        u64 *full = fulls[j < nbuf ? j : 0].data();
        Job copy = stream->task(
            end - begin,
            [full, &d_coeff, begin, n](size_t i) {
                std::memcpy(full + (begin + i) * n,
                            d_coeff.limbData(begin + i),
                            n * sizeof(u64));
            });
        std::vector<const u64 *> ins;
        ins.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
            ins.push_back(d_coeff.limbData(i));
        }
        std::vector<u64 *> outs;
        outs.reserve(next - (end - begin));
        for (size_t i = 0; i < nq; ++i) {
            if (i < begin || i >= end) {
                outs.push_back(full + i * n);
            }
        }
        for (size_t t = 0; t < alpha; ++t) {
            outs.push_back(full + (nq + t) * n);
        }
        std::vector<Job> conv = stream->baseConvertPhased(
            ctx_->modUpConverter(level, j).plan(), std::move(ins),
            std::move(outs), n);
        // Fused per-limb NTT + inner product (lines 5 and 9 in one
        // command): each limb transforms the moment its producer (the
        // copy, or the pass-2 command that converts it) finishes, and
        // the freshly transformed limb feeds both evk components while
        // it is hot in cache.
        size_t m = 0; // conv outputs are ordered like the t loop
        for (size_t t = 0; t < next; ++t) {
            bool is_digit = t >= begin && t < end;
            Job producer = is_digit ? copy : conv[m];
            if (!is_digit) {
                ++m;
            }
            // evk limbs are ordered q_0..q_L, p_0..p_{alpha-1}.
            size_t evk_limb = t < nq ? t : (big_l + 1) + (t - nq);
            prev[t] = stream->nttForwardMulAdd(
                {{full + t * n, &acc0.nttTableAt(t),
                  evk.digits[j].b.limbData(evk_limb), acc0.limbData(t),
                  evk.digits[j].a.limbData(evk_limb),
                  acc1.limbData(t)}},
                {producer, prev[t]});
        }
    }
    stream->submit();
    stream->wait();
    fulls.clear(); // back to the pool before ModDown takes its outputs

    // iNTT (line 11) and ModDown (line 12): BConv an accumulator's
    // special part into the q-limb slab `e1`, then one limb-local pass
    // writes (acc_q - conv) * P^{-1}. ct0 lands in place in acc0's q
    // limbs (both evaluator callers fold it into another poly at
    // once); ct1, which a rotated ciphertext keeps as c1, lands in
    // `e1` itself, so it holds only its own limbs.
    acc0.toCoeff();
    acc1.toCoeff();
    const BaseConverter &down = ctx_->modDownConverter(level);
    const simd::KernelSet &ks = activeBackend().kernels();
    std::vector<u64> q_moduli = acc0.moduli();
    q_moduli.resize(nq);
    RnsPoly e1 = RnsPoly::uninitialized(n, q_moduli);
    std::vector<u64> p_inv(nq);
    std::vector<u64 *> conv(nq);
    for (size_t i = 0; i < nq; ++i) {
        p_inv[i] = acc0.modulusAt(i).reduce(ctx_->pInvModQ(i));
        conv[i] = e1.limbData(i);
    }
    auto mod_down = [&](const RnsPoly &acc, RnsPoly &dst) {
        std::vector<const u64 *> p_part(alpha);
        for (size_t t = 0; t < alpha; ++t) {
            p_part[t] = acc.limbData(nq + t);
        }
        down.convertPointers(p_part.data(), conv.data(), n);
        // The fused subtract and P^{-1} scale is priced as the two
        // batches it replaces.
        emitKernel(kernel_events::make(sim::KernelType::ModAdd, nq * n,
                                       n, 24));
        emitKernel(kernel_events::make(sim::KernelType::ModMul, nq * n,
                                       n, 16));
        activeBackend().run(nq, [&](size_t i) {
            u64 *out = dst.limbData(i);
            const Modulus &qi = dst.modulusAt(i);
            ks.sub(out, acc.limbData(i), conv[i], qi, n);
            ks.scalarMul(out, out, p_inv[i], qi, n);
        });
    };
    mod_down(acc0, acc0);
    while (acc0.numLimbs() > nq) {
        acc0.dropLastLimb();
    }
    mod_down(acc1, e1);
    return {std::move(acc0), std::move(e1)};
}

CkksCiphertext
CkksEvaluator::multiply(const CkksCiphertext &a, const CkksCiphertext &b,
                        const CkksEvalKey &relin_key) const
{
    OpScope scope("HMult");
    checkAligned(a, b);
    // Tensor product (all in the evaluation domain).
    RnsPoly a0 = a.c0, a1 = a.c1, b0 = b.c0, b1 = b.c1;
    a0.toEval();
    a1.toEval();
    b0.toEval();
    b1.toEval();

    // d0 = a0 b0, d1 = a0 b1 + a1 b0, d2 = a1 b1. Each product lands in
    // an operand copy once that operand is dead (d1 in a0, a1 b0 in b0,
    // d2 in a1), so only d0 needs a buffer of its own.
    RnsPoly d0 = a0.mulPointwise(b0);
    a0.mulPointwiseInPlace(b1);
    b0.mulPointwiseInPlace(a1);
    a0.addInPlace(b0);
    RnsPoly &d1 = a0;
    a1.mulPointwiseInPlace(b1);
    RnsPoly &d2 = a1;
    // b0 and b1 are dead: back to the pool, where the keyswitch's
    // q-limb output picks one up.
    b0 = RnsPoly();
    b1 = RnsPoly();

    // Relinearize d2 via keyswitch with target secret s^2.
    d2.toCoeff();
    auto [e0, e1] = keySwitch(d2, relin_key, a.level);

    CkksCiphertext r;
    r.level = a.level;
    r.scale = a.scale * b.scale;
    d0.toCoeff();
    d1.toCoeff();
    d0.addInPlace(e0);
    d1.addInPlace(e1);
    r.c0 = std::move(d0);
    r.c1 = std::move(d1);
    return r;
}

CkksCiphertext
CkksEvaluator::square(const CkksCiphertext &a,
                      const CkksEvalKey &relin_key) const
{
    OpScope scope("HSquare");
    // d0 = c0^2, d1 = 2 c0 c1, d2 = c1^2, then relinearize d2.
    // d1 and d2 land in the operand copies (a0, a1) once they are dead.
    RnsPoly a0 = a.c0, a1 = a.c1;
    a0.toEval();
    a1.toEval();
    RnsPoly d0 = a0.mulPointwise(a0);
    a0.mulPointwiseInPlace(a1);
    a0.addInPlace(a0);
    RnsPoly &d1 = a0;
    a1.mulPointwiseInPlace(a1);
    RnsPoly &d2 = a1;
    d2.toCoeff();
    auto [e0, e1] = keySwitch(d2, relin_key, a.level);
    CkksCiphertext r;
    r.level = a.level;
    r.scale = a.scale * a.scale;
    d0.toCoeff();
    d1.toCoeff();
    d0.addInPlace(e0);
    d1.addInPlace(e1);
    r.c0 = std::move(d0);
    r.c1 = std::move(d1);
    return r;
}

CkksCiphertext
CkksEvaluator::addScalar(const CkksCiphertext &a, double v) const
{
    // Adding v to every slot adds round(v * scale) to coefficient 0
    // of the plaintext polynomial (the canonical embedding maps
    // constants to constants).
    CkksCiphertext r = a;
    r.c0.toCoeff();
    i64 raw = static_cast<i64>(std::llround(v * a.scale));
    for (size_t j = 0; j < r.c0.numLimbs(); ++j) {
        LimbView limb = r.c0.limb(j);
        limb[0] = limb.modulus().add(limb[0],
                                     toResidue(raw, limb.q()));
    }
    return r;
}

CkksCiphertext
CkksEvaluator::mulScalarInt(const CkksCiphertext &a, i64 v) const
{
    CkksCiphertext r = a;
    for (RnsPoly *comp : {&r.c0, &r.c1}) {
        std::vector<u64> scalars(comp->numLimbs());
        for (size_t j = 0; j < comp->numLimbs(); ++j) {
            scalars[j] = toResidue(v, comp->modulusAt(j).value());
        }
        comp->scalarMulLimbwise(scalars);
    }
    return r;
}

CkksCiphertext
CkksEvaluator::conjugate(const CkksCiphertext &ct,
                         const CkksEvalKey &conj_key) const
{
    return applyGalois(ct, 2 * ctx_->n() - 1, conj_key);
}

void
CkksEvaluator::rescaleInPlace(CkksCiphertext &ct) const
{
    OpScope scope("Rescale");
    trinity_assert(ct.level >= 1, "cannot rescale at level 0");
    size_t l = ct.level;
    u64 ql = ctx_->qChain()[l];
    ct.c0.toCoeff();
    ct.c1.toCoeff();
    for (RnsPoly *comp : {&ct.c0, &ct.c1}) {
        const u64 *last = comp->limbData(l);
        size_t n = comp->n();
        // The fused divide runs through the untyped escape hatch, so
        // announce its kernels (one subtract + one scalar multiply
        // per coefficient of the l surviving limbs) to the profiler.
        emitKernel(sim::KernelType::ModAdd, l * n, n);
        emitKernel(sim::KernelType::ModMul, l * n, n);
        activeBackend().run(l, [&](size_t i) {
            const Modulus &qi = comp->modulusAt(i);
            u64 ql_inv = qi.inv(qi.reduce(ql));
            u64 *limb = comp->limbData(i);
            for (size_t c = 0; c < n; ++c) {
                u64 v = qi.sub(limb[c], qi.reduce(last[c]));
                limb[c] = qi.mul(v, ql_inv);
            }
        });
        comp->dropLastLimb();
    }
    ct.level -= 1;
    ct.scale /= static_cast<double>(ql);
}

CkksCiphertext
CkksEvaluator::applyGalois(const CkksCiphertext &ct, u64 g,
                           const CkksEvalKey &galois_key) const
{
    OpScope scope("HRotate");
    // The automorphism reads the coefficient domain; a Coeff input
    // (the usual case) is read in place, an Eval one is copied first.
    CkksCiphertext converted;
    bool coeff = ct.c0.domain() == Domain::Coeff &&
                 ct.c1.domain() == Domain::Coeff;
    if (!coeff) {
        converted = ct;
        converted.c0.toCoeff();
        converted.c1.toCoeff();
    }
    const CkksCiphertext &in = coeff ? ct : converted;
    RnsPoly sc0 = in.c0.automorphism(g);
    RnsPoly sc1 = in.c1.automorphism(g);
    auto [e0, e1] = keySwitch(sc1, galois_key, ct.level);
    CkksCiphertext r;
    r.level = ct.level;
    r.scale = ct.scale;
    sc0.addInPlace(e0);
    r.c0 = std::move(sc0);
    r.c1 = std::move(e1);
    return r;
}

CkksCiphertext
CkksEvaluator::rotate(const CkksCiphertext &ct, i64 steps,
                      const CkksEvalKey &rot_key) const
{
    size_t two_n = 2 * ctx_->n();
    size_t order = ctx_->n() / 2;
    u64 r = static_cast<u64>(((steps % static_cast<i64>(order)) +
                              static_cast<i64>(order)) %
                             static_cast<i64>(order));
    u64 g = 1;
    for (u64 i = 0; i < r; ++i) {
        g = (g * 5) % two_n;
    }
    return applyGalois(ct, g, rot_key);
}

CkksCiphertext
CkksEvaluator::rotatePoly(const CkksCiphertext &ct, u64 t) const
{
    OpScope scope("Rotate");
    CkksCiphertext r = ct;
    r.c0.toCoeff();
    r.c1.toCoeff();
    r.c0 = r.c0.mulMonomial(t);
    r.c1 = r.c1.mulMonomial(t);
    return r;
}

void
CkksEvaluator::dropToLevel(CkksCiphertext &ct, size_t level) const
{
    trinity_assert(level <= ct.level, "cannot raise level");
    ct.c0.toCoeff();
    ct.c1.toCoeff();
    while (ct.level > level) {
        ct.c0.dropLastLimb();
        ct.c1.dropLastLimb();
        ct.level -= 1;
    }
}

} // namespace trinity
