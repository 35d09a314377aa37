#include "poly/rns.h"

#include <algorithm>
#include <cstring>

#include "backend/observer.h"
#include "backend/registry.h"
#include "backend/simd_kernels.h"
#include "common/logging.h"

namespace trinity {

// ---------------------------------------------------------------- views

Poly
ConstLimbView::toPoly() const
{
    return Poly(coeffs(), q(), domain_);
}

u64
ConstLimbView::infNorm() const
{
    u64 qv = q();
    u64 m = 0;
    for (size_t i = 0; i < n_; ++i) {
        i64 centered = centeredRep(data_[i], qv);
        u64 mag = centered < 0 ? static_cast<u64>(-centered)
                               : static_cast<u64>(centered);
        m = std::max(m, mag);
    }
    return m;
}

Poly
LimbView::toPoly() const
{
    return Poly(coeffs(), q(), domain_);
}

u64
LimbView::infNorm() const
{
    return ConstLimbView(*this).infNorm();
}

LimbView &
LimbView::operator=(const Poly &p)
{
    trinity_assert(p.n() == n_ && p.q() == q(),
                   "limb assignment shape mismatch");
    trinity_assert(p.domain() == domain_,
                   "limb assignment domain mismatch");
    std::copy(p.coeffs().begin(), p.coeffs().end(), data_);
    return *this;
}

Poly
operator+(const ConstLimbView &a, const ConstLimbView &b)
{
    Poly r = a.toPoly();
    r.addInPlace(b.toPoly());
    return r;
}

// -------------------------------------------------------------- RnsPoly

RnsPoly
RnsPoly::uninitialized(size_t n, const std::vector<u64> &moduli)
{
    RnsPoly r;
    r.n_ = n;
    r.mods_.reserve(moduli.size());
    r.tables_.reserve(moduli.size());
    for (u64 q : moduli) {
        r.mods_.emplace_back(q);
        r.tables_.push_back(NttTableCache::get(n, q));
    }
    r.data_ = ScratchArena::local().acquire(n * moduli.size());
    return r;
}

RnsPoly::RnsPoly(size_t n, const std::vector<u64> &moduli)
    : RnsPoly(uninitialized(n, moduli))
{
    std::fill_n(data_.data(), numLimbs() * n_, u64(0));
}

RnsPoly
RnsPoly::uninitializedLike(const RnsPoly &shape)
{
    RnsPoly r;
    r.n_ = shape.n_;
    r.domain_ = shape.domain_;
    r.mods_ = shape.mods_;
    r.tables_ = shape.tables_;
    r.data_ = ScratchArena::local().acquire(shape.numLimbs() * shape.n_);
    return r;
}

RnsPoly::RnsPoly(const RnsPoly &o) : RnsPoly(uninitializedLike(o))
{
    std::copy_n(o.data_.data(), numLimbs() * n_, data_.data());
}

RnsPoly &
RnsPoly::operator=(const RnsPoly &o)
{
    if (this != &o) {
        size_t need = o.numLimbs() * o.n_;
        if (data_.capacity() < need) {
            data_ = ScratchArena::local().acquire(need);
        }
        n_ = o.n_;
        domain_ = o.domain_;
        mods_ = o.mods_;
        tables_ = o.tables_;
        std::copy_n(o.data_.data(), need, data_.data());
    }
    return *this;
}

RnsPoly::RnsPoly(std::vector<Poly> limbs)
{
    trinity_assert(!limbs.empty(), "empty limb set");
    n_ = limbs[0].n();
    domain_ = limbs[0].domain();
    data_ = ScratchArena::local().acquire(n_ * limbs.size());
    mods_.reserve(limbs.size());
    tables_.reserve(limbs.size());
    for (size_t i = 0; i < limbs.size(); ++i) {
        trinity_assert(limbs[i].n() == n_, "limb length mismatch");
        trinity_assert(limbs[i].domain() == domain_,
                       "limbs in different domains");
        mods_.push_back(limbs[i].modulus());
        tables_.push_back(NttTableCache::get(n_, limbs[i].q()));
        std::copy(limbs[i].coeffs().begin(), limbs[i].coeffs().end(),
                  limbData(i));
    }
}

Poly
RnsPoly::limbPoly(size_t i) const
{
    return limb(i).toPoly();
}

void
RnsPoly::setLimb(size_t i, const Poly &p)
{
    limb(i) = p;
}

std::vector<u64>
RnsPoly::moduli() const
{
    std::vector<u64> m;
    m.reserve(mods_.size());
    for (const auto &mod : mods_) {
        m.push_back(mod.value());
    }
    return m;
}

void
RnsPoly::toEval()
{
    if (domain_ == Domain::Eval) {
        return;
    }
    std::vector<NttJob> jobs(numLimbs());
    for (size_t i = 0; i < jobs.size(); ++i) {
        jobs[i] = {limbData(i), tables_[i].get()};
    }
    activeBackend().nttForwardBatch(jobs.data(), jobs.size());
    domain_ = Domain::Eval;
}

void
RnsPoly::toCoeff()
{
    if (domain_ == Domain::Coeff) {
        return;
    }
    std::vector<NttJob> jobs(numLimbs());
    for (size_t i = 0; i < jobs.size(); ++i) {
        jobs[i] = {limbData(i), tables_[i].get()};
    }
    activeBackend().nttInverseBatch(jobs.data(), jobs.size());
    domain_ = Domain::Coeff;
}

void
RnsPoly::checkCompatible(const RnsPoly &o) const
{
    trinity_assert(numLimbs() == o.numLimbs(),
                   "RNS limb count mismatch (%zu vs %zu)", numLimbs(),
                   o.numLimbs());
    trinity_assert(n_ == o.n_, "RNS length mismatch");
    trinity_assert(domain_ == o.domain_, "operands in different domains");
}

void
RnsPoly::addInPlace(const RnsPoly &o)
{
    checkCompatible(o);
    std::vector<EltwiseJob> jobs(numLimbs());
    for (size_t i = 0; i < jobs.size(); ++i) {
        trinity_assert(mods_[i] == o.mods_[i], "RNS modulus mismatch");
        jobs[i] = {limbData(i), limbData(i), o.limbData(i), &mods_[i],
                   n_};
    }
    activeBackend().addBatch(jobs.data(), jobs.size());
}

void
RnsPoly::subInPlace(const RnsPoly &o)
{
    checkCompatible(o);
    std::vector<EltwiseJob> jobs(numLimbs());
    for (size_t i = 0; i < jobs.size(); ++i) {
        trinity_assert(mods_[i] == o.mods_[i], "RNS modulus mismatch");
        jobs[i] = {limbData(i), limbData(i), o.limbData(i), &mods_[i],
                   n_};
    }
    activeBackend().subBatch(jobs.data(), jobs.size());
}

void
RnsPoly::negInPlace()
{
    std::vector<EltwiseJob> jobs(numLimbs());
    for (size_t i = 0; i < jobs.size(); ++i) {
        jobs[i] = {limbData(i), limbData(i), nullptr, &mods_[i], n_};
    }
    activeBackend().negBatch(jobs.data(), jobs.size());
}

void
RnsPoly::mulPointwiseInPlace(const RnsPoly &o)
{
    setProduct(*this, o);
}

RnsPoly
RnsPoly::mulPointwise(const RnsPoly &o) const
{
    RnsPoly r = uninitializedLike(*this);
    r.setProduct(*this, o);
    return r;
}

void
RnsPoly::setProduct(const RnsPoly &a, const RnsPoly &b)
{
    a.checkCompatible(b);
    checkCompatible(a);
    trinity_assert(domain_ == Domain::Eval,
                   "pointwise multiply requires Eval domain");
    std::vector<EltwiseJob> jobs(numLimbs());
    for (size_t i = 0; i < jobs.size(); ++i) {
        trinity_assert(mods_[i] == a.mods_[i] && mods_[i] == b.mods_[i],
                       "RNS modulus mismatch");
        jobs[i] = {limbData(i), a.limbData(i), b.limbData(i), &mods_[i],
                   n_};
    }
    activeBackend().pointwiseMulBatch(jobs.data(), jobs.size());
}

void
RnsPoly::scalarMulLimbwise(const std::vector<u64> &scalars)
{
    trinity_assert(scalars.size() == numLimbs(),
                   "one scalar per limb required");
    std::vector<ScalarMulJob> jobs(numLimbs());
    for (size_t i = 0; i < jobs.size(); ++i) {
        jobs[i] = {limbData(i), limbData(i),
                   mods_[i].reduce(scalars[i]), &mods_[i], n_};
    }
    activeBackend().scalarMulBatch(jobs.data(), jobs.size());
}

RnsPoly
RnsPoly::operator+(const RnsPoly &o) const
{
    RnsPoly r = *this;
    r.addInPlace(o);
    return r;
}

RnsPoly
RnsPoly::operator-(const RnsPoly &o) const
{
    RnsPoly r = *this;
    r.subInPlace(o);
    return r;
}

void
RnsPoly::dropLastLimb()
{
    trinity_assert(!mods_.empty(), "no limb to drop");
    mods_.pop_back();
    tables_.pop_back();
}

RnsPoly
RnsPoly::prefix(size_t count) const
{
    trinity_assert(count > 0 && count <= numLimbs(),
                   "prefix limb count out of range");
    RnsPoly r;
    r.n_ = n_;
    r.domain_ = domain_;
    r.mods_.assign(mods_.begin(),
                   mods_.begin() + static_cast<ptrdiff_t>(count));
    r.tables_.assign(tables_.begin(),
                     tables_.begin() + static_cast<ptrdiff_t>(count));
    r.data_ = ScratchArena::local().acquire(count * n_);
    std::copy_n(data_.data(), count * n_, r.data_.data());
    return r;
}

RnsPoly
RnsPoly::automorphism(u64 g) const
{
    trinity_assert(domain_ == Domain::Coeff,
                   "automorphism operates in coefficient domain");
    trinity_assert(g % 2 == 1, "automorphism index must be odd");
    RnsPoly r = uninitializedLike(*this); // every slot is written
    std::vector<AutoJob> jobs(numLimbs());
    for (size_t i = 0; i < jobs.size(); ++i) {
        jobs[i] = {r.limbData(i), limbData(i), &mods_[i], n_, g};
    }
    activeBackend().automorphismBatch(jobs.data(), jobs.size());
    return r;
}

RnsPoly
RnsPoly::mulMonomial(u64 t) const
{
    trinity_assert(domain_ == Domain::Coeff,
                   "monomial multiply operates in coefficient domain");
    emitKernel(sim::KernelType::Rotate, numLimbs() * n_, n_);
    size_t two_n = 2 * n_;
    t %= two_n;
    size_t tr = t % n_;
    bool neg_first = t >= n_;
    RnsPoly r = uninitializedLike(*this); // both blocks cover [0, n)
    // X^t rotation splits into two contiguous blocks: src[0..n-tr)
    // lands at dst[tr..n) and src[n-tr..n) wraps to dst[0..tr), one
    // of the two negated (which one flips when the rotation crosses
    // X^n = -1). The sign-preserving block is a straight memcpy; the
    // negated block runs through the neg kernel so wide lanes apply.
    // No per-coefficient index arithmetic survives.
    // Both blocks run inside the run() escape hatch: the rotation is
    // priced as the one Rotate kernel emitted above (an accelerator
    // rotates and sign-flips in a single unit), so the negated block
    // calls the dispatched neg kernel directly instead of negBatch —
    // wide lanes without a second, double-counted ModAdd event.
    size_t len1 = n_ - tr; // src[0..len1) -> dst[tr..n)
    size_t len2 = tr;      // src[len1..n) -> dst[0..tr)
    const simd::KernelSet &ks =
        simd::kernelsForLevel(simd::resolveLevel());
    activeBackend().run(numLimbs(), [&](size_t j) {
        const u64 *src = limbData(j);
        u64 *dst = r.limbData(j);
        if (neg_first) {
            std::memcpy(dst, src + len1, len2 * sizeof(u64));
            ks.neg(dst + tr, src, mods_[j], len1);
        } else {
            std::memcpy(dst + tr, src, len1 * sizeof(u64));
            ks.neg(dst, src + len1, mods_[j], len2);
        }
    });
    return r;
}

RnsPoly
RnsPoly::fromSigned(const std::vector<i64> &coeffs, size_t n,
                    const std::vector<u64> &moduli)
{
    trinity_assert(coeffs.size() <= n, "coefficient vector too long");
    RnsPoly r(n, moduli);
    for (size_t j = 0; j < moduli.size(); ++j) {
        u64 *dst = r.limbData(j);
        for (size_t i = 0; i < coeffs.size(); ++i) {
            dst[i] = toResidue(coeffs[i], moduli[j]);
        }
    }
    return r;
}

RnsPoly
RnsPoly::uniform(size_t n, const std::vector<u64> &moduli, Rng &rng,
                 Domain d)
{
    // Sampling stays serial: the Rng stream must be deterministic and
    // identical across backends.
    RnsPoly r = uninitialized(n, moduli);
    for (size_t j = 0; j < moduli.size(); ++j) {
        u64 *dst = r.limbData(j);
        for (size_t i = 0; i < n; ++i) {
            dst[i] = rng.uniform(moduli[j]);
        }
    }
    r.domain_ = d;
    return r;
}

// -------------------------------------------------------- BaseConverter

BaseConverter::BaseConverter(const std::vector<u64> &from,
                             const std::vector<u64> &to)
    : from_(from), to_(to)
{
    trinity_assert(!from.empty() && !to.empty(), "empty RNS basis");
    for (u64 q : from) {
        fromMods_.emplace_back(q);
    }
    for (u64 p : to) {
        toMods_.emplace_back(p);
    }
    size_t k = from.size();
    qhatInv_.resize(k);
    qhatInvPrecon_.resize(k);
    qhatModP_.assign(k * to.size(), 0);
    for (size_t i = 0; i < k; ++i) {
        const Modulus &qi = fromMods_[i];
        // (Q/q_i) mod q_i
        u64 qhat_mod_qi = 1;
        for (size_t t = 0; t < k; ++t) {
            if (t != i) {
                qhat_mod_qi = qi.mul(qhat_mod_qi, qi.reduce(from[t]));
            }
        }
        qhatInv_[i] = qi.inv(qhat_mod_qi);
        qhatInvPrecon_[i] = qi.shoupPrecompute(qhatInv_[i]);
        for (size_t j = 0; j < to.size(); ++j) {
            const Modulus &pj = toMods_[j];
            u64 qhat_mod_pj = 1;
            for (size_t t = 0; t < k; ++t) {
                if (t != i) {
                    qhat_mod_pj =
                        pj.mul(qhat_mod_pj, pj.reduce(from[t]));
                }
            }
            qhatModP_[i * to.size() + j] = qhat_mod_pj;
        }
    }
}

BConvPlan
BaseConverter::plan() const
{
    BConvPlan p;
    p.fromMods = fromMods_.data();
    p.numFrom = fromMods_.size();
    p.toMods = toMods_.data();
    p.numTo = toMods_.size();
    p.qhatInv = qhatInv_.data();
    p.qhatInvPrecon = qhatInvPrecon_.data();
    p.qhatModP = qhatModP_.data();
    return p;
}

void
BaseConverter::convertPointers(const u64 *const *in, u64 *const *out,
                               size_t n) const
{
    activeBackend().baseConvert(plan(), in, out, n);
}

RnsPoly
BaseConverter::convert(const RnsPoly &in) const
{
    trinity_assert(in.numLimbs() == from_.size(),
                   "BConv input limb count mismatch");
    trinity_assert(in.domain() == Domain::Coeff,
                   "BConv operates in coefficient domain");
    for (size_t i = 0; i < from_.size(); ++i) {
        trinity_assert(in.modulusAt(i).value() == from_[i],
                       "BConv limb modulus");
    }
    RnsPoly r = RnsPoly::uninitialized(in.n(), to_); // BConv writes all
    std::vector<const u64 *> ins(from_.size());
    std::vector<u64 *> outs(to_.size());
    for (size_t i = 0; i < from_.size(); ++i) {
        ins[i] = in.limbData(i);
    }
    for (size_t j = 0; j < to_.size(); ++j) {
        outs[j] = r.limbData(j);
    }
    convertPointers(ins.data(), outs.data(), in.n());
    return r;
}

std::vector<Poly>
BaseConverter::convert(const std::vector<Poly> &in) const
{
    trinity_assert(in.size() == from_.size(),
                   "BConv input limb count mismatch");
    size_t n = in[0].n();
    std::vector<const u64 *> ins(in.size());
    for (size_t i = 0; i < in.size(); ++i) {
        trinity_assert(in[i].q() == from_[i], "BConv limb modulus");
        trinity_assert(in[i].domain() == Domain::Coeff,
                       "BConv operates in coefficient domain");
        ins[i] = in[i].coeffs().data();
    }
    std::vector<Poly> out;
    std::vector<u64 *> outs(to_.size());
    out.reserve(to_.size());
    for (size_t j = 0; j < to_.size(); ++j) {
        out.emplace_back(n, to_[j]);
        outs[j] = out[j].coeffs().data();
    }
    convertPointers(ins.data(), outs.data(), n);
    return out;
}

} // namespace trinity
