#include "tfhe/core.h"

#include "backend/observer.h"
#include "backend/registry.h"
#include "common/logging.h"

namespace trinity {

LweSecretKey
GlweSecretKey::extractLweKey() const
{
    LweSecretKey out;
    for (const auto &poly : s) {
        out.s.insert(out.s.end(), poly.begin(), poly.end());
    }
    return out;
}

// g_l = round(q / Bg^(l+1)); q is prime so these are approximate
// gadget elements — the rounding is absorbed as decomposition noise
// (Joye-Walter "Liberating TFHE").
TfheContext::TfheContext(const TfheParams &params, u64 seed)
    : params_(params), mod_(params.q), rng_(seed),
      gadget_(params.q, params.logBg, params.lb)
{
    trinity_assert(params.q != 0, "TfheParams.q not initialized");
    table_ = NttTableCache::get(params.bigN, params.q);
}

LweSecretKey
TfheContext::makeLweKey()
{
    LweSecretKey k;
    k.s.resize(params_.nLwe);
    for (auto &b : k.s) {
        b = static_cast<i64>(rng_.next() & 1);
    }
    return k;
}

GlweSecretKey
TfheContext::makeGlweKey()
{
    GlweSecretKey k;
    k.s.resize(params_.k);
    for (auto &poly : k.s) {
        poly.resize(params_.bigN);
        for (auto &b : poly) {
            b = static_cast<i64>(rng_.next() & 1);
        }
    }
    return k;
}

LweCiphertext
TfheContext::lweEncrypt(u64 m, const LweSecretKey &sk, double sigma)
{
    if (sigma < 0) {
        sigma = params_.sigmaLwe;
    }
    size_t n = sk.s.size();
    LweCiphertext ct;
    ct.a.resize(n);
    u64 acc = 0;
    for (size_t i = 0; i < n; ++i) {
        ct.a[i] = rng_.uniform(params_.q);
        if (sk.s[i]) {
            acc = mod_.add(acc, ct.a[i]);
        }
    }
    u64 e = toResidue(rng_.gaussian(sigma), params_.q);
    ct.b = mod_.add(mod_.add(acc, mod_.reduce(m)), e);
    return ct;
}

u64
TfheContext::lwePhase(const LweCiphertext &ct, const LweSecretKey &sk) const
{
    trinity_assert(ct.a.size() == sk.s.size(),
                   "LWE dimension mismatch (%zu vs %zu)", ct.a.size(),
                   sk.s.size());
    u64 acc = 0;
    for (size_t i = 0; i < ct.a.size(); ++i) {
        if (sk.s[i]) {
            acc = mod_.add(acc, ct.a[i]);
        }
    }
    return mod_.sub(ct.b, acc);
}

Poly
TfheContext::noisePoly(double sigma)
{
    Poly e(params_.bigN, params_.q);
    for (size_t i = 0; i < params_.bigN; ++i) {
        e[i] = toResidue(rng_.gaussian(sigma), params_.q);
    }
    return e;
}

GlweCiphertext
TfheContext::glweEncrypt(const Poly &m, const GlweSecretKey &sk,
                         double sigma)
{
    if (sigma < 0) {
        sigma = params_.sigmaGlwe;
    }
    trinity_assert(m.n() == params_.bigN && m.q() == params_.q,
                   "plaintext ring mismatch");
    GlweCiphertext ct;
    ct.a.reserve(params_.k);
    Poly body = noisePoly(sigma);
    body.addInPlace(m);
    for (size_t j = 0; j < params_.k; ++j) {
        Poly aj = Poly::uniform(params_.bigN, params_.q, rng_);
        // body += a_j * s_j
        Poly sj(params_.bigN, params_.q);
        for (size_t i = 0; i < params_.bigN; ++i) {
            sj[i] = toResidue(sk.s[j][i], params_.q);
        }
        Poly prod = aj * sj;
        body.addInPlace(prod);
        ct.a.push_back(std::move(aj));
    }
    ct.b = std::move(body);
    return ct;
}

GlweCiphertext
TfheContext::glweTrivial(const Poly &m) const
{
    GlweCiphertext ct;
    for (size_t j = 0; j < params_.k; ++j) {
        ct.a.emplace_back(params_.bigN, params_.q);
    }
    ct.b = m;
    return ct;
}

Poly
TfheContext::glwePhase(const GlweCiphertext &ct,
                       const GlweSecretKey &sk) const
{
    Poly phase = ct.b;
    phase.toCoeff();
    for (size_t j = 0; j < params_.k; ++j) {
        Poly sj(params_.bigN, params_.q);
        for (size_t i = 0; i < params_.bigN; ++i) {
            sj[i] = toResidue(sk.s[j][i], params_.q);
        }
        Poly aj = ct.a[j];
        aj.toCoeff();
        Poly prod = aj * sj;
        phase.subInPlace(prod);
    }
    return phase;
}

GgswCiphertext
TfheContext::ggswEncrypt(i64 mu, const GlweSecretKey &sk, double sigma)
{
    GgswCiphertext out;
    size_t rows = params_.extRows();
    out.rows.reserve(rows);
    Poly zero(params_.bigN, params_.q);
    for (size_t j = 0; j <= params_.k; ++j) {
        for (u32 l = 0; l < params_.lb; ++l) {
            GlweCiphertext row = glweEncrypt(zero, sk, sigma);
            u64 term = mod_.mul(toResidue(mu, params_.q), gadget_.element(l));
            if (j < params_.k) {
                row.a[j][0] = mod_.add(row.a[j][0], term);
            } else {
                row.b[0] = mod_.add(row.b[0], term);
            }
            out.rows.push_back(std::move(row));
        }
    }
    return out;
}

GgswCiphertext
TfheContext::ggswEncryptPoly(const Poly &mu, const GlweSecretKey &sk,
                             double sigma)
{
    trinity_assert(mu.n() == params_.bigN && mu.q() == params_.q &&
                       mu.domain() == Domain::Coeff,
                   "ggswEncryptPoly: message ring mismatch");
    GgswCiphertext out;
    out.rows.reserve(params_.extRows());
    Poly zero(params_.bigN, params_.q);
    for (size_t j = 0; j <= params_.k; ++j) {
        for (u32 l = 0; l < params_.lb; ++l) {
            GlweCiphertext row = glweEncrypt(zero, sk, sigma);
            Poly term = mu;
            term.scalarMulInPlace(gadget_.element(l));
            if (j < params_.k) {
                row.a[j].addInPlace(term);
            } else {
                row.b.addInPlace(term);
            }
            out.rows.push_back(std::move(row));
        }
    }
    return out;
}

GlweCiphertext
TfheContext::glweAutomorphism(const GlweCiphertext &ct, u64 g) const
{
    GlweCiphertext out;
    out.a.reserve(params_.k);
    for (size_t j = 0; j < params_.k; ++j) {
        out.a.emplace_back(params_.bigN, params_.q);
    }
    out.b = Poly(params_.bigN, params_.q);
    std::vector<AutoJob> jobs;
    jobs.reserve(params_.k + 1);
    for (size_t j = 0; j <= params_.k; ++j) {
        const Poly &src = j < params_.k ? ct.a[j] : ct.b;
        Poly &dst = j < params_.k ? out.a[j] : out.b;
        trinity_assert(src.domain() == Domain::Coeff,
                       "glweAutomorphism needs coefficient domain");
        jobs.push_back({dst.coeffs().data(), src.coeffs().data(),
                        &mod_, params_.bigN, g});
    }
    activeBackend().automorphismBatch(jobs.data(), jobs.size());
    return out;
}

void
TfheContext::ggswToEval(GgswCiphertext &ggsw) const
{
    if (ggsw.inEval) {
        return;
    }
    // One NTT batch over every polynomial of every row.
    std::vector<NttJob> jobs;
    jobs.reserve(ggsw.rows.size() * (params_.k + 1));
    for (auto &row : ggsw.rows) {
        for (auto &aj : row.a) {
            if (aj.domain() == Domain::Coeff) {
                jobs.push_back({aj.coeffs().data(), &aj.nttTable()});
                aj.setDomain(Domain::Eval);
            }
        }
        if (row.b.domain() == Domain::Coeff) {
            jobs.push_back({row.b.coeffs().data(), &row.b.nttTable()});
            row.b.setDomain(Domain::Eval);
        }
    }
    activeBackend().nttForwardBatch(jobs.data(), jobs.size());
    ggsw.inEval = true;
}

std::vector<Poly>
TfheContext::decompose(const GlweCiphertext &ct) const
{
    size_t n = params_.bigN;
    u32 lb = params_.lb;
    std::vector<Poly> out;
    out.reserve(params_.extRows());
    for (size_t j = 0; j <= params_.k; ++j) {
        for (u32 l = 0; l < lb; ++l) {
            out.emplace_back(n, params_.q);
        }
    }
    emitKernel(sim::KernelType::Decomp, (params_.k + 1) * n, n);
    PolyBackend &backend = activeBackend();
    const simd::KernelSet &ks = backend.kernels();
    backend.run(params_.k + 1, [&](size_t j) {
        const Poly &src = j < params_.k ? ct.a[j] : ct.b;
        trinity_assert(src.domain() == Domain::Coeff,
                       "decompose needs coefficient domain");
        std::vector<u64 *> dst(lb);
        for (u32 l = 0; l < lb; ++l) {
            dst[l] = out[j * lb + l].coeffs().data();
        }
        ks.rotateDecompose(dst.data(), src.coeffs().data(), 0, gadget_,
                           mod_, n);
    });
    return out;
}

GlweCiphertext
TfheContext::externalProduct(const GgswCiphertext &ggsw,
                             const GlweCiphertext &ct) const
{
    trinity_assert(ggsw.inEval,
                   "GGSW must be in the NTT domain (call ggswToEval)");
    auto dec = decompose(ct);
    // Forward NTT of every decomposed polynomial as one batch (the
    // NTT kernels of Algorithm 2 line 9).
    Poly::batchToEval(dec);
    // MAC accumulation against the transform-domain rows; each output
    // polynomial accumulates independently, so fan out across them.
    GlweCiphertext acc;
    for (size_t j = 0; j < params_.k; ++j) {
        acc.a.emplace_back(params_.bigN, params_.q);
        acc.a[j].setDomain(Domain::Eval);
    }
    acc.b = Poly(params_.bigN, params_.q);
    acc.b.setDomain(Domain::Eval);
    size_t n = params_.bigN;
    emitKernel(sim::KernelType::Ip,
               static_cast<u64>(dec.size()) * (params_.k + 1) * n, n);
    PolyBackend &backend = activeBackend();
    const simd::KernelSet &ks = backend.kernels();
    backend.run(params_.k + 1, [&](size_t j) {
        Poly &dst = j < params_.k ? acc.a[j] : acc.b;
        std::vector<const u64 *> lhs(dec.size());
        std::vector<const u64 *> rhs(dec.size());
        for (size_t t = 0; t < dec.size(); ++t) {
            const GlweCiphertext &row = ggsw.rows[t];
            lhs[t] = dec[t].coeffs().data();
            rhs[t] = (j < params_.k ? row.a[j] : row.b).coeffs().data();
        }
        ks.extProdMac(dst.coeffs().data(), lhs.data(), rhs.data(),
                      dec.size(), mod_, n);
    });
    // Inverse NTTs (Algorithm 2 line 11).
    std::vector<NttJob> jobs;
    jobs.reserve(params_.k + 1);
    for (auto &aj : acc.a) {
        jobs.push_back({aj.coeffs().data(), &aj.nttTable()});
        aj.setDomain(Domain::Coeff);
    }
    jobs.push_back({acc.b.coeffs().data(), &acc.b.nttTable()});
    acc.b.setDomain(Domain::Coeff);
    activeBackend().nttInverseBatch(jobs.data(), jobs.size());
    return acc;
}

GlweCiphertext
TfheContext::cmux(const GgswCiphertext &c, const GlweCiphertext &ct0,
                  const GlweCiphertext &ct1) const
{
    GlweCiphertext diff = glweSub(ct1, ct0);
    GlweCiphertext prod = externalProduct(c, diff);
    return glweAdd(ct0, prod);
}

GlweCiphertext
TfheContext::glweMulMonomial(const GlweCiphertext &ct, u64 t) const
{
    GlweCiphertext out;
    for (const auto &aj : ct.a) {
        out.a.push_back(aj.mulMonomial(t));
    }
    out.b = ct.b.mulMonomial(t);
    return out;
}

GlweCiphertext
TfheContext::glweAdd(const GlweCiphertext &x,
                     const GlweCiphertext &y) const
{
    GlweCiphertext out = x;
    for (size_t j = 0; j < params_.k; ++j) {
        out.a[j].addInPlace(y.a[j]);
    }
    out.b.addInPlace(y.b);
    return out;
}

GlweCiphertext
TfheContext::glweSub(const GlweCiphertext &x,
                     const GlweCiphertext &y) const
{
    GlweCiphertext out = x;
    for (size_t j = 0; j < params_.k; ++j) {
        out.a[j].subInPlace(y.a[j]);
    }
    out.b.subInPlace(y.b);
    return out;
}

} // namespace trinity
