#include "pir/galois.h"

#include "backend/observer.h"
#include "backend/registry.h"
#include "common/logging.h"

namespace trinity {
namespace pir {

namespace {

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

} // namespace

GaloisKey
makeGaloisKey(TfheContext &ctx, const GlweSecretKey &sk, u64 g)
{
    const TfheParams &p = ctx.params();
    trinity_assert(g % 2 == 1 && g < 2 * p.bigN,
                   "automorphism element must be odd and < 2N");
    GaloisKey key;
    key.g = g;
    key.logB = p.logBks;
    key.levels = p.lk;
    Gadget gadget(p.q, p.logBks, p.lk);
    key.rows.reserve(p.k * p.lk);
    for (size_t j = 0; j < p.k; ++j) {
        Poly sj(p.bigN, p.q);
        for (size_t i = 0; i < p.bigN; ++i) {
            sj[i] = toResidue(sk.s[j][i], p.q);
        }
        Poly sigma_sj = sj.automorphism(g);
        for (u32 l = 0; l < p.lk; ++l) {
            Poly msg = sigma_sj;
            msg.scalarMulInPlace(gadget.element(l));
            key.rows.push_back(ctx.glweEncrypt(msg, sk));
        }
    }
    // Keyswitch rows are MAC operands — hold them in the NTT domain.
    std::vector<NttJob> jobs;
    jobs.reserve(key.rows.size() * (p.k + 1));
    for (auto &row : key.rows) {
        for (size_t c = 0; c <= p.k; ++c) {
            Poly &poly = glweComp(row, c);
            jobs.push_back({poly.coeffs().data(), &poly.nttTable()});
            poly.setDomain(Domain::Eval);
        }
    }
    activeBackend().nttForwardBatch(jobs.data(), jobs.size());
    return key;
}

void
applyGaloisBatch(const TfheContext &ctx, const GaloisKey &key,
                 const GlweCiphertext *in, GlweCiphertext *out,
                 size_t count)
{
    if (count == 0) {
        return;
    }
    const TfheParams &p = ctx.params();
    const Modulus &mod = ctx.modulus();
    size_t n = p.bigN;
    size_t k = p.k;
    size_t comps = k + 1;
    u32 levels = key.levels;
    size_t rows = k * levels;
    trinity_assert(rows <= 16,
                   "applyGaloisBatch: unsupported keyswitch shape");
    trinity_assert(key.rows.size() == rows, "GaloisKey shape mismatch");
    PolyBackend &backend = activeBackend();
    const simd::KernelSet &ks = backend.kernels();
    Gadget gadget(p.q, key.logB, levels);

    // (1) sigma_g of every component of every ciphertext, one batch.
    std::vector<GlweCiphertext> sigma(count);
    std::vector<AutoJob> autos;
    autos.reserve(count * comps);
    for (size_t c = 0; c < count; ++c) {
        sigma[c] = ctx.glweTrivial(Poly(n, p.q));
        for (size_t j = 0; j < comps; ++j) {
            const Poly &src = glweComp(in[c], j);
            trinity_assert(src.domain() == Domain::Coeff,
                           "applyGaloisBatch needs coefficient domain");
            autos.push_back({glweComp(sigma[c], j).coeffs().data(),
                             src.coeffs().data(), &mod, n, key.g});
        }
    }
    backend.automorphismBatch(autos.data(), autos.size());

    // (2) Gadget-decompose every sigma(a_j) with the expansion base.
    std::vector<Poly> dig;
    dig.reserve(count * rows);
    for (size_t i = 0; i < count * rows; ++i) {
        dig.emplace_back(n, p.q);
    }
    emitKernel(sim::KernelType::Decomp, count * k * n, n);
    backend.run(count * k, [&](size_t idx) {
        size_t c = idx / k;
        size_t j = idx % k;
        u64 *dst[16]; // levels <= rows <= 16, asserted above
        for (u32 l = 0; l < levels; ++l) {
            dst[l] = dig[c * rows + j * levels + l].coeffs().data();
        }
        ks.rotateDecompose(dst, sigma[c].a[j].coeffs().data(), 0, gadget,
                           mod, n);
    });

    // (3) Forward NTT of every digit limb, one batch.
    std::vector<NttJob> fwd;
    fwd.reserve(count * rows);
    for (auto &poly : dig) {
        fwd.push_back({poly.coeffs().data(), &poly.nttTable()});
        poly.setDomain(Domain::Eval);
    }
    backend.nttForwardBatch(fwd.data(), fwd.size());

    // (4) Keyswitch MACs with lazy u128 accumulation
    // (KernelSet::extProdMac): T_c = sum_{j,l} dec_{j,l} (*)
    // ksk_{j,l}.comp_c, written into out's components.
    for (size_t c = 0; c < count; ++c) {
        out[c] = ctx.glweTrivial(Poly(n, p.q));
        for (size_t j = 0; j < comps; ++j) {
            glweComp(out[c], j).setDomain(Domain::Eval);
        }
    }
    emitKernel(sim::KernelType::Ip, count * comps * rows * n, n);
    backend.run(count * comps, [&](size_t idx) {
        size_t c = idx / comps;
        size_t j = idx % comps;
        const u64 *dec_ptr[16];
        const u64 *key_ptr[16];
        for (size_t r = 0; r < rows; ++r) {
            dec_ptr[r] = dig[c * rows + r].coeffs().data();
            key_ptr[r] = glweComp(key.rows[r], j).coeffs().data();
        }
        ks.extProdMac(glweComp(out[c], j).coeffs().data(), dec_ptr,
                      key_ptr, rows, mod, n);
    });

    // (5) Inverse NTT of the accumulated T components, one batch.
    std::vector<NttJob> inv;
    inv.reserve(count * comps);
    for (size_t c = 0; c < count; ++c) {
        for (size_t j = 0; j < comps; ++j) {
            Poly &poly = glweComp(out[c], j);
            inv.push_back({poly.coeffs().data(), &poly.nttTable()});
            poly.setDomain(Domain::Coeff);
        }
    }
    backend.nttInverseBatch(inv.data(), inv.size());

    // (6) Combine: out.a_j = -T_a_j; out.b = sigma(b) - T_b.
    std::vector<EltwiseJob> negs;
    negs.reserve(count * comps);
    for (size_t c = 0; c < count; ++c) {
        for (size_t j = 0; j < comps; ++j) {
            u64 *dst = glweComp(out[c], j).coeffs().data();
            negs.push_back({dst, dst, nullptr, &mod, n});
        }
    }
    backend.negBatch(negs.data(), negs.size());
    std::vector<EltwiseJob> adds;
    adds.reserve(count);
    for (size_t c = 0; c < count; ++c) {
        u64 *dst = out[c].b.coeffs().data();
        adds.push_back(
            {dst, dst, sigma[c].b.coeffs().data(), &mod, n});
    }
    backend.addBatch(adds.data(), adds.size());
}

GlweCiphertext
applyGalois(const TfheContext &ctx, const GaloisKey &key,
            const GlweCiphertext &ct)
{
    GlweCiphertext out;
    applyGaloisBatch(ctx, key, &ct, &out, 1);
    return out;
}

} // namespace pir
} // namespace trinity
