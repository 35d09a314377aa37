#include "pir/pir.h"

#include "backend/command_stream.h"
#include "backend/registry.h"
#include "common/env.h"
#include "common/logging.h"
#include "obs/trace.h"

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

size_t
foldChunkFromEnv()
{
    u64 v = 0;
    if (envU64("TRINITY_PIR_FOLD_CHUNK", v)) {
        if (v == 0) {
            trinity_fatal("invalid TRINITY_PIR_FOLD_CHUNK value '0': "
                          "chunks need at least one row");
        }
        return static_cast<size_t>(v);
    }
    return 16;
}

} // namespace

// -------------------------------------------------------------- PirClient

PirClient::PirClient(const PirParams &params, u64 seed)
    : params_(params),
      ctx_(std::make_shared<TfheContext>(params.tfhe, seed))
{
    params_.validate();
    sk_ = ctx_->makeGlweKey();
}

PirQueryKeys
PirClient::makeQueryKeys()
{
    PirQueryKeys keys;
    u32 m = params_.expansionLevels();
    keys.galois.reserve(m);
    for (u32 j = 0; j < m; ++j) {
        keys.galois.push_back(makeGaloisKey(
            *ctx_, sk_, expansionGaloisElement(params_.tfhe.bigN, j)));
    }
    const Modulus &mod = ctx_->modulus();
    size_t n = params_.tfhe.bigN;
    keys.conv.reserve(params_.tfhe.k);
    for (size_t j = 0; j < params_.tfhe.k; ++j) {
        Poly neg_sj(n, params_.tfhe.q);
        for (size_t i = 0; i < n; ++i) {
            neg_sj[i] =
                mod.neg(toResidue(sk_.s[j][i], params_.tfhe.q));
        }
        GgswCiphertext z = ctx_->ggswEncryptPoly(neg_sj, sk_);
        ctx_->ggswToEval(z);
        keys.conv.push_back(std::move(z));
    }
    return keys;
}

PirQuery
PirClient::makeQuery(size_t index)
{
    trinity_assert(index < params_.records(),
                   "query index %zu out of range (records=%zu)", index,
                   params_.records());
    const Modulus &mod = ctx_->modulus();
    size_t row = index % params_.dim1;
    size_t col = index / params_.dim1;
    u32 m = params_.expansionLevels();
    // Expansion multiplies every slot by 2^m; the inverse (q prime)
    // pre-compensates so the expanded entries carry exact messages.
    u64 inv2m = mod.inv(mod.reduce(1ULL << m));
    Poly f(params_.tfhe.bigN, params_.tfhe.q);
    f[row] = mod.mul(inv2m, params_.delta());
    for (u32 t = 0; t < params_.gswDims; ++t) {
        if (((col >> t) & 1) == 0) {
            continue;
        }
        for (u32 l = 0; l < params_.tfhe.lb; ++l) {
            f[params_.dim1 + t * params_.tfhe.lb + l] =
                mod.mul(inv2m, ctx_->gadget(l));
        }
    }
    PirQuery q;
    q.ct = ctx_->glweEncrypt(f, sk_);
    return q;
}

std::vector<u64>
PirClient::decode(const PirResponse &resp) const
{
    size_t n = params_.tfhe.bigN;
    size_t k = params_.tfhe.k;
    trinity_assert(resp.logQs == params_.logQs &&
                       resp.comps.size() == k + 1,
                   "response shape mismatch");
    u64 qs_mask = (resp.logQs == 64) ? ~0ULL
                                     : (1ULL << resp.logQs) - 1;
    // phase = b' - sum_j a'_j * s_j in R_{2^logQs} (negacyclic
    // convolution against the binary key; u64 wraparound is exact mod
    // a power of two, so only the final mask is needed).
    std::vector<u64> phase = resp.comps[k];
    for (size_t j = 0; j < k; ++j) {
        const std::vector<u64> &aj = resp.comps[j];
        for (size_t v = 0; v < n; ++v) {
            if (sk_.s[j][v] == 0) {
                continue;
            }
            for (size_t u = 0; u < n; ++u) {
                size_t x = u + v;
                if (x < n) {
                    phase[x] -= aj[u];
                } else {
                    phase[x - n] += aj[u];
                }
            }
        }
    }
    u64 p = 1ULL << params_.logP;
    u64 half_qs = 1ULL << (resp.logQs - 1);
    std::vector<u64> out(n);
    for (size_t i = 0; i < n; ++i) {
        u64 ph = phase[i] & qs_mask;
        // m = round(ph * p / qs) mod p
        out[i] = ((ph * p + half_qs) >> resp.logQs) & (p - 1);
    }
    return out;
}

// -------------------------------------------------------------- PirEngine

PirEngine::PirEngine(std::shared_ptr<TfheContext> ctx,
                     const PirParams &params)
    : ctx_(std::move(ctx)), params_(params),
      foldChunk_(foldChunkFromEnv())
{
    params_.validate();
    trinity_assert(ctx_->params().q == params_.tfhe.q &&
                       ctx_->params().bigN == params_.tfhe.bigN &&
                       ctx_->params().lb == params_.tfhe.lb &&
                       ctx_->params().lk == params_.tfhe.lk,
                   "engine context/parameter mismatch");
}

std::vector<GlweCiphertext>
PirEngine::expand(const PirQueryKeys &keys, const PirQuery &query) const
{
    return expandQuery(*ctx_, keys.galois, query.ct,
                       params_.expansionLevels());
}

GgswCiphertext
PirEngine::queryGsw(const PirQueryKeys &keys,
                    const std::vector<GlweCiphertext> &expanded,
                    u32 t) const
{
    const TfheParams &p = params_.tfhe;
    trinity_assert(keys.conv.size() == p.k,
                   "conversion keys missing (%zu of %zu)",
                   keys.conv.size(), p.k);
    GgswCiphertext gsw;
    gsw.rows.resize(p.extRows());
    for (u32 l = 0; l < p.lb; ++l) {
        const GlweCiphertext &cl =
            expanded[params_.dim1 + size_t(t) * p.lb + l];
        // Body row (k, l): the expanded slot already encrypts
        // bit * g_l. Mask rows (j, l) need bit * g_l * (-s_j) — one
        // external product against the conversion key GGSW(-s_j).
        for (size_t j = 0; j < p.k; ++j) {
            gsw.rows[j * p.lb + l] =
                ctx_->externalProduct(keys.conv[j], cl);
        }
        gsw.rows[p.k * p.lb + l] = cl;
    }
    ctx_->ggswToEval(gsw);
    return gsw;
}

std::vector<GlweCiphertext>
PirEngine::fold(const ResidentPirDb &db,
                const std::vector<GlweCiphertext> &expanded) const
{
    const TfheParams &p = params_.tfhe;
    const Modulus &mod = ctx_->modulus();
    size_t n = p.bigN;
    size_t comps = p.k + 1;
    u32 lb = p.lb;
    size_t dim1 = params_.dim1;
    size_t cols = params_.columns();
    trinity_assert(db.polys.size() == params_.records() * lb &&
                       db.lb == lb,
                   "resident database shape mismatch");
    trinity_assert(expanded.size() >= dim1,
                   "fold needs %zu selection entries, got %zu", dim1,
                   expanded.size());
    size_t chunk = foldChunk_ < dim1 ? foldChunk_ : dim1;
    size_t num_chunks = (dim1 + chunk - 1) / chunk;
    obs::TraceSpan span("pirFold", "pir", "fold", "rows", dim1);

    // Stream-owned-by-caller scratch: everything recorded below must
    // stay alive (and not reallocate) until wait().
    auto stream = activeBackend().newStream();
    size_t rows = comps * lb; // digit limbs per selection entry
    std::vector<Poly> dig;
    dig.reserve(dim1 * rows);
    for (size_t i = 0; i < dim1 * rows; ++i) {
        dig.emplace_back(n, p.q);
    }
    std::vector<GlweCiphertext> accs(cols);
    for (size_t c = 0; c < cols; ++c) {
        accs[c] = ctx_->glweTrivial(Poly(n, p.q));
        for (size_t j = 0; j < comps; ++j) {
            glweComp(accs[c], j).setDomain(Domain::Eval);
        }
    }
    std::vector<Poly> partial;
    if (num_chunks > 1) {
        partial.reserve(num_chunks * cols * comps);
        for (size_t i = 0; i < num_chunks * cols * comps; ++i) {
            partial.emplace_back(n, p.q);
        }
    }

    // (1) Per selection entry: gadget decomposition, then the forward
    // NTTs of its digit limbs — an independent two-command chain per
    // row, so chunk MACs start as soon as *their* rows are ready.
    const simd::KernelSet *ks = &activeBackend().kernels();
    std::vector<Job> row_ready(dim1);
    for (size_t r = 0; r < dim1; ++r) {
        const GlweCiphertext *sel = &expanded[r];
        Job dec = stream->task(
            comps,
            [this, ks, sel, r, &dig, n, lb, rows](size_t c) {
                const Poly &src = glweComp(*sel, c);
                trinity_assert(src.domain() == Domain::Coeff,
                               "fold input must be in coefficient "
                               "domain");
                u64 *dst[16]; // lb <= 16 via extRows() <= 16
                for (u32 l = 0; l < lb; ++l) {
                    dst[l] = dig[r * rows + c * lb + l].coeffs().data();
                }
                ks->rotateDecompose(dst, src.coeffs().data(), 0,
                                    ctx_->extGadget(), ctx_->modulus(), n);
            },
            {},
            {{sim::KernelType::Decomp, comps * n, n,
              16 * comps * n}});
        std::vector<NttJob> fwd;
        fwd.reserve(rows);
        for (size_t t = 0; t < rows; ++t) {
            Poly &poly = dig[r * rows + t];
            poly.setDomain(Domain::Eval);
            fwd.push_back({poly.coeffs().data(), &poly.nttTable()});
        }
        row_ready[r] = stream->nttForward(std::move(fwd), {dec});
    }

    // (2) Per chunk of first-dimension rows: one MAC command covering
    // every (column, component) output, accumulating digit limbs
    // against the gadget-scaled database rows with lazy u128
    // reduction (chunk * lb terms of < 2^64 each — far below the 128-
    // bit capacity). Writes per-chunk partials when there are several
    // chunks, the accumulators directly when there is one.
    std::vector<Job> macs;
    macs.reserve(num_chunks);
    for (size_t ch = 0; ch < num_chunks; ++ch) {
        size_t r0 = ch * chunk;
        size_t r1 = r0 + chunk < dim1 ? r0 + chunk : dim1;
        std::vector<Job> deps(row_ready.begin() + r0,
                              row_ready.begin() + r1);
        Poly *out_base = num_chunks > 1
                             ? partial.data() + ch * cols * comps
                             : nullptr;
        Job mac = stream->task(
            cols * comps,
            [this, &db, &dig, &accs, &mod, out_base, r0, r1, comps,
             lb, n, rows, dim1](size_t idx) {
                size_t c = idx / comps;
                size_t j = idx % comps;
                Poly &dst = out_base != nullptr
                                ? out_base[idx]
                                : glweComp(accs[c], j);
                u64 *out = dst.coeffs().data();
                for (size_t r = r0; r < r1; ++r) {
                    bool first = (r == r0);
                    for (u32 l = 0; l < lb; ++l) {
                        const u64 *d =
                            dig[r * rows + j * lb + l].coeffs().data();
                        const u64 *rec =
                            db.poly(c * dim1 + r, l).coeffs().data();
                        if (first && l == 0) {
                            for (size_t i = 0; i < n; ++i) {
                                out[i] = mod.mul(d[i], rec[i]);
                            }
                        } else {
                            for (size_t i = 0; i < n; ++i) {
                                out[i] =
                                    mod.mulAdd(d[i], rec[i], out[i]);
                            }
                        }
                    }
                }
            },
            std::move(deps),
            {{sim::KernelType::Ip,
              static_cast<u64>(cols) * comps * (r1 - r0) * lb * n, n,
              16 * static_cast<u64>(cols) * comps * (r1 - r0) * lb *
                  n}});
        macs.push_back(mac);
    }

    // (3) Chunk reduction (only when chunked), then the inverse NTTs
    // of every accumulator component, one wide command.
    Job ready;
    if (num_chunks > 1) {
        ready = stream->task(
            cols * comps,
            [&accs, &partial, &mod, num_chunks, cols, comps,
             n](size_t idx) {
                size_t c = idx / comps;
                size_t j = idx % comps;
                u64 *out = glweComp(accs[c], j).coeffs().data();
                for (size_t i = 0; i < n; ++i) {
                    u64 s = partial[idx][i];
                    for (size_t ch = 1; ch < num_chunks; ++ch) {
                        s = mod.add(
                            s, partial[ch * cols * comps + idx][i]);
                    }
                    out[i] = s;
                }
            },
            macs,
            {{sim::KernelType::ModAdd,
              static_cast<u64>(cols) * comps * num_chunks * n, n,
              16 * static_cast<u64>(cols) * comps * num_chunks * n}});
    }
    std::vector<NttJob> inv;
    inv.reserve(cols * comps);
    for (size_t c = 0; c < cols; ++c) {
        for (size_t j = 0; j < comps; ++j) {
            Poly &poly = glweComp(accs[c], j);
            inv.push_back({poly.coeffs().data(), &poly.nttTable()});
            poly.setDomain(Domain::Coeff);
        }
    }
    stream->nttInverse(std::move(inv),
                       num_chunks > 1 ? std::vector<Job>{ready} : macs);
    stream->submit();
    stream->wait();
    return accs;
}

PirResponse
PirEngine::modSwitch(const GlweCiphertext &ct) const
{
    const TfheParams &p = params_.tfhe;
    size_t n = p.bigN;
    size_t comps = p.k + 1;
    u64 qs = 1ULL << params_.logQs;
    PirResponse resp;
    resp.logQs = params_.logQs;
    resp.comps.resize(comps);
    emitKernel(sim::KernelType::ModSwitch, comps * n, n);
    for (size_t j = 0; j < comps; ++j) {
        const Poly &src = glweComp(ct, j);
        trinity_assert(src.domain() == Domain::Coeff,
                       "modSwitch needs coefficient domain");
        resp.comps[j].resize(n);
        for (size_t i = 0; i < n; ++i) {
            // round(x * qs / q), wrapped into [0, qs)
            u64 v = static_cast<u64>(
                (u128(src[i]) * qs + p.q / 2) / p.q);
            resp.comps[j][i] = v & (qs - 1);
        }
    }
    return resp;
}

PirResponse
PirEngine::answer(const ResidentPirDb &db, const PirQueryKeys &keys,
                  const PirQuery &query) const
{
    obs::TraceSpan span("pirAnswer", "pir", "answer", "records",
                        params_.records());
    std::vector<GlweCiphertext> expanded = expand(keys, query);
    std::vector<GgswCiphertext> gsw;
    gsw.reserve(params_.gswDims);
    for (u32 t = 0; t < params_.gswDims; ++t) {
        gsw.push_back(queryGsw(keys, expanded, t));
    }
    std::vector<GlweCiphertext> accs = fold(db, expanded);
    // CMux tree: level t keys on bit t of the column index, so pair
    // (2i, 2i+1) collapses to 2i+bit — after gswDims levels accs[0]
    // holds the selected column's fold output.
    for (u32 t = 0; t < params_.gswDims; ++t) {
        size_t half = accs.size() / 2;
        std::vector<GlweCiphertext> next(half);
        for (size_t i = 0; i < half; ++i) {
            next[i] = ctx_->cmux(gsw[t], accs[2 * i], accs[2 * i + 1]);
        }
        accs = std::move(next);
    }
    return modSwitch(accs[0]);
}

} // namespace pir
} // namespace trinity
