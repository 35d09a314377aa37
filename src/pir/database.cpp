#include "pir/database.h"

#include "backend/registry.h"
#include "common/env.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace trinity {
namespace pir {

// ------------------------------------------------------------ PirDatabase

PirDatabase::PirDatabase(const PirParams &params) : params_(params)
{
    params_.validate();
    store_.assign(params_.records() * params_.tfhe.bigN, 0);
}

PirDatabase
PirDatabase::random(const PirParams &params, u64 seed)
{
    PirDatabase db(params);
    Rng rng(seed);
    u64 p = 1ULL << params.logP;
    for (auto &c : db.store_) {
        c = static_cast<u8>(rng.uniform(p));
    }
    return db;
}

void
PirDatabase::setCoeff(size_t rec, size_t i, u64 v)
{
    trinity_assert(v < (1ULL << params_.logP),
                   "record coefficient out of range");
    store_[rec * params_.tfhe.bigN + i] = static_cast<u8>(v);
}

std::vector<u64>
PirDatabase::record(size_t rec) const
{
    size_t n = params_.tfhe.bigN;
    std::vector<u64> out(n);
    for (size_t i = 0; i < n; ++i) {
        out[i] = store_[rec * n + i];
    }
    return out;
}

// --------------------------------------------------------- materialization

ResidentPirDb
materializePirDb(const TfheContext &ctx, const PirDatabase &db)
{
    const PirParams &pp = db.params();
    const TfheParams &p = ctx.params();
    trinity_assert(p.q == pp.tfhe.q && p.bigN == pp.tfhe.bigN &&
                       p.lb == pp.tfhe.lb,
                   "context/database parameter mismatch");
    size_t n = p.bigN;
    size_t records = db.records();
    u32 lb = p.lb;
    obs::TraceSpan span("pirMaterialize", "pir", "materializePirDb",
                        "records", records);

    ResidentPirDb out;
    out.lb = lb;
    out.polys.reserve(records * lb);
    for (size_t rec = 0; rec < records; ++rec) {
        for (u32 l = 0; l < lb; ++l) {
            if (l == 0) {
                Poly pt(n, p.q);
                for (size_t i = 0; i < n; ++i) {
                    pt[i] = db.coeff(rec, i);
                }
                out.polys.push_back(std::move(pt));
            } else {
                out.polys.emplace_back(n, p.q);
            }
        }
    }
    // One forward NTT per record (slot l=0 holds the plaintext) ...
    std::vector<NttJob> ntts;
    ntts.reserve(records);
    for (size_t rec = 0; rec < records; ++rec) {
        Poly &base = out.polys[rec * lb];
        ntts.push_back({base.coeffs().data(), &base.nttTable()});
    }
    activeBackend().nttForwardBatch(ntts.data(), ntts.size());
    // ... then the gadget scaling in the transform domain: slots
    // 1..lb-1 read slot 0, which is rescaled in place last.
    const Modulus &mod = ctx.modulus();
    std::vector<ScalarMulJob> scale;
    scale.reserve(records * (lb - 1));
    for (size_t rec = 0; rec < records; ++rec) {
        const u64 *base = out.polys[rec * lb].coeffs().data();
        for (u32 l = 1; l < lb; ++l) {
            scale.push_back({out.polys[rec * lb + l].coeffs().data(),
                             base, ctx.gadget(l), &mod, n});
        }
    }
    activeBackend().scalarMulBatch(scale.data(), scale.size());
    std::vector<ScalarMulJob> scale0;
    scale0.reserve(records);
    for (size_t rec = 0; rec < records; ++rec) {
        u64 *base = out.polys[rec * lb].coeffs().data();
        scale0.push_back({base, base, ctx.gadget(0), &mod, n});
    }
    activeBackend().scalarMulBatch(scale0.data(), scale0.size());
    for (auto &poly : out.polys) {
        poly.setDomain(Domain::Eval);
    }
    out.bytes = out.polys.size() * n * sizeof(u64);
    return out;
}

// ------------------------------------------------------------- PirDbStore

size_t
PirDbStore::budgetFromEnv(size_t fallback)
{
    u64 v = 0;
    if (envU64("TRINITY_PIR_DB_BYTES", v)) {
        return static_cast<size_t>(v);
    }
    return fallback;
}

PirDbStore::PirDbStore(const TfheContext &ctx, Provider provider,
                       size_t budget, std::string label)
    : ResidentCache(
          [&ctx, provider](PirTenantId tenant) {
              return materializePirDb(ctx, provider(tenant));
          },
          budget, std::move(label))
{
    trinity_assert(provider != nullptr,
                   "PirDbStore needs a database provider");
}

} // namespace pir
} // namespace trinity
