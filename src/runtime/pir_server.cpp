#include "runtime/pir_server.h"

#include "common/logging.h"

namespace trinity {
namespace runtime {

ServerOptions
PirServer::defaultOptions()
{
    ServerOptions opts = ServerOptions::fromEnv();
    opts.label = "pir_server";
    return opts;
}

namespace {

/** Why @p query cannot be answered under @p params ("" when it can). */
std::string
malformedReason(const pir::PirParams &params, const pir::PirQuery &query)
{
    const TfheParams &tp = params.tfhe;
    if (query.ct.a.size() != tp.k) {
        return "GLWE mask count " + std::to_string(query.ct.a.size()) +
               " != k " + std::to_string(tp.k);
    }
    auto check = [&](const Poly &p) -> std::string {
        if (p.n() != tp.bigN) {
            return "ring size " + std::to_string(p.n()) + " != N " +
                   std::to_string(tp.bigN);
        }
        if (p.q() != tp.q) {
            return "modulus is not the server's q";
        }
        if (p.domain() != Domain::Coeff) {
            return "query is not in the coefficient domain";
        }
        for (u64 x : p.coeffs()) {
            if (x >= tp.q) {
                return "coefficient not reduced mod q";
            }
        }
        return "";
    };
    for (const Poly &a : query.ct.a) {
        std::string why = check(a);
        if (!why.empty()) {
            return why;
        }
    }
    return check(query.ct.b);
}

} // namespace

PirServer::PirServer(std::shared_ptr<TfheContext> ctx,
                     const pir::PirParams &params,
                     pir::PirDbStore &store, KeysProvider keys,
                     ServerOptions opts)
    : store_(store), keys_(std::move(keys)),
      engine_(std::move(ctx), params),
      core_(std::move(opts), "pirBatch",
            [this](const pir::PirQuery &q) {
                return malformedReason(engine_.params(), q);
            },
            [this](pir::PirTenantId t) { return bindTenant(t); })
{
    trinity_assert(keys_ != nullptr, "PirServer needs a keys provider");
}

std::future<pir::PirResponse>
PirServer::submit(pir::PirTenantId t, pir::PirQuery query)
{
    return core_.submit(t, std::move(query));
}

PirServer::Core::RunGroup
PirServer::bindTenant(pir::PirTenantId t)
{
    // Fault in the tenant's serving-form database and resolve its
    // uploaded keys. The shared_ptr pins the resident form for the
    // whole group, so evictions triggered by other tenants' faults
    // can't invalidate the fold's rows mid-flight.
    std::shared_ptr<const pir::ResidentPirDb> db = store_.acquire(t);
    const pir::PirQueryKeys *keys = &keys_(t);
    return [this, db = std::move(db), keys](std::vector<pir::PirQuery> &qs) {
        std::vector<pir::PirResponse> out;
        out.reserve(qs.size());
        for (const pir::PirQuery &q : qs) {
            out.push_back(engine_.answer(*db, *keys, q));
        }
        return out;
    };
}

} // namespace runtime
} // namespace trinity
