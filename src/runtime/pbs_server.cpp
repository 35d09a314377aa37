#include "runtime/pbs_server.h"

#include "backend/registry.h"
#include "common/logging.h"

namespace trinity {
namespace runtime {

PbsServer::PbsServer(const TfheGateBootstrapper &gb, ServerOptions opts)
    : PbsServer(&gb, nullptr, nullptr, std::move(opts))
{
}

PbsServer::PbsServer(std::shared_ptr<TfheContext> ctx, KeyStore &store,
                     ServerOptions opts)
    : PbsServer(nullptr, &store, std::move(ctx), std::move(opts))
{
}

PbsServer::PbsServer(const TfheGateBootstrapper *gb, KeyStore *store,
                     std::shared_ptr<TfheContext> ctx, ServerOptions opts)
    : gb_(gb), store_(store), ctx_(std::move(ctx)),
      boot_(ctx_ != nullptr ? std::make_unique<TfheBootstrapper>(ctx_)
                            : nullptr),
      core_(std::move(opts), "pbsBatch",
            [this](const Request &r) { return malformedReason(r); },
            [this](TenantId t) { return bindKeys(t); })
{
}

std::future<LweCiphertext>
PbsServer::submit(LweCiphertext ct)
{
    trinity_assert(gb_ != nullptr,
                   "tenant-less submit() on a multi-tenant PbsServer");
    return submit(std::move(ct), gb_->signVector());
}

std::future<LweCiphertext>
PbsServer::submit(LweCiphertext ct, const Poly &tv)
{
    trinity_assert(gb_ != nullptr,
                   "tenant-less submit() on a multi-tenant PbsServer");
    return core_.submit(0, Request{std::move(ct), &tv});
}

std::future<LweCiphertext>
PbsServer::submit(TenantId t, LweCiphertext ct)
{
    trinity_assert(store_ != nullptr,
                   "tenant submit() on a single-tenant PbsServer");
    return core_.submit(t, Request{std::move(ct), nullptr});
}

std::future<LweCiphertext>
PbsServer::submit(TenantId t, LweCiphertext ct, const Poly &tv)
{
    trinity_assert(store_ != nullptr,
                   "tenant submit() on a single-tenant PbsServer");
    return core_.submit(t, Request{std::move(ct), &tv});
}

std::string
PbsServer::malformedReason(const Request &r) const
{
    const TfheParams &params = gb_ != nullptr ? gb_->params()
                                              : ctx_->params();
    if (r.ct.a.size() != params.nLwe) {
        return "LWE dimension " + std::to_string(r.ct.a.size()) +
               " != n_lwe " + std::to_string(params.nLwe);
    }
    for (u64 x : r.ct.a) {
        if (x >= params.q) {
            return "LWE mask coefficient not reduced mod q";
        }
    }
    if (r.ct.b >= params.q) {
        return "LWE body not reduced mod q";
    }
    if (r.tv != nullptr &&
        (r.tv->n() != params.bigN || r.tv->q() != params.q)) {
        return "test vector is not in the server's GLWE ring";
    }
    return "";
}

PbsServer::Core::RunGroup
PbsServer::bindKeys(TenantId t)
{
    // In multi-tenant mode this is the keystore fault-in path: the
    // returned shared_ptr pins the keys for the duration of the batch,
    // so a concurrent eviction (another tenant faulting in past the
    // budget) can never pull them out from under the lockstep blind
    // rotation.
    std::shared_ptr<const ResidentKeys> pinned;
    const TfheBootstrapper *boot = boot_.get();
    const TfheBootstrapKey *bsk = nullptr;
    const TfheKeySwitchKey *ksk = nullptr;
    const Poly *defaultTv = nullptr;
    if (store_ != nullptr) {
        pinned = store_->acquire(t);
        bsk = &pinned->bsk;
        ksk = &pinned->ksk;
        defaultTv = &pinned->signTv;
    } else {
        boot = &gb_->bootstrapper();
        bsk = &gb_->bootstrapKey();
        ksk = &gb_->keySwitchKey();
        defaultTv = &gb_->signVector();
    }
    return [pinned = std::move(pinned), boot, bsk, ksk,
            defaultTv](std::vector<Request> &reqs) {
        PbsBatch batch;
        for (const Request &r : reqs) {
            batch.add(r.ct, r.tv != nullptr ? *r.tv : *defaultTv);
        }
        return runPbsBatchChunked(*boot, batch, *bsk, *ksk,
                                  activeBackend().preferredBatch());
    };
}

} // namespace runtime
} // namespace trinity
