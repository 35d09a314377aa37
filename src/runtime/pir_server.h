/**
 * @file
 * Multi-tenant PIR serving front end.
 *
 * Clients submit() encrypted queries and receive a
 * std::future<pir::PirResponse>. The queue, worker, window policy
 * (ServerOptions, shared with PbsServer), tenant grouping, stats and
 * metrics (under the options' label, "pir_server" by default) are the
 * serving layer's one BatchingServer (runtime/batching_server.h).
 * PirServer supplies the query check — a malformed query (wrong ring
 * size, mask count, modulus or domain, or an unreduced coefficient)
 * resolves with InvalidRequest at submit — and the group executor:
 * acquire the tenant's resident database (pinned for the group, so a
 * concurrent eviction can never pull it out from under an in-flight
 * fold) and uploaded query keys, then answer each query through the
 * PirEngine pipeline. The server never sees a secret key. A tenant the
 * providers cannot resolve (they throw std::out_of_range) fails only
 * its own group's futures, with InvalidRequest.
 */

#ifndef TRINITY_RUNTIME_PIR_SERVER_H
#define TRINITY_RUNTIME_PIR_SERVER_H

#include <functional>
#include <future>
#include <memory>

#include "pir/pir.h"
#include "runtime/batching_server.h"

namespace trinity {
namespace runtime {

/**
 * The PIR serving runtime: a request queue plus one worker thread
 * that executes tenant-grouped windows of queries. Thread-safe for
 * any number of concurrent submitters; the destructor completes every
 * queued request before joining.
 */
class PirServer
{
  public:
    /** Per-tenant uploaded key material (expansion + conversion
     *  keys). Called on the worker thread, outside the server lock;
     *  the returned reference must stay valid for the batch. Throws
     *  std::out_of_range for a tenant it does not know. */
    using KeysProvider =
        std::function<const pir::PirQueryKeys &(pir::PirTenantId)>;

    /** ServerOptions::fromEnv() with the PIR metrics label. */
    static ServerOptions defaultOptions();

    /** @p store and the provider's key material must outlive the
     *  server. */
    PirServer(std::shared_ptr<TfheContext> ctx,
              const pir::PirParams &params, pir::PirDbStore &store,
              KeysProvider keys,
              ServerOptions opts = defaultOptions());

    PirServer(const PirServer &) = delete;
    PirServer &operator=(const PirServer &) = delete;

    /** Enqueue tenant @p t's query against its registered database. */
    std::future<pir::PirResponse> submit(pir::PirTenantId t,
                                         pir::PirQuery query);

    ServerStats stats() const { return core_.stats(); }
    const ServerOptions &options() const { return core_.options(); }
    size_t maxBatch() const { return core_.maxBatch(); }
    const pir::PirParams &params() const { return engine_.params(); }

  private:
    using Core = BatchingServer<pir::PirQuery, pir::PirResponse>;

    /** Resolve tenant @p t's resident database (pinned for the group)
     *  and query keys, and bind the group's answers to them. */
    Core::RunGroup bindTenant(pir::PirTenantId t);

    pir::PirDbStore &store_;
    KeysProvider keys_;
    pir::PirEngine engine_;
    /** Last: its worker joins before the members above are gone. */
    Core core_;
};

} // namespace runtime
} // namespace trinity

#endif // TRINITY_RUNTIME_PIR_SERVER_H
