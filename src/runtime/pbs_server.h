/**
 * @file
 * Multi-client PBS serving front end.
 *
 * Clients submit() independent bootstrap requests and receive a
 * std::future<LweCiphertext>; a worker thread drains the request
 * queue into PbsBatches under a batch-size/deadline policy and
 * executes them as fused job streams through the batched-PBS
 * pipeline. This models the traffic shape Trinity is built for: many
 * mutually independent gate bootstraps from many clients, coalesced
 * so the accelerator (or CPU engine) sees wide batches instead of a
 * trickle of single bootstraps.
 *
 * Two operating modes:
 *  - Single-tenant: constructed over one TfheGateBootstrapper, every
 *    request uses its keys (the PR-3 behavior).
 *  - Multi-tenant: constructed over a KeyStore; every request carries
 *    a TenantId, and each tenant group runs as one fused batch on the
 *    tenant's materialized keys, pinned for the batch's lifetime
 *    (requests in one fused batch must share bootstrap keys — the
 *    lockstep blind rotation reads one GGSW per step for the whole
 *    batch).
 *
 * The queue, worker, TRINITY_RUNTIME_* policy, tenant grouping, stats
 * and metrics are the serving layer's one BatchingServer
 * (runtime/batching_server.h); single-tenant mode submits every
 * request as tenant 0, so its window is one group. Malformed requests
 * (wrong LWE dimension, a coefficient >= q, a test vector off the
 * ring) resolve with InvalidRequest at submit. A multi-tenant request
 * for a tenant the KeyStore's provider does not know (it throws
 * std::out_of_range) resolves with InvalidRequest when its tenant
 * group runs; only that group's futures fail.
 *
 * TRINITY_RUNTIME_BATCH bounds *aggregation* (queueing latency and
 * result batching); lockstep *execution* width is the engine's
 * business — batches wider than preferredBatch() split into
 * consecutive lockstep chunks, so raising the knob above the hint
 * amortizes queueing overhead without widening the working set per
 * chunk. Call BatchedBootstrapper::runChunked() / runPbsBatchChunked()
 * directly to control lockstep width explicitly (benches do).
 */

#ifndef TRINITY_RUNTIME_PBS_SERVER_H
#define TRINITY_RUNTIME_PBS_SERVER_H

#include <future>
#include <memory>

#include "runtime/batched_pbs.h"
#include "runtime/batching_server.h"
#include "runtime/key_store.h"

namespace trinity {
namespace runtime {

/**
 * The serving runtime: a request queue plus one worker thread that
 * aggregates submissions into PbsBatches. Thread-safe for any number
 * of concurrent submitters; the destructor completes every queued
 * request before joining.
 */
class PbsServer
{
  public:
    /** Single-tenant mode: borrows @p gb (keys + context); it must
     *  outlive the server. */
    explicit PbsServer(const TfheGateBootstrapper &gb,
                       ServerOptions opts = ServerOptions::fromEnv());

    /** Multi-tenant mode: requests carry TenantIds and execute with
     *  keys acquired from @p store (which must outlive the server). */
    PbsServer(std::shared_ptr<TfheContext> ctx, KeyStore &store,
              ServerOptions opts = ServerOptions::fromEnv());

    PbsServer(const PbsServer &) = delete;
    PbsServer &operator=(const PbsServer &) = delete;

    /** Enqueue a sign bootstrap (gate-style refresh) of @p ct.
     *  Single-tenant mode only. */
    std::future<LweCiphertext> submit(LweCiphertext ct);

    /** Enqueue a programmable bootstrap with caller-owned LUT @p tv;
     *  the test vector must stay alive until the future resolves.
     *  Single-tenant mode only. */
    std::future<LweCiphertext> submit(LweCiphertext ct, const Poly &tv);

    /** Enqueue tenant @p t's sign bootstrap (the tenant's stored sign
     *  test vector). Multi-tenant mode only. */
    std::future<LweCiphertext> submit(TenantId t, LweCiphertext ct);

    /** Enqueue tenant @p t's programmable bootstrap with caller-owned
     *  LUT @p tv. Multi-tenant mode only. */
    std::future<LweCiphertext> submit(TenantId t, LweCiphertext ct,
                                      const Poly &tv);

    ServerStats stats() const { return core_.stats(); }
    const ServerOptions &options() const { return core_.options(); }
    size_t maxBatch() const { return core_.maxBatch(); }

  private:
    struct Request
    {
        LweCiphertext ct;
        const Poly *tv = nullptr; ///< nullptr: the tenant's sign LUT
    };
    using Core = BatchingServer<Request, LweCiphertext>;

    PbsServer(const TfheGateBootstrapper *gb, KeyStore *store,
              std::shared_ptr<TfheContext> ctx, ServerOptions opts);

    /** Why @p r cannot run under the server's parameters ("" when it
     *  can). */
    std::string malformedReason(const Request &r) const;
    /** Resolve tenant @p t's keys (pinned for the group in
     *  multi-tenant mode) and bind the fused batch to them. */
    Core::RunGroup bindKeys(TenantId t);

    const TfheGateBootstrapper *gb_ = nullptr; ///< single-tenant keys
    KeyStore *store_ = nullptr;                ///< multi-tenant keys
    std::shared_ptr<TfheContext> ctx_;         ///< multi-tenant mode
    std::unique_ptr<TfheBootstrapper> boot_;   ///< multi-tenant mode
    /** Last: its worker joins before the members above are gone. */
    Core core_;
};

} // namespace runtime
} // namespace trinity

#endif // TRINITY_RUNTIME_PBS_SERVER_H
