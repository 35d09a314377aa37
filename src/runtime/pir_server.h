/**
 * @file
 * Multi-tenant PIR serving front end.
 *
 * Clients submit() encrypted queries and receive a
 * std::future<pir::PirResponse>; a worker thread drains the request
 * queue in windows under the same batch-size/deadline policy as
 * PbsServer (ServerOptions is shared), groups each window by tenant,
 * acquires the tenant's resident database from the PirDbStore (the
 * returned shared_ptr pins it for the group's lifetime, so a
 * concurrent eviction can never pull the serving form out from under
 * an in-flight fold), and answers each query through the PirEngine
 * pipeline. Per-tenant query keys come from a caller-supplied
 * provider — the server never sees a secret key.
 *
 * Policy knobs are the TRINITY_RUNTIME_* family (see pbs_server.h);
 * metrics land under the options' label ("pir_server" by default):
 * queue_depth, batch_size, queue_wait_ns, request_latency_ns,
 * requests, batches, rejected, shed. Rejected/shed requests resolve
 * their future with AdmissionRejected/DeadlineExceeded — the client
 * always gets an answer, never a hang. A malformed query (wrong ring
 * size, mask count, modulus or domain, or an unreduced coefficient)
 * resolves with InvalidRequest at submit, so it never reaches a
 * batch. A query for a tenant the providers cannot resolve (they
 * throw std::out_of_range, e.g. from a container's at()) resolves
 * with InvalidRequest when its tenant group runs; only that group's
 * futures fail.
 */

#ifndef TRINITY_RUNTIME_PIR_SERVER_H
#define TRINITY_RUNTIME_PIR_SERVER_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>

#include "pir/pir.h"
#include "runtime/pbs_server.h"

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

    ~PirServer();

    PirServer(const PirServer &) = delete;
    PirServer &operator=(const PirServer &) = delete;

    /** Enqueue tenant @p t's query against its registered database. */
    std::future<pir::PirResponse> submit(pir::PirTenantId t,
                                         pir::PirQuery query);

    ServerStats stats() const;
    const ServerOptions &options() const { return opts_; }
    size_t maxBatch() const { return max_batch_; }
    const pir::PirParams &params() const { return engine_.params(); }
    pir::PirDbStore &dbStore() const { return store_; }

  private:
    struct Pending
    {
        pir::PirTenantId tenant = 0;
        pir::PirQuery query;
        std::promise<pir::PirResponse> result;
        /** Submission timestamp (obs::detail::nowNs) feeding the
         *  queue-wait/latency histograms and the deadline policy. */
        u64 enqueuedNs = 0;
    };

    void workerLoop();
    /** Execute one same-tenant group of @p work; resolves every
     *  future. */
    void executeGroup(std::vector<Pending> &work, size_t begin,
                      size_t end);

    pir::PirDbStore &store_;
    KeysProvider keys_;
    pir::PirEngine engine_;
    ServerOptions opts_;
    size_t max_batch_;

    mutable std::mutex mtx_;
    std::condition_variable arrived_;
    std::deque<Pending> queue_;
    bool stop_ = false;
    ServerStats stats_;

    struct Metrics;
    Metrics &metrics_;

    std::thread worker_;
};

} // namespace runtime
} // namespace trinity

#endif // TRINITY_RUNTIME_PIR_SERVER_H
