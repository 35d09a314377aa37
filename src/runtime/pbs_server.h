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
 *    a TenantId, the worker groups each drained window by tenant
 *    (requests in one fused batch must share bootstrap keys — the
 *    lockstep blind rotation reads one GGSW per step for the whole
 *    batch), acquires the tenant's materialized keys from the store
 *    (pinning them for the batch's lifetime), and executes per-tenant
 *    fused batches.
 *
 * Policy knobs (env defaults, overridable per ServerOptions):
 *   TRINITY_RUNTIME_BATCH        max requests aggregated into one
 *                                batch (default: the active engine's
 *                                preferredBatch() hint, floor 8)
 *   TRINITY_RUNTIME_MAX_WAIT_US  how long the worker holds an
 *                                underfull batch open, microseconds
 *                                (default 200)
 *   TRINITY_RUNTIME_MAX_QUEUE    admission control: submissions that
 *                                would grow the queue past this are
 *                                rejected immediately with
 *                                AdmissionRejected (0 = unbounded)
 *   TRINITY_RUNTIME_DEADLINE_US  deadline budget: requests whose
 *                                queue wait exceeds this at batch
 *                                assembly are shed with
 *                                DeadlineExceeded instead of executed
 *                                late (0 = none)
 *
 * Malformed requests (wrong LWE dimension, a coefficient >= q, a test
 * vector off the ring) resolve with InvalidRequest at submit.
 * Rejected/shed requests resolve their future with the corresponding
 * exception — the client always gets an answer, never a hang, and an
 * overloaded server degrades by shedding load instead of queueing
 * unboundedly.
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

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "runtime/batched_pbs.h"
#include "runtime/key_store.h"

namespace trinity {
namespace runtime {

/** Base of every policy-driven request failure. */
class RequestRejected : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Admission control: the queue was full at submit time. */
class AdmissionRejected : public RequestRejected
{
    using RequestRejected::RequestRejected;
};

/** The request waited past the deadline budget and was shed. */
class DeadlineExceeded : public RequestRejected
{
    using RequestRejected::RequestRejected;
};

/** The request is malformed for the server's parameters (LWE
 *  dimension, unreduced coefficients, test-vector ring); rejected at
 *  submit so it never reaches the shared batch. */
class InvalidRequest : public RequestRejected
{
    using RequestRejected::RequestRejected;
};

/** Aggregation and overload policy for the serving loop. */
struct ServerOptions
{
    /** Max requests fused into one batch; 0 resolves to the active
     *  engine's preferredBatch() hint. */
    size_t maxBatch = 0;
    /** Deadline after which an underfull batch is flushed anyway,
     *  counted from when the worker starts assembling it. */
    u64 maxWaitUs = 200;
    /** Admission bound on queued requests; 0 = unbounded. */
    size_t maxQueue = 0;
    /** Per-request deadline budget (queue wait, microseconds); 0 =
     *  never shed. */
    u64 deadlineUs = 0;
    /** Metrics prefix ("pbs_server"; shards use "pbs_server.shard<i>"
     *  so tail latency reports per shard). */
    std::string label = "pbs_server";

    /** Defaults with the TRINITY_RUNTIME_* env knobs applied
     *  (strictly validated; fatal on garbage). */
    static ServerOptions fromEnv();

    /** maxBatch with the 0 default resolved against the engine hint. */
    size_t resolvedMaxBatch() const;
};

/** Serving counters, readable while the server runs. */
struct ServerStats
{
    u64 requests = 0;     ///< requests executed
    u64 batches = 0;      ///< fused batches executed
    u64 largestBatch = 0; ///< widest batch observed
    u64 rejected = 0;     ///< admission-rejected at submit
    u64 shed = 0;         ///< deadline-shed at batch assembly

    double
    avgBatch() const
    {
        return batches == 0
                   ? 0.0
                   : static_cast<double>(requests) /
                         static_cast<double>(batches);
    }
};

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

    ~PbsServer();

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

    ServerStats stats() const;
    const ServerOptions &options() const { return opts_; }
    size_t maxBatch() const { return max_batch_; }
    bool multiTenant() const { return store_ != nullptr; }
    /** The key store (multi-tenant mode only; nullptr otherwise). */
    KeyStore *keyStore() const { return store_; }

  private:
    struct Pending
    {
        TenantId tenant = 0;
        LweCiphertext ct;
        const Poly *tv = nullptr;
        std::promise<LweCiphertext> result;
        /** Submission timestamp (obs::detail::nowNs) feeding the
         *  queue-wait/latency histograms and the deadline policy. */
        u64 enqueuedNs = 0;
    };

    std::future<LweCiphertext> enqueue(Pending p);
    void workerLoop();
    /** Execute one same-key group of @p work; resolves every future. */
    void executeGroup(std::vector<Pending> &work, size_t begin,
                      size_t end);

    const TfheGateBootstrapper *gb_ = nullptr; ///< single-tenant keys
    KeyStore *store_ = nullptr;                ///< multi-tenant keys
    std::shared_ptr<TfheContext> ctx_;         ///< multi-tenant mode
    std::unique_ptr<TfheBootstrapper> boot_;   ///< multi-tenant mode
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

#endif // TRINITY_RUNTIME_PBS_SERVER_H
