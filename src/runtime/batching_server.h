/**
 * @file
 * The serving layer's one batching core. PbsServer and PirServer are
 * this core plus two functors: a validator and a tenant-group
 * executor.
 *
 * submit() validates a request (a non-empty reason resolves it with
 * InvalidRequest), applies admission control and queues it. The worker
 * drains windows, sheds requests past their deadline, groups the rest
 * stably by tenant and runs each group: the executor resolves the
 * tenant's keys or database and returns the group's runner. Every
 * future resolves — with a response or a RequestRejected — so an
 * overloaded server sheds load instead of queueing unboundedly.
 *
 * Policy knobs (env defaults, overridable per ServerOptions):
 *   TRINITY_RUNTIME_BATCH        max requests aggregated into one
 *                                window (default: the active engine's
 *                                preferredBatch() hint, floor 8)
 *   TRINITY_RUNTIME_MAX_WAIT_US  how long the worker holds an
 *                                underfull window open, microseconds
 *                                (default 200)
 *   TRINITY_RUNTIME_MAX_QUEUE    admission control: submissions that
 *                                would grow the queue past this are
 *                                rejected immediately with
 *                                AdmissionRejected (0 = unbounded)
 *   TRINITY_RUNTIME_DEADLINE_US  deadline budget: requests whose
 *                                queue wait exceeds this at window
 *                                assembly are shed with
 *                                DeadlineExceeded instead of executed
 *                                late (0 = none)
 *
 * Metrics land under the options' label: queue_depth, batch_size,
 * queue_wait_ns, request_latency_ns, requests, batches, rejected,
 * shed. Each group's compute is one trace span (the executor's span
 * name, category "runtime", the label as its track).
 */

#ifndef TRINITY_RUNTIME_BATCHING_SERVER_H
#define TRINITY_RUNTIME_BATCHING_SERVER_H

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/resident_cache.h"

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

/** The request is malformed for the server's parameters, or names a
 *  tenant the server's providers do not know; it fails only its own
 *  future (or its own tenant group's). */
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

/** The serving metric family under one label (registry names
 *  <label>.queue_depth, ...). The queue-depth gauge tracks the
 *  waiting-request count at every queue transition; batch sizes and
 *  the two latencies (queue wait to batch start, submit to result
 *  set) go to histograms, so serving benches report p50/p99/p999
 *  without a per-request sample store. */
struct ServerMetrics
{
    obs::Gauge &queue_depth;
    obs::Histogram &batch_size;
    obs::Histogram &queue_wait_ns;
    obs::Histogram &request_latency_ns;
    obs::Counter &requests;
    obs::Counter &batches;
    obs::Counter &rejected;
    obs::Counter &shed;

    static ServerMetrics forLabel(const std::string &label);
};

/**
 * A request queue plus one worker thread that executes tenant-grouped
 * windows of Req, resolving each request's std::future<Resp>.
 * Thread-safe for any number of concurrent submitters; the destructor
 * completes every queued request before joining.
 */
template <typename Req, typename Resp>
class BatchingServer
{
  public:
    /** Why a request cannot run ("" when it can); called at submit. */
    using Validate = std::function<std::string(const Req &)>;
    /** Computes one same-tenant group: one response per request, in
     *  order. */
    using RunGroup = std::function<std::vector<Resp>(std::vector<Req> &)>;
    /** Resolves a tenant's keys or database, pinning them in the
     *  returned runner. Throws std::out_of_range for a tenant it does
     *  not know, which fails that group with InvalidRequest. */
    using ExecuteGroup = std::function<RunGroup(TenantId)>;

    /** @p span names each group's compute span; it must be a string
     *  literal. */
    BatchingServer(ServerOptions opts, const char *span,
                   Validate validate, ExecuteGroup execute)
        : opts_(std::move(opts)), max_batch_(opts_.resolvedMaxBatch()),
          span_(span), track_(obs::internTraceStr(opts_.label)),
          validate_(std::move(validate)), execute_(std::move(execute)),
          metrics_(ServerMetrics::forLabel(opts_.label)),
          worker_([this] { workerLoop(); })
    {
    }

    ~BatchingServer()
    {
        {
            std::lock_guard<std::mutex> lk(mtx_);
            stop_ = true;
        }
        arrived_.notify_all();
        worker_.join();
    }

    BatchingServer(const BatchingServer &) = delete;
    BatchingServer &operator=(const BatchingServer &) = delete;

    /** Enqueue tenant @p tenant's request. */
    std::future<Resp>
    submit(TenantId tenant, Req req)
    {
        Pending p{tenant, std::move(req), {}, obs::detail::nowNs()};
        std::future<Resp> result = p.result.get_future();
        std::string invalid = validate_(p.req);
        if (!invalid.empty()) {
            p.result.set_exception(std::make_exception_ptr(InvalidRequest(
                opts_.label + ": invalid request: " + invalid)));
            return result;
        }
        bool admitted = false;
        {
            std::lock_guard<std::mutex> lk(mtx_);
            trinity_assert(!stop_, "submit() on a stopped server");
            admitted = opts_.maxQueue == 0 || queue_.size() < opts_.maxQueue;
            if (admitted) {
                queue_.push_back(std::move(p));
                metrics_.queue_depth.set(static_cast<i64>(queue_.size()));
            } else {
                ++stats_.rejected;
            }
        }
        if (admitted) {
            arrived_.notify_all();
            return result;
        }
        metrics_.rejected.add();
        p.result.set_exception(std::make_exception_ptr(AdmissionRejected(
            opts_.label + ": request rejected: serving queue at maxQueue=" +
            std::to_string(opts_.maxQueue))));
        return result;
    }

    ServerStats
    stats() const
    {
        std::lock_guard<std::mutex> lk(mtx_);
        return stats_;
    }

    const ServerOptions &options() const { return opts_; }
    size_t maxBatch() const { return max_batch_; }

  private:
    struct Pending
    {
        TenantId tenant = 0;
        Req req;
        std::promise<Resp> result;
        /** Submission timestamp (obs::detail::nowNs) feeding the
         *  queue-wait/latency histograms and the deadline policy. */
        u64 enqueuedNs = 0;
    };

    void
    workerLoop()
    {
        std::unique_lock<std::mutex> lk(mtx_);
        while (true) {
            arrived_.wait(lk, [&] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) {
                return; // stopped and fully drained
            }
            // Hold the window open until it fills or the deadline
            // passes; shutdown flushes immediately.
            auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(opts_.maxWaitUs);
            arrived_.wait_until(lk, deadline, [&] {
                return stop_ || queue_.size() >= max_batch_;
            });
            // Deadline policy: shed anything that already waited past
            // the budget — executing it would only make the batch it
            // joins later too. The client gets DeadlineExceeded at once.
            size_t take = std::min(queue_.size(), max_batch_);
            u64 now = obs::detail::nowNs();
            std::vector<Pending> work;
            std::vector<Pending> shed;
            work.reserve(take);
            for (size_t i = 0; i < take; ++i) {
                bool late = opts_.deadlineUs > 0 &&
                            now - queue_.front().enqueuedNs >
                                opts_.deadlineUs * 1000;
                (late ? shed : work).push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
            stats_.shed += shed.size();
            metrics_.queue_depth.set(static_cast<i64>(queue_.size()));
            lk.unlock();

            metrics_.shed.add(shed.size());
            for (Pending &p : shed) {
                p.result.set_exception(std::make_exception_ptr(
                    DeadlineExceeded(opts_.label +
                                     ": request shed: queue wait exceeded "
                                     "deadlineUs=" +
                                     std::to_string(opts_.deadlineUs))));
            }
            // One group per tenant (stable, so each tenant's requests
            // keep arrival order): a fused PBS batch shares one key
            // set, and a PIR group faults its database in once. Key
            // affinity lives a level up — the sharded server routes a
            // tenant to one shard, so a shard's window is dominated by
            // few tenants and groups stay wide.
            std::stable_sort(work.begin(), work.end(),
                             [](const Pending &a, const Pending &b) {
                                 return a.tenant < b.tenant;
                             });
            size_t begin = 0;
            for (size_t i = 1; i <= work.size(); ++i) {
                if (i == work.size() ||
                    work[i].tenant != work[begin].tenant) {
                    executeGroup(work, begin, i);
                    begin = i;
                }
            }

            lk.lock();
        }
    }

    /** Execute one same-tenant group of @p work; resolves every
     *  future. */
    void
    executeGroup(std::vector<Pending> &work, size_t begin, size_t end)
    {
        size_t count = end - begin;
        TenantId tenant = work[begin].tenant;
        metrics_.requests.add(count);
        metrics_.batches.add();
        metrics_.batch_size.observe(count);
        u64 batchStart = obs::detail::nowNs();
        std::vector<Req> reqs;
        reqs.reserve(count);
        for (size_t i = begin; i < end; ++i) {
            metrics_.queue_wait_ns.observe(batchStart - work[i].enqueuedNs);
            reqs.push_back(std::move(work[i].req));
        }

        // Only resolution translates std::out_of_range: a provider
        // that does not know the tenant means the group's requests
        // were invalid, not the server. A failure in the compute is
        // forwarded to the group as it is.
        std::vector<Resp> out;
        try {
            RunGroup run;
            try {
                run = execute_(tenant);
            } catch (const std::out_of_range &e) {
                throw InvalidRequest(opts_.label + ": unknown tenant " +
                                     std::to_string(tenant) + " (" +
                                     e.what() + ")");
            }
            obs::TraceSpan span(span_, "runtime", track_, "requests", count);
            out = run(reqs);
        } catch (...) {
            for (size_t i = begin; i < end; ++i) {
                work[i].result.set_exception(std::current_exception());
            }
            return;
        }
        trinity_assert(out.size() == count,
                       "group runner returned the wrong response count");
        // Account before resolving: a client that has seen its future
        // resolve must also see these requests in stats().
        {
            std::lock_guard<std::mutex> lk(mtx_);
            stats_.requests += count;
            stats_.batches += 1;
            stats_.largestBatch = std::max<u64>(stats_.largestBatch, count);
        }
        for (size_t i = begin; i < end; ++i) {
            metrics_.request_latency_ns.observe(obs::detail::nowNs() -
                                                work[i].enqueuedNs);
            work[i].result.set_value(std::move(out[i - begin]));
        }
    }

    const ServerOptions opts_;
    const size_t max_batch_;
    const char *const span_;
    const char *const track_; ///< interned label: outlives the server
    const Validate validate_;
    const ExecuteGroup execute_;
    ServerMetrics metrics_;

    mutable std::mutex mtx_;
    std::condition_variable arrived_;
    std::deque<Pending> queue_;
    bool stop_ = false;
    ServerStats stats_;

    std::thread worker_; ///< last: starts once everything above exists
};

} // namespace runtime
} // namespace trinity

#endif // TRINITY_RUNTIME_BATCHING_SERVER_H
