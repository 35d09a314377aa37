#include "runtime/pbs_server.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "backend/registry.h"
#include "common/env.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace trinity {
namespace runtime {

// Serving metrics (registry names, prefixed by the server's label so
// shards report separately): the queue-depth gauge tracks the
// waiting-request count at every queue transition, batch sizes and
// the two latencies (queue wait to batch start, submit to result set)
// go to histograms, so serving benches report p50/p99/p999 without a
// per-request sample store. rejected/shed count the admission and
// deadline policies firing.
struct PbsServer::Metrics
{
    obs::Gauge &queue_depth;
    obs::Histogram &batch_size;
    obs::Histogram &queue_wait_ns;
    obs::Histogram &request_latency_ns;
    obs::Counter &requests;
    obs::Counter &batches;
    obs::Counter &rejected;
    obs::Counter &shed;

    static Metrics &
    forLabel(const std::string &label)
    {
        static std::mutex mtx;
        static std::map<std::string, std::unique_ptr<Metrics>> all;
        std::lock_guard<std::mutex> lk(mtx);
        auto it = all.find(label);
        if (it == all.end()) {
            obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
            it = all.emplace(
                         label,
                         std::unique_ptr<Metrics>(new Metrics{
                             reg.gauge(label + ".queue_depth"),
                             reg.histogram(label + ".batch_size"),
                             reg.histogram(label + ".queue_wait_ns"),
                             reg.histogram(label + ".request_latency_ns"),
                             reg.counter(label + ".requests"),
                             reg.counter(label + ".batches"),
                             reg.counter(label + ".rejected"),
                             reg.counter(label + ".shed"),
                         }))
                     .first;
        }
        return *it->second;
    }
};

ServerOptions
ServerOptions::fromEnv()
{
    ServerOptions opts;
    u64 v = 0;
    if (envU64("TRINITY_RUNTIME_BATCH", v)) {
        if (v == 0) {
            trinity_fatal("invalid TRINITY_RUNTIME_BATCH value '0': "
                          "batches need at least one request");
        }
        opts.maxBatch = static_cast<size_t>(v);
    }
    if (envU64("TRINITY_RUNTIME_MAX_WAIT_US", v)) {
        opts.maxWaitUs = v;
    }
    if (envU64("TRINITY_RUNTIME_MAX_QUEUE", v)) {
        opts.maxQueue = static_cast<size_t>(v);
    }
    if (envU64("TRINITY_RUNTIME_DEADLINE_US", v)) {
        opts.deadlineUs = v;
    }
    return opts;
}

size_t
ServerOptions::resolvedMaxBatch() const
{
    if (maxBatch != 0) {
        return maxBatch;
    }
    return activeBackend().preferredBatch();
}

PbsServer::PbsServer(const TfheGateBootstrapper &gb, ServerOptions opts)
    : gb_(&gb), opts_(std::move(opts)),
      max_batch_(opts_.resolvedMaxBatch()),
      metrics_(Metrics::forLabel(opts_.label)),
      worker_([this] { workerLoop(); })
{
}

PbsServer::PbsServer(std::shared_ptr<TfheContext> ctx, KeyStore &store,
                     ServerOptions opts)
    : store_(&store), ctx_(std::move(ctx)),
      boot_(std::make_unique<TfheBootstrapper>(ctx_)),
      opts_(std::move(opts)), max_batch_(opts_.resolvedMaxBatch()),
      metrics_(Metrics::forLabel(opts_.label)),
      worker_([this] { workerLoop(); })
{
}

PbsServer::~PbsServer()
{
    {
        std::lock_guard<std::mutex> lk(mtx_);
        stop_ = true;
    }
    arrived_.notify_all();
    worker_.join();
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
    Pending p;
    p.ct = std::move(ct);
    p.tv = &tv;
    return enqueue(std::move(p));
}

std::future<LweCiphertext>
PbsServer::submit(TenantId t, LweCiphertext ct)
{
    trinity_assert(store_ != nullptr,
                   "tenant submit() on a single-tenant PbsServer");
    Pending p;
    p.tenant = t;
    p.ct = std::move(ct);
    p.tv = nullptr; // resolved to the tenant's sign LUT at batch time
    return enqueue(std::move(p));
}

std::future<LweCiphertext>
PbsServer::submit(TenantId t, LweCiphertext ct, const Poly &tv)
{
    trinity_assert(store_ != nullptr,
                   "tenant submit() on a single-tenant PbsServer");
    Pending p;
    p.tenant = t;
    p.ct = std::move(ct);
    p.tv = &tv;
    return enqueue(std::move(p));
}

namespace {

/** Why @p ct / @p tv cannot run under @p params ("" when they can). */
std::string
malformedReason(const TfheParams &params, const LweCiphertext &ct,
                const Poly *tv)
{
    if (ct.a.size() != params.nLwe) {
        return "LWE dimension " + std::to_string(ct.a.size()) +
               " != n_lwe " + std::to_string(params.nLwe);
    }
    for (u64 x : ct.a) {
        if (x >= params.q) {
            return "LWE mask coefficient not reduced mod q";
        }
    }
    if (ct.b >= params.q) {
        return "LWE body not reduced mod q";
    }
    if (tv != nullptr && (tv->n() != params.bigN || tv->q() != params.q)) {
        return "test vector is not in the server's GLWE ring";
    }
    return "";
}

} // namespace

std::future<LweCiphertext>
PbsServer::enqueue(Pending p)
{
    p.enqueuedNs = obs::detail::nowNs();
    std::future<LweCiphertext> result = p.result.get_future();
    std::string invalid = malformedReason(
        gb_ != nullptr ? gb_->params() : ctx_->params(), p.ct, p.tv);
    if (!invalid.empty()) {
        p.result.set_exception(std::make_exception_ptr(
            InvalidRequest("invalid PBS request: " + invalid)));
        return result;
    }
    bool rejected = false;
    {
        std::lock_guard<std::mutex> lk(mtx_);
        trinity_assert(!stop_, "submit() on a stopped PbsServer");
        if (opts_.maxQueue > 0 && queue_.size() >= opts_.maxQueue) {
            rejected = true;
            ++stats_.rejected;
        } else {
            queue_.push_back(std::move(p));
            metrics_.queue_depth.set(static_cast<i64>(queue_.size()));
        }
    }
    if (rejected) {
        metrics_.rejected.add();
        p.result.set_exception(std::make_exception_ptr(AdmissionRejected(
            "request rejected: serving queue at maxQueue=" +
            std::to_string(opts_.maxQueue))));
        return result;
    }
    arrived_.notify_all();
    return result;
}

ServerStats
PbsServer::stats() const
{
    std::lock_guard<std::mutex> lk(mtx_);
    return stats_;
}

void
PbsServer::executeGroup(std::vector<Pending> &work, size_t begin,
                        size_t end)
{
    size_t count = end - begin;
    Metrics &m = metrics_;
    m.requests.add(count);
    m.batches.add();
    m.batch_size.observe(count);
    u64 batch_start = obs::detail::nowNs();
    for (size_t i = begin; i < end; ++i) {
        m.queue_wait_ns.observe(batch_start - work[i].enqueuedNs);
    }

    // Resolve the group's key material. In multi-tenant mode this is
    // the keystore fault-in path: the returned shared_ptr pins the
    // keys for the duration of the batch, so a concurrent eviction
    // (another tenant faulting in past the budget) can never pull
    // them out from under the lockstep blind rotation.
    const TfheBootstrapper *boot = nullptr;
    const TfheBootstrapKey *bsk = nullptr;
    const TfheKeySwitchKey *ksk = nullptr;
    const Poly *defaultTv = nullptr;
    std::shared_ptr<const ResidentKeys> pinned;
    if (store_ != nullptr) {
        try {
            pinned = store_->acquire(work[begin].tenant);
        } catch (...) {
            std::exception_ptr err = std::current_exception();
            for (size_t i = begin; i < end; ++i) {
                work[i].result.set_exception(err);
            }
            return;
        }
        boot = boot_.get();
        bsk = &pinned->bsk;
        ksk = &pinned->ksk;
        defaultTv = &pinned->signTv;
    } else {
        boot = &gb_->bootstrapper();
        bsk = &gb_->bootstrapKey();
        ksk = &gb_->keySwitchKey();
        defaultTv = &gb_->signVector();
    }

    PbsBatch batch;
    for (size_t i = begin; i < end; ++i) {
        batch.add(work[i].ct,
                  work[i].tv != nullptr ? *work[i].tv : *defaultTv);
    }
    std::vector<LweCiphertext> out;
    {
        obs::TraceSpan span("pbsBatch", "runtime",
                            obs::internTraceStr(opts_.label),
                            "requests", count);
        out = runPbsBatchChunked(*boot, batch, *bsk, *ksk,
                                 activeBackend().preferredBatch());
    }
    // Account before resolving: a client that has seen its future
    // resolve must also see these requests in stats().
    {
        std::lock_guard<std::mutex> slk(mtx_);
        stats_.requests += count;
        stats_.batches += 1;
        if (count > stats_.largestBatch) {
            stats_.largestBatch = count;
        }
    }
    for (size_t i = begin; i < end; ++i) {
        m.request_latency_ns.observe(obs::detail::nowNs() -
                                     work[i].enqueuedNs);
        work[i].result.set_value(std::move(out[i - begin]));
    }
}

void
PbsServer::workerLoop()
{
    std::unique_lock<std::mutex> lk(mtx_);
    while (true) {
        arrived_.wait(lk, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) {
            return; // stopped and fully drained
        }
        // Hold the batch open until it fills or the deadline passes;
        // shutdown flushes immediately.
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(opts_.maxWaitUs);
        arrived_.wait_until(lk, deadline, [&] {
            return stop_ || queue_.size() >= max_batch_;
        });
        size_t take = queue_.size() < max_batch_ ? queue_.size()
                                                 : max_batch_;
        std::vector<Pending> work;
        work.reserve(take);
        for (size_t i = 0; i < take; ++i) {
            work.push_back(std::move(queue_.front()));
            queue_.pop_front();
        }
        metrics_.queue_depth.set(static_cast<i64>(queue_.size()));
        lk.unlock();

        // Deadline policy: shed anything that already waited past the
        // budget — executing it would only make the batch it joins
        // later too. The client gets DeadlineExceeded immediately.
        if (opts_.deadlineUs > 0) {
            u64 now = obs::detail::nowNs();
            u64 budgetNs = opts_.deadlineUs * 1000;
            std::vector<Pending> kept;
            kept.reserve(work.size());
            for (Pending &p : work) {
                if (now - p.enqueuedNs > budgetNs) {
                    metrics_.shed.add();
                    {
                        std::lock_guard<std::mutex> slk(mtx_);
                        ++stats_.shed;
                    }
                    p.result.set_exception(
                        std::make_exception_ptr(DeadlineExceeded(
                            "request shed: queue wait exceeded "
                            "deadlineUs=" +
                            std::to_string(opts_.deadlineUs))));
                } else {
                    kept.push_back(std::move(p));
                }
            }
            work = std::move(kept);
        }

        // One fused batch per key set: in multi-tenant mode the
        // drained window is grouped by tenant (stable, so each
        // tenant's requests keep arrival order); single-tenant mode
        // is one group. Key affinity lives a level up — the sharded
        // server routes a tenant to one shard, so a shard's window
        // is dominated by few tenants and groups stay wide.
        if (!work.empty()) {
            if (store_ != nullptr) {
                std::stable_sort(work.begin(), work.end(),
                                 [](const Pending &a, const Pending &b) {
                                     return a.tenant < b.tenant;
                                 });
            }
            size_t begin = 0;
            for (size_t i = 1; i <= work.size(); ++i) {
                if (i == work.size() ||
                    (store_ != nullptr &&
                     work[i].tenant != work[begin].tenant)) {
                    executeGroup(work, begin, i);
                    begin = i;
                }
            }
        }

        lk.lock();
    }
}

} // namespace runtime
} // namespace trinity
