#include "runtime/pir_server.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace trinity {
namespace runtime {

// Same metric family as PbsServer, under the PIR server's label, so
// serving dashboards and benches read both front ends uniformly.
struct PirServer::Metrics
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
PirServer::defaultOptions()
{
    ServerOptions opts = ServerOptions::fromEnv();
    opts.label = "pir_server";
    return opts;
}

PirServer::PirServer(std::shared_ptr<TfheContext> ctx,
                     const pir::PirParams &params,
                     pir::PirDbStore &store, KeysProvider keys,
                     ServerOptions opts)
    : store_(store), keys_(std::move(keys)),
      engine_(std::move(ctx), params), opts_(std::move(opts)),
      max_batch_(opts_.resolvedMaxBatch()),
      metrics_(Metrics::forLabel(opts_.label)),
      worker_([this] { workerLoop(); })
{
    trinity_assert(keys_ != nullptr, "PirServer needs a keys provider");
}

PirServer::~PirServer()
{
    {
        std::lock_guard<std::mutex> lk(mtx_);
        stop_ = true;
    }
    arrived_.notify_all();
    worker_.join();
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

std::future<pir::PirResponse>
PirServer::submit(pir::PirTenantId t, pir::PirQuery query)
{
    Pending p;
    p.tenant = t;
    p.query = std::move(query);
    p.enqueuedNs = obs::detail::nowNs();
    std::future<pir::PirResponse> result = p.result.get_future();
    std::string invalid = malformedReason(engine_.params(), p.query);
    if (!invalid.empty()) {
        p.result.set_exception(std::make_exception_ptr(
            InvalidRequest("invalid PIR query: " + invalid)));
        return result;
    }
    bool rejected = false;
    {
        std::lock_guard<std::mutex> lk(mtx_);
        trinity_assert(!stop_, "submit() on a stopped PirServer");
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
            "query rejected: serving queue at maxQueue=" +
            std::to_string(opts_.maxQueue))));
        return result;
    }
    arrived_.notify_all();
    return result;
}

ServerStats
PirServer::stats() const
{
    std::lock_guard<std::mutex> lk(mtx_);
    return stats_;
}

void
PirServer::executeGroup(std::vector<Pending> &work, size_t begin,
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

    // Fault in the tenant's serving-form database and resolve its
    // uploaded keys. The shared_ptr pins the resident form for the
    // whole group, so evictions triggered by other tenants' faults
    // can't invalidate the fold's rows mid-flight. A provider that
    // does not know the tenant throws std::out_of_range: the group's
    // queries were invalid, not the server.
    std::shared_ptr<const pir::ResidentPirDb> db;
    const pir::PirQueryKeys *keys = nullptr;
    std::exception_ptr err;
    try {
        db = store_.acquire(work[begin].tenant);
        keys = &keys_(work[begin].tenant);
    } catch (const std::out_of_range &e) {
        err = std::make_exception_ptr(InvalidRequest(
            "invalid PIR query: unknown tenant " +
            std::to_string(work[begin].tenant) + " (" + e.what() + ")"));
    } catch (...) {
        err = std::current_exception();
    }
    if (err) {
        for (size_t i = begin; i < end; ++i) {
            work[i].result.set_exception(err);
        }
        return;
    }

    std::vector<pir::PirResponse> out;
    out.reserve(count);
    {
        obs::TraceSpan span("pirBatch", "runtime",
                            obs::internTraceStr(opts_.label),
                            "requests", count);
        for (size_t i = begin; i < end; ++i) {
            out.push_back(engine_.answer(*db, *keys, work[i].query));
        }
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
PirServer::workerLoop()
{
    std::unique_lock<std::mutex> lk(mtx_);
    while (true) {
        arrived_.wait(lk, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) {
            return; // stopped and fully drained
        }
        // Hold the window open until it fills or the deadline passes;
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
        // budget instead of answering it late.
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
                            "query shed: queue wait exceeded "
                            "deadlineUs=" +
                            std::to_string(opts_.deadlineUs))));
                } else {
                    kept.push_back(std::move(p));
                }
            }
            work = std::move(kept);
        }

        // One group per tenant: grouping keeps each window's database
        // faults to one acquire per tenant (stable, so a tenant's
        // queries keep arrival order).
        if (!work.empty()) {
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
        }

        lk.lock();
    }
}

} // namespace runtime
} // namespace trinity
