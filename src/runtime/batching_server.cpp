#include "runtime/batching_server.h"

#include "backend/registry.h"
#include "common/env.h"

namespace trinity {
namespace runtime {

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

ServerMetrics
ServerMetrics::forLabel(const std::string &label)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    return {reg.gauge(label + ".queue_depth"),
            reg.histogram(label + ".batch_size"),
            reg.histogram(label + ".queue_wait_ns"),
            reg.histogram(label + ".request_latency_ns"),
            reg.counter(label + ".requests"),
            reg.counter(label + ".batches"),
            reg.counter(label + ".rejected"),
            reg.counter(label + ".shed")};
}

} // namespace runtime
} // namespace trinity
