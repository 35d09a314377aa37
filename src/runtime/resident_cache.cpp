#include "runtime/resident_cache.h"

namespace trinity {
namespace runtime {

ResidentCacheMetrics
ResidentCacheMetrics::forLabel(const std::string &label)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    return {reg.counter(label + ".hits"),
            reg.counter(label + ".misses"),
            reg.counter(label + ".evictions"),
            reg.counter(label + ".materializations"),
            reg.gauge(label + ".resident_bytes"),
            reg.histogram(label + ".materialize_ns")};
}

} // namespace runtime
} // namespace trinity
