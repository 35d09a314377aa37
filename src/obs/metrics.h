/**
 * @file
 * Process-wide metrics: counters, gauges, and log-scale histograms
 * with percentile extraction, behind one registry.
 *
 * Design targets, in order:
 *  1. Near-zero cost when disabled — every mutation starts with one
 *     relaxed atomic load of the enabled flag and bails.
 *  2. Lock-free fast path when enabled — counters and histograms
 *     mutate relaxed atomics only; the registry mutex is touched just
 *     on first lookup of a name (call sites cache the pointer in a
 *     static) and during dump/reset.
 *  3. Bounded memory — histograms are fixed 252-bucket arrays, not
 *     sample reservoirs, so a million-request serving run costs the
 *     same 2 KiB per histogram as a ten-request smoke test.
 *
 * The histogram is HdrHistogram-shaped: values 0..7 get exact unit
 * buckets, and every power-of-two octave above that is split into 4
 * sub-buckets, bounding relative error at the bucket midpoint to
 * 12.5% across the full u64 range. Percentiles come from a cumulative
 * walk (rank = ceil(p * count)) and return the bucket midpoint.
 *
 * TRINITY_METRICS=on|off (default on) gates collection;
 * overrideMetrics() is the programmatic A/B hook.
 */

#ifndef TRINITY_OBS_METRICS_H
#define TRINITY_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bitops.h"
#include "common/types.h"

namespace trinity {
namespace obs {

namespace detail {

/** -1 = follow TRINITY_METRICS (resolved once, cached), 0/1 = forced. */
extern std::atomic<int> g_metricsMode;

bool metricsEnabledSlow();

} // namespace detail

/** True when metric mutations are being recorded. */
inline bool
metricsEnabled()
{
    int mode = detail::g_metricsMode.load(std::memory_order_relaxed);
    if (mode >= 0) {
        return mode != 0;
    }
    return detail::metricsEnabledSlow();
}

/** Force metrics on (1), off (0), or back to the environment (-1). */
void overrideMetrics(int mode);

/** Monotonic event count. */
class Counter
{
  public:
    void add(u64 n = 1)
    {
        if (metricsEnabled()) {
            value_.fetch_add(n, std::memory_order_relaxed);
        }
    }

    u64 value() const { return value_.load(std::memory_order_relaxed); }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<u64> value_{0};
};

/** Last-write-wins instantaneous level (queue depth, pool size). */
class Gauge
{
  public:
    void set(i64 v)
    {
        if (metricsEnabled()) {
            value_.store(v, std::memory_order_relaxed);
        }
    }

    i64 value() const { return value_.load(std::memory_order_relaxed); }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<i64> value_{0};
};

/** Fixed-bucket log-scale histogram; see file comment for the shape. */
class Histogram
{
  public:
    static constexpr u32 kLinear = 8;     // exact buckets for v < 8
    static constexpr u32 kSubBuckets = 4; // per octave above that
    // Octaves for exponents 1..61 cover the rest of the u64 range
    // (values >= 2^63 clamp into the last bucket).
    static constexpr u32 kBuckets = kLinear + 61 * kSubBuckets;

    /** Bucket index for @p v: exact below kLinear, then the octave of
     *  the top bit split kSubBuckets ways. */
    static u32 bucketOf(u64 v)
    {
        if (v < kLinear) {
            return static_cast<u32>(v);
        }
        u32 exp = log2Floor(v) - 2; // v in [4<<exp, 8<<exp)
        u32 sub = static_cast<u32>(v >> exp) - kSubBuckets; // 0..3
        u32 idx = kLinear + (exp - 1) * kSubBuckets + sub;
        return idx < kBuckets ? idx : kBuckets - 1;
    }

    /** Representative (midpoint) value of bucket @p idx. */
    static u64 bucketMid(u32 idx)
    {
        if (idx < kLinear) {
            return idx;
        }
        u32 exp = (idx - kLinear) / kSubBuckets + 1;
        u64 sub = kSubBuckets + (idx - kLinear) % kSubBuckets;
        u64 lo = sub << exp;
        u64 width = u64{1} << exp;
        return lo + (width - 1) / 2;
    }

    void observe(u64 v)
    {
        if (!metricsEnabled()) {
            return;
        }
        buckets_[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
    }

    u64 count() const { return count_.load(std::memory_order_relaxed); }

    u64 sum() const { return sum_.load(std::memory_order_relaxed); }

    /** Value at quantile @p p in (0, 1]; 0 when empty. Reads are
     *  relaxed — concurrent observers shift the answer by at most the
     *  in-flight updates, which is the right trade for a stats dump. */
    u64 percentile(double p) const;

    void reset();

  private:
    std::array<std::atomic<u64>, kBuckets> buckets_{};
    std::atomic<u64> count_{0};
    std::atomic<u64> sum_{0};
};

/** Point-in-time snapshot rows for dump/json. */
struct MetricRow
{
    std::string name;
    std::string kind; // "counter" | "gauge" | "histogram"
    u64 count = 0;    // counter value / histogram count
    i64 gauge = 0;
    u64 sum = 0;
    u64 p50 = 0, p99 = 0, p999 = 0;
};

/**
 * Name → metric registry. Lookups allocate on first use and return a
 * stable pointer; idiomatic call sites do
 *
 *     static obs::Counter &c =
 *         obs::MetricsRegistry::instance().counter("stream.steals");
 *     c.add();
 *
 * so the map lookup happens once per call site, not per event.
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Zero every registered metric (tests, bench phase boundaries). */
    void reset();

    /** Sorted-by-name snapshot of everything registered. */
    std::vector<MetricRow> snapshot() const;

    /** Human-readable table (histograms as count/p50/p99/p999). */
    void dump(std::FILE *out) const;

    /** Flat JSON object: counters/gauges as numbers, histograms as
     *  {count,sum,p50,p99,p999} objects. */
    std::string json() const;

  private:
    MetricsRegistry() = default;

    struct Impl;
    Impl &impl() const;
};

} // namespace obs
} // namespace trinity

#endif // TRINITY_OBS_METRICS_H
