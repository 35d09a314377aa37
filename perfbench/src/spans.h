/**
 * @file
 * The benchmark's own span recorder. Spans wrap the calls the
 * benchmark makes into the library's public functions; nothing inside
 * the library is traced. Spans stay in memory and are written out
 * once, when the run ends.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds (steady_clock). */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct Span
{
    std::string name;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root
};

/**
 * Collects spans while enabled; a disabled recorder records nothing,
 * so the same call sites run in traced and untraced mode.
 */
class SpanRecorder
{
  public:
    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Record a finished span; returns its id (0 when disabled). */
    uint64_t record(const std::string &name, uint64_t startNs,
                    uint64_t endNs, uint64_t parent = 0);

    /** Reserve an id for a span whose children finish before it. */
    uint64_t reserveId();
    /** Record a span under an id from reserveId(). */
    void recordWithId(uint64_t id, const std::string &name,
                      uint64_t startNs, uint64_t endNs, uint64_t parent);

    std::vector<Span> snapshot() const;

    /** Durations, in milliseconds, of every span named @p name. */
    std::vector<double> durationsMs(const std::string &name) const;

    /**
     * Mean, over every root span named @p rootName, of the share of the
     * root's duration that none of its direct children covers.
     * Returns -1 when no such root was recorded.
     */
    double unattributedFrac(const std::string &rootName) const;

    /** Write every span as a JSON array; false if the file fails. */
    bool writeJson(const std::string &path) const;

  private:
    bool enabled_ = false;
    mutable std::mutex mtx_;
    std::vector<Span> spans_;
    uint64_t nextId_ = 1;
};

/** RAII span around one call; nests under @p parent. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name, uint64_t parent = 0)
        : rec_(rec), name_(std::move(name)), parent_(parent),
          id_(rec.enabled() ? rec.reserveId() : 0), start_(nowNs())
    {
    }
    ~ScopedSpan()
    {
        if (id_ != 0) {
            rec_.recordWithId(id_, name_, start_, nowNs(), parent_);
        }
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return id_; }

  private:
    SpanRecorder &rec_;
    std::string name_;
    uint64_t parent_;
    uint64_t id_;
    uint64_t start_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
