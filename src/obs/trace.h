/**
 * @file
 * Wall-clock tracing in Chrome trace-event format.
 *
 * The sim backend prices every kernel in virtual cycles; this layer is
 * its wall-clock counterpart for the CPU engines — who ran what, when,
 * on which worker. Spans are captured into per-thread buffers (one
 * uncontended mutex acquisition per event on the hot path, a single
 * relaxed atomic load when tracing is off) and serialized on demand —
 * or at process exit when TRINITY_TRACE=<path> is set — as Chrome
 * trace-event JSON that chrome://tracing and Perfetto open directly.
 *
 * Track layout:
 *  - one pid per *executing engine* (the `track` string, normally the
 *    engine's name(): "serial", "threads", "simd"). The sim backend's
 *    functional work shows under its inner engine's pid, since that is
 *    the engine that actually ran it.
 *  - one tid per OS thread (dense ids in first-use order), so the
 *    thread-pool's per-worker job/steal/idle spans land on separate
 *    rows of the timeline.
 *  - the sim backend additionally renders each submitted command
 *    stream's priced SchedNode schedule in *virtual time* under its
 *    own pid ("sim:<machine> (virtual)") with one tid per unit pool —
 *    a real pipelined execution and its sim-priced counterpart open
 *    side by side.
 *
 * Strings passed as `name`/`cat`/`track` must be literals (or
 * otherwise outlive the trace write); dynamic strings go through
 * internTraceStr().
 */

#ifndef TRINITY_OBS_TRACE_H
#define TRINITY_OBS_TRACE_H

#include <atomic>
#include <string>

#include "common/types.h"

namespace trinity {
namespace obs {

namespace detail {

/** Single flag the disabled fast path reads (relaxed). */
extern std::atomic<bool> g_traceActive;

/** Monotonic nanoseconds since the trace was enabled. */
u64 nowNs();

} // namespace detail

/** True while a trace is being collected. One relaxed atomic load —
 *  this is the whole cost of an un-traced TraceSpan. */
inline bool
traceActive()
{
    return detail::g_traceActive.load(std::memory_order_relaxed);
}

/**
 * Start collecting into @p path (overwrites any previous collection).
 * Resolved automatically from TRINITY_TRACE at startup; tests and
 * tools call it programmatically. The file is written by writeTrace()
 * or, if still active, at process exit.
 */
void enableTrace(const std::string &path);

/** Serialize everything collected so far to the enabled path.
 *  @return false when no trace was ever enabled. Collection continues
 *  (a later write overwrites with the longer trace). */
bool writeTrace();

/** Stop collecting and drop buffered events (tests). */
void disableTrace();

/** Intern a dynamic string for use as an event name/track/tid name. */
const char *internTraceStr(const std::string &s);

/** Append one complete ('X') wall-clock span. @p startNs from
 *  detail::nowNs(); @p argName and @p argName2 (optional) attach up
 *  to two integer args. */
void traceComplete(const char *name, const char *cat, const char *track,
                   u64 startNs, u64 durNs,
                   const char *argName = nullptr, u64 arg = 0,
                   const char *argName2 = nullptr, u64 arg2 = 0);

/** Append one instant ('i') event at the current time. */
void traceInstant(const char *name, const char *cat, const char *track);

/**
 * Append one complete span in *virtual* time (the sim schedule):
 * explicit pid row (@p track), explicit @p tid (unit-pool id) with a
 * display name, timestamps in virtual microseconds.
 */
void traceVirtualSpan(const char *name, const char *cat,
                      const char *track, u32 tid, const char *tidName,
                      double tsUs, double durUs);

/**
 * RAII wall-clock span: stamps the start on construction and appends
 * a complete event on destruction. When tracing is off the
 * constructor is one relaxed load and the destructor one branch.
 */
class TraceSpan
{
  public:
    TraceSpan(const char *name, const char *cat, const char *track,
              const char *argName = nullptr, u64 arg = 0,
              const char *argName2 = nullptr, u64 arg2 = 0)
    {
        if (traceActive()) {
            name_ = name;
            cat_ = cat;
            track_ = track;
            argName_ = argName;
            arg_ = arg;
            argName2_ = argName2;
            arg2_ = arg2;
            start_ = detail::nowNs();
        }
    }

    ~TraceSpan()
    {
        if (name_ != nullptr) {
            traceComplete(name_, cat_, track_, start_,
                          detail::nowNs() - start_, argName_, arg_,
                          argName2_, arg2_);
        }
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    const char *name_ = nullptr;
    const char *cat_ = "";
    const char *track_ = "";
    const char *argName_ = nullptr;
    u64 arg_ = 0;
    const char *argName2_ = nullptr;
    u64 arg2_ = 0;
    u64 start_ = 0;
};

} // namespace obs
} // namespace trinity

#endif // TRINITY_OBS_TRACE_H
