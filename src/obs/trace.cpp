#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/logging.h"

namespace trinity {
namespace obs {

namespace detail {

std::atomic<bool> g_traceActive{false};

u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace detail

namespace {

/** One buffered event. `virt` events carry pre-computed µs stamps and
 *  an explicit tid; wall events use the owning buffer's thread id. */
struct TraceEvent
{
    const char *name;
    const char *cat;
    const char *track;
    char ph;         // 'X' or 'i'
    bool virt;       // virtual-time: tsUs/durUs + tid/tidName are set
    u32 tid;         // virtual only
    const char *tidName; // virtual only
    u64 tsNs;
    u64 durNs;
    double tsUs;     // virtual only
    double durUs;    // virtual only
    const char *argName;
    u64 arg;
    const char *argName2;
    u64 arg2;
};

/** Per-thread event buffer. The owning thread appends under the
 *  buffer's own mutex (uncontended except during a concurrent write),
 *  and the writer walks all registered buffers. Held by shared_ptr so
 *  a buffer outlives its thread — worker-pool threads may die before
 *  the atexit write. */
struct ThreadBuf
{
    std::mutex mtx;
    std::vector<TraceEvent> events;
    u32 tid = 0;
};

struct Collector
{
    std::mutex mtx; // guards bufs/path/next_tid/interned
    std::vector<std::shared_ptr<ThreadBuf>> bufs;
    std::string path;
    bool enabled = false; // a path was ever set (survives disable)
    u32 next_tid = 1;
    std::set<std::string> interned;
};

Collector &
collector()
{
    static Collector c;
    return c;
}

ThreadBuf &
localBuf()
{
    thread_local std::shared_ptr<ThreadBuf> buf = [] {
        auto b = std::make_shared<ThreadBuf>();
        Collector &c = collector();
        std::lock_guard<std::mutex> lock(c.mtx);
        b->tid = c.next_tid++;
        c.bufs.push_back(b);
        return b;
    }();
    return *buf;
}

void
append(TraceEvent ev)
{
    ThreadBuf &b = localBuf();
    std::lock_guard<std::mutex> lock(b.mtx);
    b.events.push_back(ev);
}

/** Minimal JSON string escaping — names here are ASCII identifiers,
 *  but a user-supplied machine name could contain anything. */
void
writeJsonStr(FILE *f, const char *s)
{
    fputc('"', f);
    for (const char *p = s; *p != '\0'; ++p) {
        unsigned char ch = static_cast<unsigned char>(*p);
        if (ch == '"' || ch == '\\') {
            fprintf(f, "\\%c", ch);
        } else if (ch < 0x20) {
            fprintf(f, "\\u%04x", ch);
        } else {
            fputc(ch, f);
        }
    }
    fputc('"', f);
}

} // namespace

void
enableTrace(const std::string &path)
{
    Collector &c = collector();
    {
        std::lock_guard<std::mutex> lock(c.mtx);
        c.path = path;
        c.enabled = true;
        for (auto &b : c.bufs) {
            std::lock_guard<std::mutex> bl(b->mtx);
            b->events.clear();
        }
    }
    detail::g_traceActive.store(true, std::memory_order_release);
}

void
disableTrace()
{
    detail::g_traceActive.store(false, std::memory_order_release);
    Collector &c = collector();
    std::lock_guard<std::mutex> lock(c.mtx);
    for (auto &b : c.bufs) {
        std::lock_guard<std::mutex> bl(b->mtx);
        b->events.clear();
    }
}

const char *
internTraceStr(const std::string &s)
{
    Collector &c = collector();
    std::lock_guard<std::mutex> lock(c.mtx);
    return c.interned.insert(s).first->c_str();
}

void
traceComplete(const char *name, const char *cat, const char *track,
              u64 startNs, u64 durNs, const char *argName, u64 arg,
              const char *argName2, u64 arg2)
{
    if (!traceActive()) {
        return;
    }
    append(TraceEvent{name, cat, track, 'X', false, 0, nullptr, startNs,
                      durNs, 0.0, 0.0, argName, arg, argName2, arg2});
}

void
traceInstant(const char *name, const char *cat, const char *track)
{
    if (!traceActive()) {
        return;
    }
    append(TraceEvent{name, cat, track, 'i', false, 0, nullptr,
                      detail::nowNs(), 0, 0.0, 0.0, nullptr, 0, nullptr,
                      0});
}

void
traceVirtualSpan(const char *name, const char *cat, const char *track,
                 u32 tid, const char *tidName, double tsUs, double durUs)
{
    if (!traceActive()) {
        return;
    }
    append(TraceEvent{name, cat, track, 'X', true, tid, tidName, 0, 0,
                      tsUs, durUs, nullptr, 0, nullptr, 0});
}

bool
writeTrace()
{
    Collector &c = collector();

    // Snapshot under the collector lock; copy each buffer out so the
    // serialization below runs without holding any hot-path mutex.
    std::string path;
    std::vector<std::pair<u32, std::vector<TraceEvent>>> snap;
    {
        std::lock_guard<std::mutex> lock(c.mtx);
        if (!c.enabled) {
            return false;
        }
        path = c.path;
        for (auto &b : c.bufs) {
            std::lock_guard<std::mutex> bl(b->mtx);
            if (!b->events.empty()) {
                snap.emplace_back(b->tid, b->events);
            }
        }
    }

    FILE *f = fopen(path.c_str(), "w");
    if (f == nullptr) {
        trinity_warn("TRINITY_TRACE: cannot open '%s' for writing",
                     path.c_str());
        return false;
    }

    // Dense pids per track *value* (two emitters with equal track text
    // share one row, whatever storage their pointers name); earliest
    // wall timestamp becomes the trace origin so timelines start near
    // zero.
    std::unordered_map<std::string, u32> pid_of;
    auto pidOf = [&](const char *track) -> u32 {
        auto it = pid_of.find(track);
        if (it != pid_of.end()) {
            return it->second;
        }
        u32 pid = static_cast<u32>(pid_of.size()) + 1;
        pid_of.emplace(track, pid);
        return pid;
    };
    u64 origin = ~u64{0};
    for (auto &[tid, events] : snap) {
        (void)tid;
        for (const TraceEvent &ev : events) {
            pidOf(ev.track);
            if (!ev.virt && ev.tsNs < origin) {
                origin = ev.tsNs;
            }
        }
    }
    if (origin == ~u64{0}) {
        origin = 0;
    }

    fputs("{\"traceEvents\":[", f);
    bool first = true;
    auto sep = [&] {
        if (!first) {
            fputs(",\n", f);
        }
        first = false;
    };

    // Metadata: process_name per track, thread_name for wall threads
    // (worker-N style from dense ids) and for virtual pool rows.
    std::set<std::pair<u32, u32>> named_tids;
    for (auto &[pid, track] : [&] {
             std::vector<std::pair<u32, const char *>> v;
             for (auto &[t, p] : pid_of) {
                 v.emplace_back(p, t.c_str());
             }
             return v;
         }()) {
        sep();
        fprintf(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                   "\"tid\":0,\"args\":{\"name\":",
                pid);
        writeJsonStr(f, track);
        fputs("}}", f);
    }
    for (auto &[tid, events] : snap) {
        for (const TraceEvent &ev : events) {
            u32 pid = pidOf(ev.track);
            u32 etid = ev.virt ? ev.tid : tid;
            if (!named_tids.insert({pid, etid}).second) {
                continue;
            }
            char namebuf[32];
            const char *tname = ev.tidName;
            if (tname == nullptr) {
                snprintf(namebuf, sizeof namebuf, "thread-%u", etid);
                tname = namebuf;
            }
            sep();
            fprintf(f,
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                    "\"tid\":%u,\"args\":{\"name\":",
                    pid, etid);
            writeJsonStr(f, tname);
            fputs("}}", f);
        }
    }

    for (auto &[tid, events] : snap) {
        for (const TraceEvent &ev : events) {
            u32 pid = pidOf(ev.track);
            sep();
            fputs("{\"name\":", f);
            writeJsonStr(f, ev.name);
            fputs(",\"cat\":", f);
            writeJsonStr(f, ev.cat);
            if (ev.virt) {
                fprintf(f,
                        ",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                        "\"ts\":%.3f,\"dur\":%.3f}",
                        pid, ev.tid, ev.tsUs, ev.durUs);
                continue;
            }
            double ts_us = static_cast<double>(ev.tsNs - origin) / 1000.0;
            if (ev.ph == 'i') {
                fprintf(f,
                        ",\"ph\":\"i\",\"s\":\"t\",\"pid\":%u,"
                        "\"tid\":%u,\"ts\":%.3f}",
                        pid, tid, ts_us);
                continue;
            }
            fprintf(f, ",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,\"ts\":%.3f,"
                       "\"dur\":%.3f",
                    pid, tid, ts_us,
                    static_cast<double>(ev.durNs) / 1000.0);
            if (ev.argName != nullptr) {
                fprintf(f, ",\"args\":{\"%s\":%llu", ev.argName,
                        static_cast<unsigned long long>(ev.arg));
                if (ev.argName2 != nullptr) {
                    fprintf(f, ",\"%s\":%llu", ev.argName2,
                            static_cast<unsigned long long>(ev.arg2));
                }
                fputc('}', f);
            }
            fputc('}', f);
        }
    }
    fputs("]}\n", f);
    fclose(f);
    return true;
}

namespace {

/** TRINITY_TRACE=<path> arms collection for the whole process and
 *  writes at exit. Registered from a static initializer so the atexit
 *  handler runs *before* static destructors tear the collector down —
 *  and after main() has joined worker pools. */
const bool g_env_trace = [] {
    const char *path = std::getenv("TRINITY_TRACE");
    if (path == nullptr || *path == '\0') {
        return false;
    }
    enableTrace(path);
    std::atexit([] {
        if (writeTrace()) {
            trinity_inform("TRINITY_TRACE: wrote %s",
                           collector().path.c_str());
        }
    });
    return true;
}();

} // namespace

} // namespace obs
} // namespace trinity
