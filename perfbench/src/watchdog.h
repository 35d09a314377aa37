/**
 * @file
 * Ends a run that stops making progress. A hang inside the library
 * (a deadlocked pool, a lost future) cannot be unwound from the
 * generator thread, so the watchdog reports from its own thread and
 * the caller's callback terminates the process.
 */

#ifndef PERFBENCH_WATCHDOG_H
#define PERFBENCH_WATCHDOG_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "spans.h"

namespace perfbench {

class Watchdog
{
  public:
    /**
     * Fires @p onFire (once, from the watchdog thread) when
     * @p lastProgressNs has not moved for @p stallNs, or when
     * @p totalNs have passed since construction. The callback gets the
     * reason; it normally prints a failed result and exits.
     */
    Watchdog(const std::atomic<uint64_t> &lastProgressNs, uint64_t stallNs,
             uint64_t totalNs, std::function<void(const std::string &)> onFire)
        : last_(lastProgressNs), stallNs_(stallNs), totalNs_(totalNs),
          startNs_(nowNs()), onFire_(std::move(onFire)),
          thread_([this] { loop(); })
    {
    }

    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mtx_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mtx_);
        while (!stop_) {
            cv_.wait_for(lock, std::chrono::milliseconds(50),
                         [this] { return stop_; });
            if (stop_) {
                return;
            }
            uint64_t now = nowNs();
            uint64_t last = last_.load(std::memory_order_relaxed);
            std::string reason;
            if (now - startNs_ > totalNs_) {
                reason = "run exceeded its time bound";
            } else if (last != 0 && now > last && now - last > stallNs_) {
                reason = "no progress within the stall bound";
            }
            if (!reason.empty()) {
                lock.unlock();
                onFire_(reason);
                return;
            }
        }
    }

    const std::atomic<uint64_t> &last_;
    const uint64_t stallNs_;
    const uint64_t totalNs_;
    const uint64_t startNs_;
    std::function<void(const std::string &)> onFire_;
    std::mutex mtx_;
    std::condition_variable cv_;
    bool stop_ = false;
    // Declared last: started after everything it reads.
    std::thread thread_;
};

} // namespace perfbench

#endif // PERFBENCH_WATCHDOG_H
