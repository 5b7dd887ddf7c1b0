/**
 * @file
 * In-memory host-time spans recorded by the benchmark around its own
 * calls into each layer of the library (nothing inside src/ is timed).
 *
 * A span has a name, a start and end on the steady clock, the span that
 * was open on the same thread when it began (its parent), and a trace
 * id shared by the spans of one service request. Spans are kept in
 * memory and written out with the report when the benchmark ends; the
 * report script derives each layer's self time (span minus the part of
 * it that child spans cover). A disabled log records nothing, so the
 * untraced runs that give the end-to-end numbers pay one branch per
 * span.
 */

#ifndef GRIT_PERFBENCH_SPANS_H_
#define GRIT_PERFBENCH_SPANS_H_

#include <malloc.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** User + system CPU seconds of this process, all threads included. */
inline double
processCpuSeconds()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec +
                               usage.ru_stime.tv_usec) *
               1e-6;
}

/** Peak resident set (VmHWM) of process @p pid ("self" or a number)
 *  in MiB; 0 when /proc is unavailable. */
inline double
peakRssMiB(const std::string &pid = "self")
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    return 0.0;
}

/**
 * Hand freed heap back to the kernel, then restart this process's
 * peak-RSS mark from the resulting RSS (Linux clear_refs), so each unit
 * of work reports its own peak rather than what earlier units left in
 * the allocator.
 */
inline void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** One recorded span; times are seconds since the log was created. */
struct Span
{
    const char *name = "";  //!< static string, never owned
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  //!< 0 for a root span
    std::uint64_t trace = 0;   //!< shared by the spans of one request
    double start = 0.0;
    double end = 0.0;
};

/** Thread-safe span store; see the file comment. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}
    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    /**
     * Records one span from construction to destruction and is the
     * parent of every span opened on the same thread meanwhile.
     */
    class Scope
    {
      public:
        /** @param trace request id; 0 inherits the enclosing span's. */
        Scope(SpanLog &log, const char *name, std::uint64_t trace = 0)
        {
            if (!log.enabled_)
                return;
            log_ = &log;
            span_.name = name;
            span_.id = log.nextId_.fetch_add(1, std::memory_order_relaxed);
            span_.parent = current().id;
            span_.trace = trace != 0 ? trace : current().trace;
            span_.start = log.now();
            saved_ = current();
            current() = {span_.id, span_.trace};
        }

        ~Scope()
        {
            if (log_ == nullptr)
                return;
            span_.end = log_->now();
            current() = saved_;
            std::lock_guard<std::mutex> lock(log_->mutex_);
            log_->spans_.push_back(span_);
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log_ = nullptr;
        Span span_;
        struct Open
        {
            std::uint64_t id = 0;
            std::uint64_t trace = 0;
        } saved_;

        static Open &
        current()
        {
            thread_local Open open;
            return open;
        }
    };

    /** Copy of every finished span, in finishing order. */
    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

  private:
    double now() const { return secondsSince(origin_); }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::atomic<std::uint64_t> nextId_{1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace perfbench

#endif  // GRIT_PERFBENCH_SPANS_H_
