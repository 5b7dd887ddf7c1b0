/**
 * @file
 * The raw measurements one benchmark run hands to run.py.
 *
 * The driver only measures and records: timed units of work, set-up
 * times, operation counts, expected/actual pairs for every correctness
 * check, per-layer values and spans. run.py turns these into the
 * end-to-end and per-layer metrics and decides which checks failed, so
 * the judging rules live in one place and are unit-tested there.
 */

#ifndef GRIT_PERFBENCH_REPORT_H_
#define GRIT_PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/** What the driver was asked to run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string tmpDir;     //!< scratch directory inside the checkout
    std::string servePath;  //!< the grit_serve binary (service_mix)
};

/**
 * One timed unit of work. Units with the same label do the same work,
 * so run.py takes medians per label.
 */
struct Unit
{
    std::string label;
    double wallS = 0.0;
    double cpuS = 0.0;
    std::uint64_t accesses = 0;  //!< simulated accesses completed
    std::uint64_t ops = 0;       //!< cells run or requests answered
    double peakRssMiB = 0.0;     //!< peak RSS while the unit ran
};

/** Everything one run measured; serialized as JSON by write(). */
struct Report
{
    std::string workload;

    std::vector<double> setupS;  //!< one entry per set-up performed
    std::vector<Unit> units;

    std::uint64_t attempted = 0;  //!< operations tried
    std::uint64_t failed = 0;     //!< operations that errored or partial
    std::vector<std::string> failures;

    /** Correctness checks: run.py counts a mismatch as a failure. */
    struct Check
    {
        std::string name;
        std::string expected;
        std::string actual;
    };
    std::vector<Check> checks;

    /** Output documents run.py compares byte-for-byte and schema-checks:
     *  name -> path. */
    std::map<std::string, std::string> documents;

    /** Workload-specific results (paper_err_pp, ...). */
    std::map<std::string, double> extra;
    /** Latency samples in milliseconds (service_mix hit/miss). */
    std::map<std::string, std::vector<double>> samples;
    /** Per-layer metrics (traced runs). */
    std::map<std::string, double> layers;
    /** Why a per-layer metric is absent or approximate. */
    std::map<std::string, std::string> notes;

    std::vector<Span> spans;

    void
    fail(std::string why)
    {
        ++failed;
        failures.push_back(std::move(why));
    }

    template <typename T>
    void
    check(std::string name, const T &expected, const T &actual)
    {
        checks.push_back({std::move(name), toText(expected), toText(actual)});
    }

    void write(std::ostream &os) const;

  private:
    static std::string toText(const std::string &s) { return s; }
    static std::string toText(const char *s) { return s; }
    template <typename T>
    static std::string
    toText(const T &v)
    {
        return std::to_string(v);
    }
};

/** Workload entry points (sim_workloads.cc, service_workload.cc). */
void runFig17Sweep(const Options &options, SpanLog &spans, Report &report);
void runMillionPages(const Options &options, SpanLog &spans,
                     Report &report);
void runOversubThrash(const Options &options, SpanLog &spans,
                      Report &report);
void runServiceMix(const Options &options, SpanLog &spans, Report &report);

/**
 * The service_mix procedure with a @p seconds window: daemon start-ups
 * (setup_s), then the closed loop (one unit per one-second slice),
 * leaving the service.* per-layer values, latency samples and checks
 * in @p report.
 */
void serveClosedLoop(const Options &options, double seconds, SpanLog &spans,
                     Report &report);

}  // namespace perfbench

#endif  // GRIT_PERFBENCH_REPORT_H_
