/**
 * @file
 * service_mix: grit_serve --workers 2 on a socket in the run's scratch
 * directory, over a result store pre-populated with a few thousand
 * results, driven by a closed loop of two client threads (each sends
 * its next request only after the previous answer arrived).
 *
 * Three requests in four repeat a stored cell and must be store hits
 * whose result bytes equal what was stored; the fourth is a new cell
 * that the daemon executes and appends (fsync'd) to the store, after
 * which it joins the pool later hits draw from.
 * Set-up is the time from spawning the daemon to its first answered
 * ping, which covers the store's startup scrub; it is timed over
 * several daemon starts.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "harness/config.h"
#include "harness/experiment_engine.h"
#include "harness/record_frame.h"
#include "harness/run_journal.h"
#include "report.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/result_store.h"
#include "simcore/rng.h"
#include "stats/json_writer.h"
#include "workload/apps.h"

extern char **environ;

namespace perfbench {

using namespace grit;

namespace {

/** Results written into the store before the daemon starts. */
constexpr unsigned kPrepopulated = 2048;
/** Concurrent closed-loop clients (each its own connection). */
constexpr unsigned kClients = 2;
/** Daemon starts timed per run (setup_s is their median). */
constexpr unsigned kStartups = 9;
/** One request in this many is a new cell (a store miss). */
constexpr std::uint64_t kMissEvery = 4;
/**
 * The daemon's peak RSS is read once this many requests are answered:
 * its in-memory store grows with every miss, so a peak taken at the end
 * of the window would grow with throughput.
 */
constexpr std::uint64_t kRssRequests = 2000;
/**
 * The daemon's trace-cache budget. Unbounded (the default) the cache
 * keeps every trace the daemon ever generated, so its memory would
 * grow with the number of misses a run happens to serve.
 */
constexpr const char *kTraceCacheBudget = "GRIT_TRACE_CACHE_BYTES=16777216";

constexpr harness::PolicyKind kLineup[] = {
    harness::PolicyKind::kOnTouch, harness::PolicyKind::kAccessCounter,
    harness::PolicyKind::kDuplication, harness::PolicyKind::kGrit};

/** Cells per sweep the misses walk through. */
constexpr std::uint64_t kSweepCells =
    std::size(kLineup) * workload::kAllApps.size();

/**
 * Every stored and every new cell runs at this scale: a few dozen to a
 * few thousand accesses, so executing a miss stays a small share of the
 * loop. At smoke scale (divisor 128, intensity 0.2) the executions
 * dominated it and the loop's throughput swung 2.5x between runs on a
 * shared 4-vCPU host.
 */
workload::WorkloadParams
storeScale(std::uint64_t seed)
{
    workload::WorkloadParams params;
    params.footprintDivisor = 1024;
    params.intensity = 0.02;
    params.seed = seed;
    return params;
}

/** The (app, policy) pair number @p n cycles through. */
service::Request
runRequest(std::uint64_t n, const workload::WorkloadParams &params,
           const std::string &client)
{
    service::Request request;
    request.op = "run";
    request.run.client = client;
    request.run.app =
        workload::appMeta(workload::kAllApps[n % workload::kAllApps.size()])
            .abbr;
    request.run.policy = harness::policyKindName(
        kLineup[(n / workload::kAllApps.size()) % std::size(kLineup)]);
    request.run.numGpus = 4;
    request.run.params = params;
    return request;
}

std::string
hashText(const std::string &bytes)
{
    std::ostringstream os;
    os << std::hex << std::hash<std::string>{}(bytes) << " (" << std::dec
       << bytes.size() << " bytes)";
    return os.str();
}

/**
 * Build the pre-populated store: tiny cells executed in-process the way
 * the daemon executes them. Returns the request and result bytes of
 * every stored cell.
 */
std::vector<std::pair<service::Request, std::string>>
populateStore(const Options &options, const std::string &path)
{
    std::vector<service::Request> requests;
    std::vector<harness::RunCell> cells;
    harness::RunPlan plan;
    for (unsigned i = 0; i < kPrepopulated; ++i) {
        requests.push_back(runRequest(
            i, storeScale(options.seed * 1000003 + i), "prepopulate"));
        cells.push_back(service::cellFromRequest(requests.back().run));
        const harness::RunCell &cell = cells.back();
        plan.addCell(cell.row + "#" + std::to_string(i), cell.label,
                     cell.config, cell.app, cell.params);
    }
    harness::ExperimentEngine::Options engineOptions;
    engineOptions.jobs = 2;
    harness::ExperimentEngine engine(engineOptions);
    const harness::ResultMatrix matrix = engine.run(plan);

    // The store file is written in one go, in the format ResultStore
    // compaction writes (header line, then one framed record per
    // result): appending through put() would fsync once per record and
    // spend the disk's write budget before the measurement starts.
    std::ostringstream image;
    {
        stats::JsonWriter header(image);
        header.beginObject();
        header.key("schema").value(service::ResultStore::kSchemaName);
        header.key("version").value(
            std::uint64_t{service::ResultStore::kSchemaVersion});
        header.endObject();
    }
    image << '\n';
    std::vector<std::pair<service::Request, std::string>> stored;
    for (unsigned i = 0; i < kPrepopulated; ++i) {
        const harness::RunCell &cell = cells[i];
        harness::JournalEntry entry;
        entry.fingerprint = harness::runFingerprint(cell);
        entry.row = cell.row;
        entry.label = cell.label;
        entry.status = "ok";
        entry.hasResult = true;
        entry.result =
            matrix.at(cell.row + "#" + std::to_string(i)).at(cell.label);
        stored.emplace_back(requests[i], harness::journalLine(entry));
        image << harness::frameRecord(stored.back().second) << '\n';
    }
    std::ofstream(path, std::ios::binary) << image.str();
    return stored;
}

/** A grit_serve child process; stopped (SIGTERM) when destroyed. */
class Daemon
{
  public:
    Daemon(const Options &options, const std::string &socket,
           const std::string &store, const std::string &log)
        : socket_(socket)
    {
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND, 0644);
        posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                         STDERR_FILENO);
        std::vector<std::string> args = {options.servePath, "--socket",
                                         socket,            "--store",
                                         store,             "--workers",
                                         "2"};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        std::string budget = kTraceCacheBudget;
        std::vector<char *> env = {budget.data()};
        for (char **e = environ; *e != nullptr; ++e)
            if (std::string_view(*e).rfind("GRIT_TRACE_CACHE_BYTES=", 0) != 0)
                env.push_back(*e);
        env.push_back(nullptr);
        spawned_ = Clock::now();
        const int rc = posix_spawn(&pid_, options.servePath.c_str(), &actions,
                                   nullptr, argv.data(), env.data());
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0)
            throw std::runtime_error("cannot spawn " + options.servePath);
    }

    ~Daemon()
    {
        if (pid_ > 0)
            stop();
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Seconds from spawn to the first answered ping. */
    double
    waitReady()
    {
        service::Request ping;
        ping.op = "ping";
        service::Client client({socket_});
        while (true) {
            try {
                if (client.submit(ping).status == "ok")
                    return secondsSince(spawned_);
            } catch (const std::exception &) {
                // not listening yet
            }
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("grit_serve exited during start-up");
            }
            if (secondsSince(spawned_) > 60.0)
                throw std::runtime_error("grit_serve did not answer a ping");
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    /** SIGTERM (drain), wait; returns the exit status (-1 abnormal). */
    int
    stop()
    {
        if (pid_ <= 0)
            return -1;
        kill(pid_, SIGTERM);
        int status = 0;
        while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    /** User + system CPU seconds the daemon used so far. */
    double
    cpuSeconds() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
        std::string stat((std::istreambuf_iterator<char>(in)), {});
        std::istringstream fields(stat.substr(stat.rfind(')') + 2));
        std::string field;
        double ticks = 0.0;
        for (int i = 3; fields >> field && i <= 15; ++i)
            if (i >= 14)  // utime, stime
                ticks += std::stod(field);
        return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
    }

    /** The daemon's peak resident set in MiB. */
    double
    peakRssMiB() const
    {
        return perfbench::peakRssMiB(std::to_string(pid_));
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
    Clock::time_point spawned_;
};

/** What the closed loop shares between its client threads. */
struct LoopState
{
    const Daemon *daemon = nullptr;
    double peakRssMiB = 0.0;  //!< daemon peak after kRssRequests
    std::mutex mutex;
    /** Stored cells hits draw from: request and expected bytes. */
    std::vector<std::pair<service::Request, std::string>> pool;
    std::atomic<std::uint64_t> nextMiss{0};

    std::vector<double> hitMs, missMs;
    std::uint64_t requests = 0, errors = 0, hitsChecked = 0;
    std::uint64_t missAccesses = 0;
    std::vector<std::string> failures;
    std::vector<Report::Check> mismatches;
};

void
clientLoop(unsigned id, const Options &options, const std::string &socket,
           Clock::time_point end, SpanLog &spans, LoopState &state)
{
    const std::string name = "bench-" + std::to_string(id);
    SpanLog::Scope loop(spans, "service.client");
    service::Client client({socket});
    sim::Rng rng(options.seed * 7919 + id);
    for (std::uint64_t i = 0; Clock::now() < end; ++i) {
        const bool miss = i % kMissEvery == kMissEvery - 1;
        service::Request request;
        std::string expected;
        if (miss) {
            const std::uint64_t n = state.nextMiss.fetch_add(1);
            // Consecutive misses walk sweeps: every app under every
            // policy, then the next workload seed (past the stored
            // ones), so the policies of one app share its trace as in a
            // user's sweep.
            request = runRequest(
                n,
                storeScale(options.seed * 1000003 + kPrepopulated +
                           n / kSweepCells),
                name);
        } else {
            std::lock_guard<std::mutex> lock(state.mutex);
            const auto &stored = state.pool[rng.below(state.pool.size())];
            request = stored.first;
            request.run.client = name;
            expected = stored.second;
        }

        service::Response response;
        std::string error;
        const auto start = Clock::now();
        {
            SpanLog::Scope rtt(spans, miss ? "service.miss" : "service.hit",
                               (std::uint64_t{id} << 40) | (i + 1));
            try {
                response = client.submit(request);
            } catch (const std::exception &e) {
                error = e.what();
            }
        }
        const double ms = secondsSince(start) * 1e3;

        if (error.empty() && (response.status != "ok" || !response.entry))
            error = "status " + response.status +
                    (response.error ? ": " + response.error->str() : "");
        if (error.empty() && miss && (response.cached || !response.persisted))
            error = "new cell answered from the store or not persisted";
        std::lock_guard<std::mutex> lock(state.mutex);
        if (++state.requests == kRssRequests)
            state.peakRssMiB = state.daemon->peakRssMiB();
        if (!error.empty()) {
            ++state.errors;
            if (state.failures.size() < 16)
                state.failures.push_back(request.run.app + "/" +
                                         request.run.policy + ": " + error);
            continue;
        }
        const std::string bytes = harness::journalLine(*response.entry);
        if (miss) {
            state.missMs.push_back(ms);
            state.missAccesses += response.entry->result.accesses;
            state.pool.emplace_back(request, bytes);
        } else {
            state.hitMs.push_back(ms);
            ++state.hitsChecked;
            if (!response.cached || bytes != expected)
                state.mismatches.push_back(
                    {"store hit " + request.run.app + "/" +
                         request.run.policy + " seed " +
                         std::to_string(request.run.params.seed) +
                         (response.cached ? "" : " (not cached)") +
                         ": bytes == stored",
                     hashText(expected), hashText(bytes)});
        }
    }
}

}  // namespace

void
runServiceMix(const Options &options, SpanLog &spans, Report &report)
{
    SpanLog::Scope root(spans, "bench.service_mix");
    serveClosedLoop(options, options.seconds, spans, report);
}

void
serveClosedLoop(const Options &options, double seconds, SpanLog &spans,
                Report &report)
{
    const std::string socket = options.tmpDir + "/serve.sock";
    const std::string store = options.tmpDir + "/store.grit";
    const std::string log = options.tmpDir + "/grit_serve.log";

    LoopState state;
    state.pool = populateStore(options, store);
    report.extra["store_prepopulated"] = static_cast<double>(state.pool.size());

    std::unique_ptr<Daemon> daemon;
    for (unsigned i = 0; i < kStartups; ++i) {
        if (daemon)
            report.check("daemon drain exit status", 0, daemon->stop());
        daemon = std::make_unique<Daemon>(options, socket, store, log);
        SpanLog::Scope setup(spans, "service.startup");
        report.setupS.push_back(daemon->waitReady());
    }
    state.daemon = daemon.get();

    // The window is cut into one-second slices, each a unit, so the
    // medians run.py takes shrug off a stall of the shared host.
    struct Mark
    {
        Clock::time_point at;
        double cpu;
        std::uint64_t requests, accesses;
    };
    const auto mark = [&] {
        std::lock_guard<std::mutex> lock(state.mutex);
        return Mark{Clock::now(), processCpuSeconds() + daemon->cpuSeconds(),
                    state.requests, state.missAccesses};
    };
    const auto start = Clock::now();
    const auto end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    Mark last = mark();
    std::vector<std::thread> clients;
    for (unsigned id = 0; id < kClients; ++id)
        clients.emplace_back(clientLoop, id, std::cref(options),
                             std::cref(socket), end, std::ref(spans),
                             std::ref(state));
    for (auto next = start + std::chrono::seconds(1); next <= end;
         next += std::chrono::seconds(1)) {
        std::this_thread::sleep_until(next);
        const Mark now = mark();
        Unit slice;
        slice.label = "slice";
        slice.wallS = std::chrono::duration<double>(now.at - last.at).count();
        slice.cpuS = now.cpu - last.cpu;
        slice.ops = now.requests - last.requests;
        slice.accesses = now.accesses - last.accesses;
        report.units.push_back(slice);
        last = now;
    }
    for (std::thread &t : clients)
        t.join();
    if (state.peakRssMiB == 0.0)
        state.peakRssMiB = daemon->peakRssMiB();
    for (Unit &slice : report.units)
        slice.peakRssMiB = state.peakRssMiB;

    report.attempted += state.requests;
    report.failed += state.errors;
    report.failures.insert(report.failures.end(), state.failures.begin(),
                           state.failures.end());
    report.checks.insert(report.checks.end(), state.mismatches.begin(),
                         state.mismatches.end());
    report.samples["hit_ms"] = std::move(state.hitMs);
    report.samples["miss_ms"] = std::move(state.missMs);
    report.extra["hits_checked"] = static_cast<double>(state.hitsChecked);
    std::vector<double> startups = report.setupS;
    std::nth_element(startups.begin(), startups.begin() + startups.size() / 2,
                     startups.end());
    report.layers["service.startup_s"] = startups[startups.size() / 2];

    service::Request stats;
    stats.op = "stats";
    const service::Response response = service::Client({socket}).submit(stats);
    if (response.service) {
        const service::ServiceCounters &c = *response.service;
        auto &m = report.layers;
        m["service.hits"] = static_cast<double>(c.hits);
        m["service.executed"] = static_cast<double>(c.executed);
        m["service.deduped"] = static_cast<double>(c.deduped);
        m["service.rejected"] =
            static_cast<double>(c.rejectedOverload + c.rejectedDraining);
        m["service.store_scanned"] = static_cast<double>(c.storeScanned);
        m["service.requests"] = static_cast<double>(c.requests);
        report.check("store records valid at start-up",
                     static_cast<std::uint64_t>(kPrepopulated),
                     c.storeValid);
        report.check("store records quarantined at start-up",
                     std::uint64_t{0}, c.storeQuarantined);
        report.check("daemon failures", std::uint64_t{0}, c.failures);
        report.check("daemon run requests == requests sent", state.requests,
                     c.requests);
    } else {
        report.fail("stats request returned no counters");
    }
    report.check("daemon drain exit status", 0, daemon->stop());
    daemon.reset();
}

}  // namespace perfbench
