/**
 * @file
 * The three simulation workloads: fig17_sweep, million_pages and
 * oversub_thrash (README.md in this directory says why each exists).
 *
 * Untraced runs repeat a unit of work until --seconds have passed and
 * record each unit's wall and CPU time; set-up is timed on its own,
 * before the unit's first simulated event. Traced runs do one
 * reference pass with nothing switched on, then the same cells again
 * with the trace recorder and the invariant auditor, compare the
 * two, and derive the per-layer metrics.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/experiment_engine.h"
#include "harness/results_io.h"
#include "layers.h"
#include "report.h"
#include "workload/apps.h"
#include "workload/generators.h"

namespace perfbench {

using namespace grit;

namespace {

/** The paper's reported average GRIT improvements (Fig. 17). */
const std::vector<std::pair<std::string, double>> kPaperImprovementPct = {
    {"on-touch", 60.0}, {"access-counter", 49.0}, {"duplication", 29.0}};

constexpr unsigned kSweepWorkers = 2;

/** Closed-loop seconds of the service phase in fig17's traced run. */
constexpr double kServicePhaseS = 3.0;

/**
 * Mean absolute gap, in percentage points, between GRIT's average
 * improvements over the three uniform schemes and the paper's; the
 * improvements themselves go into @p report's extras.
 */
double
paperError(const harness::ResultMatrix &matrix, Report &report)
{
    double err = 0.0;
    for (const auto &[base, paper] : kPaperImprovementPct) {
        const double pct = harness::meanImprovementPct(matrix, base, "grit");
        report.extra["grit_vs_" + base + "_pct"] = pct;
        err += std::abs(pct - paper);
    }
    return err / static_cast<double>(kPaperImprovementPct.size());
}

std::vector<harness::LabeledConfig>
fig17Lineup()
{
    using harness::PolicyKind;
    std::vector<harness::LabeledConfig> lineup;
    for (PolicyKind kind : {PolicyKind::kOnTouch, PolicyKind::kAccessCounter,
                            PolicyKind::kDuplication, PolicyKind::kGrit})
        lineup.push_back({harness::policyKindName(kind),
                          harness::makeConfig(kind, 4)});
    return lineup;
}

CellInput
appCell(workload::AppId app, const harness::LabeledConfig &labeled,
        const workload::WorkloadParams &params)
{
    CellInput cell;
    cell.row = workload::appMeta(app).abbr;
    cell.label = labeled.label;
    cell.config = labeled.config;
    cell.shell = workload::workloadShell(app, params);
    cell.generator = [app, params](workload::TraceSink &sink) {
        workload::generateTrace(app, params, sink);
    };
    return cell;
}

/** Record the per-cell checks every run makes and count the cells. */
void
checkCell(Report &report, const std::string &where,
          const harness::RunResult &result, std::uint64_t counted)
{
    ++report.attempted;
    if (result.partial)
        report.fail(where + ": partial result");
    report.check(where + ": accesses == counting pass", counted,
                 result.accesses);
}

std::string
matrixJson(const harness::ResultMatrix &matrix,
           const workload::WorkloadParams &params)
{
    std::ostringstream os;
    harness::writeResultMatrix(os, "fig17_overall",
                               "Figure 17: GRIT vs uniform schemes", params,
                               matrix);
    return os.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out << bytes;
}

/** A fig17 sweep ready to run: engine, plan and counted accesses. */
struct PreparedSweep
{
    std::map<std::string, std::uint64_t> counted;  //!< app -> accesses
    std::unique_ptr<harness::ExperimentEngine> engine;
    harness::RunPlan plan;
};

PreparedSweep
prepareSweep(const workload::WorkloadParams &params, unsigned workers,
             SpanLog &spans)
{
    SpanLog::Scope setup(spans, "harness.setup");
    PreparedSweep sweep;
    for (workload::AppId app : workload::kAllApps) {
        SpanLog::Scope count(spans, "workload.count");
        workload::CountingSink counting(params.numGpus);
        workload::generateTrace(app, params, counting);
        std::uint64_t total = 0;
        for (std::uint64_t n : counting.counts())
            total += n;
        sweep.counted[workload::appMeta(app).abbr] = total;
    }
    harness::ExperimentEngine::Options engineOptions;
    engineOptions.jobs = workers;
    sweep.engine = std::make_unique<harness::ExperimentEngine>(engineOptions);
    sweep.plan = harness::RunPlan::matrix(
        {workload::kAllApps.begin(), workload::kAllApps.end()}, fig17Lineup(),
        params);
    return sweep;
}

/** Run @p sweep, check every cell, and return the matrix. */
harness::ResultMatrix
runSweep(PreparedSweep &sweep, SpanLog &spans, Report &report)
{
    harness::SweepResult result;
    {
        SpanLog::Scope run(spans, "harness.run");
        result = sweep.engine->runResilient(sweep.plan, {});
    }
    for (const harness::FailureRecord &f : result.failures)
        report.fail(f.row + "/" + f.label + ": " + f.error.str());
    report.attempted += result.failures.size();
    for (const auto &[row, cells] : result.matrix)
        for (const auto &[label, cell] : cells)
            checkCell(report, row + "/" + label, cell, sweep.counted[row]);
    return std::move(result.matrix);
}

std::uint64_t
matrixAccesses(const harness::ResultMatrix &matrix)
{
    std::uint64_t total = 0;
    for (const auto &[row, cells] : matrix)
        for (const auto &[label, cell] : cells)
            total += cell.accesses;
    return total;
}

/**
 * Traced pass shared by all simulation workloads: each cell once with
 * nothing switched on (the reference) and once with the recorder and
 * the auditor, then the standalone stream drains.
 */
void
tracedCells(const std::vector<CellInput> &cells,
            const std::vector<CellInput> &drains, SpanLog &spans,
            Report &report,
            std::map<std::string, std::string> *referenceDigests = nullptr)
{
    LayerStats layers;
    double countS = 0.0, setupS = 0.0, runS = 0.0, tracedRunS = 0.0;
    for (const CellInput &cell : cells) {
        const std::string where = cell.row + "/" + cell.label;
        harness::RunResult reference;
        std::uint64_t counted = 0;
        {
            const auto setupStart = Clock::now();
            PreparedCell prepared = prepareCell(cell, spans);
            setupS += secondsSince(setupStart);
            countS += prepared.countS;
            counted = prepared.countedTotal;
            SpanLog::Scope run(spans, "harness.run");
            const auto start = Clock::now();
            reference = prepared.simulator->run(true);
            runS += secondsSince(start);
        }
        checkCell(report, where, reference, counted);

        auto recorder = makeRecorder(counted);
        PreparedCell prepared =
            prepareCell(cell, spans, recorder.get(), /*audit=*/true);
        harness::RunResult traced;
        {
            SpanLog::Scope run(spans, "harness.run_traced");
            const auto start = Clock::now();
            traced = prepared.simulator->run(true);
            tracedRunS += secondsSince(start);
        }
        ++report.attempted;
        if (traced.partial)
            report.fail(where + " (traced): partial result");
        report.check(where + ": traced == untraced",
                     simulatedDigest(reference), simulatedDigest(traced));
        report.check(where + ": auditor ran", std::string("yes"),
                     std::string(counterValue(traced, "audit.audits") > 0
                                     ? "yes"
                                     : "no"));
        report.check(where + ": audit violations", std::uint64_t{0},
                     counterValue(traced, "audit.violations"));
        if (referenceDigests != nullptr)
            report.check(where + ": Simulator == ExperimentEngine",
                         (*referenceDigests)[where],
                         simulatedDigest(reference));
        layers.add(*prepared.simulator, traced, *recorder);
    }
    layers.finish(report);

    std::uint64_t drained = 0;
    const auto drainStart = Clock::now();
    for (const CellInput &cell : drains)
        drained += drainStreams(cell, spans);
    const double drainS = secondsSince(drainStart);

    auto &m = report.layers;
    m["workload.count_s"] = countS;
    m["workload.generate_accesses_per_s"] =
        drainS > 0.0 ? static_cast<double>(drained) / drainS : 0.0;
    m["harness.setup_s"] = setupS;
    m["harness.run_s"] = runS;
    m["harness.trace_overhead_frac"] = runS > 0.0 ? tracedRunS / runS - 1.0
                                                  : 0.0;
    m["simcore.ns_per_event"] =
        m["simcore.events"] > 0.0 ? runS * 1e9 / m["simcore.events"] : 0.0;
}

/**
 * The untraced unit loop for workloads that run cells on their own
 * Simulator: cycle through @p cells until @p seconds have passed (each
 * cell at least once), timing set-up and run separately. At least
 * @p minSetups set-ups are timed; extra ones build the Simulator and
 * drop it unrun.
 */
void
timedCells(const std::vector<CellInput> &cells, double seconds,
           std::size_t minSetups, SpanLog &spans, Report &report)
{
    const auto windowStart = Clock::now();
    std::size_t next = 0;
    while (next < cells.size() || secondsSince(windowStart) < seconds) {
        const CellInput &cell = cells[next % cells.size()];
        ++next;
        resetPeakRss();
        const auto setupStart = Clock::now();
        PreparedCell prepared = prepareCell(cell, spans);
        report.setupS.push_back(secondsSince(setupStart));

        const double cpu0 = processCpuSeconds();
        const auto start = Clock::now();
        harness::RunResult result;
        {
            SpanLog::Scope run(spans, "harness.run");
            result = prepared.simulator->run(true);
        }
        Unit unit;
        unit.wallS = secondsSince(start);
        unit.cpuS = processCpuSeconds() - cpu0;
        unit.label = cell.row + "/" + cell.label;
        unit.accesses = result.accesses;
        unit.ops = 1;
        unit.peakRssMiB = peakRssMiB();
        report.units.push_back(unit);
        checkCell(report, unit.label, result, prepared.countedTotal);
    }
    for (std::size_t i = report.setupS.size(); i < minSetups; ++i) {
        const auto setupStart = Clock::now();
        PreparedCell prepared = prepareCell(cells[i % cells.size()], spans);
        report.setupS.push_back(secondsSince(setupStart));
    }
}

/** Set-ups timed per run at least (setup_s is their median). */
constexpr std::size_t kMinSetups = 7;

}  // namespace

void
runFig17Sweep(const Options &options, SpanLog &spans, Report &report)
{
    workload::WorkloadParams params;  // documented default scale
    params.seed = options.seed;
    const auto lineup = fig17Lineup();

    if (options.trace) {
        SpanLog::Scope root(spans, "bench.fig17_sweep");
        PreparedSweep sweep = prepareSweep(params, kSweepWorkers, spans);
        const harness::ResultMatrix matrix = runSweep(sweep, spans, report);
        const workload::TraceCache &cache = sweep.engine->traceCache();
        const auto serializeStart = Clock::now();
        {
            SpanLog::Scope serialize(spans, "harness.serialize");
            report.extra["json_bytes"] =
                static_cast<double>(matrixJson(matrix, params).size());
        }
        const double serializeS = secondsSince(serializeStart);

        std::map<std::string, std::string> engineDigests;
        for (const auto &[row, cells] : matrix)
            for (const auto &[label, cell] : cells)
                engineDigests[row + "/" + label] = simulatedDigest(cell);
        std::vector<CellInput> cells, drains;
        for (workload::AppId app : workload::kAllApps) {
            for (const auto &labeled : lineup)
                cells.push_back(appCell(app, labeled, params));
            drains.push_back(appCell(app, lineup.front(), params));
        }
        tracedCells(cells, drains, spans, report, &engineDigests);
        // The service layer is measured here too, so every layer has a
        // traced run among the gated workloads: a short service_mix.
        serveClosedLoop(options, kServicePhaseS, spans, report);

        auto &m = report.layers;
        m["workload.trace_cache_misses"] = static_cast<double>(cache.misses());
        m["workload.trace_cache_hit_rate"] =
            static_cast<double>(cache.hits()) /
            static_cast<double>(std::max<std::uint64_t>(
                cache.hits() + cache.misses(), 1));
        m["harness.serialize_s"] = serializeS;
        m["harness.paper_err_pp"] = paperError(matrix, report);
        return;
    }

    std::string firstJson;
    const auto windowStart = Clock::now();
    while (report.units.empty() ||
           secondsSince(windowStart) < options.seconds) {
        resetPeakRss();
        const auto setupStart = Clock::now();
        PreparedSweep sweep = prepareSweep(params, kSweepWorkers, spans);
        report.setupS.push_back(secondsSince(setupStart));

        const double cpu0 = processCpuSeconds();
        const auto start = Clock::now();
        const harness::ResultMatrix matrix = runSweep(sweep, spans, report);
        Unit unit;
        unit.wallS = secondsSince(start);
        unit.cpuS = processCpuSeconds() - cpu0;
        unit.label = "sweep";
        unit.accesses = matrixAccesses(matrix);
        unit.ops = sweep.plan.size();
        unit.peakRssMiB = peakRssMiB();
        report.units.push_back(unit);

        const std::string json = matrixJson(matrix, params);
        if (firstJson.empty()) {
            firstJson = json;
            report.extra["paper_err_pp"] = paperError(matrix, report);
        } else {
            report.check("sweep " + std::to_string(report.units.size()) +
                             ": JSON == first sweep's",
                         firstJson, json);
        }
    }

    // Determinism: the same sweep on one worker, outside the window.
    PreparedSweep serial = prepareSweep(params, 1, spans);
    const std::string serialJson =
        matrixJson(runSweep(serial, spans, report), params);
    const std::string w2 = options.tmpDir + "/fig17_jobs2.json";
    const std::string w1 = options.tmpDir + "/fig17_jobs1.json";
    writeFile(w2, firstJson);
    writeFile(w1, serialJson);
    report.documents["fig17 JSON, 2 workers"] = w2;
    report.documents["fig17 JSON, 1 worker"] = w1;
}

void
runMillionPages(const Options &options, SpanLog &spans, Report &report)
{
    workload::ScaleParams sp;
    sp.pages = std::uint64_t{1} << 20;
    sp.randomPerGpu = std::uint64_t{1} << 17;
    sp.sharedPerGpu = std::uint64_t{1} << 13;
    sp.seed = options.seed;

    CellInput cell;
    cell.row = "SCALE";
    cell.label = "grit";
    cell.config = harness::makeConfig(harness::PolicyKind::kGrit, sp.numGpus);
    cell.config.memoryFraction = 0.0;  // every page stays resident
    cell.shell = workload::scaleWorkloadShell(sp);
    cell.generator = [sp](workload::TraceSink &sink) {
        workload::generateScaleTrace(sp, sink);
    };

    if (options.trace) {
        SpanLog::Scope root(spans, "bench.million_pages");
        tracedCells({cell}, {cell}, spans, report);
        report.notes["workload.trace_cache_misses"] =
            "streams are generated directly; the trace cache is bypassed";
        report.notes["workload.trace_cache_hit_rate"] =
            report.notes["workload.trace_cache_misses"];
        return;
    }
    timedCells({cell}, options.seconds, kMinSetups, spans, report);
}

void
runOversubThrash(const Options &options, SpanLog &spans, Report &report)
{
    workload::WorkloadParams params;
    params.footprintDivisor = 1;  // the paper's full footprint
    params.intensity = 1.0;
    params.seed = options.seed;

    std::vector<CellInput> cells;
    using harness::PolicyKind;
    for (workload::AppId app : {workload::AppId::kBs, workload::AppId::kSt})
        for (PolicyKind kind : {PolicyKind::kOnTouch, PolicyKind::kGrit})
            cells.push_back(appCell(
                app,
                {harness::policyKindName(kind), harness::makeConfig(kind, 4)},
                params));

    if (options.trace) {
        SpanLog::Scope root(spans, "bench.oversub_thrash");
        tracedCells(cells, {cells[0], cells[2]}, spans, report);
        report.notes["workload.trace_cache_misses"] =
            "streams are generated directly; the trace cache is bypassed";
        report.notes["workload.trace_cache_hit_rate"] =
            report.notes["workload.trace_cache_misses"];
        return;
    }
    timedCells(cells, options.seconds, kMinSetups, spans, report);
}

}  // namespace perfbench
