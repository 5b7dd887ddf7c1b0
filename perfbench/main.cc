/**
 * @file
 * perfbench_driver: runs one benchmark workload and writes the raw
 * measurements as JSON for run.py, which is the command users run.
 *
 * Usage: perfbench_driver --workload NAME --seed N --seconds S
 *                         --trace 0|1 --tmp DIR --serve PATH --out FILE
 */

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "report.h"
#include "stats/json_writer.h"

namespace perfbench {

namespace {

#ifdef __clang__
constexpr const char *kCompiler = "clang " __clang_version__;
#else
constexpr const char *kCompiler = "gcc " __VERSION__;
#endif

}  // namespace

void
Report::write(std::ostream &os) const
{
    grit::stats::JsonWriter w(os);
    w.beginObject();
    w.key("workload").value(workload);
    w.key("compiler").value(kCompiler);
    w.key("build_type").value(PERFBENCH_BUILD_TYPE);
    w.key("setup_s").beginArray();
    for (double s : setupS)
        w.value(s);
    w.endArray();
    w.key("units").beginArray();
    for (const Unit &u : units) {
        w.beginObject();
        w.key("label").value(u.label);
        w.key("wall_s").value(u.wallS);
        w.key("cpu_s").value(u.cpuS);
        w.key("accesses").value(u.accesses);
        w.key("ops").value(u.ops);
        w.key("peak_rss_mib").value(u.peakRssMiB);
        w.endObject();
    }
    w.endArray();
    w.key("attempted").value(attempted);
    w.key("failed").value(failed);
    w.key("failures").beginArray();
    for (const std::string &f : failures)
        w.value(f);
    w.endArray();
    w.key("checks").beginArray();
    for (const Check &c : checks) {
        w.beginObject();
        w.key("name").value(c.name);
        w.key("expected").value(c.expected);
        w.key("actual").value(c.actual);
        w.endObject();
    }
    w.endArray();
    w.key("documents").beginObject();
    for (const auto &[name, path] : documents)
        w.key(name).value(path);
    w.endObject();
    w.key("extra").beginObject();
    for (const auto &[name, value] : extra)
        w.key(name).value(value);
    w.endObject();
    w.key("samples").beginObject();
    for (const auto &[name, values] : samples) {
        w.key(name).beginArray();
        for (double v : values)
            w.value(v);
        w.endArray();
    }
    w.endObject();
    w.key("layers").beginObject();
    for (const auto &[name, value] : layers)
        w.key(name).value(value);
    w.endObject();
    w.key("notes").beginObject();
    for (const auto &[name, why] : notes)
        w.key(name).value(why);
    w.endObject();
    w.key("spans").beginArray();
    for (const Span &s : spans) {
        w.beginObject();
        w.key("name").value(s.name);
        w.key("id").value(s.id);
        w.key("parent").value(s.parent);
        w.key("trace").value(s.trace);
        w.key("start").value(s.start);
        w.key("end").value(s.end);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

}  // namespace perfbench

namespace {

int
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why
              << "\nusage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 --tmp DIR --serve PATH --out FILE\n";
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;

    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    if (argc % 2 == 0)
        return usage("every flag takes one value");
    for (const char *required :
         {"--workload", "--seed", "--seconds", "--trace", "--tmp", "--out"})
        if (!args.count(required))
            return usage(std::string("missing ") + required);

    Options options;
    options.workload = args["--workload"];
    options.tmpDir = args["--tmp"];
    options.servePath = args["--serve"];
    try {
        options.seed = std::stoull(args["--seed"]);
        options.seconds = std::stod(args["--seconds"]);
    } catch (const std::exception &) {
        return usage("--seed and --seconds take numbers");
    }
    options.trace = args["--trace"] == "1";

    const std::map<std::string,
                   void (*)(const Options &, SpanLog &, Report &)>
        workloads = {{"fig17_sweep", &runFig17Sweep},
                     {"million_pages", &runMillionPages},
                     {"oversub_thrash", &runOversubThrash},
                     {"service_mix", &runServiceMix}};
    const auto it = workloads.find(options.workload);
    if (it == workloads.end())
        return usage("unknown workload " + options.workload);

    SpanLog spans(options.trace);
    Report report;
    report.workload = options.workload;
    try {
        it->second(options, spans, report);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << options.workload
                  << " failed: " << e.what() << "\n";
        return 1;
    }
    report.spans = spans.spans();

    std::ofstream out(args["--out"]);
    report.write(out);
    out.close();
    if (!out) {
        std::cerr << "perfbench_driver: cannot write " << args["--out"]
                  << "\n";
        return 1;
    }
    return 0;
}
