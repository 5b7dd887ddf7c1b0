#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE.jsonl]
    python3 perfbench/run.py compare BASE.jsonl CHANGE.jsonl

Run it from the root of a checkout. The first run builds the library,
the grit_serve daemon and the driver from source into .bench_build/
(RelWithDebInfo, the repository's default build type). The last line
of standard output is the result as one JSON object; the lines before
it are the same numbers for people, with units, the host fingerprint,
and in traced runs the per-layer metrics and span self times.
--record appends the run (result, extras, host fingerprint, seed) to a
JSON-lines result set; compare reads two result sets and gives each
metric's verdict. README.md in this directory describes the workloads
and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
BUILD_TYPE = "RelWithDebInfo"
# Every run must end within 180 s; the driver gets what is left of it.
RUN_BUDGET_S = 175.0
# Runnable, but not among BENCHMARK.json's workloads: its wall-time
# figures follow the host's wake-up latency (README.md, "service_mix").
EXTRA_WORKLOADS = ["service_mix"]
# Untraced runs of the single-cell workloads run this many driver
# processes at once and pool their units. On a shared host each vCPU's
# speed changes on its own for seconds to minutes, so one simulation
# thread samples one vCPU's luck; two lanes sample two at the same
# moment, as fig17_sweep's two engine workers do, and leave the other
# vCPUs for the stream producer threads (README.md, "Lanes").
LANES = {"million_pages": 2, "oversub_thrash": 2}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}", 2)
    problems = benchlib.validate_spec(spec)
    if problems:
        fail("BENCHMARK.json: " + "; ".join(problems), 2)
    return spec


def build():
    """Configure and build incrementally; the log stays in the build
    directory and its tail is shown only on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (" + " ".join(step) + ")")


def run_drivers(cmds, timeout):
    """Run the drivers at once, each in its own process group, and
    return their exit statuses (None for one that timed out). Whatever
    they leave behind (the grit_serve daemon when one dies early) is
    killed and waited for."""
    deadline = time.monotonic() + timeout
    procs, returncodes = [], []
    try:
        for cmd in cmds:
            procs.append(subprocess.Popen(cmd, start_new_session=True))
        for proc in procs:
            try:
                returncodes.append(
                    proc.wait(timeout=max(0.0, deadline - time.monotonic())))
            except subprocess.TimeoutExpired:
                returncodes.append(None)
    finally:
        for proc in procs:
            reap_deadline = time.monotonic() + 10.0
            while time.monotonic() < reap_deadline:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    break
                proc.poll()
                time.sleep(0.05)
    return returncodes


def host_fingerprint(raw, seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": raw.get("compiler", "unknown"),
        "build_type": raw.get("build_type", BUILD_TYPE),
        "git_commit": commit,
        "seed": seed,
    }


def document_checks(raw):
    """Byte identity of fig17's run JSON at 1 and 2 workers, and each
    document against the repository's results-schema checker."""
    docs = raw.get("documents", {})
    checks = []
    paths = sorted(docs.items())
    if len(paths) == 2:
        digests = []
        for _, path in paths:
            with open(path, "rb") as f:
                digests.append(hashlib.sha256(f.read()).hexdigest())
        checks.append({"name": " == ".join(n for n, _ in paths),
                       "expected": digests[0], "actual": digests[1]})
    for name, path in paths:
        out = subprocess.run([sys.executable, "scripts/check_results_schema.py",
                              path], capture_output=True, text=True)
        checks.append({"name": f"{name}: results schema",
                       "expected": "valid",
                       "actual": "valid" if out.returncode == 0 else
                       (out.stdout + out.stderr).strip()[-300:]})
    return checks


def print_human(args, spec, raw, metrics, notes, host, problems, spans):
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("host: " + json.dumps(host, sort_keys=True))
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    for name in sorted(metrics) if args.trace else [m["name"] for m in spec[section]]:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {metrics[name]:>16.6g} {units[name]}{note}")
    extra = raw.get("extra", {})
    if "paper_err_pp" in extra:
        print(f"  paper_err_pp {extra['paper_err_pp']:.4f} pp (GRIT vs "
              f"on-touch/access-counter/duplication: "
              f"{extra['grit_vs_on-touch_pct']:+.1f}% / "
              f"{extra['grit_vs_access-counter_pct']:+.1f}% / "
              f"{extra['grit_vs_duplication_pct']:+.1f}%; paper +60/+49/+29)")
    for kind, s in benchlib.service_latencies(raw).items():
        if s["n"]:
            tail = (f"p{s['tail_q']} {s['tail']:.3f} ms" if s["tail"] is not None
                    else "no tail percentile")
            print(f"  {kind} latency: p50 {s['p50']:.3f} ms, {tail} "
                  f"(n={s['n']})")
    if args.trace:
        layers = raw.get("layers", {})
        run_s = layers.get("harness.run_s", 0.0)
        if run_s:
            print("  estimated share of harness.run_s from standalone replays"
                  " (estimate: ns/op x calls, not a measurement):")
            for layer, metric in (("page_table", "mem.page_table.ns_per_lookup"),
                                  ("tlb", "mem.tlb.ns_per_lookup"),
                                  ("dram", "mem.dram.ns_per_op"),
                                  ("directory", "uvm.directory.ns_per_op"),
                                  ("pa_table", "core.pa_table.ns_per_op")):
                calls = layers.get("calls." + layer, 0)
                share = layers.get(metric, 0.0) * calls * 1e-9 / run_s
                print(f"    {layer:12s} {calls:>12.0f} calls  ~{share:6.1%}")
        if spans:
            print("  spans (name, count, total s, self s):")
            for name, (count, total, own) in sorted(
                    benchlib.self_times(spans).items()):
                print(f"    {name:24s} {count:6d} {total:10.4f} {own:10.4f}")
    for p in problems[:20]:
        print(f"  FAILED: {p}")


def run(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (one of {', '.join(workloads)})", 2)
    started = time.monotonic()
    build()

    tmp = os.path.join(BUILD_DIR, "tmp", f"run-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        lanes = 1 if args.trace else LANES.get(args.workload, 1)
        cmds, out_paths = [], []
        for lane in range(lanes):
            lane_tmp = os.path.join(tmp, f"lane{lane}")
            os.makedirs(lane_tmp)
            out_paths.append(os.path.join(lane_tmp, "raw.json"))
            cmds.append([os.path.join(BUILD_DIR, "perfbench_driver"),
                         "--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--tmp", lane_tmp,
                         "--serve", os.path.join(BUILD_DIR, "grit_serve"),
                         "--out", out_paths[-1]])
        budget = max(10.0, RUN_BUDGET_S - (time.monotonic() - started))
        for returncode in run_drivers(cmds, budget):
            if returncode is None:
                fail(f"{args.workload} did not finish within {budget:.0f} s")
            if returncode != 0:
                fail(f"driver exited with status {returncode}")
        raws = []
        for path in out_paths:
            with open(path) as f:
                raws.append(json.load(f))
        raw = benchlib.merge_lanes(raws)
        extra_checks = document_checks(raw)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed, problems = benchlib.judge(raw, extra_checks)
    if args.trace:
        metrics, notes = benchlib.per_layer(
            raw, [m["name"] for m in spec["per_layer"]])
        section = spec["per_layer"]
    else:
        values = benchlib.end_to_end(raw)
        metrics = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}
        notes = {}
        section = spec["end_to_end"]
    host = host_fingerprint(raw, args.seed)
    print_human(args, spec, raw, metrics, notes, host, problems,
                raw.get("spans", []))

    units = {m["name"]: m["unit"] for m in section}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    if args.record:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "host": host,
                  "result": result, "extra": raw.get("extra", {}),
                  "latency": benchlib.service_latencies(raw)}
        with open(args.record, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    if raw.get("spans"):
        spans_path = os.path.join(BUILD_DIR, "spans",
                                  f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        with open(spans_path, "w") as f:
            json.dump(raw["spans"], f)
        print(f"spans: {spans_path}")
    print(json.dumps(result))


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def series(records):
    """workload -> metric -> values in seed order (untraced runs), plus
    the exact extras (paper_err_pp) and service latencies."""
    out = {}
    for r in sorted(records, key=lambda r: r["seed"]):
        if r["trace"]:
            continue
        metrics = out.setdefault(r["workload"], {})
        for name, m in r["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
        if "paper_err_pp" in r.get("extra", {}):
            metrics.setdefault("paper_err_pp", []).append(r["extra"]["paper_err_pp"])
        for kind, s in r.get("latency", {}).items():
            for key, label in (("p50", "p50"), ("tail", "p99")):
                if s.get(key) is not None:
                    metrics.setdefault(f"{kind}_{label}_ms", []).append(s[key])
    return out


def compare(args):
    spec = load_spec()
    known = {m["name"]: m for m in spec["end_to_end"]}
    lower_better = {"paper_err_pp", "hit_p50_ms", "hit_p99_ms", "miss_p50_ms",
                    "miss_p99_ms"}
    base, change = (series(load_records(p)) for p in (args.base, args.change))
    hosts = {json.dumps({k: v for k, v in r["host"].items()
                         if k not in ("seed", "git_commit")}, sort_keys=True)
             for p in (args.base, args.change) for r in load_records(p)}
    if len(hosts) > 1:
        print("note: the result sets come from different hosts or builds:")
        for h in sorted(hosts):
            print("  " + h)
    print(f"{'workload':16s} {'metric':16s} {'n':>3s} "
          f"{'base q1/median/q3':>32s} {'change q1/median/q3':>32s}  verdict")
    for workload in sorted(set(base) & set(change)):
        for name in sorted(set(base[workload]) & set(change[workload])):
            b, c = base[workload][name], change[workload][name]
            m = known.get(name, {})
            better = m.get("better", "lower" if name in lower_better else "higher")
            verdict = benchlib.verdict(b, c, better, m.get("bound", 0.0))
            fmt = lambda v: "/".join(f"{x:.4g}" for x in benchlib.quartiles(v))
            print(f"{workload:16s} {name:16s} {min(len(b), len(c)):3d} "
                  f"{fmt(b):>32s} {fmt(c):>32s}  {verdict}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("change")
        compare(parser.parse_args(sys.argv[2:]))
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append this run to a JSON-lines result set")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    run(args)


if __name__ == "__main__":
    main()
