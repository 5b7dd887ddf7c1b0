"""Judging rules of the repository benchmark, kept free of I/O so they
can be unit-tested (test_benchlib.py): metric names, percentiles, span
self time, correctness accounting, the end-to-end and per-layer
metrics of one run, and the compare verdicts."""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Samples a tail percentile needs beyond it before it is reported.
MIN_BEYOND = 10


def validate_spec(spec):
    """Return a list of problems with a BENCHMARK.json document."""
    problems = []
    names = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec.get(section, []):
            name = entry.get("name", "")
            if not NAME_RE.match(name):
                problems.append(f"{section}: bad name {name!r}")
            if name in names:
                problems.append(f"{section}: {name!r} used twice")
            names.add(name)
            if "unit" in entry and not UNIT_RE.match(entry["unit"]):
                problems.append(f"{name}: bad unit {entry['unit']!r}")
            if section == "end_to_end" and not 0 < entry.get("bound", 0) <= 0.25:
                problems.append(f"{name}: bound must be in (0, 0.25]")
    if not any(m.get("name") == "setup_s" for m in spec.get("end_to_end", [])):
        problems.append("end_to_end: setup_s is required")
    return problems


def tail_percentile(values, target=99):
    """The highest whole percentile <= target with at least MIN_BEYOND
    samples above its rank, as (q, value); (None, None) when even the
    median has fewer."""
    ordered = sorted(values)
    n = len(ordered)
    for q in range(target, 49, -1):
        rank = max(1, math.ceil(q / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            return q, ordered[rank - 1]
    return None, None


def latency_summary(values):
    """Median and tail percentile of a latency sample, with its count."""
    if not values:
        return {"n": 0, "p50": None, "tail_q": None, "tail": None}
    q, tail = tail_percentile(values)
    return {"n": len(values), "p50": statistics.median(values),
            "tail_q": q, "tail": tail}


def self_times(spans):
    """Per span name: (count, total seconds, self seconds). Self time is
    a span's duration minus the union of its children's intervals
    clipped to it (children on other threads may overlap)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start"], s["end"]
        covered = 0.0
        cursor = start
        kids = sorted(children.get(s["id"], []), key=lambda c: c["start"])
        for c in kids:
            lo, hi = max(c["start"], cursor), min(c["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        count, total, own = out.get(s["name"], (0, 0.0, 0.0))
        out[s["name"]] = (count + 1, total + (end - start),
                          own + (end - start) - covered)
    return out


def judge(raw, extra_checks=()):
    """Correctness of one run: (attempted, failed, problems). Every
    failed check counts as one failed operation, on top of the
    operations the driver saw error or come back partial."""
    attempted = max(int(raw.get("attempted", 0)), 1)
    failed = int(raw.get("failed", 0))
    problems = list(raw.get("failures", []))
    for check in list(raw.get("checks", [])) + list(extra_checks):
        if check["expected"] != check["actual"]:
            failed += 1
            problems.append(f"{check['name']}: expected {check['expected']!r},"
                            f" got {check['actual']!r}")
    return attempted, min(failed, attempted), problems


def merge_lanes(raws):
    """One raw result from the raw results of concurrent driver
    processes (lanes) that ran the same workload and seed: units,
    set-up times, failures and checks are pooled, counts add up."""
    merged = dict(raws[0])
    for key in ("units", "setup_s", "failures", "checks"):
        merged[key] = [x for raw in raws for x in raw.get(key, [])]
    for key in ("attempted", "failed"):
        merged[key] = sum(int(raw.get(key, 0)) for raw in raws)
    return merged


def end_to_end(raw):
    """The end-to-end metrics of an untraced run, by name. Units with
    the same label did the same work, so each label contributes its
    median wall and CPU time, and rates are totals over those medians;
    peak RSS is the largest per-label median of the units' peaks."""
    by_label = {}
    for unit in raw["units"]:
        by_label.setdefault(unit["label"], []).append(unit)
    wall = cpu = accesses = ops = rss = 0.0
    for units in by_label.values():
        wall += statistics.median(u["wall_s"] for u in units)
        cpu += statistics.median(u["cpu_s"] for u in units)
        accesses += statistics.median(u["accesses"] for u in units)
        ops += statistics.median(u["ops"] for u in units)
        rss = max(rss, statistics.median(u["peak_rss_mib"] for u in units))
    return {
        "accesses_per_s": accesses / wall if wall else 0.0,
        "requests_per_s": ops / wall if wall else 0.0,
        "cpu_s": cpu / ops if ops else 0.0,
        "setup_s": statistics.median(raw["setup_s"]) if raw["setup_s"] else 0.0,
        "peak_rss_mib": rss,
    }


def service_latencies(raw):
    """hit/miss latency summaries of a service_mix run."""
    samples = raw.get("samples", {})
    return {kind: latency_summary(samples.get(kind + "_ms", []))
            for kind in ("hit", "miss")}


def per_layer(raw, names):
    """Per-layer metrics of a traced run plus the reason each missing
    one is absent; an absent metric reads 0."""
    values = dict(raw.get("layers", {}))
    notes = dict(raw.get("notes", {}))
    for kind, summary in service_latencies(raw).items():
        if summary["n"]:
            values[f"service.{kind}_p50_ms"] = summary["p50"]
            if summary["tail"] is not None:
                values[f"service.{kind}_p99_ms"] = summary["tail"]
                if summary["tail_q"] != 99:
                    notes[f"service.{kind}_p99_ms"] = (
                        f"p{summary['tail_q']}: the highest percentile with "
                        f"{MIN_BEYOND} of {summary['n']} samples beyond it")
    metrics = {}
    for name in names:
        if name in values:
            metrics[name] = values[name]
        else:
            metrics[name] = 0
            notes.setdefault(name, "not exercised by this workload")
    return metrics, {k: v for k, v in notes.items() if k in names}


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    """Compare two series of one metric, paired run by run.

    better: the change wins at least 9 of 10 pairs (ties count for
    neither) and its median beats the parent's by more than the
    parent's interquartile range; worse: the same the other way.
    unchanged: every pair is equal (an exact, seed-determined value), or
    the medians differ by at most the bound (a share of the parent's
    median) and the parent's own spread is within it.
    unresolved: anything else, e.g. a spread wider than the bound.
    """
    pairs = list(zip(base, change))
    if not pairs:
        return "unresolved"
    if all(b == c for b, c in pairs):
        return "unchanged"
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in pairs if (c - b) * sign > 0)
    losses = sum(1 for b, c in pairs if (c - b) * sign < 0)
    b1, bmed, b3 = quartiles(base)
    cmed = statistics.median(change)
    gain = (cmed - bmed) * sign
    iqr = b3 - b1
    if wins >= 0.9 * len(pairs) and gain > iqr:
        return "better"
    if losses >= 0.9 * len(pairs) and -gain > iqr:
        return "worse"
    tolerance = bound * abs(bmed)
    if abs(gain) <= tolerance and iqr <= tolerance:
        return "unchanged"
    return "unresolved"
