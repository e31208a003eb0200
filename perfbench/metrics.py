"""Turns a raw run document of hadad_perfbench into the benchmark's metrics.

The C++ workload runner records latencies, correctness tallies and, in a traced run,
one span per public call plus the counters the library reports. Everything
derived from them -- percentiles, self times, ratios -- is computed here, so
the rules are in one place and unit-tested (test_perfbench.py).
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# A percentile is reported only when at least this many samples lie beyond
# it; otherwise the run is too short to resolve it.
MIN_BEYOND = 10

# End-to-end latency and throughput are medians over up to WINDOWS windows
# of at least MIN_WINDOW requests each.
WINDOWS = 5
MIN_WINDOW = 100

# The most of a traced request's wall time that no layer span may cover.
MAX_UNATTRIBUTED = 0.05

# (name, unit, better, bound): what a user of the system sees. The bound is
# the share of the parent's median by which the metric may worsen.
END_TO_END = [
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("throughput_qps", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
]

# The op kinds whose kernel time is reported, by metric suffix; the eight
# costliest in ExecStats::op_timings over the 57 LA pipelines.
KERNEL_OPS = {
    "inv": "inv",
    "exp": "exp",
    "%*%": "matmul",
    "+": "add",
    "det": "det",
    "*": "hadamard",
    "sum": "sum",
    "t": "transpose",
}

# (name, unit, better, end-to-end metric it should move, workloads it is
# measured on). The last two columns are documentation; README.md shows
# them as a table.
PER_LAYER = [
    ("trace.unattributed_ratio", "ratio", "lower", "-", "all"),
    ("trace.overhead_ratio", "ratio", "lower", "-", "all"),
    ("la.self_ms_mean", "ms", "lower", "latency_p50_ms", "all"),
    ("api.self_ms_mean", "ms", "lower", "latency_p50_ms", "all"),
    ("pacb.self_ms_mean", "ms", "lower", "latency_p50_ms", "cold_plan,mixed_rw"),
    ("exec.compile_self_ms_mean", "ms", "lower", "latency_p50_ms", "LA workloads"),
    ("exec.execute_self_ms_mean", "ms", "lower", "latency_p50_ms", "all"),
    ("la.parse_us_p50", "us", "lower", "latency_p50_ms", "mixed_rw"),
    ("api.prepare_hit_us_p50", "us", "lower", "latency_p50_ms", "mixed_rw"),
    ("api.plan_cache_hit_ratio", "ratio", "higher", "latency_p90_ms", "mixed_rw"),
    ("api.write_ms_p50.update", "ms", "lower", "throughput_qps", "mixed_rw"),
    ("api.write_ms_p50.append_batch", "ms", "lower", "throughput_qps", "mixed_rw"),
    ("pacb.rwfind_ms_p50.naive", "ms", "lower", "latency_p50_ms", "cold_plan"),
    ("pacb.rwfind_ms_mean.naive", "ms", "lower", "latency_p90_ms", "cold_plan"),
    ("pacb.rwfind_ms_p50.mnc", "ms", "lower", "latency_p50_ms", "cold_plan"),
    ("pacb.rwfind_ms_mean.mnc", "ms", "lower", "latency_p90_ms", "cold_plan"),
    ("pacb.rwfind_share", "ratio", "lower", "throughput_qps", "cold_plan,mixed_rw"),
    ("pacb.rwfind_share.opt", "ratio", "lower", "throughput_qps", "cold_plan"),
    ("pacb.improved_count", "count", "higher", "latency_p50_ms (mixed_rw guard)", "cold_plan"),
    ("pacb.gamma_ratio_geomean", "ratio", "higher", "latency_p50_ms (mixed_rw guard)", "cold_plan"),
    ("chase.rounds", "count", "lower", "latency_p90_ms", "cold_plan"),
    ("chase.tgd_applications", "count", "lower", "latency_p90_ms", "cold_plan"),
    ("chase.facts_added", "count", "lower", "latency_p90_ms", "cold_plan"),
    ("chase.merges", "count", "lower", "latency_p90_ms", "cold_plan"),
    ("chase.pruned_ratio", "ratio", "higher", "latency_p90_ms", "cold_plan"),
    ("chase.budget_exhausted", "ratio", "lower", "latency_p90_ms", "cold_plan"),
    ("cost.mnc_sketch_ms", "ms", "lower", "latency_p50_ms (MNC half)", "cold_plan"),
    ("exec.compile_ms_p50", "ms", "lower", "latency_p50_ms", "cold_plan"),
    ("exec.operator_ms_mean", "ms", "lower", "throughput_qps", "mixed_rw"),
    ("exec.critical_path_ms_mean", "ms", "lower", "latency_p50_ms", "mixed_rw"),
    ("exec.parallelism", "ratio", "higher", "throughput_qps", "mixed_rw"),
    ("exec.dispatch_overhead_ratio", "ratio", "lower", "latency_p50_ms", "mixed_rw"),
    ("exec.plan_nodes", "count", "lower", "latency_p90_ms", "mixed_rw"),
    ("exec.cse_hits", "count", "higher", "latency_p90_ms", "mixed_rw"),
    ("exec.fused_nodes", "count", "higher", "latency_p90_ms", "mixed_rw"),
    ("exec.fused_ops_eliminated", "count", "higher", "latency_p90_ms", "mixed_rw"),
    ("exec.intermediate_nnz", "count", "lower", "latency_p90_ms", "mixed_rw"),
] + [
    ("matrix.kernel_ms." + suffix, "ms", "lower", "throughput_qps", "mixed_rw")
    for suffix in KERNEL_OPS.values()
] + [
    ("server.queue_wait_ms_p50", "ms", "lower", "latency_p90_ms", "mixed_rw"),
    ("server.queue_wait_ms_p90", "ms", "lower", "latency_p90_ms", "mixed_rw"),
    ("engine.versions_peak", "count", "lower", "peak_rss_mb", "mixed_rw"),
    ("engine.pinned_peak", "count", "lower", "peak_rss_mb", "mixed_rw"),
    ("engine.retired_total", "count", "lower", "peak_rss_mb", "mixed_rw"),
    ("morpheus.exec_ms_p50", "ms", "lower", "latency_p50_ms", "factorized"),
    ("morpheus.rewrite_speedup_geomean", "ratio", "higher", "latency_p50_ms", "factorized"),
    ("morpheus.rwfind_share", "ratio", "lower", "latency_p50_ms", "factorized"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def percentile(values, q):
    """q-th percentile (0 < q < 100) of `values`.

    Raises TooFewSamples unless at least MIN_BEYOND samples lie above the
    nearest-rank percentile, so a percentile never rests on a handful of
    outliers. The value is the Harrell-Davis estimate, a Beta-weighted mean
    of the order statistics around that rank: a request mix leaves gaps
    between pipelines' latencies, and the nearest rank jumps across them.
    """
    xs = sorted(values)
    n = len(xs)
    rank = math.ceil(q / 100.0 * n)
    if rank < 1 or n - rank < MIN_BEYOND:
        raise TooFewSamples(f"p{q} of {n} samples")
    a, b = q / 100.0 * (n + 1), (1 - q / 100.0) * (n + 1)
    # Beta(a, b) density at each order statistic's bin midpoint, normalized.
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(x * w for x, w in zip(xs, weights)) / sum(weights)


def percentile_or_zero(values, q):
    """percentile(), or 0.0 when the layer saw no samples at all.

    A layer that is on the workload's path but saw too few samples still
    raises: the run is too short, and a made-up number would hide it.
    """
    return percentile(values, q) if values else 0.0


def mean_or_zero(values):
    return statistics.fmean(values) if values else 0.0


def geomean_or_zero(values):
    values = [v for v in values if v > 0]
    return statistics.geometric_mean(values) if values else 0.0


def ratio_or_zero(num, den):
    return num / den if den > 0 else 0.0


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover (overlapping children count once).

    `spans` is a list of (request, name, parent_index, start, end).
    """
    children = [[] for _ in spans]
    for i, (_, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, _, _, start, end) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][3], spans[c][4]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(max(0.0, end - start - covered))
    return out


def windows(latencies, ends, count=WINDOWS, min_size=MIN_WINDOW):
    """Splits requests, in completion order, into up to `count` windows of
    equal size (each at least `min_size` requests, so its p90 is
    reportable). Returns (latencies, seconds) per window; a window's time
    runs from the previous window's last completion to its own."""
    pairs = sorted(zip(ends, latencies))
    k = max(1, min(count, len(pairs) // min_size))
    out = []
    previous = 0.0
    for w in range(k):
        chunk = pairs[w * len(pairs) // k:(w + 1) * len(pairs) // k]
        out.append(([lat for _, lat in chunk], chunk[-1][0] - previous))
        previous = chunk[-1][0]
    return out


def end_to_end(doc):
    """Latency and throughput are medians over windows of the run, so a
    burst of load from outside the process moves one window, not the
    result."""
    ws = windows(doc["latencies"], doc["latency_ends"])

    def median_over_windows(f):
        return statistics.median(f(lat, secs) for lat, secs in ws)

    return {
        "latency_p50_ms": median_over_windows(
            lambda lat, _: percentile(lat, 50)) * 1e3,
        "latency_p90_ms": median_over_windows(
            lambda lat, _: percentile(lat, 90)) * 1e3,
        "throughput_qps": median_over_windows(lambda lat, secs: len(lat) / secs),
        "peak_rss_mb": doc["peak_rss_kib"] / 1024.0,
        "setup_s": statistics.median(doc["setup_seconds"]),
    }


def per_layer(doc):
    spans = doc["spans"]
    selfs = self_times(spans)
    requests = {r["request"]: r for r in doc["requests"]}
    n_requests = max(1, len(requests))

    by_name = {}
    self_by_name = {}
    root_total = root_self = 0.0
    for (req, name, parent, start, end), own in zip(spans, selfs):
        by_name.setdefault(name, []).append((req, end - start))
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        if parent < 0:
            root_total += end - start
            root_self += own

    def durations(name, keep=lambda r: True):
        return [d for req, d in by_name.get(name, []) if keep(requests[req])]

    m = {}
    m["trace.unattributed_ratio"] = ratio_or_zero(root_self, root_total)
    m["trace.overhead_ratio"] = ratio_or_zero(
        mean_or_zero(doc["traced_latencies"]), mean_or_zero(doc["latencies"]))
    for metric, span in [("la.self_ms_mean", "parse"),
                         ("api.self_ms_mean", "prepare"),
                         ("pacb.self_ms_mean", "rwfind"),
                         ("exec.compile_self_ms_mean", "compile"),
                         ("exec.execute_self_ms_mean", "execute")]:
        m[metric] = self_by_name.get(span, 0.0) / n_requests * 1e3

    m["la.parse_us_p50"] = percentile_or_zero(durations("parse"), 50) * 1e6
    m["api.prepare_hit_us_p50"] = percentile_or_zero(
        durations("prepare", lambda r: r["hit"]), 50) * 1e6
    m["api.plan_cache_hit_ratio"] = ratio_or_zero(
        doc["cache_hits"], doc["cache_hits"] + doc["cache_misses"])
    for kind in ("update", "append_batch"):
        writes = [s for k, s in doc["writes"] if k == kind]
        m["api.write_ms_p50." + kind] = percentile_or_zero(writes, 50) * 1e3

    reqs = list(requests.values())
    derived = [r for r in reqs if not r["hit"]]
    for est in ("naive", "mnc"):
        rw = [r["rwfind_s"] for r in derived
              if r["estimator"] == est and not r["opt_class"]]
        m["pacb.rwfind_ms_p50." + est] = percentile_or_zero(rw, 50) * 1e3
        m["pacb.rwfind_ms_mean." + est] = mean_or_zero(rw) * 1e3
    walls = {req: d for req, d in by_name.get("request", [])}
    m["pacb.rwfind_share"] = ratio_or_zero(
        sum(r["rwfind_s"] for r in reqs), sum(walls.values()))
    m["pacb.rwfind_share.opt"] = ratio_or_zero(
        sum(r["rwfind_s"] for r in reqs if r["opt_class"]),
        sum(walls[r["request"]] for r in reqs if r["opt_class"]))
    plans = {}
    for r in reqs:
        plans.setdefault((r["estimator"], r["pipeline"]), r)
    m["pacb.improved_count"] = float(sum(r["improved"] for r in plans.values()))
    m["pacb.gamma_ratio_geomean"] = geomean_or_zero(
        [r["gamma_ratio"] for r in plans.values()])

    chase = [r["chase"] for r in derived]
    for key in ("rounds", "tgd_applications", "facts_added", "merges"):
        m["chase." + key] = mean_or_zero([c[key] for c in chase])
    pruned = sum(c["pruned_applications"] for c in chase)
    m["chase.pruned_ratio"] = ratio_or_zero(
        pruned, pruned + sum(c["tgd_applications"] for c in chase))
    m["chase.budget_exhausted"] = mean_or_zero(
        [float(c["budget_exhausted"]) for c in chase])
    m["cost.mnc_sketch_ms"] = statistics.median(doc["mnc_sketch_s"]) * 1e3

    dag = [r for r in reqs if r["route"] == "dag"]
    # A derived plan's DAG is compiled on its first execution; a cached
    # plan's compiled DAG is reused, so only derived plans pay the compile.
    m["exec.compile_ms_p50"] = percentile_or_zero(
        durations("compile", lambda r: not r["hit"]), 50) * 1e3
    op_s = sum(r["exec"]["operator_s"] for r in dag)
    cp_s = sum(r["exec"]["critical_path_s"] for r in dag)
    m["exec.operator_ms_mean"] = ratio_or_zero(op_s, len(dag)) * 1e3
    m["exec.critical_path_ms_mean"] = ratio_or_zero(cp_s, len(dag)) * 1e3
    m["exec.parallelism"] = ratio_or_zero(op_s, cp_s)
    execute_wall = sum(durations("execute", lambda r: r["route"] == "dag"))
    m["exec.dispatch_overhead_ratio"] = (
        1.0 - op_s / execute_wall if execute_wall > 0 else 0.0)
    for key in ("plan_nodes", "cse_hits", "fused_nodes",
                "fused_ops_eliminated", "intermediate_nnz"):
        m["exec." + key] = mean_or_zero([r["exec"][key] for r in dag])
    for op, suffix in KERNEL_OPS.items():
        m["matrix.kernel_ms." + suffix] = ratio_or_zero(
            sum(r["exec"]["ops"].get(op, 0.0) for r in dag), len(dag)) * 1e3

    m["server.queue_wait_ms_p50"], m["server.queue_wait_ms_p90"] = (
        doc["queue_wait_ms"])
    m["engine.versions_peak"] = float(doc["versions_peak"])
    m["engine.pinned_peak"] = float(doc["pinned_peak"])
    m["engine.retired_total"] = float(doc["retired_total"])

    m["morpheus.exec_ms_p50"] = percentile_or_zero(
        durations("execute", lambda r: r["route"] == "morpheus"), 50) * 1e3
    m["morpheus.rewrite_speedup_geomean"] = geomean_or_zero(
        doc["morpheus_speedups"])
    rw, ex = doc["morpheus_rwfind_s"], doc["morpheus_exec_s"]
    m["morpheus.rwfind_share"] = ratio_or_zero(sum(rw), sum(rw) + sum(ex))
    return m


def traced_run_attributed(values):
    """The traced run's self-check: its layer spans cover all but at most
    MAX_UNATTRIBUTED of the request wall time."""
    return values["trace.unattributed_ratio"] <= MAX_UNATTRIBUTED


def result_line(doc, trace):
    """The benchmark's last output line, as a dict. A traced run that fails
    its self-check is incorrect."""
    values = per_layer(doc) if trace else end_to_end(doc)
    return {
        "correct": (doc["failed"] == 0 and doc["attempted"] > 0 and
                    (not trace or traced_run_attributed(values))),
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": float(v), "unit": UNITS[k]}
                    for k, v in values.items()},
    }
