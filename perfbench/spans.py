"""Self times and per-layer metrics from a traced pass.

A span's self time is its duration minus the part of it that its child spans
cover.  Children in worker threads may overlap one another; each instant of
overlap is split evenly between the children running then, and a child's
own subtree is scaled by the share it got.  With that rule the self times of
all spans and aggregate nodes, plus the time outside every span, add up to
the traced pass's wall time exactly.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Optional

# Self-time buckets in the order they are reported; with ``trace.other_s``
# they partition the traced wall time.
TIME_BUCKETS = (
    "engine.rng_s", "engine.gather_s", "engine.step_self_s", "engine.build_s",
    "engine.misc_s",
    "stats.self_s", "stats.callback_s",
    "oracle.apply_s", "oracle.dense_build_s", "oracle.self_s",
    "certify.lp_s", "certify.check_self_s", "certify.verify_s", "certify.misc_s",
    "rules.load_s", "rules.plus_sets_s", "rules.misc_s",
    "bounds.report_s", "bounds.misc_s",
    "cli.write_s", "cli.self_s",
)

# counters derived from call arguments and array sizes, with their units
COUNTS = (
    ("engine.rng_draws", "count"), ("engine.site_updates", "count"),
    ("engine.stepper_builds", "count"), ("engine.table_bytes", "B"),
    ("certify.lp_solves", "count"), ("certify.lp_cells", "count"),
    ("cli.bytes_written", "B"),
)

APPLY = "oracle.ExactKernel.apply"
STATIONARY = "oracle.stationary_distribution"
TV_CURVE = "oracle.tv_curve"

# exact jobs whose apply count and mean apply time are reported one by one
APPLY_JOBS = ("exact8", "exact12", "exact6b", "exactnec3")


def overlap_shares(intervals: list[tuple[float, float]]) -> list[float]:
    """Wall time each interval gets when overlapping stretches are split evenly."""
    events = []
    for i, (a, b) in enumerate(intervals):
        events.append((a, 1, i))
        events.append((b, 0, i))  # ends sort before starts at equal times
    events.sort()
    shares = [0.0] * len(intervals)
    active: set[int] = set()
    last = None
    for t, kind, i in events:
        if active and t > last:
            part = (t - last) / len(active)
            for j in active:
                shares[j] += part
        last = t
        if kind:
            active.add(i)
        else:
            active.discard(i)
    return shares


def self_times(spans: Iterable, aggs: Iterable) -> dict[str, dict[str, float]]:
    """job -> bucket -> self seconds, from dumped spans and aggregate nodes.

    spans: (id, name, bucket, parent, job, worker, t0, t1);
    aggs: (host span id, path of names, bucket, count, total seconds).
    """
    spans = [tuple(s) for s in spans]
    children = defaultdict(list)
    for s in spans:
        children[s[3]].append(s)
    nodes = defaultdict(list)  # host -> [(path, bucket, total)]
    child_total = defaultdict(float)  # (host, path) -> total of its aggregated children
    for host, path, bucket, _count, total in aggs:
        path = tuple(path)
        nodes[host].append((path, bucket, total))
        child_total[(host, path[:-1])] += total
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def distribute(kids: list, weight: float, todo: list) -> float:
        shares = overlap_shares([(k[6], k[7]) for k in kids])
        for kid, share in zip(kids, shares):
            dur = kid[7] - kid[6]
            todo.append((kid, weight * share / dur if dur > 0 else 0.0))
        return sum(shares)

    todo: list = []
    distribute(children[None], 1.0, todo)
    while todo:
        span, weight = todo.pop()
        sid, _name, bucket, _parent, job = span[:5]
        covered = distribute(children[sid], weight, todo)
        own = span[7] - span[6] - covered - child_total[(sid, ())]
        out[job or ""][bucket] += weight * own
        for path, node_bucket, total in nodes[sid]:
            out[job or ""][node_bucket] += weight * (total - child_total[(sid, path)])
    return {job: dict(b) for job, b in out.items()}


def apply_counts(spans: Iterable, aggs: Iterable) -> dict[str, dict[str, int]]:
    """job -> {all, stationary, tv}: ExactKernel.apply calls, by caller."""
    spans = [tuple(s) for s in spans]
    by_id = {s[0]: s for s in spans}
    out: dict[str, dict[str, int]] = defaultdict(lambda: {"all": 0, "stationary": 0, "tv": 0})

    def add(job, parent_name, n):
        c = out[job or ""]
        c["all"] += n
        if parent_name == STATIONARY:
            c["stationary"] += n
        elif parent_name == TV_CURVE:
            c["tv"] += n

    for s in spans:
        if s[1] == APPLY:
            parent = by_id.get(s[3])
            add(s[4], parent[1] if parent else None, 1)
    for host, path, _bucket, count, _total in aggs:
        if path[-1] == APPLY:
            parent = by_id[host][1] if len(path) == 1 else path[-2]
            add(by_id[host][4], parent, count)
    return {job: dict(c) for job, c in out.items()}


def layer_metrics(
    dump: dict, wall_s: float, required_updates: int,
    untraced_wall_s: Optional[float] = None,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass, as name -> (value, unit)."""
    per_job = self_times(dump["spans"], dump["aggs"])
    buckets = defaultdict(float)
    for b in per_job.values():
        for name, sec in b.items():
            buckets[name] += sec
    counts = defaultdict(int)
    for c in dump["counters"].values():
        for name, n in c.items():
            counts[name] += n
    applies = apply_counts(dump["spans"], dump["aggs"])

    m: dict[str, tuple[float, str]] = {}
    for name in TIME_BUCKETS:
        m[name] = (buckets.get(name, 0.0), "s")
    for name, unit in COUNTS:
        m[name] = (counts.get(name, 0), unit)
    done = counts.get("engine.site_updates", 0)
    m["engine.useful_update_frac"] = (required_updates / done if done else 0.0, "ratio")
    calls = sum(a["all"] for a in applies.values())
    m["oracle.apply_calls"] = (calls, "count")
    m["oracle.apply_ms"] = (1e3 * buckets.get("oracle.apply_s", 0.0) / calls if calls else 0.0, "ms")
    m["oracle.stationary_iterations"] = (sum(a["stationary"] for a in applies.values()), "count")
    m["oracle.tv_applies"] = (sum(a["tv"] for a in applies.values()), "count")
    for job in APPLY_JOBS:
        n = applies.get(job, {}).get("all", 0)
        sec = per_job.get(job, {}).get("oracle.apply_s", 0.0)
        m[f"oracle.apply_calls.{job}"] = (n, "count")
        m[f"oracle.apply_ms.{job}"] = (1e3 * sec / n if n else 0.0, "ms")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.other_s"] = (wall_s - sum(m[name][0] for name in TIME_BUCKETS), "s")
    m["trace.overhead_s"] = (
        wall_s - untraced_wall_s if untraced_wall_s is not None else 0.0, "s")
    m["trace.spans"] = (len(dump["spans"]), "count")
    m["trace.aggregated_calls"] = (sum(a[3] for a in dump["aggs"]), "count")
    return m


def computed_names() -> set[str]:
    """Metrics computed from call arguments and array sizes, which repeat exactly."""
    return {name for name, _unit in COUNTS} | {
        "engine.useful_update_frac", "oracle.apply_calls", "oracle.stationary_iterations",
        "oracle.tv_applies",
    } | {f"oracle.apply_calls.{job}" for job in APPLY_JOBS}
