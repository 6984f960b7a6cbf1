"""Self-time arithmetic on synthetic span trees."""

import json
import math
import os

from perfbench import spans, workloads


def _span(sid, name, bucket, parent, t0, t1, job="j", worker=0):
    return [sid, name, bucket, parent, job, worker, t0, t1]


def test_overlap_shares_split_overlap_evenly():
    assert spans.overlap_shares([(0.0, 2.0), (3.0, 4.0)]) == [2.0, 1.0]
    # [1, 2] is covered twice and split between the two
    assert spans.overlap_shares([(0.0, 2.0), (1.0, 3.0)]) == [1.5, 1.5]
    assert spans.overlap_shares([]) == []


def test_self_times_partition_the_root():
    tree = [
        _span(1, "cli.main", "cli.self_s", None, 0.0, 10.0),
        _span(2, "rules.load_rule", "rules.load_s", 1, 1.0, 4.0),
        _span(3, "engine.evolve", "engine.step_self_s", 1, 5.0, 9.0),
        # two worker threads overlapping on [6, 8]
        _span(4, "engine.step_uniforms", "engine.rng_s", 3, 5.0, 8.0, worker=1),
        _span(5, "engine.TorusStepper.local_index", "engine.gather_s", 3, 6.0, 9.0, worker=1),
    ]
    aggs = [
        [2, ["rules.check_monotone"], "rules.load_s", 40, 1.0],
        [2, ["rules.check_monotone", "rules.decode"], "rules.misc_s", 7, 0.25],
    ]
    got = spans.self_times(tree, aggs)["j"]
    assert math.isclose(got["cli.self_s"], 10.0 - 3.0 - 4.0)
    # load_rule: 3 s minus its aggregated child (1 s), plus that child's
    # own self time (1 - 0.25 s)
    assert math.isclose(got["rules.load_s"], 2.0 + 0.75)
    assert math.isclose(got["rules.misc_s"], 0.25)
    assert math.isclose(got["engine.step_self_s"], 0.0, abs_tol=1e-12)
    assert math.isclose(got["engine.rng_s"], 2.0)
    assert math.isclose(got["engine.gather_s"], 2.0)
    assert math.isclose(sum(got.values()), 10.0)


def test_layer_metrics_add_up_to_wall_with_other():
    dump = {
        "spans": [
            _span(1, "cli.main", "cli.self_s", None, 1.0, 3.0, job="exact6b"),
            _span(2, "oracle.stationary_distribution", "oracle.self_s", 1, 1.5, 2.5,
                  job="exact6b"),
        ],
        "aggs": [[2, ["oracle.ExactKernel.apply"], "oracle.apply_s", 1000, 0.5]],
        "counters": {"exact6b": {"engine.stepper_builds": 1}},
    }
    m = spans.layer_metrics(dump, wall_s=4.0, required_updates=0, untraced_wall_s=3.5)
    listed = sum(m[name][0] for name in spans.TIME_BUCKETS)
    assert math.isclose(listed + m["trace.other_s"][0], 4.0)
    assert math.isclose(m["trace.other_s"][0], 2.0)
    assert math.isclose(m["trace.overhead_s"][0], 0.5)
    assert m["oracle.apply_calls"] == (1000, "count")
    assert m["oracle.stationary_iterations"] == (1000, "count")
    assert m["oracle.apply_calls.exact6b"] == (1000, "count")
    assert math.isclose(m["oracle.apply_ms.exact6b"][0], 0.5)
    assert m["engine.stepper_builds"] == (1, "count")


def test_benchmark_json_lists_every_metric_with_its_unit():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    empty = {"spans": [], "aggs": [], "counters": {}}
    layer = spans.layer_metrics(empty, 1.0, 0, 1.0)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, (_v, unit) in layer.items()]
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
