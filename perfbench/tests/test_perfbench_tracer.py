"""The tracer wraps the layer functions for a pass and restores them after."""

import contextlib
import io
import json

from perfbench import passrun, spans, tracer as tracing, workloads


def _attrs():
    from toomlab import certify, cli, engine, oracle

    return {
        "step_uniforms": engine.step_uniforms,
        "evolve": engine.evolve,
        "local_index": engine.TorusStepper.__dict__["local_index"],
        "stepper_init": engine.TorusStepper.__dict__["__init__"],
        "apply": oracle.ExactKernel.__dict__["apply"],
        "solve_feasibility": certify.solve_feasibility,
        "main": cli.main,
    }


def _small_jobs():
    return [
        workloads.Job("sim", "simulate", {
            "rule": "nec", "noise": {"kind": "symmetric", "eps": 0.05},
            "dims": [16, 16], "steps": 6, "snapshot_every": 3, "seed": 5,
        }, threads=2, required_updates=6 * 256),
        workloads.Job("exact", "exact", {
            "rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1},
            "dims": [4], "tol": 1e-10,
        }),
    ]


def test_wrappers_are_removed_after_a_traced_pass(tmp_path, monkeypatch):
    jobs = _small_jobs()
    workloads.write_inputs(str(tmp_path), jobs)
    monkeypatch.chdir(tmp_path)
    before = _attrs()
    tracer = tracing.install()
    try:
        wrapped = _attrs()
        assert all(wrapped[k] is not before[k] for k in before)
        _wall, records = passrun.run_jobs(jobs, "traced", tracer)
    finally:
        tracer.uninstall()
    assert [r["code"] for r in records] == [0, 0]
    assert _attrs() == before
    assert tracer.restored()

    n_spans = len(tracer.spans)
    assert n_spans > 0
    passrun.run_jobs(jobs, "untraced")
    assert len(tracer.spans) == n_spans  # nothing recorded once uninstalled

    dump = json.loads(json.dumps(tracer.dump()))
    counts = dump["counters"]["sim"]
    # 6 steps of 256 sites, twice (the snapshot path re-runs the trajectory)
    assert counts["engine.site_updates"] == 2 * 6 * 256
    assert counts["engine.rng_draws"] == 2 * 6 * 256
    assert counts["engine.stepper_builds"] == 2
    m = spans.layer_metrics(dump, wall_s=_wall, required_updates=6 * 256)
    assert m["engine.useful_update_frac"][0] == 0.5
    assert "oracle.apply_calls.exact" not in m  # only the benchmark's exact jobs
    assert m["oracle.apply_calls"][0] > 0
    assert m["oracle.stationary_iterations"][0] + m["oracle.tv_applies"][0] <= m["oracle.apply_calls"][0]


def test_traced_counts_repeat_exactly(tmp_path, monkeypatch):
    jobs = _small_jobs()
    workloads.write_inputs(str(tmp_path), jobs)
    monkeypatch.chdir(tmp_path)
    dumps = []
    for tag in ("a", "b"):
        tracer = tracing.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                passrun.run_jobs(jobs, tag, tracer)
        finally:
            tracer.uninstall()
        dumps.append(tracer.dump()["counters"])
    assert dumps[0] == dumps[1]


def test_install_twice_is_refused():
    tracer = tracing.install()
    try:
        try:
            tracer.install()
        except RuntimeError:
            pass
        else:
            raise AssertionError("second install accepted")
    finally:
        tracer.uninstall()
    assert tracer.restored()


def _leaf():
    return sum(range(50))


def _outer(n):
    return [_leaf() for _ in range(n)]


def test_hot_calls_are_aggregated_and_still_partition_the_time():
    here = __name__
    targets = [
        tracing.Target(here, "_outer", bucket="cli.self_s"),
        tracing.Target(here, "_leaf", bucket="engine.rng_s"),
    ]
    tracer = tracing.Tracer().install(targets)
    try:
        _outer(tracing.EXPLICIT_LIMIT + 44)
    finally:
        tracer.uninstall()
    assert tracer.restored()
    dump = tracer.dump()
    leaves = [s for s in dump["spans"] if s[1].endswith("._leaf")]
    assert len(leaves) == tracing.EXPLICIT_LIMIT
    assert [a[3] for a in dump["aggs"]] == [44]
    (outer,) = [s for s in dump["spans"] if s[1].endswith("._outer")]
    got = spans.self_times(dump["spans"], dump["aggs"])[""]
    assert abs(sum(got.values()) - (outer[7] - outer[6])) < 1e-9
