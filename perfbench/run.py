"""toomlab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` measures every workload in turn, each report ending in
its own JSON line.
Run from the root of a source checkout (the program is imported from
``src/``).  The benchmark writes the workload's configs and rule files, then
runs passes over its jobs, each pass in a fresh interpreter, one at a time,
until S seconds are used up, to within half a pass.  Every pass is checked
by the correctness gate.  ``setup_s`` times fresh interpreters running ``import
toomlab.cli``.  With ``--trace 1`` one extra traced pass gives the per-layer
metrics.  Standard output ends with one JSON line: ``correct``, ``attempted``
and ``failed`` jobs, and the metrics (end-to-end untraced, per-layer traced).
The full record, spans included, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 2  # per slot: before the first pass and after each pass
MIN_PASSES = 2
PASS_TIMEOUT_S = 60  # a pass takes 2-15 s; a hung one must not outlive the run


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment of every child: the checkout's sources, at most nproc threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(_nproc())
    env.pop("TOOMLAB_SEED", None)  # the configs carry every seed
    return env


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def provenance(workload: str, seed: int) -> dict:
    import numpy

    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(f"{index}/size")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        commit = done.stdout.strip() or None
    lines, digest = 0, hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "toomlab", "**", "*.py"), recursive=True)):
        with open(path, "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
    return {
        "workload": workload, "seed": seed, "nproc": _nproc(), "cpu_model": model,
        "l2": caches.get("L2"), "l3": caches.get("L3"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "src_lines": lines, "src_sha256": digest.hexdigest(),
    }


def measure_setup(samples: int) -> list[float]:
    """Wall seconds for fresh interpreters to `import toomlab.cli`.

    The child is reaped with a blocking wait: ``Popen.wait(timeout)`` polls
    in 50 ms sleeps, which would quantize the measurement.  A timer kills a
    child that hangs.
    """
    env, times = child_env(), []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import toomlab.cli"], env=env,
                                cwd=ROOT, stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(20.0, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"`import toomlab.cli` exited with {code}")
    return times


def run_pass(workload: str, seed: int, threads: int, work: str, out: str,
             trace_file: str | None = None) -> dict:
    cmd = [sys.executable, "-m", "perfbench.passrun", "--workload", workload,
           "--seed", str(seed), "--threads", str(threads), "--out", out]
    if trace_file:
        cmd += ["--trace", trace_file]
    done = subprocess.run(cmd, cwd=work, env=child_env(), capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"pass process failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


class Measurement:
    """Passes over one workload's jobs in a work directory, each one gated."""

    def __init__(self, workload: str, seed: int, work: str):
        from perfbench import gate, workloads

        self.workload, self.seed, self.work = workload, seed, work
        self.threads = min(2, _nproc())
        self.jobs = workloads.jobs_for(workload, seed, self.threads)
        workloads.write_inputs(work, self.jobs)
        self.ctx = {"golden": gate.load_golden(), "refs": gate.references(self.jobs),
                    "seed": seed}
        self.passes: list[dict] = []
        self.setup: list[float] = []
        self.failures: list[str] = []
        self.failed_jobs: set[tuple[str, str]] = set()
        self.attempted = 0

    def gated_pass(self, tag: str, trace_file: str | None = None) -> dict:
        from perfbench import gate

        out = os.path.join("out", tag)
        result = run_pass(self.workload, self.seed, self.threads, self.work, out, trace_file)
        for job, record in zip(self.jobs, result["jobs"]):
            self.attempted += 1
            for msg in gate.check_job(job, record, os.path.join(self.work, out, job.name),
                                      self.ctx):
                self.failed_jobs.add((tag, job.name))
                self.failures.append(f"{tag}/{job.name}: {msg}")
        shutil.rmtree(os.path.join(self.work, out), ignore_errors=True)
        return result

    def untraced(self, seconds: float) -> None:
        """Passes until `seconds` are used up, to within half a pass.

        Set-up samples are taken before the first pass and after each one,
        so they spread over the same stretch of time.
        """
        self.setup += measure_setup(SETUP_SAMPLES)
        t_begin, durations = time.perf_counter(), []
        while True:
            t0 = time.perf_counter()
            self.passes.append(self.gated_pass(f"p{len(self.passes)}"))
            self.setup += measure_setup(SETUP_SAMPLES)
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - t_begin
            if (len(self.passes) >= MIN_PASSES
                    and elapsed + statistics.median(durations) / 2 > seconds):
                return

    def end_to_end(self) -> dict:
        """name -> (median, unit, samples, (q1, q3))."""
        walls = [p["wall_s"] for p in self.passes]
        rss = [p["peak_rss_mb"] for p in self.passes]
        return {
            "wall_s": (statistics.median(walls), "s", len(walls), _quartiles(walls)),
            "setup_s": (statistics.median(self.setup), "s", len(self.setup),
                        _quartiles(self.setup)),
            "peak_rss_mb": (statistics.median(rss), "MB", len(rss), _quartiles(rss)),
        }

    def required_updates(self) -> int:
        from perfbench import gate

        return sum(gate.required_updates(j, r) for j, r in zip(self.jobs, self.passes[0]["jobs"]))

    def derived(self, wall: float) -> dict:
        """Throughputs and the failure rate: name -> (value, unit, samples)."""
        out = {}
        required = self.required_updates()
        if required:
            out["msite_steps_per_s"] = (required / wall / 1e6, "Msite-steps/s", len(self.passes))
        checks = sum(j.command == "check" for j in self.jobs)
        if checks:
            out["certs_per_s"] = (checks / wall, "1/s", len(self.passes))
        out["ops_failed_frac"] = (len(self.failed_jobs) / self.attempted, "ratio", self.attempted)
        return out

    def traced(self, trace_file: str, untraced_wall: float) -> dict:
        """Per-layer metrics from one traced pass: name -> (value, unit)."""
        from perfbench import spans

        result = self.gated_pass("traced", trace_file)
        if not result.get("restored"):
            self.failures.append("traced: wrapped functions were not restored")
        with open(trace_file, "r", encoding="utf-8") as fh:
            dump = json.load(fh)
        return spans.layer_metrics(dump, result["wall_s"], self.required_updates(), untraced_wall)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or `all`")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "toomlab", "cli.py")):
        print(f"toomlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"unknown workload {args.workload!r}; choices: {workloads.WORKLOADS} or all",
              file=sys.stderr)
        return 2
    for name in names:
        run_workload(name, args.seed, args.seconds, args.trace)
    return 0


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> None:
    """Measure one workload and print its report, ending in the JSON line."""
    from perfbench import spans

    prov = provenance(workload, seed)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    work_root = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(work_root, f"{workload}-s{seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        run = Measurement(workload, seed, work)
        run.untraced(seconds)
        report = run.end_to_end()
        layer = {}
        if trace:
            trace_file = os.path.join(out_dir, f"{workload}-s{seed}-spans.json")
            layer = run.traced(trace_file, report["wall_s"][0])
        derived = run.derived(report["wall_s"][0])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)

    computed = spans.computed_names()
    print(f"# perfbench workload={workload} seed={seed} trace={trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit, n, (q1, q3)) in report.items():
        print(f"{name:<20} {value:>14.6g} {unit:<14} n={n} (q1 {q1:.6g}, q3 {q3:.6g})")
    for name, (value, unit, n) in derived.items():
        print(f"{name:<20} {value:>14.6g} {unit:<14} n={n}")
    for name, (value, unit) in layer.items():
        tag = " (computed)" if name in computed else ""
        print(f"  {name:<34} {value:>14.6g} {unit}{tag}")
    for msg in run.failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)

    record = {
        "provenance": prov, "trace": trace, "setup_samples_s": run.setup,
        "passes": [{"wall_s": p["wall_s"], "peak_rss_mb": p["peak_rss_mb"],
                    "jobs": [{k: j[k] for k in ("job", "code", "seconds")} for j in p["jobs"]]}
                   for p in run.passes],
        "end_to_end": {k: {"value": v[0], "unit": v[1], "n": v[2]} for k, v in report.items()},
        "derived": {k: {"value": v[0], "unit": v[1], "n": v[2]} for k, v in derived.items()},
        "per_layer": {k: {"value": v, "unit": u, "computed": k in computed}
                      for k, (v, u) in layer.items()},
        "failures": run.failures,
    }
    name = f"{workload}-s{seed}-t{trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    if trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _n, _q) in report.items()}
    print(json.dumps({
        "correct": not run.failures, "attempted": run.attempted,
        "failed": len(run.failed_jobs), "metrics": metrics,
    }), flush=True)


if __name__ == "__main__":
    sys.exit(main())
