"""One pass over a workload's jobs, in a fresh process.

Run from the work directory that holds the generated inputs:

    python -m perfbench.passrun --workload W --seed S --threads T --out DIR [--trace FILE]

Every job calls ``toomlab.cli.main(argv)`` in this process.  The pass's wall
time covers the job loop only (interpreter start-up and ``import
toomlab.cli`` are the benchmark's ``setup_s``).  With ``--trace`` the layer
functions are wrapped for the pass, restored after it, and the spans are
written to FILE.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from perfbench import workloads


def _payload(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def run_jobs(jobs, out_root: str, tracer=None) -> tuple[float, list[dict]]:
    """Run every job once through the CLI; return (wall seconds, job records)."""
    from toomlab import cli

    records = []
    t_start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(job.argv(os.path.join(out_root, job.name)))
            error = None
        except Exception:  # a crash is a failed job, not a failed pass
            code, error = None, traceback.format_exc(limit=5)
        t1 = time.perf_counter()
        records.append({
            "job": job.name, "code": code, "seconds": t1 - t0,
            "payload": _payload(buf.getvalue()), "error": error,
        })
    wall = time.perf_counter() - t_start
    if tracer is not None:
        tracer.job = None
    return wall, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.passrun")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None, help="write spans to this file")
    args = parser.parse_args(argv)

    jobs = workloads.jobs_for(args.workload, args.seed, args.threads)
    import toomlab.cli  # noqa: F401  (set-up cost, outside the timed loop)

    result = {}
    if args.trace:
        from perfbench import tracer as tracing

        tracer = tracing.install()
        try:
            wall, records = run_jobs(jobs, args.out, tracer)
        finally:
            tracer.uninstall()
        result["restored"] = tracer.restored()
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    else:
        wall, records = run_jobs(jobs, args.out)
    result.update({
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": records,
    })
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
