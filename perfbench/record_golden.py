"""Record the gate's reference values from one default-seed pass.

    python3 perfbench/record_golden.py

Writes ``perfbench/golden.json``: the stationary marginals of the ``exact``
jobs, the ``erode`` outcome and the SHA-256 digests of the Monte Carlo CSV
data rows.  Only re-record when a change to toomlab is meant to alter these
outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The absorbing chain's exact law is all-minus; power iteration stops
# 4e-6 short of it, and both answers are accepted.
ABSORBING_LAW = {"exact6b": [1.0, 0.0]}


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import gate, passrun, workloads

    golden = None
    for workload in ("torus_mc", "replica_xval", "exact_oracle"):
        jobs = workloads.jobs_for(workload, workloads.DEFAULT_SEED)
        work = os.path.join(ROOT, ".perfbench_work", f"golden-{workload}")
        shutil.rmtree(work, ignore_errors=True)
        workloads.write_inputs(work, jobs)
        cwd = os.getcwd()
        os.chdir(work)
        try:
            _wall, records = passrun.run_jobs(jobs, "out")
            golden = gate.golden_record(jobs, records, "out", golden)
        finally:
            os.chdir(cwd)
            shutil.rmtree(work, ignore_errors=True)
    for job, law in ABSORBING_LAW.items():
        golden["exact_marginals"][job].append(law)
    with open(gate.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
