"""Correctness gate: semantic checks on every job's exit code and artifacts.

The checks hold for any seed:

* ``divergence`` at eps 0.01 classifies SEPARATED, and its CSV gap column is
  mag_plus - mag_minus on every row;
* ``simulate`` writes one density row per step, and every snapshot frame has
  exactly the minus density that the CSV reports for its step;
* ``erode`` is deterministic, so it must match the recorded outcome;
* Monte Carlo covariances agree with exact values from ``toomlab.oracle``
  within 4 standard errors (the lag-0 autocovariance 1 - m^2 carries the
  density);
* ``exact`` has a duality residual below 1e-12 and a stationary marginal
  within 1e-9 of a recorded value;
* every certificate passes ``certify.verify_certificate`` against plus sets
  computed here from the rule's seed masks, and a 1-d verdict matches the
  interval rule: hulls are disjoint iff max(min) > min(max).

For the default seed the Monte Carlo CSV data rows must also match recorded
SHA-256 digests.  JSON keys are read by name, so keys added later are ignored.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Optional

from perfbench import workloads

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

SE_TOLERANCE = 4.0
MARGINAL_TOL = 1e-9
DUALITY_TOL = 1e-12


def load_golden() -> dict:
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of an artifact CSV (config comment skipped)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def rows_digest(path: str) -> str:
    _header, rows = _csv(path)
    return hashlib.sha256("\n".join(",".join(r) for r in rows).encode()).hexdigest()


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _ppm_bits(path: str):
    """Site bits (1 = spin +1) of a P6 frame written by the CLI."""
    import numpy as np

    with open(path, "rb") as fh:
        data = fh.read()
    # header lines: magic, config comment, "w h", maxval
    fields, pos = [], 0
    while len(fields) < 3:
        end = data.index(b"\n", pos)
        line = data[pos:end]
        pos = end + 1
        if not line.startswith(b"#"):
            fields.append(line)
    w, h = (int(x) for x in fields[1].split())
    pixels = np.frombuffer(data, dtype=np.uint8, offset=pos)
    if pixels.size != 3 * w * h:
        raise ValueError(f"{path}: {pixels.size} bytes for a {w}x{h} frame")
    return (pixels[::3] == 255).astype(np.uint8)


# -- reference values ---------------------------------------------------------


def references(jobs: list[workloads.Job]) -> dict:
    """Exact covariances for every `correlate` job, from toomlab.oracle."""
    refs = {}
    for job in jobs:
        if job.command == "correlate":
            refs[job.name] = exact_covariances(job.config)
    return refs


def exact_covariances(cfg: dict) -> dict:
    """cov(w_0, w_d) and cov(w_0(t), w_0(t+k)) under the exact stationary law."""
    import numpy as np
    from toomlab import engine, oracle, rules

    rule = rules.load_rule(cfg["rule"])
    noise = engine.noise_from_json(cfg["noise"])
    dims = tuple(cfg["dims"])
    n = int(np.prod(dims))
    pi = oracle.stationary_distribution(rule, noise, dims, tol=1e-13).probs
    states = np.arange(1 << n, dtype=np.uint64)

    def spin(site: int):
        return ((states >> np.uint64(site)) & np.uint64(1)).astype(np.float64) * 2.0 - 1.0

    s0 = spin(0)
    m = float(pi @ s0)
    stride = int(np.prod(dims[1:]))  # distances run along the first axis
    spatial = {d: float(pi @ (s0 * spin(d * stride))) - m * m for d in cfg["distances"]}
    kernel = oracle.ExactKernel(rule, noise, dims)
    temporal = {}
    vec = pi * s0
    for k in range(max(cfg["lags"], default=-1) + 1):
        if k:
            vec = kernel.apply(vec)
        if k in cfg["lags"]:
            temporal[k] = float(vec @ s0) - m * m
    return {"spatial": spatial, "temporal": temporal}


# -- per-command checks -------------------------------------------------------


def _check_divergence(job, payload, code, out_dir, ctx) -> list[str]:
    bad = []
    if payload.get("classification") != "SEPARATED":
        bad.append(f"classification {payload.get('classification')!r}, expected SEPARATED")
    _header, rows = _csv(os.path.join(out_dir, "divergence.csv"))
    if len(rows) != job.config["steps"] + 1:
        bad.append(f"{len(rows)} divergence rows for {job.config['steps']} steps")
    for row in rows:
        plus, minus, gap = (float(x) for x in row[1:4])
        if gap != plus - minus or not -1.0 <= minus <= plus <= 1.0:
            bad.append(f"inconsistent divergence row {row}")
            break
    return bad


def _check_simulate(job, payload, code, out_dir, ctx) -> list[str]:
    bad = []
    _header, rows = _csv(os.path.join(out_dir, "density.csv"))
    steps = job.config["steps"]
    density = [float(r[1]) for r in rows]
    if [int(r[0]) for r in rows] != list(range(steps + 1)):
        bad.append("density.csv does not list steps 0..steps")
    if not all(0.0 <= d <= 1.0 for d in density):
        bad.append("density outside [0, 1]")
    mean = payload.get("density_mean")
    if not isinstance(mean, float) or not math.isfinite(mean):
        bad.append(f"density_mean {mean!r}")
    every = job.config.get("snapshot_every", 0)
    if every and not bad:
        for t in range(0, steps + 1, every):
            bits = _ppm_bits(os.path.join(out_dir, f"frame_{t:06d}.ppm"))
            if 1.0 - float(bits.mean()) != density[t]:
                bad.append(f"frame {t} minus density differs from density.csv")
    return bad


def _erosion_outcome(payload: dict) -> dict:
    return {
        "erased": payload.get("erased"), "steps": payload.get("steps"),
        "sizes_sha256": hashlib.sha256(json.dumps(payload.get("sizes")).encode()).hexdigest(),
    }


def _check_erode(job, payload, code, out_dir, ctx) -> list[str]:
    want = ctx["golden"]["erosion"][job.name]
    got = _erosion_outcome(payload)
    return [] if got == want else [f"erosion outcome {got} differs from recorded {want}"]


def _check_correlate(job, payload, code, out_dir, ctx) -> list[str]:
    bad = []
    ref = ctx["refs"][job.name]
    for kind, fname, keys in (
        ("spatial", "correlate_spatial.csv", job.config["distances"]),
        ("temporal", "correlate_temporal.csv", job.config["lags"]),
    ):
        _header, rows = _csv(os.path.join(out_dir, fname))
        if [int(r[0]) for r in rows] != sorted(keys):
            bad.append(f"{fname} rows {[r[0] for r in rows]}, expected {sorted(keys)}")
            continue
        for row in rows:
            x, est, se, n = int(row[0]), float(row[1]), float(row[2]), int(row[3])
            exact = ref[kind][x]
            if n != job.config["samples"] or not abs(est - exact) <= SE_TOLERANCE * se:
                bad.append(f"{kind} {x}: estimate {est} vs exact {exact} (se {se}, n {n})")
    return bad


def _check_exact(job, payload, code, out_dir, ctx) -> list[str]:
    bad = []
    resid = payload.get("duality_residual")
    if not isinstance(resid, float) or not resid < DUALITY_TOL:
        bad.append(f"duality_residual {resid!r}")
    marginal = payload.get("stationary_marginal")
    accepted = ctx["golden"]["exact_marginals"][job.name]
    if not isinstance(marginal, list) or not any(
        len(marginal) == len(want)
        and all(abs(a - b) <= MARGINAL_TOL for a, b in zip(marginal, want))
        for want in accepted
    ):
        bad.append(f"stationary_marginal {marginal} matches none of {accepted}")
    return bad


def interval_verdict(offsets: list[list[int]], sets: list[tuple[int, ...]]) -> str:
    """1-d erosion verdict: hulls are disjoint iff max(min) > min(max)."""
    los = [min(offsets[i][0] for i in z) for z in sets]
    his = [max(offsets[i][0] for i in z) for z in sets]
    return "ERODER" if max(los) > min(his) else "NON_ERODER"


def _check_check(job, payload, code, out_dir, ctx) -> list[str]:
    from toomlab import certify, rules

    bad = []
    size = len(job.rule_body["neighborhood"])
    sets = tuple(sorted(
        tuple(i for i in range(size) if (m >> i) & 1)
        for m in workloads.minimal_masks(list(job.rule_masks))
    ))
    verdict = payload.get("verdict")
    if verdict != {0: "ERODER", 2: "NON_ERODER"}.get(code):
        bad.append(f"verdict {verdict!r} with exit code {code}")
    if [tuple(z) for z in payload.get("plus_sets", [])] != list(sets):
        bad.append(f"plus_sets {payload.get('plus_sets')} differ from {sets}")
    family = rules.PlusSetFamily(
        dimension=job.rule_body["dimension"],
        offsets=tuple(tuple(u) for u in job.rule_body["neighborhood"]),
        sets=sets,
    )
    cert = certify.certificate_from_json(
        _read_json(os.path.join(out_dir, "certificate.json"))["certificate"]
    )
    if cert.verdict != verdict or not certify.verify_certificate(family, cert):
        bad.append("certificate fails verify_certificate")
    if family.dimension == 1:
        want = interval_verdict(job.rule_body["neighborhood"], list(sets))
        if verdict != want:
            bad.append(f"1-d verdict {verdict} but the interval rule says {want}")
    if verdict == "ERODER" and "bounds" not in _read_json(os.path.join(out_dir, "bounds_report.json")):
        bad.append("bounds_report.json has no bounds")
    return bad


_CHECKS = {
    "check": _check_check,
    "divergence": _check_divergence,
    "simulate": _check_simulate,
    "erode": _check_erode,
    "correlate": _check_correlate,
    "exact": _check_exact,
}

# job -> artifact CSVs whose data rows have recorded digests (default seed)
DIGESTED = {
    "div256": ("divergence.csv",),
    "sim256": ("density.csv",),
    "sim1024": ("density.csv",),
    "corr8": ("correlate_spatial.csv", "correlate_temporal.csv"),
}


def check_job(job: workloads.Job, record: dict, out_dir: str, ctx: dict) -> list[str]:
    """Failure messages for one job of one pass; empty when it passed.

    ctx holds ``golden`` (recorded values), ``refs`` (exact references) and
    ``seed``.
    """
    code, payload = record.get("code"), record.get("payload")
    if record.get("error"):
        return [f"crashed: {record['error'].strip().splitlines()[-1]}"]
    if code not in job.expect_codes:
        return [f"exit code {code}, expected one of {job.expect_codes}: {payload}"]
    if not isinstance(payload, dict) or "error" in payload:
        return [f"error payload {payload!r}"]
    from toomlab.errors import ToomlabError

    try:
        bad = _CHECKS[job.command](job, payload, code, out_dir, ctx)
        if ctx["seed"] == workloads.DEFAULT_SEED:
            digests = ctx["golden"]["csv_rows_sha256"]
            for fname in DIGESTED.get(job.name, ()):
                if rows_digest(os.path.join(out_dir, fname)) != digests[f"{job.name}/{fname}"]:
                    bad.append(f"{fname} data rows differ from the recorded digest")
    except (OSError, ValueError, KeyError, IndexError, TypeError, ToomlabError) as exc:
        bad = [f"unreadable artifact: {type(exc).__name__}: {exc}"]
    return bad


def required_updates(job: workloads.Job, record: dict) -> int:
    """Site updates the job's outputs need (erode: steps it reports x sites)."""
    if job.required_updates is not None:
        return job.required_updates
    payload = record.get("payload") or {}
    dims = job.config["dims"]
    return int(payload.get("steps", 0)) * math.prod(dims)


def golden_record(jobs: list[workloads.Job], records: list[dict], out_root: str,
                  previous: Optional[dict] = None) -> dict:
    """Recorded values from one default-seed pass, merged into `previous`."""
    golden = previous or {"exact_marginals": {}, "erosion": {}, "csv_rows_sha256": {}}
    for job, rec in zip(jobs, records):
        out_dir = os.path.join(out_root, job.name)
        payload = rec["payload"]
        if job.command == "exact":
            known = golden["exact_marginals"].setdefault(job.name, [])
            if payload["stationary_marginal"] not in known:
                known.insert(0, payload["stationary_marginal"])
        elif job.command == "erode":
            golden["erosion"][job.name] = _erosion_outcome(payload)
        for fname in DIGESTED.get(job.name, ()):
            golden["csv_rows_sha256"][f"{job.name}/{fname}"] = rows_digest(
                os.path.join(out_dir, fname))
    return golden
