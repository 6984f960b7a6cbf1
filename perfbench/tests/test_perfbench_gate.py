"""The correctness gate passes real artifacts and flags corrupted ones."""

import json
import os

from perfbench import gate, passrun, workloads


def _run(tmp_path, monkeypatch, jobs):
    workloads.write_inputs(str(tmp_path), jobs)
    monkeypatch.chdir(tmp_path)
    _wall, records = passrun.run_jobs(jobs, "out")
    return records


def _ctx(jobs, seed=1):
    return {"golden": gate.load_golden(), "refs": gate.references(jobs), "seed": seed}


def test_certificates_pass_and_a_corrupted_one_is_flagged(tmp_path, monkeypatch):
    jobs = workloads.jobs_for("certify_sweep", 4)[:12]
    records = _run(tmp_path, monkeypatch, jobs)
    ctx = _ctx(jobs)
    for job, rec in zip(jobs, records):
        assert gate.check_job(job, rec, os.path.join("out", job.name), ctx) == []

    job, rec = jobs[0], records[0]
    path = os.path.join("out", job.name, "certificate.json")
    with open(path) as fh:
        body = json.load(fh)
    cert = body["certificate"]
    if cert["verdict"] == "ERODER":
        num, den = cert["thresholds"][0].split("/")
        cert["thresholds"][0] = f"{int(num) + 5 * int(den)}/{den}"
    else:
        num, den = cert["witness"][0].split("/")
        cert["witness"][0] = f"{int(num) + int(den)}/{den}"
    with open(path, "w") as fh:
        json.dump(body, fh)
    assert gate.check_job(job, rec, os.path.join("out", job.name), ctx)


def test_exact_report_and_snapshot_frames_are_checked(tmp_path, monkeypatch):
    exact8 = workloads.jobs_for("replica_xval", 1)[1]
    sim = workloads.Job("sim", "simulate", {
        "rule": "nec", "noise": {"kind": "symmetric", "eps": 0.05},
        "dims": [16, 16], "steps": 4, "snapshot_every": 2, "seed": 3,
    })
    jobs = [exact8, sim]
    records = _run(tmp_path, monkeypatch, jobs)
    ctx = _ctx(jobs)
    for job, rec in zip(jobs, records):
        assert gate.check_job(job, rec, os.path.join("out", job.name), ctx) == []

    bad = dict(records[0], payload=dict(records[0]["payload"]))
    bad["payload"]["stationary_marginal"] = [0.2, 0.8]
    assert gate.check_job(exact8, bad, os.path.join("out", exact8.name), ctx)

    frame = os.path.join("out", "sim", "frame_000002.ppm")
    with open(frame, "rb") as fh:
        data = bytearray(fh.read())
    data[-1] = 0 if data[-1] else 255  # flip the last site
    data[-2] = data[-3] = data[-1]
    with open(frame, "wb") as fh:
        fh.write(bytes(data))
    assert gate.check_job(sim, records[1], os.path.join("out", "sim"), ctx)


def test_default_seed_digest_flags_a_changed_row(tmp_path):
    csv = tmp_path / "density.csv"
    csv.write_text("# config: {}\nstep,density\n0,0.0\n1,0.5\n")
    digest = gate.rows_digest(str(csv))
    csv.write_text("# config: {\"new\": 1}\nstep,density\n0,0.0\n1,0.5\n")
    assert gate.rows_digest(str(csv)) == digest  # the config line is not data
    csv.write_text("# config: {}\nstep,density\n0,0.0\n1,0.25\n")
    assert gate.rows_digest(str(csv)) != digest


def test_failed_exit_code_is_a_failure():
    job = workloads.jobs_for("exact_oracle", 0)[2]
    rec = {"code": 1, "payload": {"error": {"type": "ConfigError"}}, "error": None}
    assert gate.check_job(job, rec, "nowhere", {"golden": {}, "refs": {}, "seed": 1})
