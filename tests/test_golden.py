"""Frozen SHA-256 digests of the artifacts of small CLI runs.

The CSV and PPM digests were recorded with the gather-table engine, before
the packed stepping core replaced it, and guard byte-for-byte
reproducibility through every rewrite of the stepping code.  The two
N = 15 `correlate` digests were recorded later, with the prefix-sum replica
counts, and guard the estimators' float sums on replicas that do not fill
whole bytes.  Other JSON
reports are not digested, since reports may gain keys; their numbers are
checked by the other CLI tests.  The `check` artifacts (`certificate.json`
and `bounds_report.json`) are digested as well: they were recorded with the
`Fraction` simplex, before the integer simplex replaced it, and guard that
every certificate keeps its exact bytes.

The `check` digests and the `erode_nec_frames` frames were re-recorded once
since, when `check`, `erode` and `exact` stopped taking a seed that nothing
they compute reads: their embedded config lost its `"seed":0`, and every
other byte (certificate, bounds, pixels) stayed as it was.  No Monte Carlo
digest moved.

The `exact` reports of two chains are pinned field by field instead
(`data/exact_reports.json`): the orbit route (8 sites) and the site sweep
(12 sites).  Solver, window and counts must match exactly and every float
to 1e-12, not byte for byte, since GMRES's inner products go through BLAS,
whose summation order varies with the CPU kernel.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from toomlab import cli

from .oracles import random_rule, rule_to_json

NEC_ISLAND = [[i, j] for i in range(3, 7) for j in range(3, 7)]

CASES = {
    "simulate_nec_2d_frames": ("simulate", {
        "rule": "nec", "noise": {"kind": "symmetric", "eps": 0.08},
        "dims": [32, 32], "steps": 20, "burn_in": 5, "snapshot_every": 5, "seed": 7,
    }),
    "simulate_stavskaya_strip_biased": ("simulate", {
        "rule": "stavskaya", "noise": {"kind": "biased", "eps_plus": 0.12, "eps_minus": 0.03},
        "dims": [40], "steps": 30, "snapshot_every": 3, "seed": 11,
    }),
    "simulate_nec_table_noise": ("simulate", {
        "rule": "nec",
        "noise": {"kind": "table",
                  "p_plus": [0.02, 0.1, 0.3, 0.85, 0.05, 0.6, 0.9, 0.97]},
        "dims": [20, 24], "steps": 15, "seed": 3,
    }),
    "divergence_nec_32": ("divergence", {
        "rule": "nec", "noise": {"kind": "symmetric", "eps": 0.05},
        "dims": [32, 32], "steps": 60, "seed": 5,
    }),
    "correlate_stavskaya_8": ("correlate", {
        "rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1},
        "dims": [8], "distances": [1, 2, 3], "lags": [0, 1, 2], "samples": 700,
        "burn_in": 30, "seed": 13,
    }),
    # N = 15 replicas start off byte and word edges, and their means are
    # not dyadic, so a reordered float sum would change these bytes; the
    # stavskaya run also writes back stragglers (71 at seed 17)
    "correlate_nec_3x5": ("correlate", {
        "rule": "nec", "noise": {"kind": "symmetric", "eps": 0.1},
        "dims": [3, 5], "distances": [0, 1], "lags": [0, 1, 2, 3], "samples": 900,
        "burn_in": 30, "seed": 17,
    }),
    "correlate_stavskaya_15": ("correlate", {
        "rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.15},
        "dims": [15], "distances": [1, 2, 3, 4], "lags": [0, 1, 2, 3], "samples": 3000,
        "burn_in": 60, "seed": 17,
    }),
    "erode_nec_frames": ("erode", {
        "rule": "nec", "island": NEC_ISLAND, "dims": [30, 30], "cutoff": 10,
        "snapshot_every": 2,
    }),
}

DIGESTS = {
    "correlate_nec_3x5": {
        "correlate_spatial.csv":
            "c7d4e0bc6a9292d2eb0d496bda38b242bacef71ef6ee257478d4fdb046c10ede",
        "correlate_temporal.csv":
            "2d1614d8fd57845abe22381cf33eacc8e05e20944cbe51f98d4d19b82cf01aab",
    },
    "correlate_stavskaya_15": {
        "correlate_spatial.csv":
            "94c60a75e6ac638ecb448b1e03d8061544734b69645aaab60f77db65418bebcc",
        "correlate_temporal.csv":
            "78052ae9526956c2f256a196dbac7688ed3b952d527b1789062bd4c19440df92",
    },
    "correlate_stavskaya_8": {
        "correlate_spatial.csv":
            "dba3970045bf58bd6c3c531ca437f4464e5c6234faaf2a30e56e11308999c799",
        "correlate_temporal.csv":
            "1f038a1d99778dc526c8a908852aa5cb38aebe6afd1daba36631d34d856199af",
    },
    "divergence_nec_32": {
        "divergence.csv":
            "000f44ddbee3291557b788c0d791562344358a707693047577ad442130744c76",
    },
    "erode_nec_frames": {
        "erode_000000.ppm":
            "eace1622efd4f89c42cfc334e4c57cf67ac663db4bdd6c80cb648e55c3926136",
        "erode_000002.ppm":
            "423bba7b6586160751ea748a1238498635e43504595db60d5642a4090d2136ff",
        "erode_000004.ppm":
            "75314900e14018924caa03c1e856a851578c5ab2e8ff943e7e684c4f4d73664b",
        "erode_000006.ppm":
            "4a56d008d74dd4106d6f0e91735bf8079d22732f2289845bad7ee05bb5c7f9f9",
    },
    "simulate_nec_2d_frames": {
        "density.csv":
            "bd2a8485260ab62c6237fcc098c07dc999fb5b9cf8221d4fb7284edaefbb5052",
        "frame_000000.ppm":
            "ee1457fce26ef8b89a6ca35404b9a933e1c30105763c671da2f7c90dbc538c00",
        "frame_000005.ppm":
            "beeda4d482e54e1d9a27f6ffb02a1e5bdab9af86a0a42486b04bf554d3d71116",
        "frame_000010.ppm":
            "56cae2df3b74a224d6e49fc69099f3e6d5c0162c3c7e3cf47ce4175f9c74be1e",
        "frame_000015.ppm":
            "e59c83ce84bc4c5cc771a498411e0a151a2d220d3d61189a343aea67d271fb62",
        "frame_000020.ppm":
            "c5a3dad8e44784b14ecfa0683b559dc74d76267ae14e9c9924053c55a762e44b",
    },
    "simulate_nec_table_noise": {
        "density.csv":
            "581fd13ec6a5b99a5c6d88fdba473531fb063f49dce426fc73cf0048ff6effd7",
    },
    "simulate_stavskaya_strip_biased": {
        "density.csv":
            "212fd828da1d1cc30dc61aebd5295013c38e519ed006b25c983bf7641040f40f",
        "strip.ppm":
            "74a189156bebaf1c8d64381139857c6ba8cdb48c0b42de8c3f9aeca15891c06e",
    },
}


def artifact_digests(tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.suffix in (".csv", ".ppm")
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_frozen_digests(tmp_path, case, capsys):
    command, config = CASES[case]
    assert artifact_digests(tmp_path, command, config) == DIGESTS[case]


# check runs: (config, rule file body or None for a builtin rule).  The rule
# file is written to the working directory, so the embedded config is the
# same on every run.
CHECK_CASES = {
    "check_nec": ({"rule": "nec", "eps": 0.001}, None),
    "check_stavskaya": ({"rule": "stavskaya", "eps": 0.002, "alpha": 0.01}, None),
    # 1-d majority over {-1, 0, 1}: every pair of hulls meets at 0
    "check_majority_1d": (
        {"rule": "majority_1d.json"},
        {"dimension": 1, "neighborhood": [[-1], [0], [1]], "table": "e8"},
    ),
    # d = 3, R = 7, three plus sets separated by three functionals
    "check_random_3d": (
        {"rule": "random_3d.json", "eps": 0.0001},
        rule_to_json(random_rule(random.Random(195))),
    ),
}

CHECK_DIGESTS = {
    "check_majority_1d": {
        "certificate.json":
            "2c56a1b6f295ba7e9e6503f605d3d6e1bcfb1b59affbde40c3c03d7834e10fca",
    },
    "check_nec": {
        "bounds_report.json":
            "48c703f37a4d519a0192926d53ef2b37451ac0bf254cad92ee502b2be44ff8a9",
        "certificate.json":
            "ae015d8d78409952d0c423997cf86d3a86252483700160081002c46b6d0e80c3",
    },
    "check_random_3d": {
        "bounds_report.json":
            "fc5c30541f91ed1dd3f1493e09352e33f83efe5b5de907213e6d11744951a0ca",
        "certificate.json":
            "ce9d95458b3579c9a2fc3ca52bec40dd7352dc8ca3124fb4522470cdc8cf81c1",
    },
    "check_stavskaya": {
        "bounds_report.json":
            "9ef388cc7d9ad4aeb09f3c35d9abd7c1d339e290daafe9e1d133402103c16231",
        "certificate.json":
            "bd252b0fe0100dd163abbb11391f05ee96b60bf0e4e47357c0718d0fd45d2345",
    },
}


def check_digests(tmp_path, monkeypatch, config, rule_body):
    monkeypatch.chdir(tmp_path)
    if rule_body is not None:
        (tmp_path / config["rule"]).write_text(json.dumps(rule_body))
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert cli.main(["check", "--config", "config.json", "--out", "out"]) in (0, 2)
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((tmp_path / "out").iterdir())
        if p.name in ("certificate.json", "bounds_report.json")
    }


@pytest.mark.parametrize("case", sorted(CHECK_CASES))
def test_check_artifacts_match_frozen_digests(tmp_path, monkeypatch, case, capsys):
    assert check_digests(tmp_path, monkeypatch, *CHECK_CASES[case]) == CHECK_DIGESTS[case]


EXACT_CASES = {
    "stavskaya_8_orbit": {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1},
                          "dims": [8]},
    "stavskaya_12_sweep": {"rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1},
                           "dims": [12]},
}

EXACT_REPORTS = json.loads((Path(__file__).parent / "data" / "exact_reports.json").read_text())


def assert_report_matches(got, want, where="report"):
    """Equal structure, strings, bools and ints; floats within 1e-12."""
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=0.0, abs=1e-12), where
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_report_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_report_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_exact_report_matches_pinned_fields(tmp_path, case, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(EXACT_CASES[case]))
    out = tmp_path / "out"
    assert cli.main(["exact", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "exact_report.json").read_text())
    assert_report_matches(report, EXACT_REPORTS[case])
