"""Frozen SHA-256 digests of the CSV and PPM artifacts of small CLI runs.

The digests were recorded with the gather-table engine, before the packed
stepping core replaced it, and guard byte-for-byte reproducibility through
every rewrite of the stepping code.  JSON reports are not digested, since
reports may gain keys; their numbers are checked by the other CLI tests.
"""

import hashlib
import json

import pytest

from toomlab import cli

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
    "erode_nec_frames": ("erode", {
        "rule": "nec", "island": NEC_ISLAND, "dims": [30, 30], "cutoff": 10,
        "snapshot_every": 2,
    }),
}

DIGESTS = {
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
            "76082cd42867d0a572659fd8f9338d2e384914c89a56880c336d095fc15c43bf",
        "erode_000002.ppm":
            "f0db399a1ef932d7f45795b4cc68ef4c9c7778bc7b75e870f59431261063bc72",
        "erode_000004.ppm":
            "4863ab3d735f89018c3710e3cd671bab6690237d67a272f400ac359461f78979",
        "erode_000006.ppm":
            "e5d208745fea4d981a9c01bd7e69d0a927243828b19fb52215830f964d67f3cd",
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
