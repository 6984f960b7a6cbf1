"""The benchmark's workloads: lists of real `toomlab` CLI jobs made from a seed.

Each workload is a list of :class:`Job` values plus the input files they read
(the random rule files of ``certify_sweep``).  What varies with the benchmark
seed comes from ``random.Random`` seeded with the workload name and that seed:
the Monte Carlo seeds in the configs and the offsets of the random rules.
The program only ever sees the written configs and rule files.  Paths inside
configs are relative to the work directory, so one seed always gives
byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Optional

# Seed whose Monte Carlo CSV rows have recorded digests in golden.json.
DEFAULT_SEED = 0

RULE_COUNT = 150
ISLAND_SIDE = 24


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `toomlab <command> --config <config> --threads N`."""

    name: str
    command: str
    config: dict
    threads: int = 1
    expect_codes: tuple[int, ...] = (0,)
    # site updates the outputs need (snapshot and burn-in re-runs excluded);
    # None when it depends on the run's own result (erode)
    required_updates: Optional[int] = 0
    # a generated rule file: its path (relative, as in the config), its
    # JSON body and the seed masks behind it, kept for the certificate checks
    rule_file: Optional[str] = None
    rule_body: Optional[dict] = None
    rule_masks: tuple[int, ...] = ()

    def config_path(self) -> str:
        return os.path.join("configs", f"{self.name}.json")

    def argv(self, out_dir: str) -> list[str]:
        return [
            self.command, "--config", self.config_path(),
            "--threads", str(self.threads), "--out", out_dir,
        ]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"toomlab-perfbench/{workload}/{seed}")


def _mc_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def torus_mc(seed: int, threads: int) -> list[Job]:
    rng = _rng("torus_mc", seed)
    n256, n1024 = 256 * 256, 1024 * 1024
    island = [[i, j] for i in range(ISLAND_SIDE) for j in range(ISLAND_SIDE)]
    return [
        Job("div256", "divergence", {
            "rule": "nec", "noise": {"kind": "symmetric", "eps": 0.01},
            "dims": [256, 256], "steps": 2000, "seed": _mc_seed(rng),
        }, required_updates=2 * 2000 * n256),
        Job("sim256", "simulate", {
            "rule": "nec", "noise": {"kind": "symmetric", "eps": 0.05},
            "dims": [256, 256], "steps": 1000, "snapshot_every": 250,
            "seed": _mc_seed(rng),
        }, required_updates=1000 * n256),
        Job("sim1024", "simulate", {
            "rule": "nec", "noise": {"kind": "symmetric", "eps": 0.01},
            "dims": [1024, 1024], "steps": 60, "seed": _mc_seed(rng),
        }, threads=threads, required_updates=60 * n1024),
        Job("erode160", "erode", {
            "rule": "nec", "island": island, "dims": [160, 160], "cutoff": 40,
        }, required_updates=None),
    ]


def replica_xval(seed: int, threads: int) -> list[Job]:
    rng = _rng("replica_xval", seed)
    samples, burn_in, lags = 120_000, 200, [0, 1, 2]
    noise = {"kind": "symmetric", "eps": 0.1}
    return [
        # spatial and temporal estimates share one burn-in; the second
        # burn-in the program runs today is waste, not required work
        Job("corr8", "correlate", {
            "rule": "stavskaya", "noise": noise, "dims": [8],
            "distances": [1, 2, 3], "lags": lags, "samples": samples,
            "burn_in": burn_in, "seed": _mc_seed(rng),
        }, required_updates=samples * 8 * (burn_in + max(lags))),
        Job("exact8", "exact", {
            "rule": "stavskaya", "noise": noise, "dims": [8], "tol": 1e-12,
        }),
    ]


def exact_oracle(seed: int, threads: int) -> list[Job]:
    return [
        Job("exact12", "exact", {
            "rule": "stavskaya", "noise": {"kind": "symmetric", "eps": 0.1},
            "dims": [12], "tol": 1e-10,
        }),
        Job("exact6b", "exact", {
            "rule": "stavskaya",
            "noise": {"kind": "biased", "eps_plus": 0.12, "eps_minus": 0.0},
            "dims": [6], "tol": 1e-10, "allow_absorbing": True,
            "max_iter": 6_000_000,
        }),
        Job("exactnec3", "exact", {
            "rule": "nec", "noise": {"kind": "symmetric", "eps": 0.1},
            "dims": [3, 3], "tol": 1e-11,
        }),
    ]


def monotone_closure(size: int, masks: list[int]) -> list[int]:
    """Truth table of the least monotone function that is 1 on every mask."""
    return [int(any(cfg & m == m for m in masks)) for cfg in range(1 << size)]


def minimal_masks(masks: list[int]) -> list[int]:
    """The inclusion-minimal masks: the minimal plus sets of the closure."""
    uniq = sorted(set(masks))
    return [m for m in uniq if not any(o != m and o & m == o for o in uniq)]


# Rule shapes and masks are drawn once from this fixed generator seed; the
# benchmark seed then draws a lattice symmetry per rule.  Fully random rules
# made the sweep's work (Python calls in check_eroder) vary by 46% between
# seeds, which no run length can average out; symmetric copies of one rule
# set keep it within 4% while each seed still feeds the program new offsets.
RULE_BASE_SEED = "toomlab-perfbench/certify_sweep/rules"


def random_rule(rng: random.Random) -> tuple[int, list[tuple[int, ...]], tuple[int, ...]]:
    """A random monotone non-constant rule: (d, offsets, seed masks).

    d is 1, 2 or 3; R lies in [3, 8] (at most 7 in one dimension, where
    [-3, 3] holds only 7 offsets); offsets are distinct points of [-3, 3]^d
    drawn without replacement, so generation always terminates.  The table
    is the monotone closure of 3 to 8 random non-empty seed masks, so it is
    0 on all-minus and 1 on all-plus.
    """
    d = rng.choice((1, 2, 3))
    points = list(itertools.product(range(-3, 4), repeat=d))
    size = rng.randint(3, min(8, len(points)))
    offsets = rng.sample(points, size)
    masks = []
    for _ in range(rng.randint(3, 8)):
        mask = 0
        while not mask:
            mask = sum(1 << i for i in range(size) if rng.random() < 0.5)
        masks.append(mask)
    return d, offsets, tuple(masks)


def rule_file(d: int, offsets: list[tuple[int, ...]], masks: tuple[int, ...]) -> dict:
    size = len(offsets)
    value = sum(bit << i for i, bit in enumerate(monotone_closure(size, list(masks))))
    return {
        "dimension": d,
        "neighborhood": [list(u) for u in offsets],
        "table": format(value, f"0{max(1, (1 << size) // 4)}x"),
    }


def symmetric_copy(rng: random.Random, offsets: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The offsets under a random signed permutation of the axes.

    The map is an isometry of [-3, 3]^d, so plus-set hulls, the verdict and
    the LP sizes stay the same; offsets keep their order, so do the masks.
    """
    d = len(offsets[0])
    perm = rng.sample(range(d), d)
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    return [tuple(signs[k] * u[perm[k]] for k in range(d)) for u in offsets]


def certify_sweep(seed: int, threads: int) -> list[Job]:
    base = random.Random(RULE_BASE_SEED)
    rng = _rng("certify_sweep", seed)
    jobs = []
    for i in range(RULE_COUNT):
        d, offsets, masks = random_rule(base)
        path = os.path.join("rules", f"rule{i:03d}.json")
        jobs.append(Job(
            f"rule{i:03d}", "check", {"rule": path}, expect_codes=(0, 2),
            rule_file=path, rule_body=rule_file(d, symmetric_copy(rng, offsets), masks),
            rule_masks=masks,
        ))
    return jobs


_BUILDERS = {
    "torus_mc": torus_mc,
    "replica_xval": replica_xval,
    "exact_oracle": exact_oracle,
    "certify_sweep": certify_sweep,
}
WORKLOADS = tuple(_BUILDERS)


def jobs_for(workload: str, seed: int, threads: int = 2) -> list[Job]:
    """The workload's jobs for one seed; `threads` caps the threaded job."""
    return _BUILDERS[workload](seed, threads)


def _dump(obj: dict) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def input_files(jobs: list[Job]) -> dict[str, bytes]:
    """Every input file of a job list, by path relative to the work directory."""
    files = {}
    for job in jobs:
        files[job.config_path()] = _dump(job.config)
        if job.rule_file is not None:
            files[job.rule_file] = _dump(job.rule_body)
    return files


def write_inputs(work_dir: str, jobs: list[Job]) -> None:
    for rel, data in input_files(jobs).items():
        path = os.path.join(work_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)
