"""Workload inputs are a pure function of the seed, and the rules are valid."""

import random

import numpy as np

from perfbench import gate, workloads


def test_same_seed_gives_byte_identical_inputs():
    for name in workloads.WORKLOADS:
        a = workloads.input_files(workloads.jobs_for(name, 7))
        b = workloads.input_files(workloads.jobs_for(name, 7))
        assert a == b


def test_seed_changes_monte_carlo_seeds_and_rules():
    for name in ("torus_mc", "replica_xval", "certify_sweep"):
        a = workloads.input_files(workloads.jobs_for(name, 1))
        b = workloads.input_files(workloads.jobs_for(name, 2))
        assert a.keys() == b.keys() and a != b


def test_written_files_match_generated_bytes(tmp_path):
    jobs = workloads.jobs_for("certify_sweep", 3)
    workloads.write_inputs(str(tmp_path), jobs)
    for rel, data in workloads.input_files(jobs).items():
        assert (tmp_path / rel).read_bytes() == data


def test_random_rules_are_monotone_and_in_range():
    from toomlab import rules

    jobs = workloads.jobs_for("certify_sweep", 11)
    assert len(jobs) == workloads.RULE_COUNT
    dims = set()
    for job in jobs:
        body = job.rule_body
        d, offsets = body["dimension"], [tuple(u) for u in body["neighborhood"]]
        dims.add(d)
        assert 3 <= len(offsets) <= 8 and len(set(offsets)) == len(offsets)
        assert all(len(u) == d and all(-3 <= c <= 3 for c in u) for u in offsets)
        rule = rules.rule_from_json(body)
        assert rules.check_monotone(rule).ok
        family = rules.minimal_plus_sets(rule)
        want = sorted(
            tuple(i for i in range(len(offsets)) if (m >> i) & 1)
            for m in workloads.minimal_masks(list(job.rule_masks))
        )
        assert list(family.sets) == want
    assert dims == {1, 2, 3}


def test_one_dimensional_rules_with_many_offsets_terminate():
    rng = random.Random(0)
    for _ in range(200):
        d, offsets, masks = workloads.random_rule(rng)
        assert len(offsets) <= (7 if d == 1 else 8)


def test_symmetric_copy_keeps_the_interval_verdict():
    rng = random.Random(5)
    for _ in range(50):
        offsets = [(x,) for x in rng.sample(range(-3, 4), 5)]
        sets = [(0, 1), (2, 3), (1, 4)]
        copy = workloads.symmetric_copy(rng, offsets)
        assert gate.interval_verdict([list(u) for u in offsets], sets) == \
            gate.interval_verdict([list(u) for u in copy], sets)


def test_monotone_closure_matches_toomlab():
    from toomlab import rules

    rng = random.Random(3)
    for _ in range(20):
        size = rng.randint(3, 8)
        masks = [rng.randrange(1, 1 << size) for _ in range(rng.randint(1, 5))]
        ours = np.array(workloads.monotone_closure(size, masks), dtype=np.uint8)
        assert np.array_equal(ours, rules.monotone_closure(size, masks))
