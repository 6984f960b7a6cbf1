import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toomlab import rules
from toomlab.errors import RuleValidationError
from toomlab.rules import (
    MINUS,
    PLUS,
    RuleSpec,
    check_monotone,
    load_rule,
    minimal_plus_sets,
    monotone_closure,
    rule_from_json,
)

from .oracles import brute_force_plus_sets, evaluate, random_monotone_table, rule_to_json


def xor_rule():
    return RuleSpec(
        dimension=1,
        neighborhood=((0,), (1,)),
        table=np.array([0, 1, 1, 0], dtype=np.uint8),
    )


class TestEvaluate:
    def test_stavskaya_both_minus(self):
        assert evaluate(load_rule("stavskaya"), [MINUS, MINUS]) == MINUS

    def test_stavskaya_mixed(self):
        rule = load_rule("stavskaya")
        assert evaluate(rule, [PLUS, MINUS]) == PLUS
        assert evaluate(rule, [MINUS, PLUS]) == PLUS

    def test_nec_majority(self):
        assert evaluate(load_rule("nec"), [PLUS, PLUS, MINUS]) == PLUS
        assert evaluate(load_rule("nec"), [MINUS, MINUS, PLUS]) == MINUS

    @pytest.mark.parametrize("name", rules.BUILTIN_NAMES)
    def test_homogeneous_fixed(self, name):
        rule = load_rule(name)
        assert evaluate(rule, [PLUS] * rule.size) == PLUS
        assert evaluate(rule, [MINUS] * rule.size) == MINUS

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(load_rule("stavskaya"), [PLUS])


class TestCheckMonotone:
    def test_stavskaya_passes(self):
        report = check_monotone(load_rule("stavskaya"))
        assert report.ok and report.witness is None

    def test_xor_fails_with_witness(self):
        report = check_monotone(xor_rule())
        assert not report.monotone
        lo, hi = report.witness
        assert all(a <= b for a, b in zip(lo, hi))
        assert evaluate(xor_rule(), lo) > evaluate(xor_rule(), hi)

    def test_constant_rejected(self):
        const = RuleSpec(
            dimension=1,
            neighborhood=((0,),),
            table=np.array([1, 1], dtype=np.uint8),
        )
        report = check_monotone(const)
        assert report.monotone and report.constant == PLUS and not report.ok

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16 - 1))
    def test_scan_matches_lattice_definition(self, value):
        # the single-raise scan must agree with the full pairwise definition
        R = 4
        table = np.array([(value >> i) & 1 for i in range(1 << R)], dtype=np.uint8)
        rule = RuleSpec(
            dimension=1, neighborhood=((0,), (1,), (2,), (3,)), table=table
        )
        brute = True
        for lo in range(1 << R):
            for hi in range(1 << R):
                if lo & hi == lo and table[lo] > table[hi]:
                    brute = False
        assert check_monotone(rule).monotone == brute


class TestMinimalPlusSets:
    def test_stavskaya(self):
        fam = minimal_plus_sets(load_rule("stavskaya"))
        assert fam.sets == ((0,), (1,))
        assert fam.offsets == ((0,), (1,))

    def test_nec(self):
        fam = minimal_plus_sets(load_rule("nec"))
        assert fam.sets == ((0, 1), (0, 2), (1, 2))
        assert {tuple(fam.offsets[j] for j in z) for z in fam.sets} == {
            ((0, 0), (1, 0)),
            ((0, 0), (0, 1)),
            ((1, 0), (0, 1)),
        }

    def test_majority1d_brute_force(self):
        rule = load_rule("majority1d")
        fam = minimal_plus_sets(rule)
        assert fam.sets == tuple(brute_force_plus_sets(rule))
        assert fam.sets == ((0, 1), (0, 2), (1, 2))

    def test_invalid_rule_rejected(self):
        with pytest.raises(RuleValidationError):
            minimal_plus_sets(xor_rule())

    @pytest.mark.parametrize("name", rules.BUILTIN_NAMES)
    def test_minimality_and_forcing(self, name):
        rule = load_rule(name)
        fam = minimal_plus_sets(rule)
        for z in fam.sets:
            local = [PLUS if i in z else MINUS for i in range(rule.size)]
            assert evaluate(rule, local) == PLUS
            for drop in z:
                weakened = [
                    PLUS if (i in z and i != drop) else MINUS for i in range(rule.size)
                ]
                assert evaluate(rule, weakened) == MINUS

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 6))
    def test_union_property_random_rules(self, rng, R):
        table = random_monotone_table(R, rng)
        rule = RuleSpec(
            dimension=1, neighborhood=tuple((i,) for i in range(R)), table=table
        )
        fam = minimal_plus_sets(rule)
        masks = [sum(1 << i for i in z) for z in fam.sets]
        for cfg in range(1 << R):
            contains = any(cfg & m == m for m in masks)
            assert bool(table[cfg]) == contains

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 5))
    def test_matches_brute_force(self, rng, R):
        table = random_monotone_table(R, rng)
        rule = RuleSpec(
            dimension=1, neighborhood=tuple((i,) for i in range(R)), table=table
        )
        assert minimal_plus_sets(rule).sets == tuple(brute_force_plus_sets(rule))

    def test_union_property_exhaustive_r12(self):
        # full 2^12-configuration sweep at the largest size the union
        # property is promised for
        import random as _random

        rng = _random.Random(2718)
        R = 12
        table = random_monotone_table(R, rng)
        rule = RuleSpec(
            dimension=1, neighborhood=tuple((i,) for i in range(R)), table=table
        )
        fam = minimal_plus_sets(rule)
        masks = np.array([sum(1 << i for i in z) for z in fam.sets], dtype=np.uint32)
        cfgs = np.arange(1 << R, dtype=np.uint32)
        covered = np.zeros(1 << R, dtype=bool)
        for m in masks:
            covered |= (cfgs & m) == m
        assert np.array_equal(covered, rule.table.astype(bool))


class TestBuiltins:
    def test_unknown_name(self):
        with pytest.raises(FileNotFoundError):
            load_rule("conway")

    def test_identity(self):
        rule = load_rule("identity")
        assert rule.dimension == 1 and rule.neighborhood == ((0,),)
        assert evaluate(rule, [MINUS]) == MINUS and evaluate(rule, [PLUS]) == PLUS


class TestRuleSpecValidation:
    def test_duplicate_offsets(self):
        with pytest.raises(RuleValidationError):
            RuleSpec(dimension=1, neighborhood=((0,), (0,)), table=np.array([0, 1, 1, 1]))

    def test_dimension_mismatch(self):
        with pytest.raises(RuleValidationError):
            RuleSpec(dimension=2, neighborhood=((0,),), table=np.array([0, 1]))

    def test_table_length(self):
        with pytest.raises(RuleValidationError):
            RuleSpec(dimension=1, neighborhood=((0,), (1,)), table=np.array([0, 1]))

    @pytest.mark.parametrize("fields, message", [
        ({"dimension": 0, "neighborhood": ()}, "dimension must be >= 1"),
        ({"neighborhood": ()}, "neighborhood must contain at least one offset"),
        ({"table": np.array([0, 2])}, "table entries must be 0/1 bits"),
    ], ids=["dimension-0", "empty-neighborhood", "table-entry-2"])
    def test_bad_shape_named(self, fields, message):
        spec = {"dimension": 1, "neighborhood": ((0,),), "table": np.array([0, 1]), **fields}
        with pytest.raises(RuleValidationError, match=f"^{message}$"):
            RuleSpec(**spec)

    def test_neighborhood_cap(self):
        offsets = tuple((i,) for i in range(21))
        with pytest.raises(RuleValidationError):
            RuleSpec(dimension=1, neighborhood=offsets, table=np.zeros(2**21))

    def test_table_frozen(self):
        rule = load_rule("stavskaya")
        with pytest.raises(ValueError):
            rule.table[0] = 1


class TestRuleJson:
    def test_round_trip_table(self):
        rule = load_rule("nec")
        data = rule_to_json(rule)
        assert data["table"] == "e8"  # majority-of-three bits 0b11101000
        back = rule_from_json(data)
        assert back == rule

    def test_plus_sets_completion(self):
        data = {
            "dimension": 1,
            "neighborhood": [[0], [1]],
            "plus_sets": [[0], [1]],
        }
        rule = rule_from_json(data)
        assert rule == load_rule("stavskaya")

    def test_completion_is_minimal_monotone_extension(self):
        table = monotone_closure(3, [0b011, 0b101])
        for cfg in range(8):
            expected = (cfg & 0b011 == 0b011) or (cfg & 0b101 == 0b101)
            assert bool(table[cfg]) == expected

    def test_unknown_fields_rejected(self):
        with pytest.raises(RuleValidationError):
            rule_from_json({"dimension": 1, "neighborhood": [[0]], "table": "1", "x": 2})

    def test_table_and_plus_sets_exclusive(self):
        with pytest.raises(RuleValidationError):
            rule_from_json(
                {
                    "dimension": 1,
                    "neighborhood": [[0]],
                    "table": "1",
                    "plus_sets": [[0]],
                }
            )

    def test_hex_overflow_rejected(self):
        with pytest.raises(RuleValidationError):
            rule_from_json({"dimension": 1, "neighborhood": [[0]], "table": "ff"})

    def test_load_rule_file(self, tmp_path):
        path = tmp_path / "rule.json"
        path.write_text(
            '{"dimension": 1, "neighborhood": [[0], [1]], "plus_sets": [[0], [1]]}'
        )
        assert rules.load_rule(str(path)) == load_rule("stavskaya")
