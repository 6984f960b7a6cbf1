import itertools
import json
import random
import threading
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from toomlab import certify, ratlp, rules
from toomlab.certify import (
    ERODER,
    NON_ERODER,
    certificate_from_json,
    certificate_to_json,
    check_eroder,
    verify_certificate,
)
from toomlab.errors import CertificateFormatError
from toomlab.rules import PlusSetFamily, RuleSpec, load_rule, minimal_plus_sets

from .oracles import (
    enumerate_1d_rules_exhaustive,
    interval_eroder_verdict,
    random_monotone_table,
    random_offsets_1d,
    random_rule,
    reference_check_eroder,
)

GOLDEN = Path(__file__).parent / "data" / "stavskaya_certificate.json"


def family(name: str) -> PlusSetFamily:
    return minimal_plus_sets(load_rule(name))


class TestVerdicts:
    def test_stavskaya_eroder(self):
        cert = check_eroder(family("stavskaya"))
        assert cert.verdict == ERODER
        assert verify_certificate(family("stavskaya"), cert)

    def test_nec_eroder(self):
        cert = check_eroder(family("nec"))
        assert cert.verdict == ERODER
        assert verify_certificate(family("nec"), cert)

    def test_majority1d_witness_zero(self):
        cert = check_eroder(family("majority1d"))
        assert cert.verdict == NON_ERODER
        assert cert.witness == (Fraction(0),)
        assert verify_certificate(family("majority1d"), cert)

    def test_identity_single_hull(self):
        cert = check_eroder(family("identity"))
        assert cert.verdict == NON_ERODER
        assert cert.witness == (Fraction(0),)
        assert verify_certificate(family("identity"), cert)

    def test_empty_family_rejected(self):
        fam = PlusSetFamily(dimension=1, offsets=((0,),), sets=())
        with pytest.raises(ValueError):
            check_eroder(fam)


class TestConstants:
    def test_stavskaya_q2(self):
        cert = check_eroder(family("stavskaya"))
        assert cert.q == 2 and cert.r > 0

    def test_nec_q3(self):
        # Helly caps q at d+1 = 3; all pairwise hull intersections are
        # nonempty, so exactly three sets are needed
        cert = check_eroder(family("nec"))
        assert cert.q == 3 and cert.r > 0

    def test_normalization_scale(self):
        cert = check_eroder(family("nec"))
        coeffs = [abs(c) for f in cert.functionals for c in f]
        assert max(coeffs) == 1

    def test_non_eroder_has_no_constants(self):
        cert = check_eroder(family("majority1d"))
        assert cert.verdict == NON_ERODER
        assert cert.q is None and cert.r is None

    def test_largest_coefficient_is_one(self):
        # the normalization that makes (q, r) unique, on every eroder drawn
        eroders = 0
        for seed in range(40):
            cert = check_eroder(minimal_plus_sets(random_rule(random.Random(seed))))
            if cert.verdict == ERODER:
                eroders += 1
                assert max(abs(c) for f in cert.functionals for c in f) == 1, seed
        assert eroders >= 10

    @pytest.mark.parametrize("field", ["q", "r"])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_q_or_r_alone_off_by_one_rejected(self, field, delta):
        fam = family("nec")
        cert = check_eroder(fam)
        bad = replace(cert, **{field: getattr(cert, field) + delta})
        assert not verify_certificate(fam, bad)


class TestVerification:
    def test_zeroed_thresholds_rejected(self):
        cert = check_eroder(family("stavskaya"))
        bad = replace(
            cert,
            thresholds=tuple(Fraction(0) for _ in cert.thresholds),
            r=Fraction(0),
        )
        assert not verify_certificate(family("stavskaya"), bad)

    def test_tampered_functional_rejected(self):
        cert = check_eroder(family("nec"))
        f = [list(fi) for fi in cert.functionals]
        f[0][0] += Fraction(1, 3)
        bad = replace(cert, functionals=tuple(tuple(fi) for fi in f))
        assert not verify_certificate(family("nec"), bad)

    def test_tampered_witness_rejected(self):
        cert = check_eroder(family("majority1d"))
        bad = replace(cert, witness=(Fraction(1, 7),))
        assert not verify_certificate(family("majority1d"), bad)

    def test_negative_weight_rejected(self):
        cert = check_eroder(family("majority1d"))
        w = [list(ws) for ws in cert.weights]
        w[0] = [Fraction(3, 2), Fraction(-1, 2)]
        bad = replace(cert, weights=tuple(tuple(ws) for ws in w))
        assert not verify_certificate(family("majority1d"), bad)

    def test_malformed_raises_not_false(self):
        cert = check_eroder(family("nec"))
        bad = replace(cert, functionals=((Fraction(1),),) * 3)  # wrong arity
        with pytest.raises(CertificateFormatError):
            verify_certificate(family("nec"), bad)

    def test_wrong_family_shape_raises(self):
        cert = check_eroder(family("stavskaya"))
        with pytest.raises(CertificateFormatError):
            verify_certificate(family("nec"), cert)

    @pytest.mark.parametrize("name, fields, message", [
        ("nec", {"dimension": 1}, "certificate dimension does not match family"),
        ("nec", {"selected": None}, "ERODER certificate missing fields"),
        ("nec", {"functionals": None}, "ERODER certificate missing fields"),
        ("nec", {"thresholds": None}, "ERODER certificate missing fields"),
        ("nec", {"selected": (0, 1)}, "functionals/thresholds/selected disagree"),
        ("nec", {"q": None}, r"ERODER certificate missing \(q, r\)"),
        ("nec", {"r": None}, r"ERODER certificate missing \(q, r\)"),
        ("nec", {"selected": (0, 1, 3)}, "selected set index 3 out of range"),
        ("nec", {"selected": (-1, 1, 2)}, "selected set index -1 out of range"),
        ("majority1d", {"witness": None}, "NON_ERODER certificate missing fields"),
        ("majority1d", {"weights": None}, "NON_ERODER certificate missing fields"),
        ("majority1d", {"witness": ()}, "witness has wrong arity"),
        ("majority1d", {"weights": ()}, "one weight vector per plus set required"),
        ("majority1d", {"weights": ((Fraction(1),),) * 3}, "weight vector length mismatch"),
        ("nec", {"verdict": "MAYBE"}, "unknown verdict 'MAYBE'"),
    ])
    def test_each_malformed_field_named(self, name, fields, message):
        # a certificate read from JSON, one field altered, fails loudly
        # rather than verifying as False
        cert = certificate_from_json(certificate_to_json(check_eroder(family(name))))
        with pytest.raises(CertificateFormatError, match=f"^{message}$"):
            verify_certificate(family(name), replace(cert, **fields))


class TestExclusivity:
    def test_separation_excludes_any_witness(self):
        # an ERODER certificate proves pointwise that no x lies in all hulls:
        # since sum f_i = 0 and sum c_i > 0, some f_i(x) < c_i at every x
        for name in ("stavskaya", "nec"):
            fam = family(name)
            cert = check_eroder(fam)
            d = fam.dimension
            assert all(
                sum(f[k] for f in cert.functionals) == 0 for k in range(d)
            )
            assert sum(cert.thresholds) > 0
            probe = [
                tuple(Fraction(a, 3) for a in point)
                for point in [(0,) * d, (1,) * d, (2, -1) * d][:3]
            ]
            for x in probe:
                x = x[:d]
                values = [
                    sum(fk * xk for fk, xk in zip(f, x)) - c
                    for f, c in zip(cert.functionals, cert.thresholds)
                ]
                assert min(values) < 0

    def test_fabricated_eroder_cert_for_non_eroder_family_fails(self):
        fam = family("majority1d")
        fake = certify.ErosionCertificate(
            verdict=ERODER,
            dimension=1,
            selected=(0, 1),
            functionals=((Fraction(1),), (Fraction(-1),)),
            thresholds=(Fraction(0), Fraction(1)),
            q=2,
            r=Fraction(1),
        )
        assert not verify_certificate(fam, fake)


class TestIntervalOracleAgreement:
    @pytest.mark.parametrize("R", [1, 2, 3, 4])
    def test_exhaustive_small(self, R):
        offsets = tuple(range(R))
        for rule in enumerate_1d_rules_exhaustive(R, offsets):
            fam = minimal_plus_sets(rule)
            cert = check_eroder(fam)
            expected = interval_eroder_verdict(
                [o[0] for o in fam.offsets], list(fam.sets)
            )
            assert (cert.verdict == ERODER) == expected
            assert verify_certificate(fam, cert)

    def test_random_offsets(self):
        rng = random.Random(12345)
        for _ in range(80):
            R = rng.randint(2, 5)
            offsets = random_offsets_1d(R, rng)
            table = random_monotone_table(R, rng)
            rule = RuleSpec(
                dimension=1, neighborhood=tuple((o,) for o in offsets), table=table
            )
            fam = minimal_plus_sets(rule)
            cert = check_eroder(fam)
            expected = interval_eroder_verdict(
                [o[0] for o in fam.offsets], list(fam.sets)
            )
            assert (cert.verdict == ERODER) == expected


class TestSoundnessProperty:
    @settings(max_examples=50, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_emitted_certificates_verify(self, rng):
        rule = random_rule(rng, max_R=8, max_d=3)
        fam = minimal_plus_sets(rule)
        cert = check_eroder(fam)
        assert verify_certificate(fam, cert)
        if cert.verdict == ERODER:
            assert cert.q <= fam.dimension + 1

    def test_random_rule_more_inputs_than_offsets(self):
        # d = 1 leaves 5 distinct offsets in [-2, 2]; a drawn R = 8 must not hang
        def first_draws(seed):
            probe = random.Random(seed)
            return probe.randint(1, 1), probe.randint(1, 8)

        seed = next(s for s in range(1000) if first_draws(s) == (1, 8))
        drawn = []
        worker = threading.Thread(
            target=lambda: drawn.append(random_rule(random.Random(seed), max_R=8, max_d=1)),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert drawn[0].dimension == 1 and drawn[0].size == 5


# drawn once from a fixed seed: 600 random rules, d = 1, 2 and 3
SEARCH_DRAWS = random.Random(27)
SEARCH_FAMILIES = [minimal_plus_sets(random_rule(SEARCH_DRAWS)) for _ in range(600)]


def hull_sets(A, b) -> list[set]:
    """The plus sets of one hull system, as sets of offsets read off its rows:
    first a convexity row per set (right-hand side 1), then a row per (set,
    coordinate) holding that coordinate of each of the set's offsets."""
    size = b.count(1)
    d = (len(A) - size) // size
    return [
        {tuple(A[size + i * d + kk][j] for kk in range(d)) for j, x in enumerate(A[i]) if x}
        for i in range(size)
    ]


def solved_systems(monkeypatch, fam) -> tuple[certify.ErosionCertificate, list[list[set]]]:
    """check_eroder's certificate and the plus sets of every system it sent to the LP."""
    systems = []
    solve = certify.solve_feasibility

    def spy(A, b):
        systems.append(hull_sets(A, b))
        return solve(A, b)

    with monkeypatch.context() as patch:
        patch.setattr(certify, "solve_feasibility", spy)
        return check_eroder(fam), systems


class TestSearch:
    def test_draws_cover_every_dimension_and_verdict(self):
        assert {f.dimension for f in SEARCH_FAMILIES} == {1, 2, 3}
        assert {check_eroder(f).verdict for f in SEARCH_FAMILIES} == {ERODER, NON_ERODER}

    def test_certificates_match_the_reference_byte_for_byte(self):
        builtins = [family(name) for name in rules.BUILTIN_NAMES]
        for fam in builtins + SEARCH_FAMILIES:
            new = json.dumps(certificate_to_json(check_eroder(fam)))
            assert new == json.dumps(certificate_to_json(reference_check_eroder(fam)))

    def test_no_subfamily_sharing_an_offset_reaches_the_lp(self, monkeypatch):
        shared = 0
        for fam in SEARCH_FAMILIES:
            _, systems = solved_systems(monkeypatch, fam)
            for sets in systems:
                if len(sets) < len(fam.sets):
                    assert not set.intersection(*sets), (fam, sets)
            offsets = [{fam.offsets[i] for i in z} for z in fam.sets]
            shared += sum(
                bool(set.intersection(*(offsets[i] for i in subset)))
                for size in range(2, min(fam.dimension + 1, len(fam.sets) - 1) + 1)
                for subset in itertools.combinations(range(len(fam.sets)), size)
            )
        assert shared > 100  # the reference would have solved these

    def test_eroder_with_more_than_d_plus_one_sets_never_solves_the_full_system(
        self, monkeypatch
    ):
        many = 0
        for fam in SEARCH_FAMILIES:
            k = len(fam.sets)
            if k <= fam.dimension + 1:
                continue
            cert, systems = solved_systems(monkeypatch, fam)
            if cert.verdict == ERODER:
                many += 1
                assert all(len(sets) < k for sets in systems)
        assert many > 20

    def test_no_more_solves_than_the_reference(self, monkeypatch):
        counted = []

        def counting(A, b):
            counted.append(1)
            return ratlp.solve_feasibility(A, b)

        total_new = total_ref = 0
        for fam in SEARCH_FAMILIES:
            cert, systems = solved_systems(monkeypatch, fam)
            counted.clear()
            reference_check_eroder(fam, solve=counting)
            # a NON_ERODER family can cost more: the reference solves it once
            if cert.verdict == ERODER:
                assert len(systems) <= len(counted)
            total_new, total_ref = total_new + len(systems), total_ref + len(counted)
        assert total_new <= total_ref


class TestSerialization:
    def test_round_trip(self):
        for name in ("stavskaya", "nec", "majority1d", "identity"):
            cert = check_eroder(family(name))
            back = certificate_from_json(certificate_to_json(cert))
            assert back == cert

    def test_golden_file(self):
        cert = check_eroder(family("stavskaya"))
        expected = json.loads(GOLDEN.read_text())
        assert certificate_to_json(cert) == expected

    def test_stable_field_order(self):
        cert = check_eroder(family("stavskaya"))
        keys = list(certificate_to_json(cert))
        assert keys == ["verdict", "dimension", "selected", "functionals", "thresholds", "q", "r"]

    def test_malformed_json_raises(self):
        with pytest.raises(CertificateFormatError):
            certificate_from_json({"verdict": "MAYBE", "dimension": 1})
        with pytest.raises(CertificateFormatError):
            certificate_from_json({"verdict": ERODER, "dimension": 1})
        with pytest.raises(CertificateFormatError):
            certificate_from_json("not an object")

    def test_bad_rational_string(self):
        data = certificate_to_json(check_eroder(family("stavskaya")))
        data["r"] = "1/0"
        with pytest.raises(CertificateFormatError):
            certificate_from_json(data)
