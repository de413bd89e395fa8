import hashlib
import json
import math
import random

import pytest

from seifert5.abgroup import AbelianGroup
from seifert5.classify import (
    INFINITY,
    FiveManifoldClass,
    circle_action_admissible,
    smale_barden_realizable,
)
from seifert5 import construct
from seifert5.cohomology import INDETERMINATE, CohomologyReport, full_report
from seifert5.construct import (
    ConstructionDefect,
    GateRejection,
    _realizable_profiles,
    _torsion_profiles,
    build,
    enumerate_admissible,
    solve_unit_congruence,
    verify_roundtrip,
)
from seifert5.seifert import Nonorientable, Orientable, chern_mu

from oracles import enumerate_admissible_by_filter, torsion_order


def cls_of(k, counts, i):
    return FiveManifoldClass(AbelianGroup.from_counts(k, counts), i)


def planned(cls):
    """build(cls)'s divisors as (chart, m, surface, b), in spec order."""
    return [(d.chart, d.m, d.surface, d.b) for d in build(cls).divisors]


class TestSchedule:
    def test_homology_sphere_example(self):
        assert [(c, m, s) for c, m, s, _ in planned(cls_of(0, {(5, 1): 4}, 0))] == [
            (0, 2, Orientable(0)),
            (0, 5, Orientable(2)),
        ]

    def test_i_one_example(self):
        ((_, m, surface, _),) = planned(cls_of(0, {(2, 1): 1}, 1))
        assert (m, surface) == (2, Nonorientable(1))

    def test_k_one_infinity_example(self):
        divisors = planned(cls_of(1, {(2, 1): 2, (3, 1): 2}, INFINITY))
        assert [(c, m, s.genus) for c, m, s, _ in divisors] == [(1, 2, 1), (1, 3, 1)]

    def test_increasing_powers_right_aligned(self):
        divisors = planned(cls_of(2, {(3, 1): 2, (3, 2): 4}, 0))
        threes = [(c, m) for c, m, _, _ in divisors if m % 3 == 0]
        assert threes == [(1, 3), (2, 9)]

    def test_rejects_with_verdict(self):
        with pytest.raises(GateRejection) as err:
            build(cls_of(0, {(2, 1): 2, (2, 2): 2}, INFINITY))
        assert "R1_PRIME_COUNT" in err.value.verdict.violated_rules
        assert str(err.value) == "not admissible: R1_PRIME_COUNT, R3_SPIN_TWO_COUNT, INVALID_I"

    def test_i_one_with_even_c2(self):
        ((_, _, surface, _),) = planned(cls_of(0, {(2, 1): 2}, 1))
        assert surface == Nonorientable(2)


class TestSolveB:
    def test_examples(self):
        assert solve_unit_congruence([2, 5]) == (1, 3)
        assert solve_unit_congruence([4, 3]) == (3, 1)
        assert solve_unit_congruence([2]) == (1,)

    def test_congruence_holds(self):
        rng = random.Random(67)
        for _ in range(200):
            pool = [2, 3, 4, 5, 7, 8, 9, 11, 13, 25, 27]
            rng.shuffle(pool)
            moduli = []
            for m in pool:
                if all(math.gcd(m, x) == 1 for x in moduli):
                    moduli.append(m)
                if len(moduli) == rng.randint(1, 4):
                    break
            bs = solve_unit_congruence(moduli)
            total = math.prod(moduli)
            assert sum(b * (total // m) for b, m in zip(bs, moduli)) % total == 1 % total
            for b, m in zip(bs, moduli):
                assert 1 <= b < m and math.gcd(b, m) == 1

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            solve_unit_congruence([4, 6])

    def test_rejects_modulus_below_two(self):
        with pytest.raises(ValueError, match="moduli must be >= 2"):
            solve_unit_congruence([1, 3])

    def test_early_slots_get_one(self):
        divisors = planned(cls_of(1, {(3, 1): 2, (3, 2): 2}, 0))
        assert [b for c, m, _, b in divisors if (c, m) == (0, 3)] == [1]


class TestSolveTwist:
    def test_examples(self):
        assert build(cls_of(0, {(5, 1): 4}, 0)).twist == (-1,)
        assert build(cls_of(1, {(2, 1): 2, (3, 1): 2}, INFINITY)).twist == (0, -1)
        assert build(cls_of(0, {(2, 1): 1}, 1)).twist == (0,)

    def test_chart_k_coordinate_is_unit_fraction(self):
        rng = random.Random(71)
        for counts, i in [
            ({(5, 1): 4}, 0),
            ({(2, 1): 2, (3, 1): 2}, INFINITY),
            ({(2, 1): 1}, 1),
            ({(7, 2): 2, (3, 1): 4}, 0),
        ]:
            k = 1 if i is INFINITY else 0
            spec = build(cls_of(k, counts, i))
            c1 = full_report(spec).c1
            m_x = spec.multiplicity_lcm()
            assert c1[k].numerator == 1
            assert c1[k].denominator == m_x


class TestBuild:
    def test_examples(self):
        spec = build(cls_of(0, {(5, 1): 4}, 0))
        assert spec.to_json_dict() == {
            "charts": 1,
            "divisors": [
                {"chart": 0, "surface": {"orientable": True, "genus": 0}, "m": 2, "b": 1},
                {"chart": 0, "surface": {"orientable": True, "genus": 2}, "m": 5, "b": 3},
            ],
            "twist": [-1],
        }
        spec = build(cls_of(0, {(2, 1): 1}, 1))
        assert spec.to_json_dict()["divisors"] == [
            {"chart": 0, "surface": {"orientable": False, "b1": 1}, "m": 2, "b": 1}
        ]
        assert spec.to_json_dict()["twist"] == [0]

        spec = build(cls_of(1, {(2, 1): 2, (3, 1): 2}, INFINITY))
        assert spec.twist == (0, -1)
        assert [(d.chart, d.m, d.b) for d in spec.divisors] == [(1, 2, 1), (1, 3, 2)]

    def test_validates_and_primitive(self):
        rng = random.Random(73)
        admissible = []
        while len(admissible) < 60:
            k = rng.randint(0, 3)
            counts = {}
            for p in rng.sample([2, 3, 5, 7], k=rng.randint(0, 3)):
                counts[(p, rng.randint(1, 2))] = rng.choice([2, 4, 6])
            i = rng.choice([0, 1, INFINITY])
            cls = cls_of(k, counts, i)
            if not circle_action_admissible(cls).admissible:
                continue
            admissible.append(cls)
        for cls in admissible:
            spec = build(cls)
            assert spec.validate() == []
            mu = chern_mu(spec)
            # c1(L/mu) = H_k + 2 * (span of the earlier charts)
            assert mu[cls.k] == 1
            assert all(x % 2 == 0 for x in mu[: cls.k])
            assert math.gcd(*mu) == 1

    def test_deterministic(self):
        cls = cls_of(2, {(2, 1): 2, (3, 1): 4, (5, 1): 2}, 0)
        assert build(cls) == build(cls)


def _digest(lines):
    h = hashlib.sha256()
    for doc in lines:
        h.update(json.dumps(doc, separators=(",", ":")).encode() + b"\n")
    return h.hexdigest()


class TestBuildDigest:
    # Byte-level pins of build's output, recorded before build became one
    # pass: each spec's canonical JSON, or the rules of its rejection.
    def test_gate_oracle_grid(self):
        # The grid of TestGateOracle: every profile of order <= 512, k <= 3.
        lines = []
        for counts in _torsion_profiles(512):
            for k in range(4):
                group = AbelianGroup.from_counts(k, counts)
                for i in (0, 1, 2, 3, INFINITY):
                    try:
                        lines.append(build(FiveManifoldClass(group, i)).to_json_dict())
                    except GateRejection as exc:
                        lines.append(list(exc.verdict.violated_rules))
        assert len(lines) == 21_200
        assert sum(isinstance(doc, dict) for doc in lines) == 374
        assert _digest(lines) == (
            "71f2632fe4e0f3293398105f39f04690356ca8c2335979952b25d179175d9694"
        )

    def test_enumerate_20000_4(self):
        lines = [
            {"class": cls.to_json_dict(), "spec": spec.to_json_dict()}
            for cls, spec in enumerate_admissible(20000, 4)
        ]
        assert len(lines) == 3_711
        assert _digest(lines) == (
            "5b6c4ea7dcddd8b86609e7e1f297563fec14a8650523e86e847ec581e9635306"
        )


class TestRoundTrip:
    def test_spec_examples(self):
        rep = verify_roundtrip(cls_of(0, {(5, 1): 4}, 0))
        assert rep.h2 == AbelianGroup.from_counts(0, {(5, 1): 4})
        assert rep.wu == 0

        rep = verify_roundtrip(cls_of(0, {(2, 1): 1}, 1))
        assert rep.h2 == AbelianGroup.from_counts(0, {(2, 1): 1})
        assert rep.wu == 1

        rep = verify_roundtrip(cls_of(1, {(2, 1): 2, (3, 1): 2}, INFINITY))
        assert rep.h2 == AbelianGroup.from_counts(1, {(2, 1): 2, (3, 1): 2})
        assert rep.wu is INFINITY

    def test_trivial_homology_sphere(self):
        rep = verify_roundtrip(cls_of(0, {}, 0))
        assert rep.h2 == AbelianGroup()
        assert rep.wu == 0

    def test_multiple_even_charts(self):
        rep = verify_roundtrip(cls_of(2, {(2, 1): 2, (2, 2): 2}, INFINITY))
        assert rep.wu is INFINITY

    def test_free_only_infinity(self):
        rep = verify_roundtrip(cls_of(1, {}, INFINITY))
        assert rep.h2 == AbelianGroup(free_rank=1)
        assert rep.wu is INFINITY


    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                {"h1_order": 3, "h2": None, "h3_tors": None, "wu": INDETERMINATE,
                 "simply_connected": False},
                "h1_order = 3, expected 1",
            ),
            (
                {"h2": AbelianGroup.from_counts(0, {(5, 1): 2}), "wu": INFINITY},
                "h2 = (Z/5)^2, expected (Z/5)^4; wu = INFINITY, expected 0",
            ),
            ({"wu": INDETERMINATE}, "wu = INDETERMINATE, expected 0"),
        ],
    )
    def test_defect_messages(self, monkeypatch, changes, message):
        real = construct.full_report

        def changed(spec):
            report = real(spec)
            fields = {"h1_order": report.h1_order, "h2": report.h2, "h3_tors": report.h3_tors,
                      "c1": report.c1, "c1_mu": report.c1_mu, "wu": report.wu,
                      "simply_connected": report.simply_connected}
            return CohomologyReport(**{**fields, **changes})

        monkeypatch.setattr(construct, "full_report", changed)
        with pytest.raises(ConstructionDefect) as info:
            verify_roundtrip(cls_of(0, {(5, 1): 4}, 0))
        assert str(info.value) == message


class TestEnumerate:
    def test_sorted_and_admissible(self):
        items = list(enumerate_admissible(max_torsion_order=9, max_k=1))
        assert items
        keys = []
        for cls, spec in items:
            assert circle_action_admissible(cls).admissible
            assert spec.validate() == []
            i_key = (1, 0) if cls.i is INFINITY else (0, cls.i)
            keys.append((cls.k, torsion_order(cls.h2), cls.h2.torsion, i_key))
        assert keys == sorted(keys)

    def test_contents_small(self):
        items = list(enumerate_admissible(max_torsion_order=4, max_k=0))
        classes = [(cls.h2.torsion, cls.i) for cls, _ in items]
        # k = 0: trivial group with i = 0, Z/2 with i = 1, (Z/2)^2 with i in {0, 1}, Z/4 ...
        assert ((), 0) in classes
        assert (((2, 1, 1),), 1) in classes
        assert (((2, 1, 2),), 0) in classes
        assert (((2, 1, 2),), 1) in classes
        for torsion, i in classes:
            assert i is not INFINITY  # k = 0 cannot carry i = INFINITY

    @pytest.mark.parametrize("max_order, max_k", [(1, 0), (2, 0), (9, 1), (64, 3), (1024, 2)])
    def test_matches_generate_and_filter_oracle(self, max_order, max_k):
        assert list(enumerate_admissible(max_order, max_k)) == list(
            enumerate_admissible_by_filter(max_order, max_k)
        )

    @pytest.mark.parametrize("max_order, max_k", [(64, 3), (1024, 2)])
    def test_gates_and_builds_only_yielded_candidates(self, monkeypatch, max_order, max_k):
        # Candidates below their least k are never built, so build's gate
        # runs once per yielded class and never rejects, and no group is
        # made for a (k, profile) that yields nothing.
        gated, built, rejected, groups = [], [], [], []
        real_gate, real_build = construct.circle_action_admissible, construct.build
        real_from_counts = AbelianGroup.from_counts

        def from_counts_spy(k, counts):
            groups.append(real_from_counts(k, counts))
            return groups[-1]

        def gate_spy(cls):
            gated.append(cls)
            return real_gate(cls)

        def build_spy(cls):
            built.append(cls)
            try:
                return real_build(cls)
            except GateRejection:
                rejected.append(cls)
                raise

        monkeypatch.setattr(construct, "circle_action_admissible", gate_spy)
        monkeypatch.setattr(construct, "build", build_spy)
        monkeypatch.setattr(AbelianGroup, "from_counts", staticmethod(from_counts_spy))
        yielded = [cls for cls, _ in enumerate_admissible(max_order, max_k)]
        assert yielded
        assert gated == built == yielded
        assert rejected == []
        assert groups == list(dict.fromkeys(cls.h2 for cls in yielded))

    def test_omitted_profiles_are_unrealizable(self):
        # The small bounds pin the prime list's edges: no prime at all, a
        # prime at the bound, a prime power at the bound.
        small = {1: [{}], 3: [{}, {(2, 1): 1}, {(3, 1): 1}]}
        small[4] = small[3] + [{(2, 1): 2}, {(2, 2): 1}]
        for n in (1, 3, 4, 1024):
            profiles = list(_torsion_profiles(n))
            assert profiles == small.get(n, profiles)
            every = {tuple(sorted(counts.items())): counts for counts in profiles}
            kept = {tuple(sorted(counts.items())) for counts in _realizable_profiles(n)}
            assert kept <= set(every)
            for key in set(every) - kept:
                for k in range(3):
                    group = AbelianGroup.from_counts(k, every[key])
                    for i in (0, 1, INFINITY):
                        assert not smale_barden_realizable(FiveManifoldClass(group, i)), (
                            key, k, i)

    @pytest.mark.parametrize("max_order, max_k", [(0, 2), (-5, 1), (4, -1)])
    def test_rejects_bounds_below_minimum(self, max_order, max_k):
        with pytest.raises(ValueError, match="must be >="):
            list(enumerate_admissible(max_order, max_k))
