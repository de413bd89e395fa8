import dataclasses
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
from seifert5.cohomology import INDETERMINATE, full_report
from seifert5.construct import (
    ConstructionDefect,
    GateRejection,
    _realizable_profiles,
    _torsion_profiles,
    build,
    enumerate_admissible,
    schedule,
    solve_b,
    solve_twist,
    solve_unit_congruence,
    verify_roundtrip,
)
from seifert5.seifert import chern_mu

from oracles import enumerate_admissible_by_filter


def cls_of(k, counts, i):
    return FiveManifoldClass(AbelianGroup.from_counts(k, counts), i)


class TestSchedule:
    def test_homology_sphere_example(self):
        sched = schedule(cls_of(0, {(5, 1): 4}, 0))
        planned = [(e.slot, e.m, e.orientable, e.genus) for e in sched.entries]
        assert planned == [(0, 2, True, 0), (0, 5, True, 2)]

    def test_i_one_example(self):
        sched = schedule(cls_of(0, {(2, 1): 1}, 1))
        (entry,) = sched.entries
        assert (entry.m, entry.orientable, entry.b1) == (2, False, 1)

    def test_k_one_infinity_example(self):
        sched = schedule(cls_of(1, {(2, 1): 2, (3, 1): 2}, INFINITY))
        planned = [(e.slot, e.m, e.genus) for e in sched.entries]
        assert planned == [(1, 2, 1), (1, 3, 1)]

    def test_increasing_powers_right_aligned(self):
        sched = schedule(cls_of(2, {(3, 1): 2, (3, 2): 4}, 0))
        threes = [(e.slot, e.m) for e in sched.entries if e.prime == 3]
        assert threes == [(1, 3), (2, 9)]

    def test_rejects_with_verdict(self):
        with pytest.raises(GateRejection) as err:
            schedule(cls_of(0, {(5, 1): 2, (5, 2): 2}, 0))
        assert "R1_PRIME_COUNT" in err.value.verdict.violated_rules

    def test_i_one_with_even_c2(self):
        sched = schedule(cls_of(0, {(2, 1): 2}, 1))
        (entry,) = sched.entries
        assert not entry.orientable and entry.b1 == 2


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

    def test_early_slots_get_one(self):
        sched = schedule(cls_of(1, {(3, 1): 2, (3, 2): 2}, 0))
        bs = solve_b(sched)
        assert bs[(3, 0)] == 1


class TestSolveTwist:
    def test_examples(self):
        sched = schedule(cls_of(0, {(5, 1): 4}, 0))
        bs = solve_b(sched)
        assert solve_twist(sched, bs, 0) == (-1,)

        sched = schedule(cls_of(1, {(2, 1): 2, (3, 1): 2}, INFINITY))
        bs = solve_b(sched)
        assert solve_twist(sched, bs, INFINITY) == (0, -1)

        sched = schedule(cls_of(0, {(2, 1): 1}, 1))
        bs = solve_b(sched)
        assert solve_twist(sched, bs, 1) == (0,)

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
            assert c1[spec.k].numerator == 1
            assert c1[spec.k].denominator == m_x


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
            assert mu[spec.k] == 1
            assert all(x % 2 == 0 for x in mu[: spec.k])
            assert math.gcd(*mu) == 1

    def test_deterministic(self):
        cls = cls_of(2, {(2, 1): 2, (3, 1): 4, (5, 1): 2}, 0)
        assert build(cls) == build(cls)


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
        monkeypatch.setattr(
            construct, "full_report", lambda spec: dataclasses.replace(real(spec), **changes)
        )
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
            keys.append((cls.k, cls.h2.torsion_order(), cls.h2.torsion, i_key))
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
    def test_gates_each_candidate_once(self, monkeypatch, max_order, max_k):
        # build's gate alone decides: one call per (k, profile, i) candidate
        calls = []
        real = construct.circle_action_admissible

        def spy(cls):
            calls.append(cls)
            return real(cls)

        monkeypatch.setattr(construct, "circle_action_admissible", spy)
        list(enumerate_admissible(max_order, max_k))
        assert len(calls) == 3 * (max_k + 1) * len(_realizable_profiles(max_order))

    def test_omitted_profiles_are_unrealizable(self):
        n = 1024
        every = {tuple(sorted(counts.items())): counts for counts in _torsion_profiles(n)}
        kept = {tuple(sorted(counts.items())) for counts in _realizable_profiles(n)}
        assert kept <= set(every)
        for key in set(every) - kept:
            for k in range(3):
                group = AbelianGroup.from_counts(k, every[key])
                for i in (0, 1, INFINITY):
                    assert not smale_barden_realizable(FiveManifoldClass(group, i)), (key, k, i)

    @pytest.mark.parametrize("max_order, max_k", [(0, 2), (-5, 1), (4, -1)])
    def test_rejects_bounds_below_minimum(self, max_order, max_k):
        with pytest.raises(ValueError, match="must be >="):
            list(enumerate_admissible(max_order, max_k))
