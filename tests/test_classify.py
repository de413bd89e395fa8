import itertools
import math
import random

import pytest

from seifert5.abgroup import AbelianGroup, factorize
from seifert5.classify import (
    INFINITY,
    _least_k,
    INVALID_I,
    NOT_REALIZABLE,
    R1_PRIME_COUNT,
    R2_WU_RANGE,
    R3_SPIN_TWO_COUNT,
    FiveManifoldClass,
    GateVerdict,
    circle_action_admissible,
    decode_i,
    encode_i,
    smale_barden_realizable,
    validate_i,
)
from seifert5.construct import _torsion_profiles

from oracles import (
    circle_action_admissible_reference,
    direct_sum,
    smale_barden_realizable_reference,
    torsion_order,
)


def torsion_groups_up_to(max_order):
    """All finite abelian groups of order <= max_order, as count maps."""
    powers = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        q = p
        while q <= max_order:
            powers.append(q)
            q *= p
    powers.sort()
    out = []

    def rec(idx, order, acc):
        out.append(dict(acc))
        for i in range(idx, len(powers)):
            q = powers[i]
            ((p, e),) = factorize(q).items()
            new = order * q
            c = 1
            while new <= max_order:
                acc[(p, e)] = c
                rec(i + 1, new, acc)
                c += 1
                new *= q
            acc.pop((p, e), None)

    rec(0, 1, {})
    return out


def oracle_achievable_i(counts, k):
    """Which Wu invariants a manifold with torsion A (given by counts) and
    free rank k can carry when w2 is arbitrary.

    Fully literal: enumerate all elements of the 2-primary part of the
    torsion group and all homomorphisms to Z/2, and read off the minimal
    2-power order of an element with nonzero value.  Odd torsion cannot
    meet Z/2, and i = INFINITY needs a free summand for w2 to live on.
    """
    summands = [e for (p, e), c in sorted(counts.items()) if p == 2 for _ in range(c)]
    achievable = {0}
    if k >= 1:
        achievable.add(INFINITY)
    # A hom is a choice of 0/1 per Z/2^e summand (value on the generator);
    # the class (x_1, ..., x_n) maps to sum of h_i * x_i mod 2.
    for hom in itertools.product((0, 1), repeat=len(summands)):
        if not any(hom):
            continue
        best = None
        for element in itertools.product(*(range(2**e) for e in summands)):
            if sum(h * x for h, x in zip(hom, element)) % 2 == 0:
                continue
            order = max(2**e // math.gcd(x, 2**e) for x, e in zip(element, summands))
            if best is None or order < best:
                best = order
        if best is not None:
            achievable.add(best.bit_length() - 1)
    return achievable


def oracle_realizable(counts, k, i):
    """Literal reading of the structure theorem: torsion must be A + A with
    any achievable w2, or A + A + Z/2 with w2 the projection (so i = 1)."""
    groups = torsion_groups_up_to(64)
    target = AbelianGroup.from_counts(0, counts)
    for a_counts in groups:
        a = AbelianGroup.from_counts(0, a_counts)
        if direct_sum(a, a) == target:
            if i in oracle_achievable_i(counts, k):
                return True
        extra = direct_sum(direct_sum(a, a), AbelianGroup.from_counts(0, {(2, 1): 1}))
        if extra == target and i == 1:
            return True
    return False


class TestValidateI:
    def test_examples(self):
        assert validate_i(AbelianGroup.from_counts(0, {(2, 2): 2}), 2)
        assert validate_i(AbelianGroup(free_rank=2), 0)
        assert not validate_i(AbelianGroup.from_counts(0, {(5, 1): 4}), INFINITY)

    def test_finite_needs_matching_two_power(self):
        g = AbelianGroup.from_counts(0, {(2, 1): 2})
        assert validate_i(g, 1)
        assert not validate_i(g, 2)

    def test_infinity_needs_free_part(self):
        assert validate_i(AbelianGroup.from_counts(1, {(3, 1): 2}), INFINITY)

    def test_rejects_bad_types(self):
        with pytest.raises(ValueError):
            validate_i(AbelianGroup(), -1)
        with pytest.raises(ValueError):
            FiveManifoldClass(AbelianGroup(), -3)


class TestSmaleBarden:
    def test_examples(self):
        assert smale_barden_realizable(
            FiveManifoldClass(AbelianGroup.from_counts(0, {(2, 1): 1}), 1)
        )
        assert not smale_barden_realizable(
            FiveManifoldClass(AbelianGroup.from_counts(0, {(3, 1): 1}), 0)
        )
        assert smale_barden_realizable(
            FiveManifoldClass(AbelianGroup.from_counts(1, {(5, 1): 2}), INFINITY)
        )

    def test_exhaustive_small_orders_against_oracle(self):
        for counts in torsion_groups_up_to(16):
            group_order = torsion_order(AbelianGroup.from_counts(0, counts))
            assert group_order <= 16
            for k in (0, 1):
                candidates = [0, 1, 2, 3, 4, INFINITY]
                for i in candidates:
                    cls = FiveManifoldClass(AbelianGroup.from_counts(k, counts), i)
                    got = validate_i(cls.h2, cls.i) and smale_barden_realizable(cls)
                    want = oracle_realizable(counts, k, i)
                    assert got == want, (counts, k, i)


class TestGate:
    def test_examples(self):
        def verdict(k, counts, i):
            return circle_action_admissible(
                FiveManifoldClass(AbelianGroup.from_counts(k, counts), i)
            )

        assert verdict(0, {(5, 1): 4}, 0).admissible
        assert verdict(0, {(5, 1): 2, (5, 2): 2}, 0).violated_rules == (R1_PRIME_COUNT,)
        assert verdict(1, {(2, 1): 2, (2, 2): 2}, INFINITY).violated_rules == (
            R3_SPIN_TWO_COUNT,
        )
        assert verdict(5, {(2, 2): 2}, 2).violated_rules == (R2_WU_RANGE,)

    def test_invalid_and_unrealizable_tags(self):
        v = circle_action_admissible(
            FiveManifoldClass(AbelianGroup.from_counts(0, {(5, 1): 4}), INFINITY)
        )
        assert INVALID_I in v.violated_rules
        v = circle_action_admissible(
            FiveManifoldClass(AbelianGroup.from_counts(0, {(3, 1): 1}), 0)
        )
        assert NOT_REALIZABLE in v.violated_rules

    def test_verdict_consistency(self):
        with pytest.raises(ValueError):
            GateVerdict(admissible=True, violated_rules=(R1_PRIME_COUNT,))

    def test_monotone_in_k(self):
        rng = random.Random(99)
        groups = torsion_groups_up_to(48)
        for _ in range(300):
            counts = rng.choice(groups)
            k = rng.randint(0, 3)
            i = rng.choice([0, 1, 2, INFINITY])
            lower = circle_action_admissible(
                FiveManifoldClass(AbelianGroup.from_counts(k, counts), i)
            )
            if lower.admissible:
                higher = circle_action_admissible(
                    FiveManifoldClass(AbelianGroup.from_counts(k + 1, counts), i)
                )
                assert higher.admissible, (counts, k, i)

    def test_homology_sphere_criterion_small(self):
        # k = 0, all counts even: admissible iff one nonzero count per prime
        for counts in torsion_groups_up_to(36):
            if any(c % 2 for c in counts.values()):
                continue
            cls = FiveManifoldClass(AbelianGroup.from_counts(0, counts), 0)
            per_prime_ok = all(
                len([e for (q, e) in counts if q == p]) <= 1 for p in {q for q, _ in counts}
            )
            assert circle_action_admissible(cls).admissible == per_prime_ok


class TestGateOracle:
    def test_matches_reference_on_every_profile_to_512(self):
        # The gate and realizability against the per-rule reference on every
        # torsion profile of order <= 512, for k <= 3 and five values of i.
        cases = 0
        for counts in _torsion_profiles(512):
            for k in range(4):
                group = AbelianGroup.from_counts(k, counts)
                for i in (0, 1, 2, 3, INFINITY):
                    cls = FiveManifoldClass(group, i)
                    verdict = circle_action_admissible(cls)
                    want = circle_action_admissible_reference(cls)
                    assert verdict.violated_rules == want.violated_rules, (counts, k, i)
                    assert verdict.admissible == want.admissible, (counts, k, i)
                    assert smale_barden_realizable(cls) == smale_barden_realizable_reference(
                        cls
                    ), (counts, k, i)
                    cases += 1
        assert cases == 21_200

    def test_least_k_is_the_gate_threshold(self):
        # On the same cases: admissible exactly from _least_k on, reading
        # the torsion as enumerate_admissible hands it over.
        cases = 0
        for counts in _torsion_profiles(512):
            torsion = [(p, e, c) for (p, e), c in counts.items()]
            for i in (0, 1, 2, 3, INFINITY):
                least = _least_k(torsion, i)
                for k in range(4):
                    cls = FiveManifoldClass(AbelianGroup.from_counts(k, counts), i)
                    admissible = circle_action_admissible(cls).admissible
                    assert admissible == (least is not None and k >= least), (counts, k, i)
                    cases += 1
        assert cases == 21_200


class TestWire:
    def test_encode_decode(self):
        assert encode_i(INFINITY) == "inf"
        assert decode_i("inf") is INFINITY
        assert decode_i(3) == 3
        with pytest.raises(ValueError):
            decode_i("three")
        with pytest.raises(ValueError):
            decode_i(-1)
        with pytest.raises(ValueError):
            decode_i(True)

    def test_class_json_round_trip(self):
        cls = FiveManifoldClass(AbelianGroup.from_counts(2, {(3, 1): 2}), INFINITY)
        assert FiveManifoldClass.from_json_dict(cls.to_json_dict()) == cls
        with pytest.raises(ValueError, match="'i'"):
            FiveManifoldClass.from_json_dict({"free_rank": 0, "torsion": []})

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    @pytest.mark.parametrize("field", ["free_rank", "p", "e", "count", "i"])
    def test_integer_fields_refuse_non_integers(self, field, value):
        data = {"free_rank": 1, "torsion": [{"p": 3, "e": 1, "count": 2}], "i": 0}
        FiveManifoldClass.from_json_dict(data)
        if field in ("free_rank", "i"):
            data[field] = value
        else:
            data["torsion"][0][field] = value
        with pytest.raises(ValueError):
            FiveManifoldClass.from_json_dict(data)
