import math
import random

import pytest

from seifert5.orbit_local import LocalInvariants, StabilizerRep, local_invariants

from oracles import (
    OrbitInvariant,
    canonical,
    local_invariants_reference,
    orbit_invariant_from_rep,
    reconstruct_rep,
)


def quasi_reflection_oracle(m, exponents):
    """Literal manifold test: enumerate every nonidentity g in Z/m; g is a
    quasi-reflection iff g * j_i = 0 (mod m) for all but at most one i; the
    quotient is a manifold iff the quasi-reflections generate Z/m."""
    generated = m
    for g in range(1, m):
        moved = sum(1 for j in exponents if (g * j) % m != 0)
        if moved <= 1:
            generated = math.gcd(generated, g)
    return generated == 1


class TestStabilizerRep:
    def test_faithfulness_enforced(self):
        with pytest.raises(ValueError):
            StabilizerRep(6, (2, 4))
        StabilizerRep(6, (2, 3))

    def test_exponent_range(self):
        with pytest.raises(ValueError):
            StabilizerRep(5, (0,))
        with pytest.raises(ValueError):
            StabilizerRep(5, (5,))

    def test_canonical_form(self):
        rep = StabilizerRep(7, (5, 2))
        assert canonical(rep).exponents == (2, 2)
        assert canonical(StabilizerRep(2, (1,))).exponents == (1,)


class TestLocalInvariants:
    def test_examples(self):
        inv = local_invariants(StabilizerRep(12, (3, 4)))
        assert inv == LocalInvariants(c=(4, 3), d=(1, 1), C=12, manifold_point=True)
        inv = local_invariants(StabilizerRep(4, (1, 1)))
        assert (inv.c, inv.C, inv.manifold_point) == ((1, 1), 1, False)

    def test_single_exponent_is_manifold(self):
        for m, j in [(2, 1), (9, 4), (30, 7)]:
            inv = local_invariants(StabilizerRep(m, (j,)))
            assert inv.c == (m,) and inv.manifold_point

    def test_c_pairwise_coprime_and_divides(self):
        rng = random.Random(17)
        for _ in range(300):
            m = rng.randint(2, 120)
            r = rng.randint(1, 3)
            js = tuple(rng.randint(1, m - 1) for _ in range(r))
            if math.gcd(*js, m) != 1:
                continue
            inv = local_invariants(StabilizerRep(m, js))
            for a in range(r):
                for b in range(a + 1, r):
                    assert math.gcd(inv.c[a], inv.c[b]) == 1
            assert m % inv.C == 0

    def test_against_oracle_sampled(self):
        rng = random.Random(23)
        for _ in range(400):
            m = rng.randint(2, 80)
            r = rng.randint(1, 3)
            js = tuple(rng.randint(1, m - 1) for _ in range(r))
            if math.gcd(*js, m) != 1:
                continue
            got = local_invariants(StabilizerRep(m, js)).manifold_point
            assert got == quasi_reflection_oracle(m, js), (m, js)

    def test_against_quadratic_reference(self):
        # Prefix and suffix gcds against one gcd per slot over the others.
        rng = random.Random(29)
        checked = 0
        while checked < 3000:
            m = rng.randint(1, 400)
            r = rng.randint(0, 6)
            js = tuple(rng.randint(1, m - 1) for _ in range(r)) if m > 1 else ()
            if math.gcd(*js, m) != 1:
                continue
            checked += 1
            rep = StabilizerRep(m, js)
            assert local_invariants(rep) == local_invariants_reference(rep), (m, js)

    def test_twenty_thousand_slots(self):
        # m = 6: slot 0 alone is odd, every slot but 0 is prime to 3, so
        # c_0 = gcd(6, evens) = 2 and every other c_i = gcd(6, 3, evens) = 1.
        js = (3,) + (2, 4) * 9_999 + (2,)
        inv = local_invariants(StabilizerRep(6, js))
        assert len(js) == 20_000
        assert inv.c == (2,) + (1,) * 19_999
        assert inv.d == (3,) + tuple(j // 2 for j in js[1:])
        assert (inv.C, inv.manifold_point) == (2, False)


class TestOrbitInvariant:
    def test_examples(self):
        assert orbit_invariant_from_rep(5, 2) == OrbitInvariant(5, 3)
        assert orbit_invariant_from_rep(2, 1) == OrbitInvariant(2, 1)
        assert orbit_invariant_from_rep(7, 1) == OrbitInvariant(7, 1)

    def test_defining_congruence(self):
        for m in range(2, 40):
            for j in range(1, m):
                if math.gcd(j, m) != 1:
                    with pytest.raises(ValueError):
                        orbit_invariant_from_rep(m, j)
                    continue
                inv = orbit_invariant_from_rep(m, j)
                assert 1 <= inv.b < m
                assert (inv.b * j) % m == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            OrbitInvariant(4, 2)
        with pytest.raises(ValueError):
            OrbitInvariant(1, 1)


class TestReconstruct:
    def test_examples(self):
        assert reconstruct_rep([(4, 3), (3, 1)]).exponents == (3, 4)
        assert reconstruct_rep([(5, 2)]).exponents == (3,)
        rep = reconstruct_rep([(2, 1), (3, 2)])
        assert rep.m == 6 and rep.exponents == (3, 2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            reconstruct_rep([(4, 3), (6, 1)])  # not coprime
        with pytest.raises(ValueError):
            reconstruct_rep([(4, 2)])  # b not a unit
        with pytest.raises(ValueError):
            reconstruct_rep([])

    def test_round_trip_from_manifold_reps(self):
        # local_invariants then reconstruct_rep is the identity on manifold
        # points, up to the orientation choice in each slot
        rng = random.Random(31)
        found = 0
        while found < 150:
            m = rng.randint(2, 150)
            r = rng.randint(1, 2)
            js = tuple(rng.randint(1, m - 1) for _ in range(r))
            if math.gcd(*js, m) != 1:
                continue
            rep = StabilizerRep(m, js)
            inv = local_invariants(rep)
            if not inv.manifold_point:
                continue
            found += 1
            pairs = []
            ok = True
            for c, j in zip(inv.c, js):
                if c == 1:
                    ok = False
                    break
                pairs.append((c, pow(j, -1, c)))
            if not ok:
                continue
            rebuilt = reconstruct_rep(pairs)
            assert rebuilt.m == m
            assert rebuilt.exponents == tuple(j % m for j in js)

    def test_reconstruct_satisfies_congruences(self):
        rng = random.Random(37)
        for _ in range(200):
            r = rng.randint(1, 3)
            pool = [2, 3, 4, 5, 7, 9, 11, 13, 8, 25]
            rng.shuffle(pool)
            cs = []
            for c in pool:
                if all(math.gcd(c, x) == 1 for x in cs):
                    cs.append(c)
                if len(cs) == r:
                    break
            pairs = []
            for c in cs:
                units = [b for b in range(1, c) if math.gcd(b, c) == 1]
                pairs.append((c, rng.choice(units)))
            rep = reconstruct_rep(pairs)
            for i, (c, b) in enumerate(pairs):
                j = rep.exponents[i]
                assert (j * b) % c == 1
                for l, (c_other, _) in enumerate(pairs):
                    if l != i:
                        assert j % c_other == 0
            # coprimality of the divisor multiplicities at a common point
            for a in range(len(pairs)):
                for b_ in range(a + 1, len(pairs)):
                    assert math.gcd(pairs[a][0], pairs[b_][0]) == 1
