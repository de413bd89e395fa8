"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance here is exact (integer arithmetic);
the only numeric budgets are wall-clock limits.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement

from seifert5.abgroup import AbelianGroup, factorize
from seifert5.classify import (
    INFINITY,
    FiveManifoldClass,
    circle_action_admissible,
    smale_barden_realizable,
    validate_i,
)
from seifert5.cohomology import INDETERMINATE, full_report
from seifert5.construct import solve_unit_congruence, verify_roundtrip
from seifert5.orbit_local import StabilizerRep, local_invariants
from seifert5.sasakian import Quadratic, sasaki_check
from seifert5.seifert import Divisor, Orientable, SeifertSpec, SpecValidationError

from oracles import (
    IntMatrix,
    det,
    direct_sum,
    matmul,
    quadratic_interval_count,
    restriction_is_surjective,
    smith_normal_form,
)


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.2f} s)")
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# 1. Homology-sphere gate


def even_count_profiles(max_power, max_order):
    powers = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79):
        q = p
        while q <= max_power:
            powers.append(q)
            q *= p
    powers.sort()
    out = []

    def rec(idx, order, acc):
        out.append(dict(acc))
        for i in range(idx, len(powers)):
            q = powers[i]
            ((p, e),) = factorize(q).items()
            count = 2
            new = order * q * q
            while new <= max_order:
                acc[(p, e)] = count
                rec(i + 1, new, acc)
                count += 2
                new *= q * q
            acc.pop((p, e), None)

    rec(0, 1, {})
    return out


def test_criterion_1_homology_sphere_gate():
    with criterion(1, "homology-sphere gate", 1.0):
        profiles = even_count_profiles(max_power=81, max_order=10**4)
        assert len(profiles) > 100
        for counts in profiles:
            order = math.prod((p**e) ** c for (p, e), c in counts.items())
            assert order <= 10**4
            cls = FiveManifoldClass(AbelianGroup.from_counts(0, counts), 0)
            admissible = circle_action_admissible(cls).admissible
            one_power_per_prime = all(
                sum(1 for (q, _) in counts if q == p) <= 1 for p in {q for q, _ in counts}
            )
            assert admissible == one_power_per_prime, counts


# ---------------------------------------------------------------------------
# 2. Construction round trip


def test_criterion_2_construction_round_trip():
    with criterion(2, "construction round trip", 10.0):
        rng = random.Random(20260810)
        cases = []
        powers = [(p, e) for p in (2, 3, 5, 7, 11, 13) for e in (1, 2, 3)]
        while len(cases) < 200:
            k = rng.randint(0, 4)
            counts = {}
            for key in rng.sample(powers, k=rng.randint(0, 4)):
                counts[key] = rng.randint(1, 8)
            group = AbelianGroup.from_counts(k, counts)
            for i in (0, 1, INFINITY):
                cls = FiveManifoldClass(group, i)
                if circle_action_admissible(cls).admissible:
                    cases.append(cls)
        targets_seen = set()
        for cls in cases:
            report = verify_roundtrip(cls)
            assert report.h1_order == 1
            assert report.h2 == AbelianGroup(cls.k, cls.h2.torsion)
            assert report.wu is not INDETERMINATE
            assert report.wu == cls.i
            targets_seen.add(repr(cls.i))
        assert targets_seen == {"0", "1", "INFINITY"}


# ---------------------------------------------------------------------------
# 3. H1 order law


def test_criterion_3_h1_order_law():
    with criterion(3, "H1 order law", 10.0):
        for m in range(2, 31):
            for b in range(1, m):
                if math.gcd(b, m) != 1:
                    continue
                for h in range(-5, 6):
                    spec = SeifertSpec(
                        charts=1,
                        divisors=(Divisor(0, Orientable(0), m, b),),
                        twist=(h,),
                    )
                    assert full_report(spec).h1_order == abs(m * h + b), (m, b, h)


# ---------------------------------------------------------------------------
# 4. Congruence solver


def test_criterion_4_congruence_solver():
    with criterion(4, "congruence solver", 10.0):
        rng = random.Random(424242)
        done = 0
        while done < 500:
            size = rng.randint(1, 5)
            moduli = []
            product = 1
            for _ in range(30):
                m = rng.randint(2, 50)
                if product * m > 10**4:
                    continue
                if all(math.gcd(m, x) == 1 for x in moduli):
                    moduli.append(m)
                    product *= m
                if len(moduli) == size:
                    break
            if not moduli:
                continue
            done += 1
            bs = solve_unit_congruence(moduli)
            total = math.prod(moduli)
            assert total <= 10**4
            # independent re-verification, fresh arithmetic
            acc = 0
            for b, m in zip(bs, moduli):
                assert math.gcd(b, m) == 1
                assert 1 <= b < m
                acc = (acc + b * (total // m)) % total
            assert acc == 1 % total


# ---------------------------------------------------------------------------
# 5. Local quotient test


def quasi_reflection_oracle(m, exponents):
    """Literal scan over all nonidentity g in Z/m."""
    generated = m
    for g in range(1, m):
        moved = sum(1 for j in exponents if (g * j) % m != 0)
        if moved <= 1:
            generated = math.gcd(generated, g)
            if generated == 1:
                return True
    return generated == 1


def quasi_reflection_oracle_large(m, exponents):
    """Same subgroup, enumerated through the quasi-reflection sets.

    g fixes coordinate l iff d_l | g where d_l = m / gcd(j_l, m), so the
    quasi-reflections moving at most coordinate i are exactly the nonzero
    multiples of D_i = lcm of the other d_l.  Each candidate is confirmed
    by the literal moved-coordinate count before use.
    """
    ds = [m // math.gcd(j, m) for j in exponents]
    generated = m
    for i in range(len(exponents)):
        others = [d for l, d in enumerate(ds) if l != i]
        D = math.lcm(*others) if others else 1
        g = D
        while g < m:
            moved = sum(1 for j in exponents if (g * j) % m != 0)
            assert moved <= 1
            generated = math.gcd(generated, g)
            if generated == 1:
                return True
            g += D
    return generated == 1


def test_criterion_5_local_quotient_test():
    with criterion(5, "local quotient test", 30.0):
        # Exhaustive over every decision-relevant input with m <= 200 and
        # r <= 3.  Both the implementation and the oracle read the
        # exponents only through gcd(j_i, m) (the complementary gcds c_i
        # and the coordinate orders d_i are unchanged when j_i is replaced
        # by gcd(j_i, m)), so enumerating all divisor profiles covers all
        # faithful representations; the reduction itself is asserted on a
        # random sample below.
        for m in range(2, 201):
            divisors = [d for d in range(1, m) if m % d == 0]
            for r in (2, 3):
                for profile in combinations_with_replacement(divisors, r):
                    if math.gcd(*profile) != 1:
                        continue
                    got = local_invariants(StabilizerRep(m, profile)).manifold_point
                    assert got == quasi_reflection_oracle(m, profile), (m, profile)
        # r = 1, fully literal: every faithful exponent.
        for m in range(2, 201):
            for j in range(1, m):
                if math.gcd(j, m) == 1:
                    got = local_invariants(StabilizerRep(m, (j,))).manifold_point
                    assert got and quasi_reflection_oracle(m, (j,))
        # Literal sweeps over raw exponent tuples on smaller ranges.
        for m in range(2, 61):
            for js in itertools.product(range(1, m), repeat=2):
                if math.gcd(*js, m) != 1:
                    continue
                got = local_invariants(StabilizerRep(m, js)).manifold_point
                assert got == quasi_reflection_oracle(m, js), (m, js)
        for m in range(2, 26):
            for js in itertools.product(range(1, m), repeat=3):
                if math.gcd(*js, m) != 1:
                    continue
                got = local_invariants(StabilizerRep(m, js)).manifold_point
                assert got == quasi_reflection_oracle(m, js), (m, js)
        rng = random.Random(5)
        # gcd-reduction law on random raw tuples
        for _ in range(2000):
            m = rng.randint(2, 200)
            r = rng.randint(1, 3)
            js = tuple(rng.randint(1, m - 1) for _ in range(r))
            if math.gcd(*js, m) != 1:
                continue
            reduced = tuple(math.gcd(j, m) for j in js)
            a = local_invariants(StabilizerRep(m, js))
            b = local_invariants(StabilizerRep(m, reduced))
            assert a.c == b.c and a.C == b.C and a.manifold_point == b.manifold_point
        # 10^4 random representations with m <= 5000
        checked = 0
        while checked < 10**4:
            m = rng.randint(2, 5000)
            r = rng.randint(1, 3)
            js = tuple(rng.randint(1, m - 1) for _ in range(r))
            if math.gcd(*js, m) != 1:
                continue
            checked += 1
            got = local_invariants(StabilizerRep(m, js)).manifold_point
            assert got == quasi_reflection_oracle_large(m, js), (m, js)


# ---------------------------------------------------------------------------
# 6. Sasakian module


def test_criterion_6_sasakian():
    with criterion(6, "sasakian obstructions", 30.0):
        # (a) the degree family is feasible with zero exceptions for every
        # n <= 20, the covering quadratic t^2 - 3t + 2 hits every member,
        # and it is the reported witness once the family determines it
        # (n >= 5; below that the two-point prefix is covered by the
        # strictly simpler t^2 + 2, which wins the canonical tie-break).
        named = Quadratic(1, -3, 2)
        for n in range(3, 21):
            family = [(i - 1) * (i - 2) for i in range(3, n + 1)]
            assert all(named.contains(v) for v in family)
            report = sasaki_check(family)
            assert report.feasible
            assert report.exceptions == frozenset()
            if n >= 5:
                assert (report.witness.a, report.witness.b, report.witness.c) == (1, -3, 2)
        # (b) staircase family: k = 30 is infeasible via the density bound
        report = sasaki_check(range(2, 61, 2))
        assert not report.feasible
        assert report.densest_violation is not None
        assert (30 - 12) ** 2 > 4 * 58  # 30 > 12 + 2*sqrt(58), exactly
        threshold = 0
        for k in range(1, 31):
            rep = sasaki_check(range(2, 2 * k + 1, 2))
            if not rep.feasible:
                assert rep.search_complete or rep.densest_violation is not None
                break
            threshold = k
        print(f"  staircase exact-search threshold: k = {threshold}")
        assert threshold <= 30
        # (c) interval count law over 1000 random quadratic/interval pairs
        rng = random.Random(66)
        for _ in range(1000):
            q = Quadratic(rng.randint(1, 9), rng.randint(-20, 20), rng.randint(-50, 50))
            lo = rng.randint(-100, 100)
            hi = lo + rng.randint(0, 500)
            count = quadratic_interval_count(q, lo, hi)
            assert count <= 2 or q.a * (count - 2) ** 2 <= 4 * (hi - lo)


# ---------------------------------------------------------------------------
# 7. Linear-algebra substrate


def brute_force_image_full(rows, moduli, charts):
    total = math.prod(moduli)
    zero = tuple(0 for _ in moduli)
    generators = [tuple(row[l] % m for row, m in zip(rows, moduli)) for l in range(charts)]
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in generators:
            nxt = tuple((a + b) % m for a, b, m in zip(cur, g, moduli))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == total


def test_criterion_7_linear_algebra_substrate():
    with criterion(7, "linear-algebra substrate", 30.0):
        rng = random.Random(777)
        for _ in range(500):
            rows_n = rng.randint(1, 6)
            cols_n = rng.randint(1, 6)
            A = IntMatrix.from_rows(
                [[rng.randint(-20, 20) for _ in range(cols_n)] for _ in range(rows_n)]
            )
            U, D, V = smith_normal_form(A)
            assert matmul(matmul(U, A), V) == D
            assert abs(det(U)) == 1
            assert abs(det(V)) == 1
            diag = D.diagonal()
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0 if a else b == 0
        # the reference engine's restriction-map surjectivity against subgroup enumeration
        done = 0
        while done < 200:
            charts = rng.randint(1, 4)
            n = rng.randint(1, 4)
            moduli = [rng.choice([2, 3, 4, 5, 6, 7, 9, 10]) for _ in range(n)]
            if math.prod(moduli) > 10**4:
                continue
            rows = tuple(tuple(rng.randint(0, 6) for _ in range(charts)) for _ in range(n))
            divisors = tuple(Divisor(0, Orientable(0), m, 1) for m in moduli)
            try:  # a spec refuses same-chart multiplicities that are not coprime
                SeifertSpec(charts=charts, divisors=divisors, twist=(0,) * charts)
            except SpecValidationError:
                continue
            done += 1
            assert restriction_is_surjective(rows, moduli) == brute_force_image_full(
                rows, moduli, charts
            )


# ---------------------------------------------------------------------------
# 8. Smale-Barden classifier


def torsion_groups_up_to(max_order):
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


def achievable_wu_values(counts):
    """Minimal 2-power orders carried by a nonzero w2, by literal
    enumeration of homomorphisms and elements of the 2-part."""
    summands = [e for (p, e), c in sorted(counts.items()) if p == 2 for _ in range(c)]
    achievable = set()
    for hom in itertools.product((0, 1), repeat=len(summands)):
        if not any(hom):
            continue
        best = None
        for element in itertools.product(*(range(2**e) for e in summands)):
            if sum(h * x for h, x in zip(hom, element)) % 2 == 0:
                continue
            order = max(2**e // math.gcd(x, 2**e) for x, e in zip(element, summands))
            best = order if best is None else min(best, order)
        if best is not None:
            achievable.add(best.bit_length() - 1)
    return achievable


def test_criterion_8_smale_barden_classifier():
    with criterion(8, "Smale-Barden classifier", 5.0):
        groups = torsion_groups_up_to(64)
        halves = [AbelianGroup.from_counts(0, c) for c in torsion_groups_up_to(8)]
        z2 = AbelianGroup.from_counts(0, {(2, 1): 1})
        doubled = {direct_sum(a, a).torsion for a in halves}
        doubled_plus = {direct_sum(direct_sum(a, a), z2).torsion for a in halves}
        for counts in groups:
            target = AbelianGroup.from_counts(0, counts)
            finite_is = achievable_wu_values(counts)
            for k in (0, 1, 2):
                for i in [0, 1, 2, 3, 4, 5, 6, INFINITY]:
                    cls = FiveManifoldClass(AbelianGroup.from_counts(k, counts), i)
                    got = validate_i(cls.h2, cls.i) and smale_barden_realizable(cls)
                    if target.torsion in doubled:
                        if i is INFINITY:
                            want = k >= 1
                        elif i == 0:
                            want = True
                        else:
                            want = i in finite_is
                    else:
                        want = False
                    if not want and target.torsion in doubled_plus and i == 1:
                        want = True
                    assert got == want, (counts, k, i)
