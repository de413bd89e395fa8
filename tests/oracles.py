"""Reference implementations that the library replaced, kept as test oracles."""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from seifert5.abgroup import AbelianGroup, IntMatrix, group_from_cokernel
from seifert5.classify import INFINITY, FiveManifoldClass, circle_action_admissible
from seifert5.cohomology import INDETERMINATE, CohomologyReport
from seifert5.construct import _torsion_profiles, build
from seifert5.sasakian import (
    DEFAULT_CANDIDATE_CAP,
    MAX_EXCEPTIONAL_VALUES,
    InconclusiveSearch,
    Quadratic,
)
from seifert5.seifert import Nonorientable


# -- integer matrices -------------------------------------------------------


def identity(n: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def zeros(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(tuple((0,) * cols for _ in range(rows)))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    cols = list(zip(*b.entries))
    return IntMatrix(
        tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a.entries)
    )


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


# -- primes by trial division -----------------------------------------------


def is_prime_by_trial_division(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3):
        if n % p == 0:
            return n == p
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def factorize_by_trial_division(n: int) -> dict[int, int]:
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return dict(sorted(out.items()))


# -- the cohomology report, one public function per fact --------------------


def _rank_mod_p(rows, p):
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] % p), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _chern_class_by_fractions(spec):
    coords = [Fraction(h) for h in spec.twist]
    for d in spec.divisors:
        for l, x in enumerate(d.resolved_class(spec.charts)):
            coords[l] += Fraction(d.b, d.m) * x
    return tuple(coords)


@dataclass(frozen=True)
class UnknownNonzero:
    """The reference's answer when the restriction map is not onto: H_1 is
    nonzero and surjects onto `lower_bound`, the map's cokernel."""

    lower_bound: AbelianGroup


def restriction_map(spec):
    """H^2(X, Z) -> sum_i H^2(D_i, Z/m_i): row i is the class of D_i read
    mod m_i (the intersection form of the base is the identity), and the
    moduli m_i."""
    rows = [tuple(x % d.m for x in d.resolved_class(spec.charts)) for d in spec.divisors]
    return rows, [d.m for d in spec.divisors]


def restriction_is_surjective(spec) -> bool:
    """For every prime p, the rows with p | m_i are independent over F_p."""
    rows, moduli = restriction_map(spec)
    for p in sorted({p for m in moduli for p in factorize_by_trial_division(m)}):
        sub = [row for row, m in zip(rows, moduli) if m % p == 0]
        if _rank_mod_p(sub, p) < len(sub):
            return False
    return True


def _h1_order_reference(spec, c1_mu):
    if not restriction_is_surjective(spec):
        rows, moduli = restriction_map(spec)
        n = len(rows)
        matrix = [row + tuple(moduli[i] if j == i else 0 for j in range(n))
                  for i, row in enumerate(rows)]
        return UnknownNonzero(lower_bound=group_from_cokernel(IntMatrix.from_rows(matrix)))
    return math.gcd(*c1_mu)


def _f2_reduce(basis, v):
    for b in basis:
        v = min(v, v ^ b)
    return v


def _f2_add(basis, v):
    v = _f2_reduce(basis, v)
    if v:
        basis.append(v)
        basis.sort(reverse=True)


def _bits(vec):
    return sum(1 << j for j, x in enumerate(vec) if x % 2)


def _wu_reference(spec, c1_mu):
    if any(isinstance(d.surface, Nonorientable) for d in spec.divisors):
        return 1
    coords = [1 + h for h in spec.twist]
    for d in spec.divisors:
        for l, x in enumerate(d.resolved_class(spec.charts)):
            coords[l] += d.b * x
    w = _bits(coords)
    k2: list[int] = []
    _f2_add(k2, _bits(c1_mu))
    for d in spec.divisors:
        if d.m % 2 == 0:
            _f2_add(k2, _bits(d.resolved_class(spec.charts)))
    if _f2_reduce(k2, w) == 0:
        return 0
    even_charts = {d.chart for d in spec.divisors if d.m % 2 == 0}
    witness = list(k2)
    for j in range(spec.charts):
        if j not in even_charts:
            _f2_add(witness, 1 << j)
    return INFINITY if _f2_reduce(witness, w) == 0 else INDETERMINATE


def full_report_reference(spec) -> CohomologyReport:
    """The report as it was assembled before its facts were shared:
    c1 in fractions, c1(L/mu) by scaling it, |H_1| from the restriction
    map over trial-division primes, H_2 and H^3 torsion counted apiece.
    Generator-class specs only, as `full_report`."""
    spec.require_valid()
    assert spec.all_generator_classes()
    m_x = spec.multiplicity_lcm()
    c1 = _chern_class_by_fractions(spec)
    c1_mu = tuple(int(c * m_x) for c in c1)
    assert all((c * m_x).denominator == 1 for c in c1)
    order = _h1_order_reference(spec, c1_mu)
    if order != 1:
        return CohomologyReport(order, None, None, c1, c1_mu, INDETERMINATE, False)

    def torsion():
        counts: dict[tuple[int, int], int] = {}
        for d in spec.divisors:
            beta = d.surface.h1_mod2_dim
            for p, e in (factorize_by_trial_division(d.m).items() if beta else ()):
                counts[(p, e)] = counts.get((p, e), 0) + beta
        return counts

    h2 = AbelianGroup.from_counts(spec.charts - 1, torsion())
    h3 = AbelianGroup.from_counts(0, torsion())
    return CohomologyReport(order, h2, h3, c1, c1_mu, _wu_reference(spec, c1_mu), True)


def enumerate_admissible_by_filter(max_torsion_order, max_k):
    """Generate and filter: every torsion profile up to the bound, for every
    k and i, kept when the gate admits it."""
    for k in range(max_k + 1):
        for counts in _torsion_profiles(max_torsion_order):
            group = AbelianGroup.from_counts(k, counts)
            for i in (0, 1, INFINITY):
                cls = FiveManifoldClass(group, i)
                if circle_action_admissible(cls).admissible:
                    yield cls, build(cls)


def quadratic_interval_count(q: Quadratic, lo: int, hi: int) -> int:
    """|q(Z) intersect [lo, hi]|, by enumerating the bounded preimage.

    Also asserts the count law: at most 2 + 2*sqrt((hi - lo)/a) values.
    """
    if lo > hi:
        raise ValueError("empty interval")
    # q(t) <= hi has integer solutions only within the real root interval.
    disc = q.b * q.b - 4 * q.a * (q.c - hi)
    if disc < 0:
        return 0
    spread = math.isqrt(disc) + 1
    t_lo = (-q.b - spread) // (2 * q.a) - 1
    t_hi = (-q.b + spread) // (2 * q.a) + 1
    values = {q(t) for t in range(t_lo, t_hi + 1) if lo <= q(t) <= hi}
    count = len(values)
    assert count <= 2 or q.a * (count - 2) ** 2 <= 4 * (hi - lo), (
        f"count law violated by {q} on [{lo}, {hi}]"
    )
    return count


def divisors_by_trial_division(n: int) -> list[int]:
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def _interpolate(t2: int, v1: int, w2: int, t3: int, w3: int) -> Optional[Quadratic]:
    """Quadratic through (0, v1), (t2, v1 + w2), (t3, v1 + w3), if integral
    with positive leading coefficient."""
    det = t2 * t3 * (t2 - t3)
    a_num = w2 * t3 - w3 * t2
    if a_num % det != 0:
        return None
    a = a_num // det
    if a < 1:
        return None
    b_num = w2 - a * t2 * t2
    if b_num % t2 != 0:
        return None
    return Quadratic(a, b_num // t2, v1)


def quadratic_cover_search_reference(
    values: Iterable[int],
    max_exceptions: int = MAX_EXCEPTIONAL_VALUES,
    max_candidates: int = DEFAULT_CANDIDATE_CAP,
) -> Optional[tuple[Quadratic, frozenset[int]]]:
    """The cover search as it interpolated on bare divisors, with a
    rational solve per divisor pair and a Quadratic built per candidate.

    Returns (witness, missed values) or None when the complete candidate
    space holds no witness.  Among witnesses the reported one minimizes
    (number of exceptions, a, |b|, b, c), which keeps the output stable.
    Raises InconclusiveSearch if the candidate cap is hit first.
    """
    vs = sorted(set(values))
    if not vs:
        return Quadratic(1, 0, 0), frozenset()

    # Scan from the largest value down: bad candidates run out of budget fast.
    scan = list(reversed(vs))

    def misses(q: Quadratic) -> Optional[frozenset[int]]:
        missed = []
        for v in scan:
            if not q.contains(v):
                missed.append(v)
                if len(missed) > max_exceptions:
                    return None
        return frozenset(missed)

    best: Optional[tuple[tuple[int, int, int, int], Quadratic, frozenset[int]]] = None
    seen: set[tuple[int, int, int]] = set()
    tried = 0

    def consider(q: Quadratic) -> None:
        nonlocal best, tried
        key3 = (q.a, q.b, q.c)
        if key3 in seen:
            return
        seen.add(key3)
        tried += 1
        missed = misses(q)
        if missed is None:
            return
        score = (len(missed), q.a, abs(q.b), q.b, q.c)
        if best is None or score < best[0]:
            best = (score, q, missed)

    pool = vs[: max_exceptions + 3]

    # Candidate arguments t with t | w, per difference w; each list is
    # built once per call because every i2 reuses the i3 differences.
    signed_divisors: dict[int, list[int]] = {}

    def arguments(w: int) -> list[int]:
        if w not in signed_divisors:
            signed_divisors[w] = [t for d in divisors_by_trial_division(w) for t in (d, -d)]
        return signed_divisors[w]

    # One- and two-point families guarantee witnesses for small inputs.
    for v in pool:
        consider(Quadratic(1, 0, v))
    for i1 in range(len(pool)):
        for i2 in range(i1 + 1, len(pool)):
            consider(Quadratic(pool[i2] - pool[i1], 0, pool[i1]))

    for i1 in range(len(pool)):
        v1 = pool[i1]
        for i2 in range(i1 + 1, len(pool)):
            w2 = pool[i2] - v1
            t2_choices = arguments(w2)
            for i3 in range(i2 + 1, len(pool)):
                w3 = pool[i3] - v1
                t3_choices = arguments(w3)
                for t2 in t2_choices:
                    for t3 in t3_choices:
                        if t3 == t2:
                            continue
                        if tried >= max_candidates:
                            if best is not None and best[0][0] <= max_exceptions:
                                # A found witness stays valid; only the
                                # infeasible verdict needs exhaustion.
                                return best[1], best[2]
                            raise InconclusiveSearch(tried)
                        q = _interpolate(t2, v1, w2, t3, w3)
                        if q is not None:
                            consider(q)

    if best is None:
        return None
    return best[1], best[2]
