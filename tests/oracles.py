"""Reference implementations that the library replaced, kept as test oracles."""

import math
from typing import Iterable, Optional

from seifert5.abgroup import AbelianGroup
from seifert5.classify import INFINITY, FiveManifoldClass, circle_action_admissible
from seifert5.construct import _torsion_profiles, build
from seifert5.sasakian import (
    DEFAULT_CANDIDATE_CAP,
    MAX_EXCEPTIONAL_VALUES,
    InconclusiveSearch,
    Quadratic,
)


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
