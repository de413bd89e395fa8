"""Arithmetic obstructions to realizing a torsion profile algebraically.

For a rational homology sphere fibered over a complex algebraic surface,
the branch curves away from the (at most five) singular base points have
genus given by the adjunction formula on a Picard-rank-one surface, so the
doubled genera 2g lie in the image of a single integer quadratic.  With at
most two curves through each singular point, at most

    MAX_EXCEPTIONAL_VALUES = 10

of the torsion counts can escape that image.  Two necessary checks follow:

* density: the image of any integer quadratic with positive leading
  coefficient meets an interval of length N in at most 2 + 2*sqrt(N)
  points, so the full count set meets it in at most 12 + 2*sqrt(N); a
  denser interval certifies infeasibility outright.

* coverage: otherwise, search exhaustively for an integer quadratic
  q = a*t^2 + b*t + c, a >= 1, whose image contains all but at most ten
  of the distinct count values.

The coverage search is complete by the following argument.  The image of q
is invariant under the argument shift q(t) -> q(t + s), so any witness may
be shifted to attain its smallest covered value v1 at t = 0, forcing
c = v1.  A witness misses at most `budget` values, hence covers at least
three of the `budget + 3` smallest (pigeonhole), say v1 < v2 < v3 with
arguments 0, t2, t3.  From q(t) - q(0) = t*(a*t + b) the argument t2
divides v2 - v1 and t3 divides v3 - v1, so the triples (0, v1), (t2, v2),
(t3, v3) range over a finite set, and Lagrange interpolation through each
recovers every possible witness.  Candidates that interpolate to
non-integer or non-positive leading coefficients are discarded; the rest
are scored by how many values they miss.  Small inputs (fewer than
budget + 3 distinct values) are additionally seeded with the one- and
two-point families q = (v2 - v1)*t^2 + v1 and q = t^2 + v1, which always
exist.  All checks are exact integer arithmetic; the bound comparisons
square both sides instead of taking roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = [
    "MAX_EXCEPTIONAL_VALUES",
    "DEFAULT_CANDIDATE_CAP",
    "Quadratic",
    "DensityViolation",
    "SasakiReport",
    "InconclusiveSearch",
    "interval_density_check",
    "quadratic_interval_count",
    "quadratic_cover_search",
    "adjunction_genus",
    "sasaki_check",
]

# At most 5 singular points on the base surface (orbifold Euler number
# bound), at most 2 branch curves through each.
MAX_EXCEPTIONAL_VALUES = 10

DEFAULT_CANDIDATE_CAP = 2_000_000


class InconclusiveSearch(RuntimeError):
    """The candidate cap was hit before the search could exhaust the space."""

    def __init__(self, candidates_tried: int):
        self.candidates_tried = candidates_tried
        super().__init__(f"search inconclusive after {candidates_tried} candidates")


@dataclass(frozen=True)
class Quadratic:
    """q(t) = a*t^2 + b*t + c with integer coefficients and a >= 1."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a < 1:
            raise ValueError("leading coefficient must be >= 1")

    def __call__(self, t: int) -> int:
        return (self.a * t + self.b) * t + self.c

    def contains(self, v: int) -> bool:
        """Is v = q(t) for some integer t?  Exact discriminant test."""
        disc = self.b * self.b - 4 * self.a * (self.c - v)
        if disc < 0:
            return False
        root = math.isqrt(disc)
        if root * root != disc:
            return False
        two_a = 2 * self.a
        return (-self.b + root) % two_a == 0 or (-self.b - root) % two_a == 0

    def to_json_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c}

    def __str__(self) -> str:
        terms = [f"{self.a}t^2" if self.a != 1 else "t^2"]
        if self.b:
            terms.append(f"{'+' if self.b > 0 else '-'} {abs(self.b)}t")
        if self.c:
            terms.append(f"{'+' if self.c > 0 else '-'} {abs(self.c)}")
        return " ".join(terms)


@dataclass(frozen=True)
class DensityViolation:
    """An interval of the value set too dense for any quadratic image."""

    lo: int
    hi: int
    count: int

    @property
    def bound(self) -> float:
        return 12 + 2 * math.sqrt(self.hi - self.lo)

    def to_json_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "count": self.count, "bound": self.bound}


def _exceeds_density_bound(count: int, length: int) -> bool:
    # count > 12 + 2*sqrt(length), compared exactly by squaring
    return count > 12 and (count - 12) ** 2 > 4 * length


def interval_density_check(values: Iterable[int]) -> Optional[DensityViolation]:
    """Scan all intervals spanned by pairs of distinct values; report the
    first (in ascending (i, j) order) holding more than 12 + 2*sqrt(N)
    values, N the interval length.  A violation certifies infeasibility.

    >>> interval_density_check(range(2, 61, 2)) is not None
    True
    >>> interval_density_check([2, 6, 12, 20]) is None
    True
    """
    vs = sorted(set(values))
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            count = j - i + 1
            if _exceeds_density_bound(count, vs[j] - vs[i]):
                return DensityViolation(lo=vs[i], hi=vs[j], count=count)
    return None


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


def _divisors(n: int) -> list[int]:
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


def quadratic_cover_search(
    values: Iterable[int],
    max_exceptions: int = MAX_EXCEPTIONAL_VALUES,
    max_candidates: int = DEFAULT_CANDIDATE_CAP,
) -> Optional[tuple[Quadratic, frozenset[int]]]:
    """Exhaustive search for an integer quadratic covering all but at most
    max_exceptions of the distinct values.

    Returns (witness, missed values) or None when the complete candidate
    space holds no witness.  Among witnesses the reported one minimizes
    (number of exceptions, a, |b|, b, c), which keeps the output stable.
    Raises InconclusiveSearch if the candidate cap is hit first.

    >>> q, exc = quadratic_cover_search([(i - 1) * (i - 2) for i in range(3, 13)])
    >>> (q.a, q.b, q.c), sorted(exc)
    ((1, -3, 2), [])
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
            signed_divisors[w] = [t for d in _divisors(w) for t in (d, -d)]
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


def adjunction_genus(degree: int) -> int:
    """Genus of a smooth plane curve of the given degree: (d-1)(d-2)/2.

    This is 2g = D.(D + K) + 2 with D = d times a line and K = -3 lines.

    >>> [adjunction_genus(d) for d in (1, 2, 3, 6)]
    [0, 0, 1, 10]
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return (degree - 1) * (degree - 2) // 2


@dataclass(frozen=True)
class SasakiReport:
    """Verdict of the necessary conditions; 'feasible' only means no
    obstruction was found, never a full existence claim."""

    feasible: bool
    witness: Optional[Quadratic]
    exceptions: Optional[frozenset[int]]
    densest_violation: Optional[DensityViolation]
    duplicates_dropped: bool
    search_complete: bool

    def __post_init__(self) -> None:
        if self.feasible != (self.witness is not None):
            raise ValueError("feasible must mean a witness is present")

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "witness": self.witness.to_json_dict() if self.witness else None,
            "exceptions": sorted(self.exceptions) if self.exceptions is not None else None,
            "densest_violation": (
                self.densest_violation.to_json_dict() if self.densest_violation else None
            ),
            "duplicates_dropped": self.duplicates_dropped,
            "search_complete": self.search_complete,
        }


def sasaki_check(
    values: Iterable[int],
    max_exceptions: int = MAX_EXCEPTIONAL_VALUES,
    max_candidates: int = DEFAULT_CANDIDATE_CAP,
) -> SasakiReport:
    """Run the density check, then the coverage search, over the distinct
    values of the multiset.  Dropped duplicates are flagged in the report.

    >>> sasaki_check([2, 6, 12]).feasible
    True
    """
    values = list(values)
    if any(v < 1 for v in values):
        raise ValueError("torsion counts must be positive")
    distinct = sorted(set(values))
    duplicates = len(distinct) < len(values)
    violation = interval_density_check(distinct)
    if violation is not None:
        return SasakiReport(
            feasible=False,
            witness=None,
            exceptions=None,
            densest_violation=violation,
            duplicates_dropped=duplicates,
            search_complete=False,
        )
    found = quadratic_cover_search(distinct, max_exceptions, max_candidates)
    if found is None:
        return SasakiReport(
            feasible=False,
            witness=None,
            exceptions=None,
            densest_violation=None,
            duplicates_dropped=duplicates,
            search_complete=True,
        )
    witness, exceptions = found
    return SasakiReport(
        feasible=True,
        witness=witness,
        exceptions=exceptions,
        densest_violation=None,
        duplicates_dropped=duplicates,
        search_complete=True,
    )
