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
divides w2 = v2 - v1 and t3 divides w3 = v3 - v1, so the triples (0, v1),
(t2, v2), (t3, v3) range over a finite set, and interpolation through each
recovers every possible witness.  Writing w2 = t2*s2 and w3 = t3*s3, the
same identity gives s2 = a*t2 + b and s3 = a*t3 + b: the interpolation is
the line through (t2, s2) and (t3, s3), with slope a = (s2 - s3)/(t2 - t3)
and b = s2 - a*t2.  So b is an integer whenever a is, and the one
divisibility test (t2 - t3) | (s2 - s3) decides each divisor pair.
Pairs whose slope is not a positive integer are discarded; the rest are
scored by how many values they miss.

Half of the divisor pairs suffice.  The reflection q(t) -> q(-t) maps
a*t^2 + b*t + c to a*t^2 - b*t + c with the same image, and the pair
(-t2, -t3) interpolates exactly that reflection of what (t2, t3) gives.
So only pairs with t2 > 0 are interpolated, and each result is scored
as (a, -|b|, v1): both signs miss the same values, and -|b| ranks first
on the reported key (exceptions, a, |b|, b, c), so the reported witness
is the one the full set of pairs would give.  Scoring is pruned without
changing that witness either: a candidate beats the best so far only by
missing fewer values, or as many with a smaller (a, |b|, b, c), so its
scan stops once it misses more than that allows, and a candidate ranked
after a best with no exceptions is not scanned at all.

Two cuts keep that witness too.  The candidates of one image share a and
b^2 - 4ac, so the one built from its smallest covered value v1 has the
least |b| and c, and the next two covered values v2, v3 yield it.  A
witness that beats a best missing e values misses at most e, so v1, v2,
v3 lie at indices at most e, e + 1 and e + 2: the loops stop there.  And
with g = s2 - t2 the slope is at least 1 exactly when t3 > t2 or t3 < 0,
and t3*(t3 + g) <= w3 (for 0 < t3 < t2, t3*(t3 + g) < t2*(t2 + g) = w2 <
w3).  Once positive, t3*(t3 + g) grows with |t3|, so each side is a
leading run of the divisors by ascending |t3|; no other pair is tested.

A last cut scores a triple candidate above v3 before anywhere else.
Take one from pool indices i1 < i2 < i3 that is not yet scored.  If it
covers a value u below v1, the candidate of its image built from its
smallest covered value misses the same values with a smaller (|b|, c);
its v1, v2, v3 lie at indices below i1, at most i1 and at most i2, a
triple scored earlier and within the reach then, so the best so far
already ranks before this candidate.  If it covers a value u strictly
between v1 and v3 other than v2, the triple (i1, index of u, i2) or (i1,
i2, index of u) comes earlier in loop order and gives the same (a, -|b|,
v1) up to the sign of b, which is then already scored.  So a candidate
that can win misses all i3 - 2 values below v3 other than v1 and v2, and
it is skipped unless it misses at most budget - (i3 - 2) of the values
above v3.  One that passes is scanned again over all values with its own
budget, so the reported misses stay exact.  A skipped candidate would
not have become the best under the full scan either, so the best and the
reach move as before; and since the cut acts after the candidate is
counted, a capped search counts the same candidates.

The levels next to the reach are built from above.  Call i3, the index
of a candidate's third smallest covered value, its level, and
k = e - (i3 - 2) the level's slack, e the best's miss count (the budget
before any).  A witness that can win at level i3 misses the i3 - 2 values below
v3 other than v1 and v2, so it misses at most k of the values above v3;
when at least k + 2 values lie above v3 it covers two of the k + 2 just
above it, u2 < u3.  Its shift to t = 0 at u1 = v3 passes through (0,
u1), (t2, u2), (t3, u3) with u1 < u2 < u3 and a >= 1, all that the
reflection and slope cuts use, so the same pair loop over w2 = u2 - u1
and w3 = u3 - u1 finds it: one enumeration of the C(k + 2, 2) pairs
above v3 serves the level, where the loops from below take one per pair
(i1, i2).  A candidate q found this way is kept only if it takes exactly
two values below v3, and is then shifted to take the smaller, v1, at
t = 0.  If q(t) = v1, then b^2 - 4a(v3 - v1) = (2a*t + b)^2, and
q(t + s) has linear coefficient 2a*t + b in s, so the shift is scored as
(a, -r, v1) with r that root: the key the loops from below give the same
image, with the same i3 - 2 misses below v3 for the cut above.  A candidate
dropped here has another level, where it is built (its key has only one
level, that of its image), so every level scores its own candidates
only.  The levels with slack at most _UPPER_SLACK are fixed once, after
the one- and two-point families; the loops from below stop under them,
and they are built last, so a witness found below can put them out of
reach.  Since e only falls, slack only shrinks, so a window read with
the current e still holds every witness that can win; it ends at index
e + 4, which needs at least e + 5 values.  With fewer, no level is built
from above.

Every search, whatever its size, first scores the one- and two-point
families q = t^2 + v1 and q = (v2 - v1)*t^2 + v1 over the budget + 3
smallest values, which always exist.  Completeness needs them only when
there are fewer than budget + 3 distinct values, where a witness may cover
fewer than three; with more, they give the loops an early best to prune
against.  All checks are exact integer arithmetic; the bound comparisons
square both sides instead of taking roots.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Iterator, Optional

from ._record import Record
from .abgroup import _MR_LIMIT, factorize

__all__ = [
    "MAX_EXCEPTIONAL_VALUES",
    "DEFAULT_CANDIDATE_CAP",
    "Quadratic",
    "DensityViolation",
    "SasakiReport",
    "InconclusiveSearch",
    "interval_density_check",
    "sasaki_check",
]

# At most 5 singular points on the base surface (orbifold Euler number
# bound), at most 2 branch curves through each.
MAX_EXCEPTIONAL_VALUES = 10

DEFAULT_CANDIDATE_CAP = 2_000_000

# The largest slack at which a level of the cover search is built from the
# values above v3 instead of from below (module docstring).
_UPPER_SLACK = 4


class InconclusiveSearch(RuntimeError):
    """The candidate cap was hit before the search could exhaust the space."""

    def __init__(self, candidates_tried: int):
        self.candidates_tried = candidates_tried
        super().__init__(f"search inconclusive after {candidates_tried} candidates")


def _missed(a: int, b: int, c: int, values: Iterable[int], budget: int) -> Optional[list[int]]:
    """The values, in the given order, that a*t^2 + b*t + c (a >= 1) takes
    at no integer t, or None once more than budget of them are missed.

    v is taken iff the discriminant b^2 - 4a(c - v) is a perfect square r^2
    and 2a divides -b + r or -b - r.
    """
    two_a = 2 * a
    four_a = 4 * a
    bb = b * b
    missed = []
    for v in values:
        disc = bb - four_a * (c - v)
        if disc >= 0:
            root = math.isqrt(disc)
            if root * root == disc and ((root - b) % two_a == 0 or (root + b) % two_a == 0):
                continue
        missed.append(v)
        if len(missed) > budget:
            return None
    return missed


def _shift_to_lowest(a: int, b: int, c: int, below: list[int]) -> Optional[tuple[int, int]]:
    """(-|b'|, v1) for a*t^2 + b*t + c (a >= 1) shifted to take v1 at t = 0,
    where v1 is the smaller of exactly two values of the ascending `below`
    it takes; None when it takes fewer or more of them.

    v is taken at t iff b^2 - 4a(c - v) is the square of r = |2a*t + b|,
    and r is the linear coefficient's size after the shift by that t.
    """
    two_a = 2 * a
    four_a = 4 * a
    bb = b * b
    taken = []
    for v in below:
        disc = bb - four_a * (c - v)
        if disc >= 0:
            root = math.isqrt(disc)
            if root * root == disc and ((root - b) % two_a == 0 or (root + b) % two_a == 0):
                if len(taken) == 2:
                    return None
                taken.append((-root, v))
    return taken[0] if len(taken) == 2 else None


class Quadratic(Record):
    """q(t) = a*t^2 + b*t + c with integer coefficients and a >= 1."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int) -> None:
        if a < 1:
            raise ValueError("leading coefficient must be >= 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def contains(self, v: int) -> bool:
        """Is v = q(t) for some integer t?  Exact discriminant test."""
        return _missed(self.a, self.b, self.c, (v,), 0) is not None

    def to_json_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c}

    def __str__(self) -> str:
        terms = [f"{self.a}t^2" if self.a != 1 else "t^2"]
        if self.b:
            terms.append(f"{'+' if self.b > 0 else '-'} {abs(self.b)}t")
        if self.c:
            terms.append(f"{'+' if self.c > 0 else '-'} {abs(self.c)}")
        return " ".join(terms)


class DensityViolation(Record):
    """An interval of the value set too dense for any quadratic image."""

    __slots__ = ("lo", "hi", "count")

    def __init__(self, lo: int, hi: int, count: int) -> None:
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "count", count)

    @property
    def bound(self) -> float:
        return 12 + 2 * math.sqrt(self.hi - self.lo)

    def to_json_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "count": self.count, "bound": self.bound}


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
        # An interval of 12 or fewer values never exceeds the bound.
        for j in range(i + 12, len(vs)):
            count = j - i + 1
            # count > 12 + 2*sqrt(length), compared exactly by squaring
            if (count - 12) ** 2 > 4 * (vs[j] - vs[i]):
                return DensityViolation(lo=vs[i], hi=vs[j], count=count)
    return None


def _divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1 in ascending order, from its factorization."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _interpolate(t2: int, s2: int, t3: int, s3: int) -> tuple[int, int]:
    """(a, b) of the quadratic a*t^2 + b*t + v1 through (0, v1),
    (t2, v1 + t2*s2) and (t3, v1 + t3*s3).

    Requires t2 - t3 to divide s2 - s3, which the caller tests first: then
    s = a*t + b at both arguments makes a the integer slope and b integral.
    The caller's cut also ensures a >= 1.
    """
    a = (s2 - s3) // (t2 - t3)
    return a, s2 - a * t2


def _cover_search(
    vs: list[int], max_exceptions: int, max_candidates: int
) -> tuple[Optional[tuple[Quadratic, frozenset[int]]], bool]:
    """Exhaustive search for an integer quadratic covering all but at most
    max_exceptions of the sorted distinct values vs; the limits are checked
    by the caller.

    Returns (result, complete).  The result is (witness, missed values), or
    None when the complete candidate space holds no witness.  Among
    witnesses the reported one minimizes (number of exceptions, a, |b|, b,
    c), which keeps the output stable.  Raises InconclusiveSearch if the
    candidate cap is hit before any witness was found; a witness found
    before the cap is still valid but need not minimize the key, and is
    returned with complete false.  The cap counts candidates up to the
    reflection q(t) -> q(-t), and only those the pruning still tries; no
    more than max_candidates of them are ever tried.  Raises ValueError,
    before any candidate, when the values span 3.3 * 10^24 or more: every
    difference the search factors is at most the span, and below that
    bound the factorizer decides each one exactly (`factorize`).
    """
    if not vs:
        return (Quadratic(1, 0, 0), frozenset()), True
    if vs[-1] - vs[0] >= _MR_LIMIT:
        raise ValueError(f"torsion counts must span less than {_MR_LIMIT:,}")

    # Scan from the largest value down: bad candidates run out of budget fast.
    scan = vs[::-1]

    # best = (tail, missed) misses `most` values (max_exceptions before it
    # exists); the tail (a, |b|, b, c) names the quadratic.
    best: Optional[tuple[tuple[int, int, int, int], list[int]]] = None
    most = max_exceptions
    seen: set[tuple[int, int, int]] = set()

    def consider(a: int, b: int, c: int, above: Optional[list[int]] = None, below: int = 0) -> None:
        # A triple candidate comes with `above`, the values above its v3 in
        # scan order, and below = i3 - 2, the other values under v3 it must
        # miss to win (module docstring); the one- and two-point families
        # come with neither and get the full scan alone.
        nonlocal best, most
        key3 = (a, b, c)
        if key3 in seen:
            return
        # The one place the cap is checked: `seen` holds every candidate
        # tried, and a candidate past the cap is never tried.
        if len(seen) == max_candidates:
            raise InconclusiveSearch(max_candidates)
        seen.add(key3)
        tail = (a, abs(b), b, c)
        # To win, a candidate must miss no more values than the best so
        # far, and strictly fewer when it ranks after it on the tail.
        budget = most - (best is not None and tail > best[0])
        if budget < below:
            return
        if above is not None and _missed(a, b, c, above, budget - below) is None:
            return
        missed = _missed(a, b, c, scan, budget)
        if missed is not None:
            best, most = (tail, missed), len(missed)

    def result() -> tuple[Quadratic, frozenset[int]]:
        (a, _, b, c), missed = best
        return Quadratic(a, b, c), frozenset(missed)

    pool = vs[: max_exceptions + 3]

    # Per difference w: its ascending divisors d and the pairs (t, w // t)
    # for t = d and t = -d, built once since every i2 reuses the i3 rows.
    divisor_rows: dict[int, tuple[list[int], list, list]] = {}

    def row(w: int) -> tuple[list[int], list, list]:
        if w not in divisor_rows:
            divs = _divisors(w)
            divisor_rows[w] = (divs, [(d, w // d) for d in divs], [(-d, -(w // d)) for d in divs])
        return divisor_rows[w]

    def steep(pairs2: list, w3: int) -> Iterator[tuple[int, int]]:
        # (a, b) through (0, u1), (t2, u2), (t3, u3) for w2 = u2 - u1 (row
        # pairs2) and w3 = u3 - u1: only t2 > 0, and only t3 > t2 or t3 < 0
        # with t3 * (t3 + g) <= w3, a leading run of each side by ascending
        # |t3|, give a >= 1 (module docstring).
        divs3, positive, negative = row(w3)
        for t2, s2 in pairs2:
            g = s2 - t2
            for side in (positive[bisect_right(divs3, t2):], negative):
                for t3, s3 in side:
                    if t3 * (t3 + g) > w3:
                        break
                    # w = t*s at both arguments, so a is the slope.
                    if (s2 - s3) % (t2 - t3) == 0:
                        yield _interpolate(t2, s2, t3, s3)

    try:
        # One- and two-point families guarantee witnesses for small inputs.
        for v in pool:
            consider(1, 0, v)
        for i1 in range(len(pool)):
            for i2 in range(i1 + 1, len(pool)):
                consider(pool[i2] - pool[i1], 0, pool[i1])

        # The levels i3 with slack most - (i3 - 2) at most _UPPER_SLACK,
        # fixed here, are built last, from the values above v3 up to index
        # most + 4 (module docstring).
        upper = range(0)
        if len(vs) >= most + 5:
            upper = range(max(2, most + 2 - _UPPER_SLACK), most + 3)

        # A witness that beats the best has v1, v2, v3 at indices at most
        # most, most + 1, most + 2; `most` only falls, so each head rereads it.
        lower = pool[: upper.start] if upper else pool
        for i1 in range(len(lower)):
            if i1 > most:
                break
            v1 = lower[i1]
            for i2 in range(i1 + 1, len(lower)):
                if i2 > most + 1:
                    break
                # The reflection (t2, t3) -> (-t2, -t3) turns b into -b, so
                # t2 > 0 reaches every candidate up to the sign of b.
                pairs2 = row(lower[i2] - v1)[1]
                for i3 in range(i2 + 1, len(lower)):
                    if i3 > most + 2:
                        break
                    above = vs[:i3:-1]
                    for a, b in steep(pairs2, lower[i3] - v1):
                        # Both signs miss the same values; -|b| ranks first.
                        consider(a, -abs(b), v1, above, i3 - 2)

        for i3 in upper:
            if i3 > most + 2:
                break
            v3, below, above = vs[i3], vs[:i3], vs[:i3:-1]
            for j2 in range(i3 + 1, len(vs)):
                if j2 > most + 3:
                    break
                pairs2 = row(vs[j2] - v3)[1]
                for j3 in range(j2 + 1, len(vs)):
                    if j3 > most + 4:
                        break
                    for a, b in steep(pairs2, vs[j3] - v3):
                        # Keep only candidates whose third covered value is v3.
                        shifted = _shift_to_lowest(a, b, v3, below)
                        if shifted is not None:
                            consider(a, *shifted, above, i3 - 2)
    except InconclusiveSearch:
        if best is None:
            raise
        # A found witness stays valid; only the infeasible verdict needs exhaustion.
        return result(), False

    return (None if best is None else result()), True


class SasakiReport(Record):
    """Verdict of the necessary conditions; 'feasible' only means no
    obstruction was found, never a full existence claim."""

    __slots__ = ("witness", "exceptions", "densest_violation", "duplicates_dropped",
                 "search_complete")

    def __init__(
        self,
        witness: Optional[Quadratic],
        exceptions: Optional[frozenset[int]],
        densest_violation: Optional[DensityViolation],
        duplicates_dropped: bool,
        search_complete: bool,
    ) -> None:
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "exceptions", exceptions)
        object.__setattr__(self, "densest_violation", densest_violation)
        object.__setattr__(self, "duplicates_dropped", duplicates_dropped)
        object.__setattr__(self, "search_complete", search_complete)

    @property
    def feasible(self) -> bool:
        return self.witness is not None

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
    values of the multiset.  Dropped duplicates are flagged in the report,
    and search_complete is false when the candidate cap cut the search
    short after a witness was found.  Raises ValueError if max_exceptions
    < 0 or max_candidates < 1, or if the density check passes and the
    distinct values span 3,317,044,064,679,887,385,961,981 or more, past
    which the search could meet a difference the factorizer refuses; and
    InconclusiveSearch if the cap is hit before any witness was found.

    >>> sasaki_check([2, 6, 12]).feasible
    True
    """
    # A negative budget would shrink the pool below the three values the
    # completeness argument needs; a cap must admit at least one candidate.
    if max_exceptions < 0:
        raise ValueError(f"max_exceptions must be >= 0, got {max_exceptions}")
    if max_candidates < 1:
        raise ValueError(f"max_candidates must be >= 1, got {max_candidates}")
    values = list(values)
    if any(v < 1 for v in values):
        raise ValueError("torsion counts must be positive")
    distinct = sorted(set(values))
    duplicates = len(distinct) < len(values)
    violation = interval_density_check(distinct)
    found, complete = (None, False) if violation else _cover_search(
        distinct, max_exceptions, max_candidates
    )
    witness, exceptions = found or (None, None)
    return SasakiReport(
        witness=witness,
        exceptions=exceptions,
        densest_violation=violation,
        duplicates_dropped=duplicates,
        search_complete=complete,
    )
