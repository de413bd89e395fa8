"""Build a Seifert presentation realizing an admissible (H2, i) class.

Given an admissible class with free rank k, the base is the connected sum
of k + 1 copies of CP^2 and every prime gets one divisor per chart.
`build` runs the gate once and then makes one pass in three steps:

* Scheduling: per prime, the powers with nonzero count are sorted
  increasingly and right-aligned into the k + 1 charts (chart k gets the
  largest power).  Each divisor is an orientable surface of genus
  count/2, except that for target i = 1 the multiplicity-2 divisor is
  nonorientable with dim H_1(D, Z/2) equal to count(2, 1).  When there is
  no 2-torsion at all, a genus-zero multiplicity-2 divisor is appended to
  chart k; it adds no homology but keeps m(X) even, which the primitivity
  argument below needs.

* The unit congruence: on chart k the orbit invariants must satisfy

      sum over primes of b_p * (m(X)/m_p)  =  1  (mod m(X)),

  where m(X) is the product of the chart-k multiplicities.  Reading the
  congruence mod each m_p shows b_p = (m(X)/m_p)^(-1) mod m_p, so the
  solution is unique (`solve_unit_congruence`); earlier charts take b = 1.

* The twist: the chart-k twist is pinned so the chart-k coordinate of
  c1 is exactly 1/m(X); the congruence above makes that an integer.  The
  scheduling then forces every other coordinate of c1(L/mu) to be even,
  so c1(L/mu) = H_k + 2(...), a primitive vector, giving H_1 = 0.  The
  remaining twist coordinates (0 or -1) adjust the w2 class coordinate by
  coordinate: zero off chart k for target 0, and H_0 plus a chart-k term
  for target INFINITY (chart 0 carries no even multiplicity thanks to
  rule R3, so the nonvanishing certificate applies).  For target 1 the
  nonorientable divisor already decides the Wu invariant.

verify_roundtrip closes the loop: the rebuilt invariants of build(cls)
must equal the requested class exactly.

enumerate_admissible builds its candidates instead of filtering all torsion
groups: realizable torsion is A + A or A + A + Z/2, so the halves A with
|A| <= isqrt(N) give every profile that can pass, once for all k.  Each
(profile, i) passes the gate from a least k on, or never
(`classify._least_k`), so only candidates at or above it are built, and
build's gate never rejects one.  Bounds below their minimum (N < 1,
k < 0) raise ValueError.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

# No code here calls factorize; the benchmark's tests check that the span
# tracer patches this copied binding along with the original.
from .abgroup import AbelianGroup, _primes_below, factorize
from .classify import (
    INFINITY,
    FiveManifoldClass,
    GateVerdict,
    _least_k,
    circle_action_admissible,
)
from .cohomology import CohomologyReport, compare, full_report
from .seifert import Divisor, Nonorientable, Orientable, SeifertSpec, SurfaceType

__all__ = [
    "GateRejection",
    "ConstructionDefect",
    "solve_unit_congruence",
    "build",
    "verify_roundtrip",
    "enumerate_admissible",
]


class GateRejection(ValueError):
    """Raised when the requested class fails the admissibility gate."""

    def __init__(self, verdict: GateVerdict):
        self.verdict = verdict
        super().__init__(str(verdict))


class ConstructionDefect(AssertionError):
    """A built presentation failed its own round-trip verification."""


def solve_unit_congruence(moduli: Iterable[int]) -> tuple[int, ...]:
    """For pairwise coprime moduli, the unique b_i with gcd(b_i, m_i) = 1 and

        sum b_i * (M/m_i) = 1 (mod M),   M = prod m_i.

    Reducing mod one m_i kills every other term, so b_i is the inverse of
    M/m_i there.

    >>> solve_unit_congruence([2, 5])
    (1, 3)
    """
    moduli = list(moduli)
    for a in range(len(moduli)):
        if moduli[a] < 2:
            raise ValueError("moduli must be >= 2")
        for b in range(a + 1, len(moduli)):
            if math.gcd(moduli[a], moduli[b]) != 1:
                raise ValueError(f"moduli {moduli[a]} and {moduli[b]} are not coprime")
    total = math.prod(moduli)
    bs = tuple(pow(total // m, -1, m) for m in moduli)
    if sum(b * (total // m) for b, m in zip(bs, moduli)) % total != 1 % total:
        raise AssertionError("unit congruence failed its own check")
    return bs


def build(cls: FiveManifoldClass) -> SeifertSpec:
    """The presentation of the module docstring, in its three steps;
    raises GateRejection when the class fails the gate."""
    verdict = circle_action_admissible(cls)
    if not verdict.admissible:
        raise GateRejection(verdict)
    k = cls.k
    # (e, count) runs per prime, in the sorted torsion's order.
    runs: dict[int, list[tuple[int, int]]] = {}
    for p, e, count in cls.h2.torsion:
        runs.setdefault(p, []).append((e, count))
    # Scheduling: the (m, surface) pairs of each chart.
    charts: list[list[tuple[int, SurfaceType]]] = [[] for _ in range(k + 1)]
    for p, run in runs.items():
        # Right-aligned: the largest power of each prime lands in chart k.
        for chart, (e, count) in enumerate(run, start=k + 1 - len(run)):
            if p == 2 and e == 1 and cls.i == 1:
                surface: SurfaceType = Nonorientable(count)
            elif count % 2:
                raise AssertionError(f"odd count {count} for {p}^{e} slipped past the gate")
            else:
                surface = Orientable(count // 2)
            charts[chart].append((p ** e, surface))
    if 2 not in runs:
        charts[k].append((2, Orientable(0)))
    for pairs in charts:
        pairs.sort(key=lambda pair: pair[0])

    # Orbit invariants on chart k; every earlier chart takes b = 1.
    moduli = [m for m, _ in charts[k]]
    bs = solve_unit_congruence(moduli)
    m_x = math.prod(moduli)
    twist = [0] * (k + 1)
    # sum b/m over chart k = (1 + t*m(X)) / m(X) for an integer t; pin h_k = -t.
    twist[k] = (1 - sum(b * (m_x // m) for b, m in zip(bs, moduli))) // m_x
    if cls.i != 1:
        for j in range(k):
            want = 1 if (j == 0 and cls.i is INFINITY) else 0
            # coordinate j of w2 is 1 + (one b = 1 per divisor) + h_j mod 2
            twist[j] = -((want - 1 - len(charts[j])) % 2)

    divisors = [Divisor(j, surface, m, 1) for j in range(k) for m, surface in charts[j]]
    divisors += [Divisor(k, surface, m, b) for (m, surface), b in zip(charts[k], bs)]
    return SeifertSpec(charts=k + 1, divisors=tuple(divisors), twist=tuple(twist))


def verify_roundtrip(cls: FiveManifoldClass) -> CohomologyReport:
    """Build the presentation and recompute every invariant from it.

    Any field `compare` reports is a hard defect and raises, naming every
    field of the report that differs from `cls`.
    """
    return _checked_report(build(cls), cls)


def _checked_report(spec: SeifertSpec, cls: FiveManifoldClass) -> CohomologyReport:
    """The round-trip check of `verify_roundtrip` on a spec already built
    for `cls`, so a caller holding one builds and gates once."""
    report = full_report(spec)
    diffs = compare(report, cls)
    if diffs:
        raise ConstructionDefect(
            "; ".join(f"{d.field} = {d.actual}, expected {d.expected}" for d in diffs)
        )
    return report


def _torsion_profiles(max_order: int) -> Iterator[dict[tuple[int, int], int]]:
    """All prime-power count maps with torsion order <= max_order,
    in (order, canonical encoding) order."""
    powers = []
    for p in _primes_below(max_order + 1):
        q, e = p, 1
        while q <= max_order:
            powers.append((q, p, e))
            q, e = q * p, e + 1
    powers.sort()

    profiles: list[tuple[int, dict[tuple[int, int], int]]] = []

    def rec(idx: int, order: int, acc: dict[tuple[int, int], int]) -> None:
        profiles.append((order, dict(acc)))
        for i in range(idx, len(powers)):
            q, p_, e_ = powers[i]
            if order * q > max_order:
                continue
            new_order = order * q
            count = 1
            while new_order <= max_order:
                acc[(p_, e_)] = count
                rec(i + 1, new_order, acc)
                count += 1
                new_order *= q
            del acc[(p_, e_)]

    rec(0, 1, {})
    profiles.sort(key=lambda item: (item[0], tuple(sorted(item[1].items()))))
    for _, counts in profiles:
        yield counts


def _realizable_profiles(max_order: int) -> list[dict[tuple[int, int], int]]:
    """The torsion count maps of the forms A + A and A + A + Z/2 with order
    <= max_order, in (order, canonical encoding) order.

    These are exactly the profiles `smale_barden_realizable` accepts for
    some i, so every other profile fails the gate for every k and i.  Both
    forms need |A| <= isqrt(max_order); A + A then fits automatically.
    """
    profiles: list[tuple[int, dict[tuple[int, int], int]]] = []
    for half in _torsion_profiles(math.isqrt(max_order)):
        doubled = {key: 2 * c for key, c in half.items()}
        order = math.prod((p ** e) ** c for (p, e), c in doubled.items())
        profiles.append((order, doubled))
        if 2 * order <= max_order:
            profiles.append((2 * order, {**doubled, (2, 1): doubled.get((2, 1), 0) + 1}))
    profiles.sort(key=lambda item: (item[0], tuple(sorted(item[1].items()))))
    return [counts for _, counts in profiles]


def enumerate_admissible(
    max_torsion_order: int, max_k: int
) -> Iterator[tuple[FiveManifoldClass, SeifertSpec]]:
    """Stream every admissible class with torsion order and free rank within
    the bounds, paired with its built presentation.

    Output order is (k, torsion order, canonical torsion encoding, i) with
    INFINITY sorting after the finite values.

    Candidates are built from halves: torsion A + A or A + A + Z/2 with
    |A| <= isqrt(max_torsion_order), generated once for all k.  That skips
    only profiles no (k, i) makes realizable.  Every rule of the gate is
    monotone in k, so each (profile, i) passes from a least k on, or never
    (`_least_k`): R1 and R3 bound an exponent count by k + 1 and by k, so
    raising k only loosens them; INVALID_I under i = INFINITY asks for
    k >= 1; R2, NOT_REALIZABLE and INVALID_I for a finite i do not read k.
    The k loop skips a profile, or an i, below its least k with one integer
    comparison, so `build`, whose gate still runs, never rejects.

    Raises ValueError, when iteration starts, if max_torsion_order < 1
    (the trivial group already has order 1) or max_k < 0.
    """
    if max_torsion_order < 1:
        raise ValueError(f"max torsion order must be >= 1, got {max_torsion_order}")
    if max_k < 0:
        raise ValueError(f"max k must be >= 0, got {max_k}")
    # Per profile that some k admits: its counts, the least k over its i,
    # and the least k of each i that has one.
    candidates = []
    for counts in _realizable_profiles(max_torsion_order):
        torsion = [(p, e, c) for (p, e), c in counts.items()]
        per_i = [(i, k_min) for i in (0, 1, INFINITY)
                 if (k_min := _least_k(torsion, i)) is not None]
        if per_i:
            candidates.append((counts, min(k_min for _, k_min in per_i), per_i))
    for k in range(max_k + 1):
        for counts, lowest, per_i in candidates:
            if k < lowest:
                continue
            group = AbelianGroup.from_counts(k, counts)
            for i, k_min in per_i:
                if k >= k_min:
                    cls = FiveManifoldClass(group, i)
                    yield cls, build(cls)
