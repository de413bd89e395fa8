"""Build a Seifert presentation realizing an admissible (H2, i) class.

Given an admissible class with free rank k, the base is the connected sum
of k + 1 copies of CP^2 and every prime gets one divisor per chart:

* schedule: per prime, the powers with nonzero count are sorted
  increasingly and right-aligned into the k + 1 chart slots (slot k gets
  the largest power).  Each divisor is an orientable surface of genus
  count/2, except that for target i = 1 the multiplicity-2 divisor is
  nonorientable with dim H_1(D, Z/2) equal to count(2, 1).  When there is
  no 2-torsion at all, a genus-zero multiplicity-2 divisor is appended in
  slot k; it adds no homology but keeps m(X) even, which the primitivity
  argument below needs.

* solve_b: on chart k the orbit invariants must satisfy

      sum over primes of b_p * (m(X)/m_p)  =  1  (mod m(X)),

  where m(X) is the product of the chart-k multiplicities.  Reading the
  congruence mod each m_p shows b_p = (m(X)/m_p)^(-1) mod m_p, so the
  solution is unique; earlier charts take b = 1.

* solve_twist: the chart-k twist is pinned so the chart-k coordinate of
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
|A| <= isqrt(N) give every profile that can pass, once for all k.  The
admissibility gate still decides each candidate, and build gates again.
Bounds below their minimum (N < 1, k < 0) raise ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .abgroup import AbelianGroup, factorize, is_prime
from .classify import (
    INFINITY,
    FiveManifoldClass,
    GateVerdict,
    Infinity,
    circle_action_admissible,
)
from .cohomology import CohomologyReport, compare, full_report
from .seifert import Divisor, Nonorientable, Orientable, SeifertSpec

__all__ = [
    "GateRejection",
    "ConstructionDefect",
    "ScheduleEntry",
    "Schedule",
    "schedule",
    "solve_unit_congruence",
    "solve_b",
    "solve_twist",
    "build",
    "verify_roundtrip",
    "enumerate_admissible",
]


class GateRejection(ValueError):
    """Raised when the requested class fails the admissibility gate."""

    def __init__(self, verdict: GateVerdict):
        self.verdict = verdict
        super().__init__(f"not admissible: {', '.join(verdict.violated_rules)}")


class ConstructionDefect(AssertionError):
    """A built presentation failed its own round-trip verification."""


@dataclass(frozen=True)
class ScheduleEntry:
    """One planned divisor: prime power m in a chart slot with its surface data."""

    prime: int
    slot: int
    m: int
    orientable: bool
    genus: int
    b1: int

    def surface(self):
        return Orientable(self.genus) if self.orientable else Nonorientable(self.b1)


@dataclass(frozen=True)
class Schedule:
    k: int
    entries: tuple[ScheduleEntry, ...]

    def chart_k(self) -> tuple[ScheduleEntry, ...]:
        return tuple(e for e in self.entries if e.slot == self.k)


def schedule(cls: FiveManifoldClass) -> Schedule:
    """Assign prime powers to chart slots; rejects inadmissible input."""
    verdict = circle_action_admissible(cls)
    if not verdict.admissible:
        raise GateRejection(verdict)
    k = cls.k
    counts = cls.h2.counts()
    entries: list[ScheduleEntry] = []
    for p in cls.h2.primes():
        powers = cls.h2.nonzero_powers(p)
        # Right-aligned: the largest power of each prime lands in slot k.
        for offset, e in enumerate(powers):
            slot = k + 1 - len(powers) + offset
            m = p ** e
            count = counts[(p, e)]
            if p == 2 and e == 1 and cls.i == 1:
                entries.append(ScheduleEntry(p, slot, m, orientable=False, genus=0, b1=count))
            else:
                if count % 2:
                    raise AssertionError(f"odd count {count} for {p}^{e} slipped past the gate")
                entries.append(ScheduleEntry(p, slot, m, orientable=True, genus=count // 2, b1=0))
    if not cls.h2.nonzero_powers(2):
        entries.append(ScheduleEntry(2, k, 2, orientable=True, genus=0, b1=0))
    entries.sort(key=lambda e: (e.slot, e.m))
    return Schedule(k=k, entries=tuple(entries))


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


def solve_b(sched: Schedule) -> dict[tuple[int, int], int]:
    """Orbit invariants per (prime, slot): slot-k values solve the unit
    congruence over the chart-k multiplicities, earlier slots take 1."""
    out: dict[tuple[int, int], int] = {}
    chart_k = sched.chart_k()
    bs = solve_unit_congruence([e.m for e in chart_k])
    for e, b in zip(chart_k, bs):
        out[(e.prime, e.slot)] = b
    for e in sched.entries:
        if e.slot != sched.k:
            out[(e.prime, e.slot)] = 1
    return out


def solve_twist(
    sched: Schedule, b: dict[tuple[int, int], int], target_i
) -> tuple[int, ...]:
    """Twist vector: chart k pinned to make the c1 coordinate exactly
    1/m(X); charts j < k solve the w2 coordinate equation mod 2 with
    representatives in {0, -1}."""
    k = sched.k
    chart_k = sched.chart_k()
    m_x = math.prod(e.m for e in chart_k)
    # sum b/m over chart k = (1 + t*m(X)) / m(X) for an integer t; pin h_k = -t.
    numer = sum(b[(e.prime, e.slot)] * (m_x // e.m) for e in chart_k)
    if numer % m_x != 1 % m_x:
        raise AssertionError("chart-k congruence does not reduce to 1/m(X)")
    h_k = (1 - numer) // m_x

    twist = [0] * (k + 1)
    twist[k] = h_k
    if target_i == 1:
        return tuple(twist)
    for j in range(k):
        b_sum = sum(b[(e.prime, e.slot)] for e in sched.entries if e.slot == j)
        want = 1 if (isinstance(target_i, Infinity) and j == 0) else 0
        # coordinate j of w2 is 1 + b_sum + h_j mod 2
        h_j = (want - 1 - b_sum) % 2
        twist[j] = -h_j
    return tuple(twist)


def build(cls: FiveManifoldClass) -> SeifertSpec:
    """Compose schedule, orbit invariants and twist into a presentation."""
    sched = schedule(cls)
    bs = solve_b(sched)
    twist = solve_twist(sched, bs, cls.i)
    divisors = tuple(
        Divisor(chart=e.slot, surface=e.surface(), m=e.m, b=bs[(e.prime, e.slot)])
        for e in sched.entries
    )
    spec = SeifertSpec(charts=cls.k + 1, divisors=divisors, twist=twist)
    spec.require_valid()
    return spec


def verify_roundtrip(cls: FiveManifoldClass) -> CohomologyReport:
    """Build the presentation and recompute every invariant from it.

    Any field `compare` reports is a hard defect and raises, naming every
    field of the report that differs from `cls`.
    """
    spec = build(cls)
    report = full_report(spec)
    if compare(report, cls):
        problems = []
        if report.h1_order != 1:
            problems.append(f"|H_1| = {report.h1_order!r}, expected 1")
        if not report.simply_connected:
            problems.append("not simply connected")
        if report.h2 != cls.h2:
            problems.append(f"H_2 = {report.h2}, expected {cls.h2}")
        if report.wu != cls.i:
            problems.append(f"wu = {report.wu!r}, expected {cls.i!r}")
        raise ConstructionDefect("; ".join(problems))
    return report


def _torsion_profiles(max_order: int) -> Iterator[dict[tuple[int, int], int]]:
    """All prime-power count maps with torsion order <= max_order,
    in (order, canonical encoding) order."""
    powers = []
    for p in range(2, max_order + 1):
        if is_prime(p):
            q = p
            while q <= max_order:
                powers.append(q)
                q *= p
    powers.sort()

    profiles: list[tuple[int, dict[tuple[int, int], int]]] = []

    def rec(idx: int, order: int, acc: dict[tuple[int, int], int]) -> None:
        profiles.append((order, dict(acc)))
        for i in range(idx, len(powers)):
            q = powers[i]
            if order * q > max_order:
                continue
            ((p_, e_),) = factorize(q).items()
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
    only profiles no (k, i) makes realizable; every candidate still passes
    `circle_action_admissible`, which alone decides, and `build` gates again.

    Raises ValueError, when iteration starts, if max_torsion_order < 1
    (the trivial group already has order 1) or max_k < 0.
    """
    if max_torsion_order < 1:
        raise ValueError(f"max torsion order must be >= 1, got {max_torsion_order}")
    if max_k < 0:
        raise ValueError(f"max k must be >= 0, got {max_k}")
    profiles = _realizable_profiles(max_torsion_order)
    for k in range(max_k + 1):
        for counts in profiles:
            group = AbelianGroup.from_counts(k, counts)
            for i in (0, 1, INFINITY):
                cls = FiveManifoldClass(group, i)
                if circle_action_admissible(cls).admissible:
                    yield cls, build(cls)
