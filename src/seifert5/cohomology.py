"""Recompute the invariants of a Seifert total space from its presentation.

All formulas are the evaluated consequences, on a smooth connected-sum-of-
CP^2 base, of the spectral sequence of the quotient map f: L -> X.  With
H^1(X) = H^3(X) = 0 and H^2(X) free they collapse to exact integer linear
algebra.  The engine certifies generator-class specs only (every divisor is
the generator of its chart: the standard transverse arrangements, whose
complements have abelian fundamental group), and every public function
refuses the rest.  On those specs:

* The order of H_1(L, Z) is the gcd of the coordinates of the integral
  class c1(L/mu); order one means L is simply connected.  The spectral
  sequence gives this when the restriction map H^2(X, Z) ->
  sum_i H^2(D_i, Z/m_i) is onto, and here it always is: row i is the unit
  vector of the chart of D_i mod m_i, and same-chart coprimality leaves at
  most one row per prime per chart, so for every prime p the rows with
  p | m_i are distinct unit vectors, independent over F_p.

* With H_1 = 0, both the torsion of H_2(L) and the torsion of H^3(L) are
  sum_i (Z/m_i)^beta_i with beta_i = dim H_1(D_i, Z/2); the free rank of
  H_2(L) is charts - 1.

* w2(L) is the pullback of w2(X) + sum b_i [D_i] + twist (all divisors
  orientable).  Two generator families provably die under the mod-2
  pullback: c1(L/mu) and every [D_i] with even m_i; their span K2 gives
  the certificate for Wu invariant 0.  For INFINITY the certificate is an
  injectivity argument on the even-free charts: restricting the bundle to
  those charts plus a single even chart, the mod-2 pullback is injective
  on the even-free coordinates because the remaining cokernel has odd
  order.  K2 holds the unit vector of every chart that carries an even
  multiplicity, so every w outside K2 is congruent mod K2 to a vector on
  the even-free charts, and w not in K2 certifies INFINITY.  Any
  nonorientable divisor forces Wu invariant 1.

A report is assembled from three facts, each computed once: the spec is
checked, c1(L/mu) is formed in integers, and, when |H_1| = 1, every
multiplicity is factored.  The H_2 / H^3 torsion counts read the
factorizations; |H_1|, the rational c1 = c1(L/mu) / m(X) and the Wu
certificate read c1(L/mu).  Each public function below checks its argument
and then runs the same private steps, which never check again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .abgroup import AbelianGroup, factorize
from .classify import INFINITY, FiveManifoldClass, encode_i
from .seifert import Nonorientable, SeifertSpec, _chern_mu, base_w2

__all__ = [
    "INDETERMINATE",
    "Indeterminate",
    "CohomologyReport",
    "h1_order",
    "h2_group",
    "h3_torsion",
    "w2_class",
    "wu_invariant",
    "simply_connected",
    "full_report",
    "Diff",
    "compare",
]


class Indeterminate:
    """Fourth answer for the Wu invariant, reported when |H_1| != 1: the
    engine certifies the Wu invariant of simply connected total spaces only."""

    _instance = None

    def __new__(cls) -> "Indeterminate":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INDETERMINATE"


INDETERMINATE = Indeterminate()


# No caller: bench/spans.py binds this name for its traced run, so it stays
# until the benchmark stops asking for it.
def _rank_mod_p(rows: list[tuple[int, ...]], p: int) -> int:
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
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
        if rank == len(mat):
            break
    return rank


def _factors(spec: SeifertSpec) -> list[dict[int, int]]:
    return [factorize(d.m) for d in spec.divisors]


def h1_order(spec: SeifertSpec) -> int:
    """Order of H_1 of the total space; 1 means trivial, 0 means infinite.

    The gcd of the coordinates of c1(L/mu); a primitive class gives
    H_1 = 0.
    """
    spec.require_certified("h1_order")
    return math.gcd(*_chern_mu(spec))


def _torsion_counts(spec: SeifertSpec, factors) -> dict[tuple[int, int], int]:
    """Shared torsion of H_2 and H^3: (Z/m)^beta per divisor, by primary parts."""
    counts: dict[tuple[int, int], int] = {}
    for d, f in zip(spec.divisors, factors):
        beta = d.surface.h1_mod2_dim
        if beta == 0:
            continue
        for p, e in f.items():
            key = (p, e)
            counts[key] = counts.get(key, 0) + beta
    return counts


def _require_trivial_h1(spec: SeifertSpec, what: str) -> tuple[int, ...]:
    """Check a spec for an invariant defined when |H_1| = 1; return c1(L/mu)."""
    spec.require_certified(what)
    c1_mu = _chern_mu(spec)
    order = math.gcd(*c1_mu)
    if order != 1:
        raise ValueError(f"{what} requires |H_1| = 1, but h1_order gave {order!r}")
    return c1_mu


def h2_group(spec: SeifertSpec) -> AbelianGroup:
    """H_2 of the total space when H_1 = 0.

    Free rank charts - 1; each divisor contributes (Z/m)^beta with
    beta = dim H_1(D, Z/2), split into primary parts.  Genus-zero
    orientable divisors contribute nothing.
    """
    _require_trivial_h1(spec, "h2_group")
    return AbelianGroup.from_counts(spec.charts - 1, _torsion_counts(spec, _factors(spec)))


def h3_torsion(spec: SeifertSpec) -> AbelianGroup:
    """Torsion of H^3 of the total space; isomorphic to the H_2 torsion."""
    _require_trivial_h1(spec, "h3_torsion")
    return AbelianGroup.from_counts(0, _torsion_counts(spec, _factors(spec)))


def _w2(spec: SeifertSpec) -> tuple[int, ...]:
    coords = [w + h for w, h in zip(base_w2(spec.charts), spec.twist)]
    for d in spec.divisors:
        coords[d.chart] += d.b
    return tuple(x % 2 for x in coords)


def w2_class(spec: SeifertSpec) -> tuple[int, ...]:
    """The class over the base whose pullback is w2 of the total space.

    Only defined when every divisor is orientable: w = w2(X) + sum b_i [D_i]
    + twist, reduced mod 2, in chart coordinates.
    """
    spec.require_certified("w2_class")
    if any(isinstance(d.surface, Nonorientable) for d in spec.divisors):
        raise ValueError("w2_class needs orientable divisors; use wu_invariant instead")
    return _w2(spec)


def _bits(vec) -> int:
    mask = 0
    for j, x in enumerate(vec):
        if x % 2:
            mask |= 1 << j
    return mask


class _F2Span:
    """Row-reduced span of F_2 vectors packed as bitmasks."""

    def __init__(self, vectors=()):
        self.basis: list[int] = []
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        for b in self.basis:
            v = min(v, v ^ b)
        return v

    def add(self, v: int) -> None:
        v = self.reduce(v)
        if v:
            self.basis.append(v)
            self.basis.sort(reverse=True)

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0


def _even_kernel_span(spec: SeifertSpec, c1_mu: tuple[int, ...]) -> _F2Span:
    """K2: the certified subspace of the mod-2 kernel of the pullback.

    Spanned by c1(L/mu) mod 2 together with the classes of even-multiplicity
    divisors (the pullback of [D] is m times a class, so it dies mod 2 for
    even m).
    """
    span = _F2Span([_bits(c1_mu)])
    for d in spec.divisors:
        if d.m % 2 == 0:
            span.add(1 << d.chart)
    return span


def _wu(spec: SeifertSpec, c1_mu: tuple[int, ...]):
    if any(isinstance(d.surface, Nonorientable) for d in spec.divisors):
        return 1
    return 0 if _even_kernel_span(spec, c1_mu).contains(_bits(_w2(spec))) else INFINITY


def wu_invariant(spec: SeifertSpec):
    """The Wu invariant of the total space: 0, 1 or INFINITY.

    Requires |H_1| = 1.  A nonorientable divisor forces 1.  Otherwise let
    w be the w2 class over the base and K2 the certified mod-2 kernel:
    w in K2 certifies 0, and w outside K2 certifies INFINITY (see the
    module docstring).
    """
    return _wu(spec, _require_trivial_h1(spec, "wu_invariant"))


def simply_connected(spec: SeifertSpec) -> bool:
    """Triviality of the fundamental group, via |H_1| = 1.

    Certified only for generator divisor classes: those are the standard
    transverse arrangements, whose complements have abelian fundamental
    group, so pi_1 vanishes exactly when H_1 does.
    """
    spec.require_certified("simply_connected")
    return math.gcd(*_chern_mu(spec)) == 1


def _json_value(value):
    """Wire encoding of a report field: an H_1 order, a group or a Wu value."""
    if isinstance(value, Indeterminate):
        return "indeterminate"
    if isinstance(value, AbelianGroup):
        return value.to_json_dict()
    return encode_i(value)


@dataclass(frozen=True)
class CohomologyReport:
    """Everything recomputed from a presentation in one value."""

    h1_order: int
    h2: AbelianGroup | None
    h3_tors: AbelianGroup | None
    c1: tuple[Fraction, ...]
    c1_mu: tuple[int, ...]
    wu: object
    simply_connected: bool

    def to_json_dict(self) -> dict:
        return {
            "h1_order": self.h1_order,
            "h2": self.h2.to_json_dict() if self.h2 is not None else None,
            "h3_torsion": self.h3_tors.to_json_dict() if self.h3_tors is not None else None,
            "c1": [str(c) for c in self.c1],
            "c1_mu": list(self.c1_mu),
            "wu": _json_value(self.wu),
            "simply_connected": self.simply_connected,
        }


def full_report(spec: SeifertSpec) -> CohomologyReport:
    """Compose the whole engine over one presentation.

    H_2 and the H^3 torsion are present exactly when |H_1| = 1; otherwise
    the Wu invariant is reported INDETERMINATE.
    """
    spec.require_certified("full_report")
    c1_mu = _chern_mu(spec)
    order = math.gcd(*c1_mu)
    m_x = spec.multiplicity_lcm()
    c1 = tuple(Fraction(x, m_x) for x in c1_mu)
    if order == 1:
        counts = _torsion_counts(spec, _factors(spec))
        h2 = AbelianGroup.from_counts(spec.charts - 1, counts)
        h3 = AbelianGroup.from_counts(0, counts)
        wu = _wu(spec, c1_mu)
        sc = True
    else:
        h2 = None
        h3 = None
        wu = INDETERMINATE
        sc = False
    return CohomologyReport(
        h1_order=order, h2=h2, h3_tors=h3, c1=c1, c1_mu=c1_mu, wu=wu, simply_connected=sc
    )


class Diff(NamedTuple):
    """A field where a report contradicts an expected class."""

    field: str
    expected: object
    actual: object

    def to_json_dict(self) -> dict:
        return {
            "field": self.field,
            "expected": _json_value(self.expected),
            "actual": _json_value(self.actual),
        }


def compare(report: CohomologyReport, cls: FiveManifoldClass) -> list[Diff]:
    """The fields where `report` contradicts `cls`, in a fixed order.

    |H_1| must be 1.  Only then does the report determine H_2 and the Wu
    invariant, and only then are they compared.
    """
    if report.h1_order != 1:
        return [Diff("h1_order", 1, report.h1_order)]
    diffs = []
    if report.h2 != cls.h2:
        diffs.append(Diff("h2", cls.h2, report.h2))
    if report.wu != cls.i:
        diffs.append(Diff("wu", cls.i, report.wu))
    return diffs
