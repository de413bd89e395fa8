"""Recompute the invariants of a Seifert total space from its presentation.

`full_report` is the one entry point: it computes every invariant below
from a spec, and `compare` checks a report against an expected class.

All formulas are the evaluated consequences, on a smooth connected-sum-of-
CP^2 base, of the spectral sequence of the quotient map f: L -> X.  With
H^1(X) = H^3(X) = 0 and H^2(X) free they collapse to exact integer linear
algebra.  Every SeifertSpec is a generator-class spec (each divisor is the
generator of its chart: the standard transverse arrangements, whose
complements have abelian fundamental group), valid by construction, so no
function here checks its argument.  On those specs:

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

* w2(L) is the pullback of w = w2(X) + sum b_i [D_i] + twist (all
  divisors orientable); any nonorientable divisor forces Wu invariant 1.
  Two generator families provably die under the mod-2 pullback: c1(L/mu)
  and every [D_i] with even m_i; their span K2 gives the certificate for
  Wu invariant 0.  Call a chart even when it holds an even multiplicity.
  Then w lies in K2 exactly when w vanishes on every chart that is not
  even, in two cases:

  - m(X) even: coordinate l of c1(L/mu) is m(X) h_l + sum b_i m(X)/m_i
    over the divisors of chart l, and is odd only when chart l holds the
    divisor with the full 2-power of m(X).  So c1(L/mu) mod 2 lies on the
    even charts, and K2 is the span of their unit vectors.
  - m(X) odd: there is no even chart, and every m(X)/m_i is odd, so
    w = c1(L/mu) + (1, ..., 1) mod 2.  K2 = {0, c1(L/mu)} then holds w
    only when w = 0.

  For INFINITY the certificate is an injectivity argument on the charts
  that are not even: restricting the bundle to those charts plus a single
  even chart, the mod-2 pullback is injective on their coordinates
  because the remaining cokernel has odd order.  Every w outside K2 is
  congruent mod K2 to a nonzero vector on those charts, so w not in K2
  certifies INFINITY.  The Wu invariant is therefore one pass over the
  divisors and the charts.

A report is assembled from two facts, each computed once: c1(L/mu) is
formed in integers, and, when |H_1| = 1, every distinct multiplicity is
factored.  The H_2 torsion counts read the factorizations, and the H^3
torsion, equal to them, is read off H_2 rather than stored; |H_1|, simple
connectivity and the rational c1 = c1(L/mu) / m(X) read c1(L/mu).  The
Wu invariant reads neither: it forms w and the even charts in one pass
over the divisors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from ._record import Record
from .abgroup import AbelianGroup, factorize
from .classify import INFINITY, FiveManifoldClass, encode_i
from .seifert import Nonorientable, SeifertSpec, chern_mu

__all__ = [
    "CohomologyReport",
    "full_report",
    "Diff",
    "compare",
]


# No caller: bench/spans.py binds this name for its traced run, so it stays
# until the benchmark stops asking for it.
def _rank_mod_p(rows: list[tuple[int, ...]], p: int) -> int:
    raise NotImplementedError("no caller; kept for bench/spans.py")


def _torsion_counts(spec: SeifertSpec) -> dict[tuple[int, int], int]:
    """Shared torsion of H_2 and H^3: (Z/m)^beta per divisor, by primary parts.

    The betas are summed per distinct multiplicity, and only the
    multiplicities with a positive sum are factored, each once; the spec
    decoder bounds every multiplicity below where the factorizer refuses.
    """
    betas: dict[int, int] = {}
    for d in spec.divisors:
        beta = d.surface.h1_mod2_dim
        if beta:
            betas[d.m] = betas.get(d.m, 0) + beta
    counts: dict[tuple[int, int], int] = {}
    for m, beta in betas.items():
        for p, e in factorize(m).items():
            key = (p, e)
            counts[key] = counts.get(key, 0) + beta
    return counts


# No caller: bench/spans.py binds `_F2Span.reduce` for its traced run, so
# this stays until the benchmark stops asking for it.
class _F2Span:
    def reduce(self, v: int) -> int:
        raise NotImplementedError("no caller; kept for bench/spans.py")


def _wu(spec: SeifertSpec):
    # One pass forms w = w2(X) + twist + sum b_i [D_i] mod 2, with w2(X) the
    # all-ones vector (`seifert` docstring), and the even charts.
    w = [1 + h for h in spec.twist]
    even = set()
    for d in spec.divisors:
        if isinstance(d.surface, Nonorientable):
            return 1
        w[d.chart] += d.b
        if d.m % 2 == 0:
            even.add(d.chart)
    return 0 if all(x % 2 == 0 or l in even for l, x in enumerate(w)) else INFINITY


def _json_value(value):
    """Wire encoding of a report field: an H_1 order, a group or a Wu value,
    None where |H_1| != 1 leaves it undetermined."""
    if value is None:
        return "indeterminate"
    if isinstance(value, AbelianGroup):
        return value.to_json_dict()
    return encode_i(value)


class CohomologyReport(Record):
    """Everything recomputed from a presentation in one value; the H^3
    torsion and simple connectivity are derived from H_2 and |H_1|."""

    __slots__ = ("h1_order", "h2", "c1", "c1_mu", "wu")

    def __init__(
        self,
        h1_order: int,
        h2: AbelianGroup | None,
        c1: tuple[Fraction, ...],
        c1_mu: tuple[int, ...],
        wu: object,
    ) -> None:
        object.__setattr__(self, "h1_order", h1_order)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c1_mu", c1_mu)
        object.__setattr__(self, "wu", wu)

    @property
    def simply_connected(self) -> bool:
        return self.h1_order == 1

    @property
    def h3_tors(self) -> AbelianGroup | None:
        return None if self.h2 is None else AbelianGroup(0, self.h2.torsion)

    def to_json_dict(self) -> dict:
        h2 = None if self.h2 is None else self.h2.to_json_dict()
        return {
            "h1_order": self.h1_order,
            "h2": h2,
            "h3_torsion": None if h2 is None else {"free_rank": 0, "torsion": h2["torsion"]},
            "c1": [str(c) for c in self.c1],
            "c1_mu": list(self.c1_mu),
            "wu": _json_value(self.wu),
            "simply_connected": self.simply_connected,
        }


def full_report(spec: SeifertSpec) -> CohomologyReport:
    """Compose the whole engine over one presentation.

    H_2, the H^3 torsion and the Wu invariant are determined exactly when
    |H_1| = 1, and are None otherwise.  The total space is simply
    connected exactly when |H_1| = 1: every divisor is the generator of its
    chart, and those standard transverse arrangements have complements with
    abelian fundamental group, so pi_1 vanishes exactly when H_1 does.
    """
    c1_mu = chern_mu(spec)
    order = math.gcd(*c1_mu)
    m_x = spec.multiplicity_lcm()
    c1 = tuple(Fraction(x, m_x) for x in c1_mu)
    h2 = wu = None
    if order == 1:
        h2 = AbelianGroup.from_counts(spec.charts - 1, _torsion_counts(spec))
        wu = _wu(spec)
    return CohomologyReport(h1_order=order, h2=h2, c1=c1, c1_mu=c1_mu, wu=wu)


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
