"""Recompute the invariants of a Seifert total space from its presentation.

All formulas are the evaluated consequences, on a smooth connected-sum-of-
CP^2 base, of the spectral sequence of the quotient map f: L -> X.  With
H^1(X) = H^3(X) = 0 and H^2(X) free they collapse to exact integer linear
algebra:

* The restriction map H^2(X, Z) -> sum_i H^2(D_i, Z/m_i) is the matrix of
  intersection numbers H_l . [D_i] with row i read mod m_i.  It is
  surjective iff, for every prime p, the rows with p | m_i are independent
  over F_p.

* When the restriction map is surjective, the order of H_1(L, Z) is the
  gcd of the coordinates of the integral class c1(L/mu); order one means L
  is simply connected (for the standard divisor arrangements, whose
  complement has abelian fundamental group).  When it is not surjective,
  H_1 surjects onto the cokernel, which is reported as a lower bound.

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
  order.  Any nonorientable divisor forces Wu invariant 1.  When no
  certificate applies the honest answer is INDETERMINATE.

A report is assembled from three facts, each computed once: the spec is
validated, every multiplicity is factored, and c1(L/mu) is formed in
integers.  The surjectivity primes and the shared H_2 / H^3 torsion counts
read the factorizations; |H_1|, the rational c1 = c1(L/mu) / m(X) and the
Wu certificate read c1(L/mu).  Each public function below validates its
argument and then runs the same private steps, which never validate again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .abgroup import AbelianGroup, IntMatrix, factorize, group_from_cokernel
from .classify import INFINITY, FiveManifoldClass, encode_i
from .seifert import Nonorientable, SeifertSpec, _chern_mu, base_w2

__all__ = [
    "INDETERMINATE",
    "Indeterminate",
    "UnknownNonzero",
    "RestrictionMap",
    "CohomologyReport",
    "restriction_matrix",
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
    """Fourth answer for the Wu invariant: no vanishing or nonvanishing
    certificate applies, so the engine abstains instead of guessing."""

    _instance = None

    def __new__(cls) -> "Indeterminate":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INDETERMINATE"


INDETERMINATE = Indeterminate()


@dataclass(frozen=True)
class UnknownNonzero:
    """H_1 is provably nonzero but its exact order is not computed here;
    carries the cokernel of the restriction map as a lower bound."""

    lower_bound: AbelianGroup


@dataclass(frozen=True)
class RestrictionMap:
    """Rows of intersection numbers against the chart basis, row i mod m_i."""

    rows: tuple[tuple[int, ...], ...]
    moduli: tuple[int, ...]

    def is_surjective(self) -> bool:
        return _surjective(self, [factorize(m) for m in self.moduli])

    def cokernel(self) -> AbelianGroup:
        """Cokernel of Z^charts -> sum_i Z/m_i as an abelian group."""
        n = len(self.rows)
        width = len(self.rows[0]) if self.rows else 1
        rows = []
        for i, row in enumerate(self.rows):
            diag = tuple(self.moduli[i] if j == i else 0 for j in range(n))
            rows.append(tuple(row) + diag)
        if not rows:
            return AbelianGroup.trivial()
        return group_from_cokernel(IntMatrix.from_rows(rows)) if width else AbelianGroup.trivial()


def _surjective(rm: RestrictionMap, factors: list[dict[int, int]]) -> bool:
    """Surjectivity from the factorization of each modulus: for every prime
    p, the rows with p | m_i are independent over F_p."""
    for p in sorted({p for f in factors for p in f}):
        rows = [row for row, f in zip(rm.rows, factors) if p in f]
        if _rank_mod_p(rows, p) < len(rows):
            return False
    return True


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


def _restriction(spec: SeifertSpec) -> RestrictionMap:
    rows = tuple(tuple(x % d.m for x in d.resolved_class(spec.charts)) for d in spec.divisors)
    return RestrictionMap(rows=rows, moduli=tuple(d.m for d in spec.divisors))


def restriction_matrix(spec: SeifertSpec) -> RestrictionMap:
    """The map H^2(X, Z) -> sum_i H^2(D_i, Z/m_i) in chart coordinates.

    Entry (i, l) is the intersection number H_l . [D_i] reduced mod m_i;
    the intersection form of the base is the identity, so the row is just
    the divisor's class vector.
    """
    spec.require_valid()
    return _restriction(spec)


def _factors(spec: SeifertSpec) -> list[dict[int, int]]:
    return [factorize(d.m) for d in spec.divisors]


def _h1_order(spec: SeifertSpec, factors, c1_mu: tuple[int, ...]) -> int | UnknownNonzero:
    rm = _restriction(spec)
    if not _surjective(rm, factors):
        return UnknownNonzero(lower_bound=rm.cokernel())
    return math.gcd(*c1_mu)


def h1_order(spec: SeifertSpec) -> int | UnknownNonzero:
    """Order of H_1 of the total space; 1 means trivial, 0 means infinite.

    When the restriction map is surjective this is the gcd of the
    coordinates of c1(L/mu); a primitive class gives H_1 = 0.  Otherwise
    the exact order is out of reach and the cokernel is returned as an
    UnknownNonzero lower bound.
    """
    spec.require_valid()
    return _h1_order(spec, _factors(spec), _chern_mu(spec))


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


def _trivial_h1_facts(spec: SeifertSpec, what: str):
    """Factorizations and c1(L/mu) of a valid spec, after checking |H_1| = 1."""
    factors = _factors(spec)
    c1_mu = _chern_mu(spec)
    order = _h1_order(spec, factors, c1_mu)
    if order != 1:
        raise ValueError(f"{what} requires |H_1| = 1, but h1_order gave {order!r}")
    return factors, c1_mu


def h2_group(spec: SeifertSpec) -> AbelianGroup:
    """H_2 of the total space when H_1 = 0.

    Free rank charts - 1; each divisor contributes (Z/m)^beta with
    beta = dim H_1(D, Z/2), split into primary parts.  Genus-zero
    orientable divisors contribute nothing.
    """
    spec.require_valid()
    factors, _ = _trivial_h1_facts(spec, "h2_group")
    return AbelianGroup.from_counts(spec.charts - 1, _torsion_counts(spec, factors))


def h3_torsion(spec: SeifertSpec) -> AbelianGroup:
    """Torsion of H^3 of the total space; isomorphic to the H_2 torsion."""
    spec.require_valid()
    factors, _ = _trivial_h1_facts(spec, "h3_torsion")
    return AbelianGroup.from_counts(0, _torsion_counts(spec, factors))


def _w2(spec: SeifertSpec) -> tuple[int, ...]:
    coords = [w + h for w, h in zip(base_w2(spec.charts), spec.twist)]
    for d in spec.divisors:
        for l, x in enumerate(d.resolved_class(spec.charts)):
            coords[l] += d.b * x
    return tuple(x % 2 for x in coords)


def w2_class(spec: SeifertSpec) -> tuple[int, ...]:
    """The class over the base whose pullback is w2 of the total space.

    Only defined when every divisor is orientable: w = w2(X) + sum b_i [D_i]
    + twist, reduced mod 2, in chart coordinates.
    """
    spec.require_valid()
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
            span.add(_bits(d.resolved_class(spec.charts)))
    return span


def _wu(spec: SeifertSpec, c1_mu: tuple[int, ...]):
    if any(isinstance(d.surface, Nonorientable) for d in spec.divisors):
        return 1
    w = _bits(_w2(spec))
    k2 = _even_kernel_span(spec, c1_mu)
    if k2.contains(w):
        return 0
    if not spec.all_generator_classes():
        return INDETERMINATE
    even_charts = {d.chart for d in spec.divisors if d.m % 2 == 0}
    witness_span = _F2Span(k2.basis)
    for j in range(spec.charts):
        if j not in even_charts:
            witness_span.add(1 << j)
    if witness_span.contains(w):
        return INFINITY
    return INDETERMINATE


def wu_invariant(spec: SeifertSpec):
    """The Wu invariant of the total space: 0, 1, INFINITY or INDETERMINATE.

    Requires |H_1| = 1.  A nonorientable divisor forces 1.  Otherwise let
    w be the w2 class over the base and K2 the certified mod-2 kernel:
    w in K2 certifies 0.  If w is congruent mod K2 to a vector supported
    on charts carrying no even multiplicity, the pullback of that vector
    is provably nonzero (restrict to those charts plus one even chart;
    the residual cokernel has odd order, so the mod-2 pullback is
    injective there), certifying INFINITY.  Anything else is
    INDETERMINATE.
    """
    spec.require_valid()
    _, c1_mu = _trivial_h1_facts(spec, "wu_invariant")
    return _wu(spec, c1_mu)


def simply_connected(spec: SeifertSpec) -> bool:
    """Triviality of the fundamental group, via |H_1| = 1.

    Certified only for generator divisor classes: those are the standard
    transverse arrangements, whose complements have abelian fundamental
    group, so pi_1 vanishes exactly when H_1 does.
    """
    spec.require_valid()
    if not spec.all_generator_classes():
        raise ValueError("simply_connected is only certified for generator divisor classes")
    return _h1_order(spec, _factors(spec), _chern_mu(spec)) == 1


def _json_value(value):
    """Wire encoding of a report field: an H_1 order, a group or a Wu value."""
    if isinstance(value, UnknownNonzero):
        return "unknown_nonzero"
    if isinstance(value, Indeterminate):
        return "indeterminate"
    if isinstance(value, AbelianGroup):
        return value.to_json_dict()
    return encode_i(value)


@dataclass(frozen=True)
class CohomologyReport:
    """Everything recomputed from a presentation in one value."""

    h1_order: int | UnknownNonzero
    h2: AbelianGroup | None
    h3_tors: AbelianGroup | None
    c1: tuple[Fraction, ...]
    c1_mu: tuple[int, ...]
    wu: object
    simply_connected: bool

    def to_json_dict(self) -> dict:
        out = {
            "h1_order": _json_value(self.h1_order),
            "h2": self.h2.to_json_dict() if self.h2 is not None else None,
            "h3_torsion": self.h3_tors.to_json_dict() if self.h3_tors is not None else None,
            "c1": [str(c) for c in self.c1],
            "c1_mu": list(self.c1_mu),
            "wu": _json_value(self.wu),
            "simply_connected": self.simply_connected,
        }
        if isinstance(self.h1_order, UnknownNonzero):
            out["h1_torsion_lower_bound"] = self.h1_order.lower_bound.to_json_dict()
        return out


def full_report(spec: SeifertSpec) -> CohomologyReport:
    """Compose the whole engine over one presentation.

    H_2 and the H^3 torsion are present exactly when |H_1| = 1; with H_1
    unsettled the Wu invariant is reported INDETERMINATE.
    """
    spec.require_valid()
    if not spec.all_generator_classes():
        raise ValueError("full_report is only certified for generator divisor classes")
    factors = _factors(spec)
    c1_mu = _chern_mu(spec)
    order = _h1_order(spec, factors, c1_mu)
    m_x = spec.multiplicity_lcm()
    c1 = tuple(Fraction(x, m_x) for x in c1_mu)
    if order == 1:
        counts = _torsion_counts(spec, factors)
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
    """A field where a report does not confirm an expected class; undecided
    when the report could not settle the field rather than contradicting it."""

    field: str
    expected: object
    actual: object
    undecided: bool = False

    def to_json_dict(self) -> dict:
        return {
            "field": self.field,
            "expected": _json_value(self.expected),
            "actual": _json_value(self.actual),
        }


def compare(report: CohomologyReport, cls: FiveManifoldClass) -> list[Diff]:
    """The fields where `report` fails to confirm `cls`, in a fixed order.

    |H_1| must be 1, and an UnknownNonzero order is undecided.  H_2 is
    compared when the report determines it.  The Wu invariant is compared
    when |H_1| = 1, where INDETERMINATE is undecided; with |H_1| != 1 it is
    INDETERMINATE by construction and adds nothing.
    """
    diffs = []
    if report.h1_order != 1:
        undecided = isinstance(report.h1_order, UnknownNonzero)
        diffs.append(Diff("h1_order", 1, report.h1_order, undecided))
    if report.h2 is not None and report.h2 != cls.h2:
        diffs.append(Diff("h2", cls.h2, report.h2))
    if isinstance(report.wu, Indeterminate):
        if report.h1_order == 1:
            diffs.append(Diff("wu", cls.i, report.wu, undecided=True))
    elif report.wu != cls.i:
        diffs.append(Diff("wu", cls.i, report.wu))
    return diffs
