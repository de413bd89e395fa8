"""Seifert bundle presentations over connected sums of CP^2.

The base is a connected sum of `charts` copies of CP^2.  Its second
cohomology has the chart basis H_0, ..., H_k with the identity intersection
form, and its second Stiefel-Whitney class is the all-ones vector mod 2 (by
the Wu identity x.x = w2.x on a closed oriented 4-manifold, applied to the
identity form).

A presentation consists of branch divisors (each representing the
generator of a single chart, with a surface type, a multiplicity m >= 2 and
an orbit invariant b coprime to m) plus an integer twist vector: the first
Chern class of the background line bundle in chart coordinates.  Divisors
in the same chart intersect, so their multiplicities must be pairwise
coprime; divisors in distinct charts are disjoint.  Nonorientable divisors
only occur with m = 2, since for m >= 3 the normal plane bundle is
orientable.

The rational first Chern class of the total space over the base is

    c1 = twist + sum over divisors of (b/m) * [D],

and clearing denominators with m(X) = lcm of the multiplicities gives the
integral class `chern_mu`, the Chern class of the quotient circle bundle.
"""

from __future__ import annotations

import math
from typing import Union

from ._record import Record
from .abgroup import _MR_LIMIT, _json_int

__all__ = [
    "Orientable",
    "Nonorientable",
    "SurfaceType",
    "Divisor",
    "SeifertSpec",
    "SpecIssue",
    "SpecValidationError",
    "SpecSchemaError",
    "chern_mu",
    "COPRIMALITY",
    "BAD_ORBIT_INVARIANT",
    "NONORIENTABLE_M",
    "BAD_CHART",
    "BAD_MULTIPLICITY",
    "TWIST_LENGTH",
    "BAD_H2_CLASS",
]

COPRIMALITY = "COPRIMALITY"
BAD_ORBIT_INVARIANT = "BAD_ORBIT_INVARIANT"
NONORIENTABLE_M = "NONORIENTABLE_M"
BAD_CHART = "BAD_CHART"
BAD_MULTIPLICITY = "BAD_MULTIPLICITY"
TWIST_LENGTH = "TWIST_LENGTH"
BAD_H2_CLASS = "BAD_H2_CLASS"


class Orientable(Record):
    """Closed orientable surface of the given genus; dim H1(D, Z/2) = 2g."""

    __slots__ = ("genus",)

    def __init__(self, genus: int) -> None:
        if genus < 0:
            raise ValueError("genus must be >= 0")
        object.__setattr__(self, "genus", genus)

    @property
    def h1_mod2_dim(self) -> int:
        return 2 * self.genus


class Nonorientable(Record):
    """Closed nonorientable surface with dim H1(D, Z/2) = b1 >= 1."""

    __slots__ = ("b1",)

    def __init__(self, b1: int) -> None:
        if b1 < 1:
            raise ValueError("b1 must be >= 1")
        object.__setattr__(self, "b1", b1)

    @property
    def h1_mod2_dim(self) -> int:
        return self.b1


SurfaceType = Union[Orientable, Nonorientable]


class Divisor(Record):
    """A branch divisor: chart index, surface type, multiplicity and orbit invariant.

    Its homology class is the generator of its chart, the only class the
    constructions produce and the cohomology certificates cover.
    Arithmetic invariants (gcd(b, m) = 1, m >= 2, nonorientable implies
    m = 2) are checked when a SeifertSpec holding the divisor is built.
    """

    __slots__ = ("chart", "surface", "m", "b")

    def __init__(self, chart: int, surface: SurfaceType, m: int, b: int) -> None:
        if chart < 0:
            raise ValueError("chart index must be >= 0")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "b", b)


class SpecIssue(Record):
    __slots__ = ("code", "message")

    def __init__(self, code: str, message: str) -> None:
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "message", message)

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class SpecValidationError(ValueError):
    def __init__(self, issues: list[SpecIssue]):
        self.issues = issues
        super().__init__("; ".join(str(i) for i in issues))


class SpecSchemaError(ValueError):
    pass


class SeifertSpec(Record):
    """A Seifert bundle presentation over the connected sum of `charts` CP^2's.

    Valid by construction: the constructor raises SpecValidationError with
    every issue `validate` finds, so no function taking a spec checks it
    again.
    """

    __slots__ = ("charts", "divisors", "twist")

    def __init__(self, charts: int, divisors: tuple[Divisor, ...], twist: tuple[int, ...]) -> None:
        if charts < 1:
            raise ValueError("need at least one chart")
        object.__setattr__(self, "charts", charts)
        object.__setattr__(self, "divisors", tuple(divisors))
        object.__setattr__(self, "twist", tuple(int(h) for h in twist))
        issues = self.validate()
        if issues:
            raise SpecValidationError(issues)

    def multiplicity_lcm(self) -> int:
        """m(X): the lcm of all multiplicities, 1 when there are no divisors."""
        return math.lcm(*(d.m for d in self.divisors)) if self.divisors else 1

    def validate(self) -> list[SpecIssue]:
        """All invariant violations, each tagged with a stable code."""
        issues: list[SpecIssue] = []
        if len(self.twist) != self.charts:
            issues.append(
                SpecIssue(TWIST_LENGTH, f"twist has {len(self.twist)} entries, need {self.charts}")
            )
        for idx, d in enumerate(self.divisors):
            if d.chart >= self.charts:
                issues.append(SpecIssue(BAD_CHART, f"divisor {idx} chart {d.chart} >= {self.charts}"))
            if d.m < 2:
                issues.append(SpecIssue(BAD_MULTIPLICITY, f"divisor {idx} multiplicity {d.m} < 2"))
            elif not 1 <= d.b < d.m or math.gcd(d.b, d.m) != 1:
                issues.append(
                    SpecIssue(BAD_ORBIT_INVARIANT, f"divisor {idx} has (m, b) = ({d.m}, {d.b})")
                )
            if isinstance(d.surface, Nonorientable) and d.m != 2:
                issues.append(
                    SpecIssue(NONORIENTABLE_M, f"divisor {idx} is nonorientable with m = {d.m}")
                )
        # One gcd per divisor against the product of the multiplicities
        # before it in its chart.  Every clashing pair (a, b) makes b's gcd
        # differ from 1, since gcd(m_a, m_b) divides it, so the pairwise
        # scan that names the clashes runs only when some gcd is not 1.
        products: dict[int, int] = {}
        for d in self.divisors:
            product = products.get(d.chart, 1)
            if math.gcd(product, d.m) != 1:
                break
            products[d.chart] = product * d.m
        else:
            return issues
        for a in range(len(self.divisors)):
            for b in range(a + 1, len(self.divisors)):
                da, db = self.divisors[a], self.divisors[b]
                if da.chart == db.chart and math.gcd(da.m, db.m) != 1:
                    issues.append(
                        SpecIssue(
                            COPRIMALITY,
                            f"chart {da.chart} carries multiplicities {da.m} and {db.m}",
                        )
                    )
        return issues

    def to_json_dict(self) -> dict:
        divisors = []
        for d in self.divisors:
            if isinstance(d.surface, Orientable):
                surface = {"orientable": True, "genus": d.surface.genus}
            else:
                surface = {"orientable": False, "b1": d.surface.b1}
            divisors.append({"chart": d.chart, "surface": surface, "m": d.m, "b": d.b})
        return {"charts": self.charts, "divisors": divisors, "twist": list(self.twist)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SeifertSpec":
        """Strict decoding: unknown fields are rejected by name, integer
        fields must be JSON integers and `orientable` a JSON boolean.  An
        `h2_class` is accepted only as the generator of its divisor's chart,
        and dropped; any other class is refused with BAD_H2_CLASS.  The
        decoded spec must pass validate(), and then every multiplicity must
        lie below the factoring bound 3.3 * 10**24."""
        if not isinstance(data, dict):
            raise SpecSchemaError("spec must be a JSON object")
        extra = set(data) - {"charts", "divisors", "twist"}
        if extra:
            raise SpecSchemaError(f"unknown field {sorted(extra)[0]!r}")
        missing = {"charts", "divisors", "twist"} - set(data)
        if missing:
            raise SpecSchemaError(f"missing field {sorted(missing)[0]!r}")

        def integer(value, what: str) -> int:
            return _json_int(value, what, SpecSchemaError)

        def array(value, what: str) -> list:
            if not isinstance(value, list):
                raise SpecSchemaError(f"{what} must be a list, got {value!r}")
            return value

        divisors = []
        classes: dict[int, tuple[int, ...]] = {}
        for idx, entry in enumerate(array(data["divisors"], "divisors")):
            if not isinstance(entry, dict):
                raise SpecSchemaError(f"divisor {idx} must be an object")
            extra = set(entry) - {"chart", "surface", "m", "b", "h2_class"}
            if extra:
                raise SpecSchemaError(f"unknown field {sorted(extra)[0]!r} in divisor {idx}")
            missing = {"chart", "surface", "m", "b"} - set(entry)
            if missing:
                raise SpecSchemaError(f"missing field {sorted(missing)[0]!r} in divisor {idx}")
            surf = entry["surface"]
            if not isinstance(surf, dict) or "orientable" not in surf:
                raise SpecSchemaError(f"divisor {idx} surface must carry 'orientable'")
            if not isinstance(surf["orientable"], bool):
                raise SpecSchemaError(
                    f"divisor {idx} orientable must be true or false, got {surf['orientable']!r}"
                )
            extra = set(surf) - {"orientable", "genus" if surf["orientable"] else "b1"}
            if extra:
                raise SpecSchemaError(f"unknown field {sorted(extra)[0]!r} in surface {idx}")
            if surf["orientable"]:
                genus = integer(surf.get("genus", 0), f"divisor {idx} genus")
                surface: SurfaceType = Orientable(genus=genus)
            else:
                if "b1" not in surf:
                    raise SpecSchemaError(f"missing field 'b1' in nonorientable surface {idx}")
                surface = Nonorientable(b1=integer(surf["b1"], f"divisor {idx} b1"))
            if "h2_class" in entry:
                classes[idx] = tuple(integer(x, f"divisor {idx} h2_class entry")
                                     for x in array(entry["h2_class"], f"divisor {idx} h2_class"))
            divisors.append(
                Divisor(
                    chart=integer(entry["chart"], f"divisor {idx} chart"),
                    surface=surface,
                    m=integer(entry["m"], f"divisor {idx} m"),
                    b=integer(entry["b"], f"divisor {idx} b"),
                )
            )
        charts = integer(data["charts"], "charts")
        twist = tuple(integer(h, "twist entry") for h in array(data["twist"], "twist"))
        issues = [
            SpecIssue(BAD_H2_CLASS, f"divisor {idx} class {list(h2)} is not the generator "
                                    f"of chart {divisors[idx].chart} ({charts} charts)")
            for idx, h2 in classes.items()
            if len(h2) != charts or h2 != tuple(int(l == divisors[idx].chart) for l in range(charts))
        ]
        if issues:
            raise SpecValidationError(issues)
        spec = cls(charts=charts, divisors=tuple(divisors), twist=twist)
        # H_2 needs the factorization of m, which is only exact below this
        # bound; checked last, so every other input error reads as before.
        for idx, d in enumerate(spec.divisors):
            if d.m >= _MR_LIMIT:
                raise SpecSchemaError(f"divisor {idx} m must be below {_MR_LIMIT:,}")
        return spec


def chern_mu(spec: SeifertSpec) -> tuple[int, ...]:
    """The integral class m(X) * c1, the Chern class of the quotient circle
    bundle: m(X) * twist + sum of b * (m(X)/m) [D], where each divisor adds
    to the coordinate of its own chart."""
    m_x = spec.multiplicity_lcm()
    coords = [m_x * h for h in spec.twist]
    for d in spec.divisors:
        coords[d.chart] += d.b * (m_x // d.m)
    return tuple(coords)
