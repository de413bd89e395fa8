"""Realizability and circle-action admissibility of (H2, w2) data.

A closed simply connected 5-manifold is determined by its second homology
together with the second Stiefel-Whitney map w2: H2 -> Z/2, and the pair is
realizable exactly when H2 = Z^k + A + A (w2 arbitrary) or
H2 = Z^k + A + A + Z/2 (w2 the projection onto the extra Z/2).  Instead of
carrying w2 itself we carry the single invariant i:

    i = 0         w2 vanishes identically,
    i = INFINITY  w2 is nonzero but vanishes on all torsion classes
                  (this needs free rank >= 1),
    i = n >= 1    2^n is the minimal order of a torsion class on which w2
                  is nonzero (this needs count(2, n) != 0).

On top of realizability, a fixed-point-free circle action forces three
rules checked by :func:`circle_action_admissible`:

    R1  per prime p, at most k + 1 exponents e have count(p, e) != 0;
    R2  i is one of 0, 1, INFINITY;
    R3  if i = INFINITY, at most k exponents e have count(2, e) != 0.

Each rule, and each condition of realizability, either ignores k or holds
from some k on, so a (torsion, i) pair passes the gate exactly for k at or
above a least rank, or for no k.  `_least_k` gives that rank from the same
per-rule thresholds the gate compares k against.
"""

from __future__ import annotations

from typing import Union

from ._record import Record
from .abgroup import AbelianGroup

__all__ = [
    "INFINITY",
    "Infinity",
    "WuValue",
    "FiveManifoldClass",
    "GateVerdict",
    "validate_i",
    "smale_barden_realizable",
    "circle_action_admissible",
    "R1_PRIME_COUNT",
    "R2_WU_RANGE",
    "R3_SPIN_TWO_COUNT",
    "NOT_REALIZABLE",
    "INVALID_I",
    "encode_i",
    "decode_i",
]


class Infinity:
    """Marker for i = infinity."""

    _instance = None

    def __new__(cls) -> "Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = Infinity()

WuValue = Union[int, Infinity]

R1_PRIME_COUNT = "R1_PRIME_COUNT"
R2_WU_RANGE = "R2_WU_RANGE"
R3_SPIN_TWO_COUNT = "R3_SPIN_TWO_COUNT"
NOT_REALIZABLE = "NOT_REALIZABLE"
INVALID_I = "INVALID_I"


def encode_i(i: WuValue):
    """Wire encoding: INFINITY becomes the string "inf"."""
    return "inf" if isinstance(i, Infinity) else i


def decode_i(value) -> WuValue:
    if value == "inf":
        return INFINITY
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"invalid i value {value!r}; expected a natural number or \"inf\"")
    if value < 0:
        raise ValueError(f"invalid i value {value}; must be >= 0")
    return value


def _check_i_type(i: WuValue) -> None:
    if isinstance(i, Infinity):
        return
    if isinstance(i, bool) or not isinstance(i, int) or i < 0:
        raise ValueError(f"i must be a natural number or INFINITY, got {i!r}")


class FiveManifoldClass(Record):
    """A candidate (H2, i) pair.

    Construction is permissive: pairs that are not realizable (or whose i
    is inconsistent with H2) are representable so the gate can reject them
    with a tagged verdict.
    """

    __slots__ = ("h2", "i")

    def __init__(self, h2: AbelianGroup, i: WuValue) -> None:
        _check_i_type(i)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "i", i)

    @property
    def k(self) -> int:
        return self.h2.free_rank

    def to_json_dict(self) -> dict:
        data = self.h2.to_json_dict()
        data["i"] = encode_i(self.i)
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiveManifoldClass":
        if not isinstance(data, dict):
            raise ValueError("class must be a JSON object")
        extra = set(data) - {"free_rank", "torsion", "i"}
        if extra:
            raise ValueError(f"unknown class field {sorted(extra)[0]!r}")
        if "i" not in data:
            raise ValueError("missing field 'i'")
        group = AbelianGroup.from_json_dict({k: v for k, v in data.items() if k != "i"})
        return cls(group, decode_i(data["i"]))


class GateVerdict(Record):
    """Outcome of the admissibility gate; carries every violated rule, and
    prints as the gate's text line."""

    __slots__ = ("violated_rules",)

    def __init__(self, violated_rules: tuple[str, ...] = ()) -> None:
        object.__setattr__(self, "violated_rules", violated_rules)

    @property
    def admissible(self) -> bool:
        return not self.violated_rules

    def to_json_dict(self) -> dict:
        return {"admissible": self.admissible, "violated_rules": list(self.violated_rules)}

    def __str__(self) -> str:
        if self.admissible:
            return "admissible"
        return "not admissible: " + ", ".join(self.violated_rules)


def validate_i(h2: AbelianGroup, i: WuValue) -> bool:
    """Is i a possible Wu invariant for a manifold with this H2?

    i = 0 always is; i = INFINITY needs a free summand to carry w2; and a
    finite i = n >= 1 needs a torsion class of order exactly 2^n.
    """
    _check_i_type(i)
    _, _, _, valid, _ = _thresholds(h2.torsion, i)
    return valid is not None and h2.free_rank >= valid


def smale_barden_realizable(cls: FiveManifoldClass) -> bool:
    """Does a simply connected compact 5-manifold with this (H2, i) exist?

    Torsion must be of the form A + A (all prime-power counts even, any
    achievable i) or A + A + Z/2 (count(2, 1) odd, everything else even,
    and then i is forced to be 1).
    """
    _, _, _, valid, doubled = _thresholds(cls.h2.torsion, cls.i)
    return valid is not None and cls.k >= valid and doubled is not None


def _thresholds(torsion, i: WuValue) -> tuple[int | None, ...]:
    """Per rule, in the order R1, R2, R3, INVALID_I, NOT_REALIZABLE, the
    least free rank k from which the rule holds, or None if it never does.

    R1 holds from (largest per-prime spread) - 1 on, R3 under i = INFINITY
    from spread(2) on, and INVALID_I under i = INFINITY (`validate_i`)
    from 1 on.  R2, NOT_REALIZABLE (torsion A + A, or A + A + Z/2 with
    i = 1) and INVALID_I for a finite i do not read k: 0 or None.  The
    spread of p counts its exponents with a nonzero count.  `torsion` is
    an iterable of (p, e, count) triples, read once.
    """
    infinite = isinstance(i, Infinity)
    carried = infinite or i == 0
    spread: dict[int, int] = {}
    odd = []
    for p, e, count in torsion:
        spread[p] = spread.get(p, 0) + 1
        if count % 2:
            odd.append((p, e))
        if p == 2 and e == i:
            carried = True
    return (
        max(spread.values(), default=1) - 1,
        0 if infinite or i in (0, 1) else None,
        spread.get(2, 0) if infinite else 0,
        (1 if infinite else 0) if carried else None,
        0 if not odd or (odd == [(2, 1)] and i == 1) else None,
    )


def circle_action_admissible(cls: FiveManifoldClass) -> GateVerdict:
    """Gate for the existence of a fixed-point-free circle action.

    Requires realizability plus rules R1 (prime spread), R2 (Wu range) and
    R3 (2-primary spread under i = INFINITY).  All violated rules are
    reported, in the canonical order R1, R2, R3, then NOT_REALIZABLE or
    INVALID_I (never both).  A rule is violated exactly when its
    `_thresholds` entry is None or above k; `_least_k` reads the same
    entries, so the gate and the threshold cannot disagree.
    """
    k = cls.k
    r1, r2, r3, valid, doubled = _thresholds(cls.h2.torsion, cls.i)
    violated = []
    if r1 is None or k < r1:
        violated.append(R1_PRIME_COUNT)
    if r2 is None or k < r2:
        violated.append(R2_WU_RANGE)
    if r3 is None or k < r3:
        violated.append(R3_SPIN_TWO_COUNT)
    if valid is None or k < valid:
        violated.append(INVALID_I)
    # An i that H2 cannot carry leaves no realizability question to fail.
    elif doubled is None or k < doubled:
        violated.append(NOT_REALIZABLE)
    return GateVerdict(tuple(violated))


def _least_k(torsion, i: WuValue) -> int | None:
    """The least free rank at which a class with this torsion and this i
    passes `circle_action_admissible`, or None when no rank does.

    Each rule holds exactly from its `_thresholds` entry on, so the class
    is admissible exactly for k >= the largest entry.
    """
    thresholds = _thresholds(torsion, i)
    return None if None in thresholds else max(thresholds)
