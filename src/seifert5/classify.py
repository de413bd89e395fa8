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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

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
    """Marker for i = infinity; compares above every integer."""

    _instance = None

    def __new__(cls) -> "Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"

    def __gt__(self, other: object) -> bool:
        return isinstance(other, int)

    def __ge__(self, other: object) -> bool:
        return isinstance(other, int) or other is self

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self


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


@dataclass(frozen=True)
class FiveManifoldClass:
    """A candidate (H2, i) pair.

    Construction is permissive: pairs that are not realizable (or whose i
    is inconsistent with H2) are representable so the gate can reject them
    with a tagged verdict.
    """

    h2: AbelianGroup
    i: WuValue

    def __post_init__(self) -> None:
        _check_i_type(self.i)

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


@dataclass(frozen=True)
class GateVerdict:
    """Outcome of the admissibility gate; carries every violated rule."""

    admissible: bool
    violated_rules: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.admissible != (not self.violated_rules):
            raise ValueError("admissible must mean no violated rules")

    def to_json_dict(self) -> dict:
        return {"admissible": self.admissible, "violated_rules": list(self.violated_rules)}


def validate_i(h2: AbelianGroup, i: WuValue) -> bool:
    """Is i a possible Wu invariant for a manifold with this H2?

    i = 0 always is; i = INFINITY needs a free summand to carry w2; and a
    finite i = n >= 1 needs a torsion class of order exactly 2^n.
    """
    _check_i_type(i)
    if isinstance(i, Infinity):
        return h2.free_rank >= 1
    return i == 0 or any(p == 2 and e == i for p, e, _ in h2.torsion)


def _doubled(h2: AbelianGroup, i: WuValue) -> bool:
    """Is the torsion A + A, or A + A + Z/2 with i forced to 1?

    The counts are all even, or (2, 1) is the only odd one and i = 1.
    """
    odd = [(p, e) for p, e, c in h2.torsion if c % 2]
    return not odd or (odd == [(2, 1)] and i == 1)


def smale_barden_realizable(cls: FiveManifoldClass) -> bool:
    """Does a simply connected compact 5-manifold with this (H2, i) exist?

    Torsion must be of the form A + A (all prime-power counts even, any
    achievable i) or A + A + Z/2 (count(2, 1) odd, everything else even,
    and then i is forced to be 1).
    """
    return validate_i(cls.h2, cls.i) and _doubled(cls.h2, cls.i)


def circle_action_admissible(cls: FiveManifoldClass) -> GateVerdict:
    """Gate for the existence of a fixed-point-free circle action.

    Requires realizability plus rules R1 (prime spread), R2 (Wu range) and
    R3 (2-primary spread under i = INFINITY).  All violated rules are
    reported, in the canonical order R1, R2, R3, then NOT_REALIZABLE or
    INVALID_I (never both).
    """
    h2, i, k = cls.h2, cls.i, cls.k
    # Exponents with a nonzero count, per prime, in one pass over the torsion.
    spread: dict[int, int] = {}
    for p, _, _ in h2.torsion:
        spread[p] = spread.get(p, 0) + 1

    violated = []
    if any(n > k + 1 for n in spread.values()):
        violated.append(R1_PRIME_COUNT)
    if not (isinstance(i, Infinity) or i in (0, 1)):
        violated.append(R2_WU_RANGE)
    if isinstance(i, Infinity) and spread.get(2, 0) > k:
        violated.append(R3_SPIN_TWO_COUNT)
    if not validate_i(h2, i):
        violated.append(INVALID_I)
    elif not _doubled(h2, i):
        violated.append(NOT_REALIZABLE)
    return GateVerdict(admissible=not violated, violated_rules=tuple(violated))
