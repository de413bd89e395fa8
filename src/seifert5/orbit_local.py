"""Local structure of fixed-point-free circle actions near an orbit.

A point with stabilizer Z/m acts on the normal slice through a faithful
linear representation encoded by exponents (j_1, ..., j_r): the canonical
generator rotates the i-th complex coordinate by exp(2*pi*i*j_i/m).  From
the exponents we derive, for each coordinate,

    c_i = gcd(m, all exponents except j_i),

which are pairwise coprime with product C dividing m.  The subgroup Z/c_i
fixes everything but the i-th coordinate (a quasi-reflection subgroup), and
the quotient of the slice is a manifold exactly when C = m.  Prefix and
suffix gcds give every c_i in O(r) gcds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "StabilizerRep",
    "LocalInvariants",
    "local_invariants",
]


@dataclass(frozen=True)
class StabilizerRep:
    """A faithful action of Z/m on C^r by coordinate rotations.

    Faithful means gcd(j_1, ..., j_r, m) = 1.  Exponents are kept in the
    given slot order; exchanging j with m - j in a slot is the unresolved
    orientation choice of that coordinate's normal plane.
    """

    m: int
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("stabilizer order must be >= 1")
        object.__setattr__(self, "exponents", tuple(int(j) for j in self.exponents))
        for j in self.exponents:
            if not 1 <= j < self.m:
                raise ValueError(f"exponent {j} out of range [1, {self.m})")
        if math.gcd(*self.exponents, self.m) != 1:
            raise ValueError("representation is not faithful (common divisor of exponents and m)")


@dataclass(frozen=True)
class LocalInvariants:
    """Derived data of a slice representation.

    c[i] is the order of the quasi-reflection subgroup fixing all but the
    i-th coordinate, C their product, d[i] the residual exponents of the
    quotient action, and manifold_point records whether the quotient of
    the slice is a manifold (C = m).
    """

    c: tuple[int, ...]
    d: tuple[int, ...]
    C: int
    manifold_point: bool


def local_invariants(rep: StabilizerRep) -> LocalInvariants:
    """Compute the gcd invariants (c_i), C and the manifold-point test.

    For a single exponent the complementary gcd is m itself, so every
    codimension-two point has a manifold quotient.

    >>> local_invariants(StabilizerRep(12, (3, 4)))
    LocalInvariants(c=(4, 3), d=(1, 1), C=12, manifold_point=True)
    >>> local_invariants(StabilizerRep(4, (1, 1))).manifold_point
    False
    """
    js = rep.exponents
    # prefix[i] = gcd(m, js[:i]) and suffix[i] = gcd(js[i:]), so slot i
    # leaves out js[i] alone.
    prefix = [rep.m]
    for j in js:
        prefix.append(math.gcd(prefix[-1], j))
    suffix = [0] * (len(js) + 1)
    for i in range(len(js) - 1, -1, -1):
        suffix[i] = math.gcd(js[i], suffix[i + 1])
    c = tuple(math.gcd(prefix[i], suffix[i + 1]) for i in range(len(js)))
    big_c = math.prod(c)
    d = []
    for j, ci in zip(js, c):
        step = big_c // ci
        if j % step != 0:
            raise ArithmeticError(f"C/c_i = {step} does not divide exponent {j}")
        d.append(j // step)
    return LocalInvariants(c=c, d=tuple(d), C=big_c, manifold_point=big_c == rep.m)

