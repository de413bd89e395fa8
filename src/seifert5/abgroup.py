"""Exact arithmetic over finitely generated abelian groups.

This is the substrate for the whole package: deterministic primality and
factorization, and groups presented as a free rank plus prime-power
torsion counts.  A group

    Z^k  +  sum over (p, e) of (Z/p^e)^count

is stored canonically (torsion sorted by prime, then exponent, zero counts
dropped), so equality of values is isomorphism of groups.

All kernels run on Python ints; overflow cannot occur.
"""

from __future__ import annotations

import math
from typing import Mapping

from ._record import Record

__all__ = [
    "AbelianGroup",
    "is_prime",
    "factorize",
]


def _primes_below(n: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


# Trial division by the primes below 1000 decides primality for every
# n < 1009**2, since 1009 is the next prime.
_SMALL_PRIMES = _primes_below(1000)
_SMALL_LIMIT = 1009 ** 2
# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = _SMALL_PRIMES[:13]
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_strong_probable_prime(n: int, d: int, s: int, a: int) -> bool:
    """Miller-Rabin round for base a, with n - 1 = d * 2**s and d odd."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _is_prime_rough(n: int) -> bool:
    """Primality of an n > 1 with no prime factor p < 1000, p**2 <= n.

    Below 1009**2 such an n is prime; below 3.3 * 10**24 deterministic
    Miller-Rabin decides.  Beyond that bound no base set is proven, so
    the question is refused rather than answered by unbounded work.
    """
    if n < _SMALL_LIMIT:
        return True
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is only decided below {_MR_LIMIT:,}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return all(_is_strong_probable_prime(n, d, s, a) for a in _MR_BASES)


def is_prime(n: int) -> bool:
    """Deterministic primality check.

    Trial division by the primes below 1000 (stopping at p**2 > n) decides
    every n below 10**6; larger n go to deterministic Miller-Rabin, which
    is exact below 3.3 * 10**24.  An n at or above that bound with no
    prime factor below 1000 raises ValueError.

    >>> [k for k in range(20) if is_prime(k)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    >>> is_prime(3215031751), is_prime(1_000_000_007)
    (False, True)
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    return _is_prime_rough(n)


def _brent(n: int, c: int) -> int:
    """Pollard rho in Brent's variant on x -> x**2 + c mod n, from x = 2.

    Returns a divisor of the composite n, which is n itself when this c
    fails.  It takes the steps of one gcd per step, gcd(x - y, n) with x
    fixed over each doubling block, but multiplies the differences mod n
    over batches of 64 steps and takes one gcd per batch (Brent 1980).  A
    batch's gcd is 1 exactly when every step's gcd is 1.  The first batch
    whose gcd is not 1 is redone one step at a time from its start, and
    the first step whose gcd is not 1 gives the result, so this returns
    what one gcd per step returns, for every n.
    """
    y, r, g = 2, 1, 1
    while g == 1:
        x = y
        for k in range(0, r, 64):
            start, q = y, 1
            for _ in range(min(64, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            if g != 1:
                break
        r *= 2
    y = start
    while True:
        y = (y * y + c) % n
        g = math.gcd(x - y, n)
        if g != 1:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as an exponent map sorted by prime.

    The primes below 1000 are divided out first, stopping at p**2 > n; a
    cofactor left over has only large prime factors, and each part is
    tested with the same deterministic primality check as `is_prime`, so a
    cofactor at or above 3.3 * 10**24 raises ValueError.  A composite part
    that is a perfect square splits into its two square roots with one
    `isqrt`, so a prime square takes one step and p**4 two; any other
    composite part is split by Pollard rho (Brent's variant with batched
    gcd, constants c = 1, 2, ... in turn).

    >>> factorize(360)
    {2: 3, 3: 2, 5: 1}
    >>> factorize(1)
    {}
    >>> factorize(1_000_000_007 * 998_244_353)
    {998244353: 1, 1000000007: 1}
    >>> factorize(1_000_000_007 ** 2)
    {1000000007: 2}
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    # The cofactor has no prime factor p < 1000 with p**2 <= n.
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _is_prime_rough(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack += [r, r]
            continue
        c, d = 1, m
        while d == m:
            d = _brent(m, c)
            c += 1
        stack += [d, m // d]
    return dict(sorted(out.items()))


def _json_int(value, what: str, error: type[ValueError] = ValueError) -> int:
    """A decoded JSON integer: an int and not a bool (JSON true/false)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer, got {value!r}")
    return value


class AbelianGroup(Record):
    """Z^free_rank plus prime-power torsion counts, stored canonically.

    Torsion is a tuple of (p, e, count) triples sorted by (p, e) with all
    counts positive, so `==` decides isomorphism.

    >>> AbelianGroup.from_counts(0, {(3, 1): 1, (2, 2): 1})
    AbelianGroup(free_rank=0, torsion=((2, 2, 1), (3, 1, 1)))
    >>> print(AbelianGroup.from_counts(1, {(5, 1): 2}))
    Z + (Z/5)^2
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: tuple[tuple[int, int, int], ...] = ()) -> None:
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check and canonicalize the torsion.  A method of its own, called
        through the instance, because `bench/spans.py` counts constructed
        groups by wrapping it."""
        if self.free_rank < 0:
            raise ValueError("free rank must be >= 0")
        merged: dict[tuple[int, int], int] = {}
        for p, e, c in self.torsion:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if e < 1:
                raise ValueError("exponent must be >= 1")
            if c < 0:
                raise ValueError(f"torsion count must be >= 0, got {c}")
            if c:
                merged[(p, e)] = merged.get((p, e), 0) + c
        object.__setattr__(
            self, "torsion", tuple((p, e, c) for (p, e), c in sorted(merged.items()))
        )

    @classmethod
    def from_counts(cls, free_rank: int, counts: Mapping[tuple[int, int], int]) -> "AbelianGroup":
        return cls(free_rank, tuple((p, e, c) for (p, e), c in counts.items()))

    def to_json_dict(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "torsion": [{"p": p, "e": e, "count": c} for p, e, c in self.torsion],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AbelianGroup":
        if not isinstance(data, dict):
            raise ValueError("group must be a JSON object")
        extra = set(data) - {"free_rank", "torsion"}
        if extra:
            raise ValueError(f"unknown group field {sorted(extra)[0]!r}")
        torsion = data.get("torsion", [])
        if not isinstance(torsion, list):
            raise ValueError(f"torsion must be a list, got {torsion!r}")
        summands = []
        for entry in torsion:
            if not isinstance(entry, dict):
                raise ValueError(f"torsion entry must be an object, got {entry!r}")
            bad = set(entry) - {"p", "e", "count"}
            if bad:
                raise ValueError(f"unknown torsion field {sorted(bad)[0]!r}")
            missing = {"p", "e", "count"} - set(entry)
            if missing:
                raise ValueError(f"missing torsion field {sorted(missing)[0]!r}")
            p, e, count = (_json_int(entry[k], f"torsion {k}") for k in ("p", "e", "count"))
            summands.append((p, e, count))
        # The constructor refuses each negative count before it sums duplicates.
        group = cls(_json_int(data.get("free_rank", 0), "free_rank"), tuple(summands))
        for p, e, _ in group.torsion:
            # p >= 2, so p**e >= 2**e: an exponent at the bound's bit length
            # is refused before p**e is formed.
            if e >= _MR_LIMIT.bit_length() or p**e >= _MR_LIMIT:
                raise ValueError(f"torsion p^e must be below {_MR_LIMIT:,}, got p = {p}, e = {e}")
        return group

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        for p, e, c in self.torsion:
            cyclic = f"Z/{p ** e}"
            parts.append(f"({cyclic})^{c}" if c > 1 else f"({cyclic})")
        return " + ".join(parts) if parts else "0"

