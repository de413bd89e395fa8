"""Exact arithmetic over finitely generated abelian groups.

This is the substrate for the whole package: integer matrices with
arbitrary-precision entries, Smith normal form with tracked unimodular
transforms, primality and factorization, and groups presented as a free
rank plus prime-power torsion counts.  A group

    Z^k  +  sum over (p, e) of (Z/p^e)^count

is stored canonically (torsion sorted by prime, then exponent, zero counts
dropped), so equality of values is isomorphism of groups.

All kernels run on Python ints; overflow cannot occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "IntMatrix",
    "PrimePower",
    "AbelianGroup",
    "smith_normal_form",
    "primary_decomposition",
    "is_isomorphic",
    "group_from_cokernel",
    "is_prime",
    "factorize",
    "crt",
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
    fails.
    """
    y, r, g = 2, 1, 1
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
            if g != 1:
                break
        r *= 2
    return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as an exponent map sorted by prime.

    The primes below 1000 are divided out first, stopping at p**2 > n; a
    composite cofactor left over has only large prime factors and is split
    by Pollard rho (Brent's variant, constants c = 1, 2, ... in turn), each
    part tested with the same deterministic primality check as `is_prime`,
    so a cofactor at or above 3.3 * 10**24 raises ValueError.

    >>> factorize(360)
    {2: 3, 3: 2, 5: 1}
    >>> factorize(1)
    {}
    >>> factorize(1_000_000_007 * 998_244_353)
    {998244353: 1, 1000000007: 1}
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


def crt(residues: Iterable[int], moduli: Iterable[int]) -> int:
    """Solve x = r_i (mod m_i) for pairwise coprime moduli.

    Returns the unique solution in [0, prod m_i).

    >>> crt([3, 0], [4, 3])
    3
    """
    residues = list(residues)
    moduli = list(moduli)
    total = math.prod(moduli)
    x = 0
    for r, m in zip(residues, moduli):
        if m == 1:
            continue
        q = total // m
        x += r * q * pow(q, -1, m)
    return x % total


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries or not self.entries[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(self.entries[0])
        if any(len(row) != width for row in self.entries):
            raise ValueError("ragged rows")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


def smith_normal_form(A: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize A over Z: returns (U, D, V) with U A V = D.

    U and V are unimodular and D is diagonal with d_1 | d_2 | ... and
    d_i >= 0.  The pivot is always the nonzero entry of smallest absolute
    value, first in row-major order, so U and V are reproducible.

    >>> U, D, V = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> D.diagonal()
    (2, 4)
    """
    nrows, ncols = A.rows, A.cols
    m = [list(row) for row in A.entries]
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def negate_row(i: int) -> None:
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    def row_addmul(i: int, j: int, k: int) -> None:
        # row i += k * row j
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]

    def col_addmul(j: int, i: int, k: int) -> None:
        # col j += k * col i
        for row in m:
            row[j] += k * row[i]
        for row in v:
            row[j] += k * row[i]

    n = min(nrows, ncols)
    t = 0
    while t < n:
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])

        while True:
            if m[t][t] < 0:
                negate_row(t)
            p = m[t][t]

            # Clear the column below the pivot; floor quotients leave
            # remainders in [0, p), strictly smaller than the pivot.
            residue_row = None
            for i in range(t + 1, nrows):
                if m[i][t] != 0:
                    row_addmul(i, t, -(m[i][t] // p))
                    if m[i][t] != 0 and (residue_row is None or m[i][t] < m[residue_row][t]):
                        residue_row = i
            if residue_row is not None:
                swap_rows(t, residue_row)
                continue

            residue_col = None
            for j in range(t + 1, ncols):
                if m[t][j] != 0:
                    col_addmul(j, t, -(m[t][j] // p))
                    if m[t][j] != 0 and (residue_col is None or m[t][j] < m[t][residue_col]):
                        residue_col = j
            if residue_col is not None:
                swap_cols(t, residue_col)
                continue

            # Pivot row and column are clear.  Force the pivot to divide the
            # remaining submatrix so the diagonal forms a divisor chain.
            bad = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if m[i][j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_addmul(t, bad, 1)
        t += 1

    U = IntMatrix.from_rows(u)
    V = IntMatrix.from_rows(v)
    D = IntMatrix.from_rows(m)
    return U, D, V


@dataclass(frozen=True, order=True)
class PrimePower:
    """A prime power p**e with e >= 1; p is checked for primality."""

    p: int
    e: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.e < 1:
            raise ValueError("exponent must be >= 1")

    @property
    def value(self) -> int:
        return self.p ** self.e


@dataclass(frozen=True)
class AbelianGroup:
    """Z^free_rank plus prime-power torsion counts, stored canonically.

    Torsion is a tuple of (p, e, count) triples sorted by (p, e) with all
    counts positive, so `==` decides isomorphism.

    >>> AbelianGroup.from_invariant_factors([12])
    AbelianGroup(free_rank=0, torsion=((2, 2, 1), (3, 1, 1)))
    >>> print(AbelianGroup.from_counts(1, {(5, 1): 2}))
    Z + (Z/5)^2
    """

    free_rank: int = 0
    torsion: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be >= 0")
        merged: dict[tuple[int, int], int] = {}
        for p, e, c in self.torsion:
            PrimePower(p, e)
            if c < 0:
                raise ValueError(f"torsion count must be >= 0, got {c}")
            if c:
                merged[(p, e)] = merged.get((p, e), 0) + c
        object.__setattr__(
            self, "torsion", tuple((p, e, c) for (p, e), c in sorted(merged.items()))
        )

    @classmethod
    def trivial(cls) -> "AbelianGroup":
        return cls()

    @classmethod
    def free(cls, rank: int) -> "AbelianGroup":
        return cls(free_rank=rank)

    @classmethod
    def from_counts(cls, free_rank: int, counts: Mapping[tuple[int, int], int]) -> "AbelianGroup":
        return cls(free_rank, tuple((p, e, c) for (p, e), c in counts.items()))

    @classmethod
    def from_invariant_factors(cls, factors: Iterable[int], free_rank: int = 0) -> "AbelianGroup":
        return cls.from_counts(free_rank, primary_decomposition(factors))

    def primes(self) -> tuple[int, ...]:
        return tuple(sorted({p for p, _, _ in self.torsion}))

    def torsion_order(self) -> int:
        return math.prod((p ** e) ** c for p, e, c in self.torsion)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup(self.free_rank + other.free_rank, self.torsion + other.torsion)

    def invariant_factors(self) -> list[int]:
        """Torsion invariant factors d_1 | d_2 | ..., ascending.

        >>> AbelianGroup.from_invariant_factors([2, 12]).invariant_factors()
        [2, 12]
        """
        per_prime: list[list[int]] = []
        for p in self.primes():
            values: list[int] = []
            for q, e, c in self.torsion:
                if q == p:
                    values.extend([p ** e] * c)
            per_prime.append(sorted(values, reverse=True))
        width = max((len(v) for v in per_prime), default=0)
        factors = []
        for i in range(width):
            factors.append(math.prod(v[i] for v in per_prime if i < len(v)))
        return sorted(factors)

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
        return cls(_json_int(data.get("free_rank", 0), "free_rank"), tuple(summands))

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


def primary_decomposition(invariant_factors: Iterable[int]) -> dict[tuple[int, int], int]:
    """Split cyclic factors Z/f into prime-power summands, as a count map.

    >>> primary_decomposition([12])
    {(2, 2): 1, (3, 1): 1}
    >>> primary_decomposition([2, 2])
    {(2, 1): 2}
    """
    counts: dict[tuple[int, int], int] = {}
    for f in invariant_factors:
        if f < 2:
            raise ValueError(f"invariant factor {f} < 2")
        for p, e in factorize(f).items():
            key = (p, e)
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def is_isomorphic(g: AbelianGroup, h: AbelianGroup) -> bool:
    """Groups in canonical form are isomorphic exactly when equal."""
    return g == h


def group_from_cokernel(A: IntMatrix) -> AbelianGroup:
    """Cokernel of A viewed as a map Z^cols -> Z^rows.

    >>> print(group_from_cokernel(IntMatrix.from_rows([[6]])))
    (Z/2) + (Z/3)
    """
    _, d, _ = smith_normal_form(A)
    diag = [x for x in d.diagonal() if x != 0]
    free = A.rows - len(diag)
    counts: dict[tuple[int, int], int] = {}
    for x in diag:
        for p, e in factorize(x).items():
            key = (p, e)
            counts[key] = counts.get(key, 0) + 1
    return AbelianGroup.from_counts(free, counts)
