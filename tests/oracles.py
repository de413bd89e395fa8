"""Reference implementations that the library replaced, kept as test oracles,
and the code that only tests reach: the integer-matrix substrate with Smith
normal form, abelian-group helpers, the Chinese-remainder reconstruction of
a slice representation, the adjunction genus and the value of a quadratic."""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from seifert5 import sasakian
from seifert5.abgroup import _MR_LIMIT, AbelianGroup, factorize
from seifert5.classify import (
    INFINITY,
    INVALID_I,
    NOT_REALIZABLE,
    R1_PRIME_COUNT,
    R2_WU_RANGE,
    R3_SPIN_TWO_COUNT,
    FiveManifoldClass,
    GateVerdict,
    Infinity,
)
from seifert5.cohomology import INDETERMINATE, CohomologyReport
from seifert5.construct import _torsion_profiles, build
from seifert5.orbit_local import LocalInvariants, StabilizerRep
from seifert5.sasakian import (
    DEFAULT_CANDIDATE_CAP,
    MAX_EXCEPTIONAL_VALUES,
    InconclusiveSearch,
    Quadratic,
)
from seifert5.seifert import Nonorientable


# -- integer matrices -------------------------------------------------------


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


def identity(n: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def zeros(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(tuple((0,) * cols for _ in range(rows)))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    cols = list(zip(*b.entries))
    return IntMatrix(
        tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a.entries)
    )


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


# -- abelian groups ---------------------------------------------------------


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


def from_invariant_factors(factors: Iterable[int], free_rank: int = 0) -> AbelianGroup:
    return AbelianGroup.from_counts(free_rank, primary_decomposition(factors))


def primes(g: AbelianGroup) -> tuple[int, ...]:
    return tuple(sorted({p for p, _, _ in g.torsion}))


def invariant_factors(g: AbelianGroup) -> list[int]:
    """Torsion invariant factors d_1 | d_2 | ..., ascending.

    >>> invariant_factors(from_invariant_factors([2, 12]))
    [2, 12]
    """
    per_prime: list[list[int]] = []
    for p in primes(g):
        values: list[int] = []
        for q, e, c in g.torsion:
            if q == p:
                values.extend([p ** e] * c)
        per_prime.append(sorted(values, reverse=True))
    width = max((len(v) for v in per_prime), default=0)
    factors = []
    for i in range(width):
        factors.append(math.prod(v[i] for v in per_prime if i < len(v)))
    return sorted(factors)


def torsion_order(g: AbelianGroup) -> int:
    return math.prod((p ** e) ** c for p, e, c in g.torsion)


def direct_sum(g: AbelianGroup, h: AbelianGroup) -> AbelianGroup:
    return AbelianGroup(g.free_rank + h.free_rank, g.torsion + h.torsion)


def is_isomorphic(g: AbelianGroup, h: AbelianGroup) -> bool:
    """Groups in canonical form are isomorphic exactly when equal."""
    return g == h


# -- primes by trial division -----------------------------------------------


def is_prime_by_trial_division(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3):
        if n % p == 0:
            return n == p
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def factorize_by_trial_division(n: int) -> dict[int, int]:
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return dict(sorted(out.items()))



def brent_one_gcd_per_step(n: int, c: int) -> int:
    """Pollard rho in Brent's variant on x -> x**2 + c mod n, from x = 2,
    with one gcd per step: the library's `_brent` before it batched them."""
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

# -- the cohomology report, one public function per fact --------------------


def _rank_mod_p(rows, p):
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
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
    return rank


def _unit(chart, charts):
    """The class of a divisor in chart coordinates: the generator of its chart."""
    return tuple(int(l == chart) for l in range(charts))


def _chern_class_by_fractions(spec):
    coords = [Fraction(h) for h in spec.twist]
    for d in spec.divisors:
        for l, x in enumerate(_unit(d.chart, spec.charts)):
            coords[l] += Fraction(d.b, d.m) * x
    return tuple(coords)


@dataclass(frozen=True)
class UnknownNonzero:
    """The reference's answer when the restriction map is not onto: H_1 is
    nonzero and surjects onto `lower_bound`, the map's cokernel.  Lemma A
    rules this out on specs, but arbitrary rows reach it."""

    lower_bound: AbelianGroup


def restriction_map(spec):
    """H^2(X, Z) -> sum_i H^2(D_i, Z/m_i): row i is the class of D_i read
    mod m_i (the intersection form of the base is the identity), and the
    moduli m_i."""
    rows = [tuple(x % d.m for x in _unit(d.chart, spec.charts)) for d in spec.divisors]
    return rows, [d.m for d in spec.divisors]


def restriction_is_surjective(rows, moduli) -> bool:
    """For every prime p, the rows with p | m_i are independent over F_p."""
    for p in sorted({p for m in moduli for p in factorize_by_trial_division(m)}):
        sub = [row for row, m in zip(rows, moduli) if m % p == 0]
        if _rank_mod_p(sub, p) < len(sub):
            return False
    return True


def _h1_order_reference(rows, moduli, c1_mu):
    """|H_1| from the restriction map (rows, moduli) and c1(L/mu)."""
    if not restriction_is_surjective(rows, moduli):
        n = len(rows)
        matrix = [row + tuple(moduli[i] if j == i else 0 for j in range(n))
                  for i, row in enumerate(rows)]
        return UnknownNonzero(lower_bound=group_from_cokernel(IntMatrix.from_rows(matrix)))
    return math.gcd(*c1_mu)


def _f2_reduce(basis, v):
    for b in basis:
        v = min(v, v ^ b)
    return v


def _f2_add(basis, v):
    v = _f2_reduce(basis, v)
    if v:
        basis.append(v)
        basis.sort(reverse=True)


def _bits(vec):
    return sum(1 << j for j, x in enumerate(vec) if x % 2)


def _wu_reference(spec, c1_mu):
    if any(isinstance(d.surface, Nonorientable) for d in spec.divisors):
        return 1
    coords = [1 + h for h in spec.twist]
    for d in spec.divisors:
        for l, x in enumerate(_unit(d.chart, spec.charts)):
            coords[l] += d.b * x
    w = _bits(coords)
    k2: list[int] = []
    _f2_add(k2, _bits(c1_mu))
    for d in spec.divisors:
        if d.m % 2 == 0:
            _f2_add(k2, _bits(_unit(d.chart, spec.charts)))
    if _f2_reduce(k2, w) == 0:
        return 0
    even_charts = {d.chart for d in spec.divisors if d.m % 2 == 0}
    witness = list(k2)
    for j in range(spec.charts):
        if j not in even_charts:
            _f2_add(witness, 1 << j)
    return INFINITY if _f2_reduce(witness, w) == 0 else INDETERMINATE


def full_report_reference(spec) -> CohomologyReport:
    """The report as it was assembled before its facts were shared:
    c1 in fractions, c1(L/mu) by scaling it, |H_1| from the restriction
    map over trial-division primes, H_2 and H^3 torsion counted apiece."""
    m_x = spec.multiplicity_lcm()
    c1 = _chern_class_by_fractions(spec)
    c1_mu = tuple(int(c * m_x) for c in c1)
    assert all((c * m_x).denominator == 1 for c in c1)
    order = _h1_order_reference(*restriction_map(spec), c1_mu)
    if order != 1:
        return CohomologyReport(order, None, None, c1, c1_mu, INDETERMINATE, False)

    def torsion():
        counts: dict[tuple[int, int], int] = {}
        for d in spec.divisors:
            beta = d.surface.h1_mod2_dim
            for p, e in (factorize_by_trial_division(d.m).items() if beta else ()):
                counts[(p, e)] = counts.get((p, e), 0) + beta
        return counts

    h2 = AbelianGroup.from_counts(spec.charts - 1, torsion())
    h3 = AbelianGroup.from_counts(0, torsion())
    return CohomologyReport(order, h2, h3, c1, c1_mu, _wu_reference(spec, c1_mu), True)


# -- the admissibility gate, one fact per rule --------------------------------


_RULE_ORDER = (R1_PRIME_COUNT, R2_WU_RANGE, R3_SPIN_TWO_COUNT, NOT_REALIZABLE, INVALID_I)


def _counts(h2):
    return {(p, e): c for p, e, c in h2.torsion}


def _nonzero_powers(h2, p):
    """Exponents e with a nonzero count for p**e, increasing."""
    return tuple(e for q, e, _ in h2.torsion if q == p)


def validate_i_reference(h2, i):
    if isinstance(i, Infinity):
        return h2.free_rank >= 1
    if i == 0:
        return True
    return _counts(h2).get((2, i), 0) != 0


def smale_barden_realizable_reference(cls):
    """Realizability as it rescanned the counts: all even, or only
    count(2, 1) odd and then i = 1."""
    if not validate_i_reference(cls.h2, cls.i):
        return False
    counts = _counts(cls.h2)
    if all(c % 2 == 0 for c in counts.values()):
        return True
    others_even = all(c % 2 == 0 for key, c in counts.items() if key != (2, 1))
    return counts.get((2, 1), 0) % 2 == 1 and others_even and cls.i == 1


def circle_action_admissible_reference(cls):
    """The gate as it decided each rule apart, with a per-prime rescan of
    the torsion and the tags sorted into canonical order at the end."""
    k = cls.k
    violated = set()

    if not validate_i_reference(cls.h2, cls.i):
        violated.add(INVALID_I)
    elif not smale_barden_realizable_reference(cls):
        violated.add(NOT_REALIZABLE)

    for p in primes(cls.h2):
        if len(_nonzero_powers(cls.h2, p)) > k + 1:
            violated.add(R1_PRIME_COUNT)
            break

    if not (isinstance(cls.i, Infinity) or cls.i in (0, 1)):
        violated.add(R2_WU_RANGE)

    if isinstance(cls.i, Infinity) and len(_nonzero_powers(cls.h2, 2)) > k:
        violated.add(R3_SPIN_TWO_COUNT)

    ordered = tuple(tag for tag in _RULE_ORDER if tag in violated)
    return GateVerdict(admissible=not ordered, violated_rules=ordered)


def enumerate_admissible_by_filter(max_torsion_order, max_k):
    """Generate and filter: every torsion profile up to the bound, for every
    k and i, kept when the reference gate admits it."""
    for k in range(max_k + 1):
        for counts in _torsion_profiles(max_torsion_order):
            group = AbelianGroup.from_counts(k, counts)
            for i in (0, 1, INFINITY):
                cls = FiveManifoldClass(group, i)
                if circle_action_admissible_reference(cls).admissible:
                    yield cls, build(cls)


# -- slice representations --------------------------------------------------


def local_invariants_reference(rep: StabilizerRep) -> LocalInvariants:
    """local_invariants with each c_i taken as its own gcd over the other
    r - 1 exponents: O(r^2) work."""
    js = rep.exponents
    c = tuple(
        math.gcd(*(js[l] for l in range(len(js)) if l != i), rep.m)
        for i in range(len(js))
    )
    big_c = math.prod(c)
    d = []
    for j, ci in zip(js, c):
        step = big_c // ci
        if j % step != 0:
            raise ArithmeticError(f"C/c_i = {step} does not divide exponent {j}")
        d.append(j // step)
    return LocalInvariants(c=c, d=tuple(d), C=big_c, manifold_point=big_c == rep.m)


def canonical(rep: StabilizerRep) -> StabilizerRep:
    """Fix each slot's orientation choice by picking j <= m - j (sorted)."""
    return StabilizerRep(rep.m, tuple(sorted(min(j, rep.m - j) for j in rep.exponents)))


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
class OrbitInvariant:
    """Multiplicity m with b = j^(-1) mod m, 1 <= b < m, gcd(b, m) = 1."""

    m: int
    b: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("orbit invariant needs m >= 2")
        if not 1 <= self.b < self.m:
            raise ValueError(f"b = {self.b} out of range [1, {self.m})")
        if math.gcd(self.b, self.m) != 1:
            raise ValueError(f"gcd({self.b}, {self.m}) != 1")


def orbit_invariant_from_rep(m: int, j: int) -> OrbitInvariant:
    """Invert the defining exponent: the unique 1 <= b < m with b*j = 1 (mod m).

    >>> orbit_invariant_from_rep(5, 2)
    OrbitInvariant(m=5, b=3)
    """
    if m < 2:
        raise ValueError("multiplicity must be >= 2")
    if math.gcd(j, m) != 1:
        raise ValueError(f"gcd({j}, {m}) != 1")
    return OrbitInvariant(m, pow(j, -1, m))


def reconstruct_rep(invariants: list[tuple[int, int]] | tuple[tuple[int, int], ...]) -> StabilizerRep:
    """Rebuild the slice representation from its divisor data (c_i, b_i).

    Solves, for each slot i, the congruences

        j_i = b_i^(-1) (mod c_i)    and    j_i = 0 (mod c_l) for l != i,

    over the pairwise coprime moduli, giving exponents mod m = prod c_i.
    The result round-trips through `local_invariants`.

    >>> reconstruct_rep([(4, 3), (3, 1)]).exponents
    (3, 4)
    """
    invariants = tuple(invariants)
    if not invariants:
        raise ValueError("need at least one (c, b) pair")
    cs = [c for c, _ in invariants]
    for c, b in invariants:
        if c < 2:
            raise ValueError(f"multiplicity {c} < 2")
        if not 1 <= b < c or math.gcd(b, c) != 1:
            raise ValueError(f"invalid orbit invariant ({c}, {b})")
    for a in range(len(cs)):
        for b_ in range(a + 1, len(cs)):
            if math.gcd(cs[a], cs[b_]) != 1:
                raise ValueError(f"multiplicities {cs[a]} and {cs[b_]} are not coprime")
    m = math.prod(cs)
    exponents = []
    for i, (c, b) in enumerate(invariants):
        residues = [pow(b, -1, c) if l == i else 0 for l, c_l in enumerate(cs)]
        exponents.append(crt(residues, cs))
    return StabilizerRep(m, tuple(exponents))


# -- the Sasakian checks ----------------------------------------------------


def adjunction_genus(degree: int) -> int:
    """Genus of a smooth plane curve of the given degree: (d-1)(d-2)/2.

    This is 2g = D.(D + K) + 2 with D = d times a line and K = -3 lines.

    >>> [adjunction_genus(d) for d in (1, 2, 3, 6)]
    [0, 0, 1, 10]
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return (degree - 1) * (degree - 2) // 2


def value_at(q: Quadratic, t: int) -> int:
    """q(t) = a*t^2 + b*t + c."""
    return (q.a * t + q.b) * t + q.c


def quadratic_interval_count(q: Quadratic, lo: int, hi: int) -> int:
    """|q(Z) intersect [lo, hi]|, by enumerating the bounded preimage.

    Also asserts the count law: at most 2 + 2*sqrt((hi - lo)/a) values.
    """
    if lo > hi:
        raise ValueError("empty interval")
    # q(t) <= hi has integer solutions only within the real root interval.
    disc = q.b * q.b - 4 * q.a * (q.c - hi)
    if disc < 0:
        return 0
    spread = math.isqrt(disc) + 1
    t_lo = (-q.b - spread) // (2 * q.a) - 1
    t_hi = (-q.b + spread) // (2 * q.a) + 1
    values = {v for v in (value_at(q, t) for t in range(t_lo, t_hi + 1)) if lo <= v <= hi}
    count = len(values)
    assert count <= 2 or q.a * (count - 2) ** 2 <= 4 * (hi - lo), (
        f"count law violated by {q} on [{lo}, {hi}]"
    )
    return count


def divisors_by_trial_division(n: int) -> list[int]:
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def _interpolate(t2: int, v1: int, w2: int, t3: int, w3: int) -> Optional[Quadratic]:
    """Quadratic through (0, v1), (t2, v1 + w2), (t3, v1 + w3), if integral
    with positive leading coefficient."""
    det = t2 * t3 * (t2 - t3)
    a_num = w2 * t3 - w3 * t2
    if a_num % det != 0:
        return None
    a = a_num // det
    if a < 1:
        return None
    b_num = w2 - a * t2 * t2
    if b_num % t2 != 0:
        return None
    return Quadratic(a, b_num // t2, v1)


def from_lowest(q: Quadratic, below: list[int]) -> Optional[Quadratic]:
    """q rewritten as a*t^2 - |b'|*t + v1 with the same image, where v1 is
    the smaller of exactly two values of `below` that q takes; None when q
    takes fewer or more of them."""
    taken = [v for v in below if q.contains(v)]
    if len(taken) != 2:
        return None
    v1 = taken[0]
    # q(s) = v1 at an integer root s of a*s^2 + b*s + (c - v1), and
    # q(t + s) = a*t^2 + (2*a*s + b)*t + v1.
    r = math.isqrt(q.b * q.b - 4 * q.a * (q.c - v1))
    s = next(s for s in ((r - q.b) // (2 * q.a), (-r - q.b) // (2 * q.a)) if value_at(q, s) == v1)
    return Quadratic(q.a, -abs(2 * q.a * s + q.b), v1)


def quadratic_cover_search_reference(
    values: Iterable[int],
    max_exceptions: int = MAX_EXCEPTIONAL_VALUES,
    max_candidates: int = DEFAULT_CANDIDATE_CAP,
) -> Optional[tuple[Quadratic, frozenset[int]]]:
    """The cover search as it interpolated on bare divisors, with a
    rational solve per divisor pair and a Quadratic built per candidate.

    Returns (witness, missed values) or None when the complete candidate
    space holds no witness.  Among witnesses the reported one minimizes
    (number of exceptions, a, |b|, b, c), which keeps the output stable.
    Raises InconclusiveSearch if the candidate cap is hit first.
    """
    return _reference_search(values, max_exceptions, max_candidates, pruned=False)


def pruned_cover_search_reference(
    values: Iterable[int],
    max_exceptions: int = MAX_EXCEPTIONAL_VALUES,
    max_candidates: int = DEFAULT_CANDIDATE_CAP,
) -> Optional[tuple[Quadratic, frozenset[int]]]:
    """quadratic_cover_search_reference over the divisor pairs with t2 > 0,
    each interpolated quadratic replaced by its reflection with b = -|b|,
    the triples cut to the reach of the best so far and the pairs to those
    whose rational slope is at least 1, in the order t3 > t2 ascending and
    then t3 < 0 by ascending |t3|.  The levels i3 (index of the third
    value) with slack (exceptions of the best) - (i3 - 2) at most
    `sasakian._UPPER_SLACK` after the one- and two-point families are left
    to the loops over pool triples, and come after them, from triples
    (v3, u2, u3) of values above v3 up to index (exceptions) + 4, each
    quadratic kept only when it takes exactly two values below v3 and then
    rewritten to take the smaller at t = 0.

    Uncapped it returns what the unpruned reference returns; under a cap it
    counts the candidates that quadratic_cover_search tries.
    """
    return _reference_search(values, max_exceptions, max_candidates, pruned=True)


def _reference_search(
    values: Iterable[int], max_exceptions: int, max_candidates: int, pruned: bool
) -> Optional[tuple[Quadratic, frozenset[int]]]:
    vs = sorted(set(values))
    if not vs:
        return Quadratic(1, 0, 0), frozenset()

    # Scan from the largest value down: bad candidates run out of budget fast.
    scan = list(reversed(vs))

    def misses(q: Quadratic) -> Optional[frozenset[int]]:
        missed = []
        for v in scan:
            if not q.contains(v):
                missed.append(v)
                if len(missed) > max_exceptions:
                    return None
        return frozenset(missed)

    best: Optional[tuple[tuple[int, int, int, int], Quadratic, frozenset[int]]] = None
    seen: set[tuple[int, int, int]] = set()
    tried = 0

    def consider(q: Quadratic) -> None:
        nonlocal best, tried
        key3 = (q.a, q.b, q.c)
        if key3 in seen:
            return
        if tried == max_candidates:
            raise InconclusiveSearch(tried)
        seen.add(key3)
        tried += 1
        missed = misses(q)
        if missed is None:
            return
        score = (len(missed), q.a, abs(q.b), q.b, q.c)
        if best is None or score < best[0]:
            best = (score, q, missed)

    pool = vs[: max_exceptions + 3]

    def reach(offset: int) -> int:
        # A witness that beats the best misses at most as many values, so
        # its three smallest covered values have indices at most e, e + 1
        # and e + 2; the unpruned search runs over the whole pool.
        if not pruned:
            return len(pool)
        return (max_exceptions if best is None else best[0][0]) + offset

    # Candidate arguments t with t | w, per difference w; each list is
    # built once per call because every i2 reuses the i3 differences.
    signed_divisors: dict[int, list[int]] = {}

    def arguments(w: int) -> list[int]:
        if w not in signed_divisors:
            signed_divisors[w] = [t for d in divisors_by_trial_division(w) for t in (d, -d)]
        return signed_divisors[w]

    def partners(t2: int, w2: int, w3: int) -> Iterator[int]:
        if not pruned:
            return (t for t in arguments(w3) if t != t2)

        def steep(t3: int) -> bool:
            # The line through (t2, w2 / t2) and (t3, w3 / t3) has slope
            # num / den, which is >= 1 iff (num - den) * den >= 0.
            num, den = w2 * t3 - w3 * t2, t2 * t3 * (t2 - t3)
            return (num - den) * den >= 0

        divisors = arguments(w3)[::2]
        return filter(steep, [t for t in divisors if t > t2] + [-d for d in divisors])

    try:
        # One- and two-point families guarantee witnesses for small inputs.
        for v in pool:
            consider(Quadratic(1, 0, v))
        for i1 in range(len(pool)):
            for i2 in range(i1 + 1, len(pool)):
                consider(Quadratic(pool[i2] - pool[i1], 0, pool[i1]))

        levels = range(0)
        if pruned and len(vs) >= reach(5) and vs[-1] - vs[0] < _MR_LIMIT:
            levels = range(max(2, reach(2) - sasakian._UPPER_SLACK), reach(3))
        lower = pool[: levels.start] if levels else pool
        for i1 in range(len(lower)):
            if i1 > reach(0):
                break
            v1 = lower[i1]
            for i2 in range(i1 + 1, len(lower)):
                if i2 > reach(1):
                    break
                w2 = lower[i2] - v1
                t2_choices = [t for t in arguments(w2) if t > 0 or not pruned]
                for i3 in range(i2 + 1, len(lower)):
                    if i3 > reach(2):
                        break
                    w3 = lower[i3] - v1
                    for t2 in t2_choices:
                        for t3 in partners(t2, w2, w3):
                            q = _interpolate(t2, v1, w2, t3, w3)
                            if q is not None:
                                consider(Quadratic(q.a, -abs(q.b), q.c) if pruned else q)

        for i3 in levels:
            if i3 > reach(2):
                break
            for j2 in range(i3 + 1, len(vs)):
                if j2 > reach(3):
                    break
                w2 = vs[j2] - vs[i3]
                for j3 in range(j2 + 1, len(vs)):
                    if j3 > reach(4):
                        break
                    w3 = vs[j3] - vs[i3]
                    for t2 in arguments(w2)[::2]:
                        for t3 in partners(t2, w2, w3):
                            q = _interpolate(t2, vs[i3], w2, t3, w3)
                            lowest = None if q is None else from_lowest(q, vs[:i3])
                            if lowest is not None:
                                consider(lowest)
    except InconclusiveSearch:
        if best is None:
            raise
        # A found witness stays valid; only the infeasible verdict needs exhaustion.
        return best[1], best[2]

    if best is None:
        return None
    return best[1], best[2]
