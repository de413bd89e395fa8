import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifert5 import abgroup
from seifert5.abgroup import AbelianGroup, _brent, factorize, is_prime

from oracles import (
    IntMatrix,
    brent_one_gcd_per_step,
    crt,
    det,
    direct_sum,
    factorize_by_trial_division,
    from_invariant_factors,
    group_from_cokernel,
    identity,
    invariant_factors,
    is_isomorphic,
    is_prime_by_trial_division,
    matmul,
    primary_decomposition,
    smith_normal_form,
    torsion_order,
    zeros,
)


def random_matrix(rng, max_dim=6, max_entry=20):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-max_entry, max_entry) for _ in range(cols)] for _ in range(rows)]
    )


def check_snf(A):
    U, D, V = smith_normal_form(A)
    assert matmul(matmul(U, A), V) == D
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    for i in range(D.rows):
        for j in range(D.cols):
            if i != j:
                assert D.entries[i][j] == 0
    diag = D.diagonal()
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    return diag


class TestSmithNormalForm:
    def test_identity(self):
        I3 = identity(3)
        U, D, V = smith_normal_form(I3)
        assert (U, D, V) == (I3, I3, I3)

    def test_two_by_two(self):
        # d1 is the gcd of all entries, d1*d2 equals |det|
        A = IntMatrix.from_rows([[2, 4], [6, 8]])
        diag = check_snf(A)
        assert diag == (2, 4)
        entries = [x for row in A.entries for x in row]
        assert diag[0] == math.gcd(*entries)
        assert diag[0] * diag[1] == abs(det(A))

    def test_zero(self):
        A = zeros(2, 2)
        U, D, V = smith_normal_form(A)
        assert D == A
        assert U == identity(2)
        assert V == identity(2)

    def test_fuzz(self):
        rng = random.Random(20260810)
        for _ in range(500):
            check_snf(random_matrix(rng))

    def test_deterministic(self):
        A = IntMatrix.from_rows([[3, 1, -4], [2, 0, 5], [7, -2, 2]])
        assert smith_normal_form(A) == smith_normal_form(A)

    def test_rectangular(self):
        diag = check_snf(IntMatrix.from_rows([[2, 0, 0], [0, 3, 0]]))
        assert diag == (1, 6)


class TestMatrix:
    def test_det_bareiss(self):
        rng = random.Random(7)
        # cross-check Bareiss against cofactor expansion on small matrices
        def cofactor_det(rows):
            n = len(rows)
            if n == 1:
                return rows[0][0]
            total = 0
            for j in range(n):
                minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
                total += (-1) ** j * rows[0][j] * cofactor_det(minor)
            return total

        for _ in range(50):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det(IntMatrix.from_rows(rows)) == cofactor_det(rows)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            IntMatrix(entries=())


class TestPrimesAndFactoring:
    def test_is_prime_small(self):
        sieve = [True] * 1000
        sieve[0] = sieve[1] = False
        for i in range(2, 1000):
            if sieve[i]:
                for j in range(2 * i, 1000, i):
                    sieve[j] = False
        for n in range(1000):
            assert is_prime(n) == sieve[n]

    @given(st.integers(min_value=1, max_value=10**6))
    def test_factorize_reassembles(self, n):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.items()) == n
        assert all(is_prime(p) for p in f)

    def test_agrees_with_trial_division_below_1e5(self):
        for n in range(1, 10**5):
            assert is_prime(n) == is_prime_by_trial_division(n)
            assert factorize(n) == factorize_by_trial_division(n)

    def test_agrees_with_trial_division_up_to_1e12(self):
        rng = random.Random(1012)
        for _ in range(60):
            n = rng.randint(1, 10**12)
            assert is_prime(n) == is_prime_by_trial_division(n)
            assert factorize(n) == factorize_by_trial_division(n)

    def test_refuses_zero(self):
        with pytest.raises(ValueError, match="cannot factor 0"):
            factorize(0)

    def test_refused_at_and_beyond_the_proven_bound(self):
        # Deterministic Miller-Rabin is proven below 3,317,044,064,679,887,385,961,981;
        # a cofactor at or above it is refused, never left to unbounded work.
        # The bound itself is the least strong pseudoprime to those 13 bases.
        bound = 3_317_044_064_679_887_385_961_981
        for call, n in [(factorize, (10**9 + 7) ** 2 * 999999937), (is_prime, bound),
                        (factorize, bound)]:
            with pytest.raises(ValueError, match="3,317,044,064,679,887,385,961,981"):
                call(n)
        # Small prime factors are stripped first, so large smooth n still factor.
        assert factorize(2**100) == {2: 100}
        assert factorize(3 * 997**10) == {3: 1, 997: 10}

    def test_cofactor_one_after_the_last_small_prime(self):
        # 997 is the largest prime below 1000: dividing it out can leave
        # nothing, and no factor 1 may appear.
        assert factorize(997**2) == {997: 2}
        assert factorize(2 * 997**3) == {2: 1, 997: 3}
        for s in range(1, 300):
            for n in (s * 997**2, s * 997**3):
                assert factorize(n) == factorize_by_trial_division(n), n
        for centre in (997**2, 1009**2):
            for n in range(centre - 1000, centre + 1000):
                assert is_prime(n) == is_prime_by_trial_division(n), n
                assert factorize(n) == factorize_by_trial_division(n), n

    def test_prime_squares_near_1e10(self):
        p = 10**5 - 1000
        found = 0
        while found < 30:
            p += 1
            if is_prime_by_trial_division(p):
                found += 1
                assert factorize(p * p) == {p: 2}
                assert not is_prime(p * p)
                assert factorize(p * p * (p + 2)) == factorize_by_trial_division(p * p * (p + 2))

    def test_pseudoprimes(self):
        # Carmichael numbers fool the Fermat test; the other two are strong
        # pseudoprimes to the bases 2, 3, 5, 7 and to the first nine primes.
        known = {
            561: {3: 1, 11: 1, 17: 1},
            41041: {7: 1, 11: 1, 13: 1, 41: 1},
            3215031751: {151: 1, 751: 1, 28351: 1},
            3825123056546413051: {149491: 1, 747451: 1, 34233211: 1},
        }
        for n, factors in known.items():
            assert not is_prime(n)
            assert factorize(n) == factors

    def test_semiprimes_near_1e18(self):
        primes = [10**9 + 7, 10**9 + 9, 999999937, 998244353]
        assert all(is_prime(p) for p in primes)
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                f = factorize(p * q)
                assert math.prod(r**e for r, e in f.items()) == p * q
                assert all(is_prime(r) for r in f)
                assert f == dict(sorted({p: 1, q: 1}.items()))
        # A repeated factor, below the 3.3e24 bound where Miller-Rabin is exact.
        n = (10**6 + 3) ** 2 * (10**9 + 7)
        assert factorize(n) == {10**6 + 3: 2, 10**9 + 7: 1}

    def test_prime_squares_split_without_rho(self, monkeypatch):
        # The largest prime square below the 3.3e24 bound, and p**4 with
        # two square roots in a row, never reach Pollard rho.
        calls = []

        def spy(n, c):
            calls.append(n)
            return _brent(n, c)

        monkeypatch.setattr(abgroup, "_brent", spy)
        p = 1_821_275_395_031
        assert factorize(p * p) == {p: 2}
        assert factorize((10**6 + 3) ** 4) == {10**6 + 3: 4}
        assert calls == []
        # An odd power still goes to rho.
        assert factorize(1009**3) == {1009: 3}
        assert calls != []

    def test_cubes_and_three_prime_products(self):
        known = {
            1009**3: {1009: 3},
            999983**3: {999983: 3},
            (10**6 + 3) ** 3: {10**6 + 3: 3},
            1009 * 10007 * 999983: {1009: 1, 10007: 1, 999983: 1},
            10007 * (10**6 + 3) * (10**7 + 19): {10007: 1, 10**6 + 3: 1, 10**7 + 19: 1},
            1009 * (10**6 + 3) * (10**8 + 7): {1009: 1, 10**6 + 3: 1, 10**8 + 7: 1},
            (10**6 + 3) ** 3 * (10**6 + 33): {10**6 + 3: 3, 10**6 + 33: 1},
        }
        for n, factors in known.items():
            assert factorize(n) == factors

    def test_batched_rho_agrees_with_one_gcd_per_step(self):
        # Same sequence, same result: a batch whose gcd is not 1 is redone
        # step by step from its start, so the first step whose gcd is not 1
        # decides, for every n, and also when a c fails and returns n.
        rng = random.Random(19)

        def prime(lo, hi):
            while True:
                p = round(math.exp(rng.uniform(math.log(lo), math.log(hi))))
                if is_prime(p):
                    return p

        products = []
        while len(products) < 200:
            p, q = prime(1009, 10**7), prime(1009, 10**7)
            if p != q:
                products.append(p * q)
        products += [prime(1009, 5000) * prime(1009, 5000) * prime(1009, 5000)
                     for _ in range(50)]
        products += [1009**3, 999983**3, (10**6 + 3) ** 3]
        failed = 0
        for n in products:
            for c in range(1, 9):
                g = _brent(n, c)
                assert g == brent_one_gcd_per_step(n, c), (n, c)
                failed += g == n
        assert failed > 0

    def test_prime_power_validation(self):
        # The constructor checks p before e, for zero counts too.
        with pytest.raises(ValueError, match="^4 is not prime$"):
            AbelianGroup(0, ((4, 1, 1),))
        with pytest.raises(ValueError, match="^4 is not prime$"):
            AbelianGroup(0, ((4, 0, 0),))
        with pytest.raises(ValueError, match="^exponent must be >= 1$"):
            AbelianGroup(0, ((3, 0, 1),))
        assert torsion_order(AbelianGroup(0, ((3, 2, 1),))) == 9

    def test_crt(self):
        assert crt([3, 1], [4, 3]) == 7
        assert crt([0], [5]) == 0
        rng = random.Random(11)
        for _ in range(100):
            mods = rng.sample([4, 9, 25, 7, 11, 13], k=rng.randint(1, 4))
            x = rng.randrange(math.prod(mods))
            assert crt([x % m for m in mods], mods) == x


class TestPrimaryDecomposition:
    def test_examples(self):
        assert primary_decomposition([12]) == {(2, 2): 1, (3, 1): 1}
        assert primary_decomposition([]) == {}
        assert primary_decomposition([2, 2]) == {(2, 1): 2}

    def test_rejects_small_factors(self):
        with pytest.raises(ValueError):
            primary_decomposition([1])
        with pytest.raises(ValueError):
            primary_decomposition([0])

    def test_round_trip_on_random_groups(self):
        # primary decomposition then reassembly by invariant factors is the identity
        rng = random.Random(3)
        for _ in range(200):
            factors = []
            order = 1
            while True:
                f = rng.randint(2, 50)
                if order * f > 10**4 or (factors and rng.random() < 0.4):
                    break
                factors.append(f)
                order *= f
            if not factors:
                continue
            g = from_invariant_factors(factors)
            assert from_invariant_factors(invariant_factors(g)) == g
            assert torsion_order(g) == math.prod(factors)


class TestIsomorphism:
    def test_examples(self):
        z2 = AbelianGroup(free_rank=2)
        assert is_isomorphic(z2, AbelianGroup(free_rank=2))
        g = AbelianGroup.from_counts(0, {(5, 1): 4})
        h = AbelianGroup.from_counts(0, {(5, 2): 2})
        assert not is_isomorphic(g, h)
        assert is_isomorphic(
            from_invariant_factors([4, 3]),
            AbelianGroup.from_counts(0, {(2, 2): 1, (3, 1): 1}),
        )

    def test_equivalence_relation(self):
        rng = random.Random(5)
        groups = []
        for _ in range(30):
            counts = {}
            for _ in range(rng.randint(0, 3)):
                counts[(rng.choice([2, 3, 5]), rng.randint(1, 2))] = rng.randint(1, 3)
            groups.append(AbelianGroup.from_counts(rng.randint(0, 2), counts))
        for g in groups:
            assert is_isomorphic(g, g)
        for g in groups:
            for h in groups:
                assert is_isomorphic(g, h) == is_isomorphic(h, g)
                for f in groups:
                    if is_isomorphic(g, h) and is_isomorphic(h, f):
                        assert is_isomorphic(g, f)


class TestCokernel:
    def test_examples(self):
        assert group_from_cokernel(IntMatrix.from_rows([[1, 0], [0, 1]])) == AbelianGroup()
        assert group_from_cokernel(IntMatrix.from_rows([[2, 0], [0, 0]])) == AbelianGroup(
            1, ((2, 1, 1),)
        )
        assert group_from_cokernel(IntMatrix.from_rows([[6]])) == AbelianGroup.from_counts(
            0, {(2, 1): 1, (3, 1): 1}
        )

    def test_wide_and_tall(self):
        # Z^3 -> Z: cokernel of a surjection is trivial
        assert group_from_cokernel(IntMatrix.from_rows([[1, 2, 3]])) == AbelianGroup()
        # Z -> Z^2 by (2, 4): quotient is Z + Z/2
        g = group_from_cokernel(IntMatrix.from_rows([[2], [4]]))
        assert g == AbelianGroup(1, ((2, 1, 1),))


class TestAbelianGroupBasics:
    def test_canonicalization(self):
        g = AbelianGroup(0, ((3, 1, 1), (2, 1, 2), (3, 1, 1), (5, 1, 0)))
        assert g.torsion == ((2, 1, 2), (3, 1, 2))

    def test_json_round_trip(self):
        g = AbelianGroup.from_counts(2, {(2, 3): 1, (7, 1): 4})
        assert AbelianGroup.from_json_dict(g.to_json_dict()) == g
        assert g.to_json_dict()["torsion"] == [
            {"p": 2, "e": 3, "count": 1},
            {"p": 7, "e": 1, "count": 4},
        ]

    def test_json_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="rank"):
            AbelianGroup.from_json_dict({"free_rank": 0, "torsion": [], "rank": 3})

    @pytest.mark.parametrize("data, message", [
        ([], "group must be a JSON object"),
        ({"torsion": [{"p": 3, "e": 1, "count": 1, "q": 0}]}, "unknown torsion field 'q'"),
    ])
    def test_json_shape_errors(self, data, message):
        with pytest.raises(ValueError) as info:
            AbelianGroup.from_json_dict(data)
        assert str(info.value) == message

    def test_json_refuses_negative_count_before_summing(self):
        # a second entry for the same (p, e) used to offset a negative count
        for torsion in (
            [{"p": 5, "e": 1, "count": 2}, {"p": 5, "e": 1, "count": -2}],
            [{"p": 5, "e": 1, "count": -1}, {"p": 5, "e": 1, "count": 3}],
            [{"p": 5, "e": 1, "count": -1}],
        ):
            with pytest.raises(ValueError, match="torsion count must be >= 0"):
                AbelianGroup.from_json_dict({"free_rank": 0, "torsion": torsion})
        summed = AbelianGroup.from_json_dict({"torsion": [
            {"p": 5, "e": 1, "count": 2}, {"p": 5, "e": 1, "count": 0},
            {"p": 5, "e": 1, "count": 1}, {"p": 3, "e": 2, "count": 0}]})
        assert summed == AbelianGroup.from_counts(0, {(5, 1): 3})

    def test_json_bounds_each_prime_power(self):
        # 2^81 < 3.3 * 10^24 <= 2^82; the bound is checked after every
        # other decoding check, and only by the decoder.
        bound = "3,317,044,064,679,887,385,961,981"
        for p, e in ((2, 81), (10**9 + 7, 2), (1_000_003, 4)):
            group = AbelianGroup.from_json_dict({"torsion": [{"p": p, "e": e, "count": 1}]})
            assert group.torsion == ((p, e, 1),)
        for p, e in ((2, 82), (10**9 + 7, 3), (10**9 + 7, 3000), (10**9 + 7, 100_000)):
            with pytest.raises(ValueError) as exc:
                AbelianGroup.from_json_dict({"torsion": [{"p": p, "e": e, "count": 1}]})
            assert str(exc.value) == f"torsion p^e must be below {bound}, got p = {p}, e = {e}"
            assert AbelianGroup.from_counts(0, {(p, e): 1}).torsion == ((p, e, 1),)
        with pytest.raises(ValueError, match="torsion count must be >= 0"):
            AbelianGroup.from_json_dict({"torsion": [{"p": 2, "e": 82, "count": -1}]})
        with pytest.raises(ValueError, match="is not prime"):
            AbelianGroup.from_json_dict({"torsion": [{"p": 4, "e": 82, "count": 1}]})

    def test_str(self):
        assert str(AbelianGroup()) == "0"
        assert str(AbelianGroup.from_counts(1, {(5, 1): 2})) == "Z + (Z/5)^2"

    @given(
        st.integers(min_value=0, max_value=3),
        st.dictionaries(
            st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3)),
            st.integers(1, 4),
            max_size=4,
        ),
    )
    @settings(max_examples=100)
    def test_direct_sum_order(self, rank, counts):
        g = AbelianGroup.from_counts(rank, counts)
        h = AbelianGroup.from_counts(1, {(2, 1): 1})
        s = direct_sum(g, h)
        assert s.free_rank == rank + 1
        assert torsion_order(s) == torsion_order(g) * 2
