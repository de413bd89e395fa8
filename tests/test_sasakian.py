import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifert5 import sasakian
from seifert5.sasakian import (
    DEFAULT_CANDIDATE_CAP,
    DensityViolation,
    InconclusiveSearch,
    Quadratic,
    interval_density_check,
    sasaki_check,
)

from oracles import (
    from_lowest,
    adjunction_genus,
    divisors_by_trial_division,
    interval_density_reference,
    pruned_cover_search_reference,
    quadratic_cover_search_reference,
    quadratic_interval_count,
    value_at,
)


def cover_search(values, max_exceptions=10, max_candidates=DEFAULT_CANDIDATE_CAP):
    """The cover search `sasaki_check` runs, without its density check:
    (witness, missed values) or None, as the references return it."""
    return sasakian._cover_search(sorted(set(values)), max_exceptions, max_candidates)[0]


def degree_family(n):
    return [(i - 1) * (i - 2) for i in range(3, n + 1)]


def planted_above_aliens(rng, aliens):
    """Thirteen values of a random quadratic above `aliens` smaller values."""
    a, b = rng.randint(2, 90), rng.randint(-300, 300)
    planted = {(a * t + b) * t + 10**7 for t in range(1, 14)}
    return sorted(planted | set(rng.sample(range(1, 10**6), aliens)))


def distinct_differences(values):
    """Each difference of two of the values mapped to its index pair, which
    the caller needs to be unique."""
    pairs = [(i, j) for i in range(len(values)) for j in range(i + 1, len(values))]
    index = {values[j] - values[i]: (i, j) for i, j in pairs}
    assert len(index) == len(pairs)
    return index


def upper_levels(values, most):
    """The levels the cover search builds from above, given the exceptions
    of the best after the one- and two-point families."""
    if len(values) < most + 5:
        return range(0)
    return range(max(2, most + 2 - sasakian._UPPER_SLACK), most + 3)


def planted_below_aliens(rng, aliens):
    """Eight values of a random quadratic below `aliens` larger values."""
    a, b = rng.randint(1, 20), rng.randint(-50, 50)
    planted = {(a * t + b) * t + 10**4 for t in range(1, 9)}
    return sorted(planted | set(rng.sample(range(max(planted) + 1, 10**6), aliens)))


class TestQuadratic:
    def test_membership_matches_enumeration(self):
        rng = random.Random(79)
        for _ in range(200):
            q = Quadratic(rng.randint(1, 5), rng.randint(-10, 10), rng.randint(-20, 20))
            image = {value_at(q, t) for t in range(-60, 61)}
            for v in range(q.c - 30, q.c + 50):
                expected = v in image if abs(v - q.c) < 500 else None
                if expected is not None and v in image:
                    assert q.contains(v)
            for v in list(image)[:20]:
                assert q.contains(v)

    def test_membership_is_exact_below_the_window_edge(self):
        # Every value below min(q(-30), q(30)) that q takes is taken at some
        # |t| <= 30, so membership there must agree with the image exactly.
        rng = random.Random(97)
        for _ in range(60):
            q = Quadratic(rng.randint(1, 5), rng.randint(-10, 10), rng.randint(-20, 20))
            image = {value_at(q, t) for t in range(-30, 31)}
            for v in range(min(image) - 30, min(value_at(q, -30), value_at(q, 30))):
                assert q.contains(v) == (v in image), (q, v)

    def test_requires_positive_leading(self):
        with pytest.raises(ValueError):
            Quadratic(0, 1, 1)

    def test_str(self):
        assert str(Quadratic(1, -3, 2)) == "t^2 - 3t + 2"


class TestDensity:
    def test_staircase_violates(self):
        violation = interval_density_check(range(2, 61, 2))
        assert violation is not None
        # the full interval [2, 60] holds 30 values against a bound of
        # 12 + 2*sqrt(58) ~ 27.2, and the reported subinterval also violates
        assert violation.count > violation.bound

    def test_degree_family_passes(self):
        assert interval_density_check(degree_family(12)) is None

    def test_empty(self):
        assert interval_density_check([]) is None

    def test_exact_threshold(self):
        # 13 values in an interval of length 0 is impossible; synthesize the
        # boundary: count = 13, length 1: bound = 14 -> no violation
        assert not DensityViolation(0, 1, 13).count > 14
        values = list(range(100, 126))  # 26 values, length 25: 12 + 2*5 = 22 < 26
        v = interval_density_check(values)
        assert v is not None

    def test_reports_the_reference_interval(self):
        # The first violating interval in (i, j) order, against every pair
        # tested by the reference: sparse values around one dense cluster,
        # 0-60 values over spans of 10 to 10^4.
        rng = random.Random(137)
        outcomes = set()
        for _ in range(2000):
            span = int(10 ** rng.uniform(1, 4))
            width = rng.randint(1, span)
            start = rng.randint(0, span - width)
            n = rng.randint(0, 60)
            cluster = rng.randint(0, n)
            values = [start + rng.randint(0, width) for _ in range(cluster)]
            values += [rng.randint(0, span) for _ in range(n - cluster)]
            got = interval_density_check(values)
            want = interval_density_reference(values)
            assert (None if got is None else (got.lo, got.hi, got.count)) == want, values
            outcomes.add("none" if want is None else
                         "at the least value" if want[0] == min(values) else "above it")
        assert outcomes == {"none", "at the least value", "above it"}


class TestIntervalCount:
    def test_examples(self):
        assert quadratic_interval_count(Quadratic(1, 0, 0), 0, 100) == 11
        assert quadratic_interval_count(Quadratic(1, 1, 2), 2, 52) == 7
        assert quadratic_interval_count(Quadratic(1, 0, 7), 5, 5) == 0

    def test_random_bound_law(self):
        rng = random.Random(83)
        for _ in range(500):
            q = Quadratic(rng.randint(1, 6), rng.randint(-12, 12), rng.randint(-30, 30))
            lo = rng.randint(-50, 50)
            hi = lo + rng.randint(0, 400)
            count = quadratic_interval_count(q, lo, hi)
            assert count <= 2 or q.a * (count - 2) ** 2 <= 4 * (hi - lo)


class TestCoverSearch:
    def test_degree_family_witness(self):
        q, exceptions = cover_search(degree_family(12))
        assert (q.a, q.b, q.c) == (1, -3, 2)
        assert exceptions == frozenset()

    def test_degree_family_all_n(self):
        for n in range(3, 21):
            q, exceptions = cover_search(degree_family(n))
            assert exceptions == frozenset()
            assert all(q.contains(v) for v in degree_family(n))

    def test_staircase_infeasible(self):
        assert cover_search(range(2, 61, 2)) is None

    def test_single_value(self):
        q, exceptions = cover_search([7])
        assert exceptions == frozenset()
        assert q.contains(7)

    def test_empty(self):
        q, exceptions = cover_search([])
        assert exceptions == frozenset()

    def test_budget_guard(self):
        with pytest.raises(InconclusiveSearch):
            cover_search(range(2, 61, 2), max_candidates=10)

    def test_witness_found_before_cap_is_kept(self):
        # plenty of candidates, but a perfect witness appears early; the
        # complete search tries 40 candidates, and t^2 - 3t + 2 (the 37th)
        # is found before cap 39 stops it
        q, exceptions = cover_search(degree_family(10), max_candidates=39)
        assert all(q.contains(v) for v in degree_family(10))
        # the report keeps the witness but does not claim exhaustion
        report = sasaki_check(degree_family(10), max_candidates=39)
        assert report.feasible
        assert (report.witness, report.exceptions) == (q, exceptions)
        assert not report.search_complete
        assert sasaki_check(degree_family(10)).search_complete

    def test_cap_bounds_every_candidate(self):
        # The one- and two-point families (91 candidates for a pool of 13)
        # used to run before the first cap check: cap 50 reported 91 tried.
        values = [
            157936138, 294336264, 295069959, 336981177, 347443278, 348013709,
            472173950, 487076247, 715444065, 761473422, 768502976, 819884541,
            887707639, 942737566, 944598045, 993457458,
        ]
        with pytest.raises(InconclusiveSearch) as exc:
            cover_search(values, max_exceptions=10, max_candidates=50)
        assert exc.value.candidates_tried == 50
        for cap in (1, 13, 90, 91, 92, 500):
            try:
                cover_search(values, max_exceptions=10, max_candidates=cap)
            except InconclusiveSearch as err:
                assert err.candidates_tried == cap

    @pytest.mark.parametrize("limits", [
        {"max_exceptions": -1},
        {"max_exceptions": -5},
        {"max_candidates": 0},
        {"max_candidates": -1},
    ])
    def test_invalid_limits_are_refused(self, limits):
        # a budget of -1 used to shrink the pool to two values and report a
        # complete "no" for 1, 4, 11, 22, which 2t^2 - t + 1 covers
        for values in ([1, 4, 11, 22], [], range(2, 61, 2)):
            with pytest.raises(ValueError):
                sasaki_check(values, **limits)
        assert sasaki_check([1, 4, 11, 22], max_exceptions=0).witness == Quadratic(2, -1, 1)

    def test_exceptions_counted(self):
        # squares plus two alien values
        values = [t * t for t in range(1, 8)] + [3, 7]
        q, exceptions = cover_search(values, max_exceptions=2)
        assert len(exceptions) <= 2

    def test_divisors_computed_once_per_difference(self, monkeypatch):
        calls = []
        divisors = sasakian._divisors

        def spy(n):
            calls.append(n)
            return divisors(n)

        monkeypatch.setattr(sasakian, "_divisors", spy)
        # 13 values fill the pool, so every difference recurs across i2
        cover_search([2, 3, 5, 11, 17, 29, 41, 59, 71, 97, 101, 131, 151])
        assert calls
        assert len(calls) == len(set(calls))

    def test_interpolates_half_the_pairs_and_scores_b_nonpositive(self, monkeypatch):
        # q(t) and q(-t) have the same image, so only t2 > 0 is
        # interpolated and each candidate is scored as its reflection with
        # b <= 0; no candidate is scanned with a negative budget.
        interpolated, scored = [], []
        interpolate, missed = sasakian._interpolate, sasakian._missed

        def spy_interpolate(t2, s2, t3, s3):
            ab = interpolate(t2, s2, t3, s3)
            interpolated.append((t2, ab))
            return ab

        def spy_missed(a, b, c, values, budget):
            scored.append((b, budget))
            return missed(a, b, c, values, budget)

        monkeypatch.setattr(sasakian, "_interpolate", spy_interpolate)
        monkeypatch.setattr(sasakian, "_missed", spy_missed)
        for values in (degree_family(12), [1, 4, 11, 22, 37], [2, 3, 5, 9, 14, 30, 31]):
            for budget in (0, 2):
                cover_search(values, max_exceptions=budget)
        assert all(t2 > 0 for t2, _ in interpolated)
        assert any(ab[1] > 0 for _, ab in interpolated)
        assert all(b <= 0 and budget >= 0 for b, budget in scored)
        assert any(b < 0 for b, _ in scored)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_slope_cut_is_exact(self, data):
        # For t2 > 0 dividing w2 < w3 and g = s2 - t2, the slope through
        # (t2, s2) and (t3, s3) is >= 1 exactly when t3 > t2 or t3 < 0, and
        # t3 * (t3 + g) <= w3; on each side, by ascending |t3|, the pairs
        # that pass come first.
        w2 = data.draw(st.integers(1, 10**4), label="w2")
        w3 = data.draw(st.integers(w2 + 1, 2 * 10**4), label="w3")
        t2 = data.draw(st.sampled_from(divisors_by_trial_division(w2)), label="t2")
        s2 = w2 // t2
        g = s2 - t2

        def cut(t3):
            return (t3 > t2 or t3 < 0) and t3 * (t3 + g) <= w3

        divisors = divisors_by_trial_division(w3)
        for t3 in [d for d in divisors if d != t2] + [-d for d in divisors]:
            assert cut(t3) == (Fraction(s2 - w3 // t3, t2 - t3) >= 1), (w2, w3, t2, t3)
        for side in ([d for d in divisors if d > t2], [-d for d in divisors]):
            passed = [cut(t3) for t3 in side]
            assert passed == sorted(passed, reverse=True), (w2, w3, t2)

    def test_scans_only_steep_pairs_within_reach_of_the_best(self, monkeypatch):
        # No interpolation has slope a < 1, and none comes from a triple
        # (i1, i2, i3) past the reach (e, e + 1, e + 2) of the best so far,
        # e its exception count (the budget before any witness); nor is a
        # difference past that reach factored.  A triple built from above,
        # on an upper level i3 with (i3, j2, j3), stays within (e + 2, e + 3,
        # e + 4).  The value sets have distinct pairwise differences up to
        # index budget + 4, so w = t*s names its index pair.
        events = []
        interpolate, missed, divisors = sasakian._interpolate, sasakian._missed, sasakian._divisors

        def spy_interpolate(t2, s2, t3, s3):
            ab = interpolate(t2, s2, t3, s3)
            events.append(("interpolate", t2 * s2, t3 * s3, ab))
            return ab

        def spy_missed(a, b, c, scanned, budget):
            # Only a full scan that passes makes a new best; a triple
            # candidate's first scan covers the values above its v3 only.
            result = missed(a, b, c, scanned, budget)
            if result is not None and len(scanned) == len(values):
                events.append(("best", len(result)))
            return result

        def spy_divisors(n):
            events.append(("divisors", n))
            return divisors(n)

        monkeypatch.setattr(sasakian, "_interpolate", spy_interpolate)
        monkeypatch.setattr(sasakian, "_missed", spy_missed)
        monkeypatch.setattr(sasakian, "_divisors", spy_divisors)
        rng = random.Random(109)
        value_sets = [sorted(rng.sample(range(1, 10**9), n)) for n in (9, 14, 16)]
        value_sets += [planted_above_aliens(rng, aliens) for aliens in (1, 3, 5)]
        narrowed = built_above = 0
        for values in value_sets:
            for budget in (2, 5, 10):
                index = distinct_differences(values[: budget + 5])
                events.clear()
                cover_search(values, max_exceptions=budget)
                e = budget
                levels = None
                for event in events:
                    if event[0] == "best":
                        e = event[1]
                        continue
                    if levels is None:
                        # The families are scored; the upper levels are fixed.
                        levels = upper_levels(values, e)
                    if event[0] == "divisors":
                        i, j = index[event[1]]
                        if i in levels:
                            assert i <= e + 2 and j <= e + 4, (values, budget, event, e)
                        else:
                            assert i <= e and j <= e + 2, (values, budget, event, e)
                    else:
                        _, w2, w3, ab = event
                        (i1, i2), (i1_, i3) = index[w2], index[w3]
                        assert i1 == i1_ and ab[0] >= 1, (values, budget, event)
                        if i1 in levels:
                            assert i1 <= e + 2 and i3 <= e + 4, (values, budget, event, e)
                            built_above += 1
                        else:
                            assert i1 <= e and i2 <= e + 1 and i3 <= e + 2, (values, budget, event, e)
                        narrowed += e < budget
        # the reach did narrow during the searches, and upper levels ran
        assert narrowed and built_above

    def test_scores_triple_candidates_above_v3_first(self, monkeypatch):
        # A new candidate of level i3 (its third covered value's index) is
        # first scanned over the values above v3 only, descending, with its
        # budget less the i3 - 2 other values below v3, and skipped
        # unscanned when that is negative; the full scan follows exactly
        # when that scan passes, and then makes the new best.  A triple
        # (i3, j2, j3) built from an upper level is scored as the quadratic
        # of its image taking v1 at t = 0, and only when it takes exactly
        # two values below v3.  The one- and two-point families get the full
        # scan alone.  The replay keeps the search's seen set, best and
        # budget; distinct differences name each triple's indices.
        events = []
        interpolate, missed = sasakian._interpolate, sasakian._missed

        def spy_interpolate(t2, s2, t3, s3):
            ab = interpolate(t2, s2, t3, s3)
            events.append(("interpolate", t2 * s2, t3 * s3, ab))
            return ab

        def spy_missed(a, b, c, scanned, budget):
            result = missed(a, b, c, scanned, budget)
            events.append(("missed", (a, b, c), list(scanned), budget, result))
            return result

        monkeypatch.setattr(sasakian, "_interpolate", spy_interpolate)
        monkeypatch.setattr(sasakian, "_missed", spy_missed)
        rng = random.Random(113)
        value_sets = [sorted(rng.sample(range(1, 10**9), n)) for n in (9, 16)]
        value_sets += [planted_above_aliens(rng, aliens) for aliens in (1, 3, 5)]
        seen_outcomes = set()
        for values in value_sets:
            for budget in (0, 2, 10):
                pool = values[: budget + 3]
                pairs = [(i, j) for i in range(len(pool)) for j in range(i + 1, len(pool))]
                index = distinct_differences(values[: budget + 5])
                events.clear()
                cover_search(values, max_exceptions=budget)
                queue = events[::-1]

                def next_scan():
                    return queue.pop()[1:] if queue and queue[-1][0] == "missed" else None

                full = values[::-1]
                seen = {(1, 0, v) for v in pool}
                seen |= {(pool[j] - pool[i], 0, pool[i]) for i, j in pairs}
                best, most = None, budget
                while (scan := next_scan()) is not None:
                    assert scan[1] == full, (values, budget, scan)
                    if scan[3] is not None:
                        (a, b, c), most = scan[0], len(scan[3])
                        best = (a, abs(b), b, c)
                levels = upper_levels(values, most)
                while queue:
                    _, w2, w3, (a, b) = queue.pop()
                    (i1, i2), (i1_, i3) = index[w2], index[w3]
                    assert i1 == i1_
                    if i1 in levels:
                        level = i1
                        lowest = from_lowest(Quadratic(a, b, values[level]), values[:level])
                        if lowest is None:
                            assert next_scan() is None, (values, budget, level)
                            seen_outcomes.add("other level")
                            continue
                        key3 = (lowest.a, lowest.b, lowest.c)
                    else:
                        level = i3
                        key3 = (a, -abs(b), values[i1])
                    tail = (key3[0], abs(key3[1]), key3[1], key3[2])
                    if key3 in seen:
                        assert next_scan() is None
                        continue
                    seen.add(key3)
                    own = most - (best is not None and tail > best)
                    first = next_scan()
                    if own < level - 2:
                        assert first is None, (values, budget, key3)
                        seen_outcomes.add("unscanned")
                        continue
                    above = values[:level:-1]
                    assert first[:3] == (key3, above, own - (level - 2)), (values, budget, first)
                    second = next_scan()
                    if first[3] is None:
                        assert second is None, (values, budget, key3)
                        seen_outcomes.add("failed")
                        continue
                    assert second[:3] == (key3, full, own), (values, budget, second)
                    assert second[3] is not None
                    best, most = tail, len(second[3])
                    seen_outcomes.add("passed" if level == i3 else "passed above")
        assert seen_outcomes == {"unscanned", "failed", "passed", "passed above", "other level"}

    def test_upper_levels_match_reference_at_every_cutoff(self, monkeypatch):
        # Building levels from above changes no uncapped result, whatever
        # the largest slack built that way: from none (-1) up to the budget,
        # where every level is.  Every set has more than budget + 5 values,
        # so upper levels exist; the shift to the lowest covered value runs
        # on upper levels only, so its calls count them.
        shifts = []
        shift = sasakian._shift_to_lowest

        def spy_shift(a, b, c, below):
            shifts.append(len(below))
            return shift(a, b, c, below)

        monkeypatch.setattr(sasakian, "_shift_to_lowest", spy_shift)
        rng = random.Random(127)
        built = {}
        for budget in (0, 2, 5, 10):
            value_sets = [sorted(rng.sample(range(1, 10**digits), budget + 6 + more))
                          for digits, more in ((4, 0), (9, 4))]
            value_sets += [planted_above_aliens(rng, aliens) for aliens in (3, 5)]
            # the witness covers values below each upper level and misses
            # values above it
            value_sets += [planted_below_aliens(rng, aliens) for aliens in (budget, budget + 2)]
            for values in value_sets:
                want = quadratic_cover_search_reference(values, max_exceptions=budget)
                for cutoff in range(-1, budget + 1):
                    monkeypatch.setattr(sasakian, "_UPPER_SLACK", cutoff)
                    shifts.clear()
                    got = cover_search(values, max_exceptions=budget)
                    assert got == want, (values, budget, cutoff)
                    built[cutoff] = built.get(cutoff, 0) + len(shifts)
        assert built[-1] == 0
        assert all(built[cutoff] for cutoff in range(11)), built

    def test_builds_each_upper_level_once(self, monkeypatch):
        # The upper levels, fixed after the one- and two-point families, are
        # built after every triple from below and in ascending order, each
        # in one run of triples (i3, j2, j3) that interpolates no divisor
        # pair twice; no triple from below reaches them.
        events, family_bests = [], []
        interpolate, missed = sasakian._interpolate, sasakian._missed

        def spy_interpolate(t2, s2, t3, s3):
            events.append((t2 * s2, t3 * s3, t2, t3))
            return interpolate(t2, s2, t3, s3)

        def spy_missed(a, b, c, scanned, budget):
            # A full scan that passes before any interpolation is a family's.
            result = missed(a, b, c, scanned, budget)
            if not events and result is not None and len(scanned) == len(values):
                family_bests.append(len(result))
            return result

        monkeypatch.setattr(sasakian, "_interpolate", spy_interpolate)
        monkeypatch.setattr(sasakian, "_missed", spy_missed)
        rng = random.Random(131)
        value_sets = [sorted(rng.sample(range(1, 10**9), n)) for n in (9, 16)]
        value_sets += [planted_above_aliens(rng, aliens) for aliens in (1, 3, 5)]
        built = 0
        for values in value_sets:
            for budget in (0, 2, 5, 10):
                index = distinct_differences(values[: budget + 5])
                events.clear()
                family_bests.clear()
                cover_search(values, max_exceptions=budget)
                levels = upper_levels(values, family_bests[-1] if family_bests else budget)
                triples = [(*index[w2], index[w3][1], t2, t3) for w2, w3, t2, t3 in events]
                assert all(index[w2][0] == index[w3][0] for w2, w3, _, _ in events)
                upper = [t for t in triples if t[0] in levels]
                assert triples[len(triples) - len(upper):] == upper, (values, budget)
                assert [t[0] for t in upper] == sorted(t[0] for t in upper)
                assert len(set(upper)) == len(upper)
                if levels:
                    below = triples[: len(triples) - len(upper)]
                    assert all(t[2] < levels.start for t in below), (values, budget)
                built += len({t[0] for t in upper})
        assert built

    def test_values_spanning_the_primality_bound_are_refused(self, monkeypatch):
        # x - 5 is a difference the search would factor, and the factorizer
        # refuses it.  The search used to answer a complete no at budget 0
        # and raise on x - 5 at budget 2; it now refuses the span at every
        # budget and cap, before any candidate.
        x = 4 * 10**24 + 98
        with pytest.raises(ValueError):
            sasakian.factorize(x - 5)
        factored, divisors = [], sasakian._divisors
        monkeypatch.setattr(sasakian, "_divisors", lambda n: factored.append(n) or divisors(n))
        for budget in (0, 2, 10):
            for cap in (1, DEFAULT_CANDIDATE_CAP):
                with pytest.raises(ValueError) as info:
                    sasaki_check([1, 2, 5, x, x + 1000], max_exceptions=budget,
                                 max_candidates=cap)
                assert str(info.value) == (
                    "torsion counts must span less than 3,317,044,064,679,887,385,961,981")
        assert factored == []
        # A span just below the bound, a density violation and clustered
        # huge values answer as they did before the span check.
        bound = 3_317_044_064_679_887_385_961_981
        no = {"feasible": False, "witness": None, "exceptions": None,
              "densest_violation": None, "duplicates_dropped": False, "search_complete": True}
        squares = dict(no, feasible=True, witness={"a": 1, "b": 0, "c": 1},
                       exceptions=[bound - 1000, bound - 1])
        dense = dict(no, search_complete=False, densest_violation={
            "lo": 1, "hi": 21, "count": 21, "bound": 20.94427190999916})
        clustered = dict(no, feasible=True, witness={"a": 7, "b": 0, "c": 10**30}, exceptions=[])
        for values, documents in [
            ([1, 2, 5, bound - 1000, bound - 1], [no, squares, squares]),
            (list(range(1, 31)) + [10**30], [dense] * 3),
            ([10**30, 10**30 + 7], [clustered] * 3),
        ]:
            for budget, document in zip((0, 2, 10), documents):
                assert sasaki_check(values, max_exceptions=budget).to_json_dict() == document
        # The bound itself is the first span refused.
        assert sasaki_check([1, bound]).feasible
        with pytest.raises(ValueError, match="must span less than"):
            sasaki_check([1, bound + 1])

    def test_divisors_match_brute_force(self):
        rng = random.Random(101)
        primes = [2, 3, 5, 7, 97, 65537, 999_983, 1_000_000_007]
        small = list(range(1, 200)) + [p for p in primes if p < 10**6]
        for n in small:
            assert sasakian._divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n
        large = primes + [p * p for p in primes if p * p <= 10**18]
        large += [2**29, 3**18, 720720, 735134400, 997**2, 6 * 997**3]
        large += [rng.randint(1, 10**9) for _ in range(40)]
        for n in large:
            assert sasakian._divisors(n) == divisors_by_trial_division(n), n

    def test_matches_reference_search(self):
        # Same witness, exceptions or None as the search that interpolated
        # on bare divisors; under a cap, the same witness or
        # InconclusiveSearch count as that search over t2 > 0 with b = -|b|,
        # cut to the reach of the best and to the pairs with slope >= 1,
        # which counts the candidates the search still tries.
        rng = random.Random(103)
        value_sets = [
            sorted(rng.sample(range(1, hi), rng.randint(1, 9)))
            for hi in (12, 40, 200, 5000) for _ in range(8)
        ]
        value_sets += [sorted(rng.sample(range(1, 10**9), n)) for n in (8, 11, 16)]
        value_sets.append(degree_family(14) + [7, 1000])
        # the witness starts above 1-5 smaller values, which every triple
        # candidate built on it must miss
        value_sets += [planted_above_aliens(rng, aliens) for aliens in (1, 2, 3, 4, 5)]

        def outcome(search, values, budget, cap):
            kw = {} if cap is None else {"max_candidates": cap}
            try:
                return search(values, max_exceptions=budget, **kw)
            except InconclusiveSearch as exc:
                return ("inconclusive", exc.candidates_tried)

        midway = []
        for values in value_sets:
            for budget in (0, 2, 10):
                complete = outcome(cover_search, values, budget, None)
                assert complete == outcome(quadratic_cover_search_reference, values, budget, None)
                for cap in (1, 7, 50, 300, 1000):
                    got = outcome(cover_search, values, budget, cap)
                    want = outcome(pruned_cover_search_reference, values, budget, cap)
                    assert got == want, (values, budget, cap)
                    if values[-1] > 10**6 and cap >= 50 and got != complete:
                        midway.append(got[0] == "inconclusive")
        # caps 50 and 1000 stop searches of the 10^9 sets mid-way, some
        # before any witness and some after one narrowed the reach
        assert set(midway) == {True, False}

    def test_completeness_against_brute_force(self):
        # Small-range brute force over all quadratics with bounded
        # coefficients; whenever it finds a cover, the search must too.
        rng = random.Random(89)
        for _ in range(15):
            values = sorted(rng.sample(range(1, 30), k=rng.randint(3, 5)))
            budget = rng.randint(0, 2)
            result = cover_search(values, max_exceptions=budget)
            brute = None
            for a in range(1, 30):
                for b in range(-30, 31):
                    for c in range(-30, max(values) + 1):
                        q = Quadratic(a, b, c)
                        missed = [v for v in values if not q.contains(v)]
                        if len(missed) <= budget:
                            brute = q
                            break
                    if brute:
                        break
                if brute:
                    break
            if brute is not None:
                assert result is not None, (values, budget, brute)
            if result is not None:
                q, exceptions = result
                assert len(exceptions) <= budget
                assert all(q.contains(v) for v in values if v not in exceptions)

    def test_output_digest(self):
        # sha256 of the report JSON, or the inconclusive count, over 40
        # seeded sets at three budgets and three caps, pinned so that a
        # change to any witness, exception set, completeness flag or
        # candidate count shows here.
        rng = random.Random(28)
        value_sets = [sorted(rng.sample(range(1, 10**9), rng.randint(6, 16))) for _ in range(20)]
        value_sets += [planted_above_aliens(rng, rng.randint(0, 5)) for _ in range(20)]
        digest = hashlib.sha256()
        for values in value_sets:
            for budget in (0, 2, 10):
                for cap in (7, 300, DEFAULT_CANDIDATE_CAP):
                    try:
                        doc = sasaki_check(values, max_exceptions=budget,
                                           max_candidates=cap).to_json_dict()
                    except InconclusiveSearch as exc:
                        doc = {"inconclusive": exc.candidates_tried}
                    digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
        assert digest.hexdigest() == (
            "8be63a7353a73095a5f3320ac8841b00a5c5fb316fb6e20f04ba97b16c80f667")


class TestAdjunction:
    def test_examples(self):
        assert adjunction_genus(3) == 1
        assert adjunction_genus(1) == 0
        assert adjunction_genus(6) == 10

    def test_adjunction_identity(self):
        # 2g - 2 = D.(D + K) with D = d lines, K = -3 lines on the plane
        for d in range(1, 101):
            assert 2 * adjunction_genus(d) - 2 == d * (d - 3)

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            adjunction_genus(0)


class TestSasakiCheck:
    @pytest.mark.parametrize("values, limits, document", [
        # a density violation: no search runs
        (list(range(2, 61, 2)) + [60], {},
         {"feasible": False, "witness": None, "exceptions": None,
          "densest_violation": {"lo": 2, "hi": 54, "count": 27, "bound": 26.42220510185596},
          "duplicates_dropped": True, "search_complete": False}),
        # an exhausted search
        (list(range(1, 36, 2)), {},
         {"feasible": False, "witness": None, "exceptions": None, "densest_violation": None,
          "duplicates_dropped": False, "search_complete": True}),
        # a witness from the complete search
        ([3, 5, 10, 20, 37, 41, 41], {},
         {"feasible": True, "witness": {"a": 12, "b": -5, "c": 3}, "exceptions": [5, 37],
          "densest_violation": None, "duplicates_dropped": True, "search_complete": True}),
        # a witness from a capped search
        ([3, 5, 10, 20, 37, 41], {"max_candidates": 2},
         {"feasible": True, "witness": {"a": 1, "b": 0, "c": 5}, "exceptions": [3, 10, 20, 37],
          "densest_violation": None, "duplicates_dropped": False, "search_complete": False}),
    ])
    def test_report_shapes(self, values, limits, document):
        report = sasaki_check(values, **limits)
        assert report.to_json_dict() == document
        assert report.feasible is (report.witness is not None)

    def test_degree_family(self):
        report = sasaki_check(degree_family(12))
        assert report.feasible
        assert (report.witness.a, report.witness.b, report.witness.c) == (1, -3, 2)
        assert report.exceptions == frozenset()

    def test_staircase(self):
        report = sasaki_check(range(2, 61, 2))
        assert not report.feasible
        assert report.densest_violation is not None

    def test_empty_feasible(self):
        assert sasaki_check([]).feasible

    def test_duplicates_flagged(self):
        report = sasaki_check([2, 2, 6])
        assert report.duplicates_dropped
        assert not sasaki_check([2, 6]).duplicates_dropped

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sasaki_check([0, 2])

    def test_infeasible_by_search_is_marked_complete(self):
        # dense-ish but below the density bound; no quadratic covers enough
        values = list(range(1, 36, 2))  # 18 values, bound 12 + 2*sqrt(34) ~ 23.7
        assert interval_density_check(values) is None
        report = sasaki_check(values)
        assert not report.feasible
        assert report.search_complete
        assert report.densest_violation is None

    def test_sixteen_random_values_below_10_12(self):
        # random.Random(0) draws; no quadratic covers all but ten of them
        rng = random.Random(0)
        values = [rng.randint(1, 10**12) for _ in range(16)]
        report = sasaki_check(values)
        assert not report.feasible
        assert report.search_complete
        assert report.densest_violation is None
        assert report.witness is None and report.exceptions is None

    def test_witness_revalidation_after_adding_value(self):
        # adding a covered value keeps the witness valid; adding an alien
        # value costs one exception
        base = degree_family(10)
        report = sasaki_check(base)
        q = report.witness
        extended = base + [value_at(q, 20)]
        report2 = sasaki_check(extended)
        assert report2.feasible
        assert len(report2.exceptions) == len(report.exceptions)
        alien = 5  # t^2 - 3t + 2 never takes the value 5 (t(t-3) = 3 impossible)
        assert not q.contains(alien)
        report3 = sasaki_check(base + [alien])
        assert report3.feasible
        assert len(report3.exceptions) <= len(report.exceptions) + 1
