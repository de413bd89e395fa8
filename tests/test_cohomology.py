import hashlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction

import pytest

from seifert5 import cohomology
from seifert5.abgroup import AbelianGroup
from seifert5.classify import INFINITY, FiveManifoldClass, circle_action_admissible
from seifert5.cohomology import compare, full_report
from seifert5.construct import build, enumerate_admissible
from seifert5.seifert import (
    BAD_H2_CLASS,
    Divisor,
    Nonorientable,
    Orientable,
    SeifertSpec,
    SpecValidationError,
    chern_mu,
)

from oracles import (
    UNCERTIFIED,
    UnknownNonzero,
    _h1_order_reference,
    _wu_reference,
    full_report_reference,
    restriction_map,
    w2_reference,
)


def spec_of(divisors, twist, charts=1):
    return SeifertSpec(charts=charts, divisors=tuple(divisors), twist=tuple(twist))


def _report_field(name):
    """The invariant `name` of a spec, read off its full report."""
    return lambda spec: getattr(full_report(spec), name)


h1_order = _report_field("h1_order")
wu_invariant = _report_field("wu")
simply_connected = _report_field("simply_connected")


def brute_force_surjective(rows, moduli, charts):
    """Enumerate the subgroup of sum Z/m_i generated by the images of the
    chart basis; surjective iff it is everything."""
    total = math.prod(moduli)
    generators = []
    for l in range(charts):
        generators.append(tuple(row[l] % m for row, m in zip(rows, moduli)))
    seen = {tuple(0 for _ in moduli)}
    frontier = [tuple(0 for _ in moduli)]
    while frontier:
        current = frontier.pop()
        for g in generators:
            nxt = tuple((a + b) % m for a, b, m in zip(current, g, moduli))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == total


class TestRestriction:
    """Lemma A: on generator-class specs the restriction map is onto, so
    |H_1| is the gcd of c1(L/mu)."""

    def test_single_divisor(self):
        spec = spec_of([Divisor(0, Orientable(0), 5, 1)], [0])
        assert restriction_map(spec) == ([(1,)], [5])
        assert brute_force_surjective(*restriction_map(spec), 1)

    def test_two_divisors_crt(self):
        spec = spec_of([Divisor(0, Orientable(0), 2, 1), Divisor(0, Orientable(0), 3, 1)], [0])
        assert restriction_map(spec) == ([(1,), (1,)], [2, 3])
        assert brute_force_surjective(*restriction_map(spec), 1)

    def test_identity_rows_two_charts(self):
        spec = spec_of(
            [Divisor(0, Orientable(0), 3, 1), Divisor(1, Orientable(0), 3, 1)], [0, 0], charts=2
        )
        assert restriction_map(spec) == ([(1, 0), (0, 1)], [3, 3])
        assert brute_force_surjective(*restriction_map(spec), 2)

    def test_against_brute_force(self):
        rng = random.Random(53)
        checked = 0
        while checked < 120:
            spec = _random_generator_spec(rng, pool=[2, 3, 4, 5, 6, 7, 9])
            rows, moduli = restriction_map(spec)
            if math.prod(moduli) > 10**3:
                continue
            checked += 1
            assert brute_force_surjective(rows, moduli, spec.charts)
            c1_mu = chern_mu(spec)
            assert (full_report(spec).h1_order == math.gcd(*c1_mu)
                    == _h1_order_reference(rows, moduli, c1_mu))


class TestH1:
    def test_examples(self):
        assert h1_order(spec_of([Divisor(0, Orientable(0), 5, 1)], [0])) == 1
        assert h1_order(spec_of([Divisor(0, Orientable(0), 3, 1)], [1])) == 4
        assert h1_order(spec_of([], [1])) == 1

    def test_single_divisor_law(self):
        # |H_1| = |m h + b| over the one-chart single-divisor family
        for m in (2, 3, 5, 12):
            for b in range(1, m):
                if math.gcd(b, m) != 1:
                    continue
                for h in range(-3, 4):
                    spec = spec_of([Divisor(0, Orientable(1), m, b)], [h])
                    assert h1_order(spec) == abs(m * h + b)

    def test_unknown_nonzero(self):
        # Off the generator classes the restriction map can fail to be onto,
        # and the reference answers with its cokernel: the case Lemma A rules
        # out for every spec.  Rows (1, 1) and (2, 2) mod 3 are such classes.
        res = _h1_order_reference([(1, 1), (2, 2)], [3, 3], (6, 3))
        assert isinstance(res, UnknownNonzero)
        assert res.lower_bound == AbelianGroup.from_counts(0, {(3, 1): 1})

    def test_trivial_bundle_has_infinite_h1(self):
        assert h1_order(spec_of([], [0])) == 0


class TestH2H3:
    def test_genus_two(self):
        report = full_report(spec_of([Divisor(0, Orientable(2), 5, 1)], [0]))
        assert report.h2 == AbelianGroup.from_counts(0, {(5, 1): 4})
        assert report.h3_tors == AbelianGroup.from_counts(0, {(5, 1): 4})

    def test_genus_zero_contributes_nothing(self):
        spec = spec_of([Divisor(0, Orientable(0), 7, 1)], [0])
        assert full_report(spec).h2 == AbelianGroup()

    def test_composite_multiplicity_splits(self):
        spec = spec_of([Divisor(0, Orientable(1), 6, 1)], [0])
        assert full_report(spec).h2 == AbelianGroup.from_counts(0, {(2, 1): 2, (3, 1): 2})

    def test_nonorientable_contribution(self):
        spec = spec_of([Divisor(0, Nonorientable(3), 2, 1)], [0])
        assert full_report(spec).h2 == AbelianGroup.from_counts(0, {(2, 1): 3})

    def test_free_rank_is_charts_minus_one(self):
        spec = SeifertSpec(
            charts=3,
            divisors=(Divisor(2, Orientable(0), 2, 1),),
            twist=(0, -1, 0),
        )
        report = full_report(spec)
        assert report.h1_order == 1
        assert report.h2.free_rank == 2

    def test_requires_trivial_h1(self):
        # |H_1| = 4: the report leaves H_2 and the H^3 torsion undetermined.
        report = full_report(spec_of([Divisor(0, Orientable(1), 3, 1)], [1]))
        assert report.h1_order == 4
        assert report.h2 is None
        assert report.h3_tors is None

    def test_h2_torsion_matches_h3(self):
        rng = random.Random(59)
        checked = 0
        while checked < 60:
            m = rng.choice([2, 3, 4, 5, 6, 7, 9, 10])
            b = rng.choice([x for x in range(1, m) if math.gcd(x, m) == 1])
            g = rng.randint(0, 3)
            h = rng.randint(-3, 3)
            spec = spec_of([Divisor(0, Orientable(g), m, b)], [h])
            report = full_report(spec)
            if report.h1_order != 1:
                continue
            checked += 1
            assert report.h2.torsion == report.h3_tors.torsion


class TestW2:
    def test_examples(self):
        # Simply connected, so the report's Wu invariant reads w2: with no
        # even chart, Wu 0 means w2 = 0.
        assert wu_invariant(spec_of([Divisor(0, Orientable(0), 5, 1)], [0])) == 0
        spec = spec_of(
            [Divisor(0, Orientable(0), 2, 1), Divisor(0, Orientable(2), 5, 3)], [-1]
        )
        assert wu_invariant(spec) == 0
        assert w2_reference(spec) == (0,)
        assert wu_invariant(spec_of([], [1])) == 0

    def test_odd_twist_flips(self):
        # |H_1| = 0 here (S^1 x CP^2), so only the reference reads w2.
        spec = spec_of([], [0])
        assert h1_order(spec) == 0
        assert w2_reference(spec) == (1,)


def coset_membership_oracle(w, basis_vectors, charts):
    """Independent span membership: enumerate all F_2 combinations."""
    vectors = set()
    for picks in itertools.product((0, 1), repeat=len(basis_vectors)):
        acc = tuple(
            sum(p * v[l] for p, v in zip(picks, basis_vectors)) % 2 for l in range(charts)
        )
        vectors.add(acc)
    return tuple(x % 2 for x in w) in vectors


class TestWu:
    def test_nonorientable_forces_one(self):
        spec = spec_of([Divisor(0, Nonorientable(2), 2, 1)], [0])
        assert wu_invariant(spec) == 1

    def test_zero_example(self):
        spec = spec_of(
            [Divisor(0, Orientable(0), 2, 1), Divisor(0, Orientable(2), 5, 3)], [-1]
        )
        assert wu_invariant(spec) == 0

    def test_infinity_example(self):
        spec = SeifertSpec(
            charts=2,
            divisors=(
                Divisor(1, Orientable(1), 2, 1),
                Divisor(1, Orientable(1), 3, 2),
            ),
            twist=(0, -1),
        )
        assert w2_reference(spec) == (1, 1)
        assert wu_invariant(spec) is INFINITY

    def test_certificates_rechecked_independently(self):
        rng = random.Random(61)
        zeros = infs = 0
        trials = 0
        while trials < 400 and (zeros < 40 or infs < 40):
            trials += 1
            charts = rng.randint(1, 3)
            divisors = []
            for chart in range(charts):
                for m in rng.sample([2, 3, 5, 7], k=rng.randint(0, 2)):
                    if any(d.chart == chart and math.gcd(d.m, m) != 1 for d in divisors):
                        continue
                    b = rng.choice([x for x in range(1, m) if math.gcd(x, m) == 1])
                    divisors.append(Divisor(chart, Orientable(rng.randint(0, 2)), m, b))
            try:
                spec = SeifertSpec(
                    charts=charts,
                    divisors=tuple(divisors),
                    twist=tuple(rng.randint(-2, 2) for _ in range(charts)),
                )
            except SpecValidationError:
                continue
            report = full_report(spec)
            if report.h1_order != 1:
                continue
            result = report.wu
            unit = [tuple(int(l == j) for l in range(charts)) for j in range(charts)]
            k2_vectors = [chern_mu(spec)] + [unit[d.chart] for d in divisors if d.m % 2 == 0]
            w = w2_reference(spec)
            in_k2 = coset_membership_oracle(w, k2_vectors, charts)
            assert result == (0 if in_k2 else INFINITY)
            zeros += in_k2
            infs += not in_k2
            # Lemma B: K2 plus the even-free charts spans all of F_2^charts,
            # so the INFINITY certificate applies to every w outside K2.
            even_charts = {d.chart for d in divisors if d.m % 2 == 0}
            extended = k2_vectors + [unit[j] for j in range(charts) if j not in even_charts]
            assert all(coset_membership_oracle(e, extended, charts) for e in unit)
        assert zeros >= 40 and infs >= 40

    def test_never_zero_and_infinity(self):
        # one certificate excludes the other by construction; spot check a family
        for h in range(-3, 4):
            spec = spec_of([Divisor(0, Orientable(1), 3, 1)], [h])
            report = full_report(spec)
            if report.h1_order != 1:
                continue
            assert report.wu in (0, INFINITY)

    def test_requires_trivial_h1(self):
        # |H_1| = 4: the report certifies no Wu invariant.
        assert wu_invariant(spec_of([Divisor(0, Orientable(1), 3, 1)], [1])) is None

    @pytest.mark.parametrize("extra, wu", [(0, 0), (1, INFINITY)])
    def test_linear_in_the_divisors(self, extra, wu):
        # 8,000 charts with one m = 2 divisor each: every chart is even, so
        # w2 = 0 gives Wu 0; one extra chart without a divisor carries w2 = 1
        # and gives INFINITY.  An elimination over the even charts made about
        # 1,000 calls per divisor at 2,000 charts; one pass makes about 13.
        n = 8000
        spec = SeifertSpec(charts=n + extra,
                           divisors=tuple(Divisor(j, Orientable(0), 2, 1) for j in range(n)),
                           twist=(0,) * (n + extra))
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            report = full_report(spec)
        finally:
            sys.setprofile(previous)
        assert report.h1_order == 1
        assert report.wu == wu
        assert calls <= 32 * n


class TestSimplyConnected:
    def test_examples(self):
        assert simply_connected(spec_of([Divisor(0, Orientable(0), 5, 1)], [0]))
        assert not simply_connected(spec_of([Divisor(0, Orientable(0), 3, 1)], [1]))
        assert simply_connected(spec_of([], [1]))


# Each id names an invariant; all but chern_mu are report fields.
@pytest.mark.parametrize(
    "invariant",
    [
        pytest.param(_report_field("h1_order"), id="h1_order"),
        pytest.param(_report_field("h2"), id="h2_group"),
        pytest.param(_report_field("h3_tors"), id="h3_torsion"),
        pytest.param(_report_field("wu"), id="wu_invariant"),
        pytest.param(full_report, id="full_report"),
        pytest.param(_report_field("c1"), id="chern_class"),
        pytest.param(chern_mu, id="chern_mu"),
    ],
)
def test_invariants_refuse_non_generator_classes(invariant):
    # A non-generator class is refused when the spec is decoded, so no invariant
    # ever sees one; the generator class of the divisor's chart changes nothing.
    def data(h2_class=None):
        divisor = {"chart": 0, "surface": {"orientable": True, "genus": 0}, "m": 3, "b": 1}
        if h2_class is not None:
            divisor["h2_class"] = h2_class
        return {"charts": 2, "divisors": [divisor], "twist": [0, 1]}

    with pytest.raises(SpecValidationError) as err:
        invariant(SeifertSpec.from_json_dict(data([1, 1])))
    assert [i.code for i in err.value.issues] == [BAD_H2_CLASS]
    bare = SeifertSpec.from_json_dict(data())
    assert h1_order(bare) == 1
    assert invariant(SeifertSpec.from_json_dict(data([1, 0]))) == invariant(bare)


class TestFullReport:
    def test_fields_consistent(self):
        spec = spec_of([Divisor(0, Orientable(2), 5, 1)], [0])
        report = full_report(spec)
        assert report.h1_order == 1
        assert report.h2 == AbelianGroup.from_counts(0, {(5, 1): 4})
        assert report.h3_tors.torsion == report.h2.torsion
        assert report.c1 == (Fraction(1, 5),)
        assert report.c1_mu == (1,)
        assert report.wu == 0
        assert report.simply_connected

    def test_builds_one_group(self, monkeypatch):
        # H_2 is the report's only group; the H^3 torsion is read from it.
        calls = []
        post_init = AbelianGroup.__post_init__

        def spy(group):
            calls.append(group)
            post_init(group)

        monkeypatch.setattr(AbelianGroup, "__post_init__", spy)
        report = full_report(spec_of([Divisor(0, Orientable(2), 5, 1)], [0]))
        report.to_json_dict()
        assert len(calls) == 1 and report.simply_connected

    def test_h1_nontrivial_report(self):
        report = full_report(spec_of([Divisor(0, Orientable(1), 3, 1)], [1]))
        assert report.h1_order == 4
        assert report.h2 is None
        assert report.h3_tors is None
        assert report.wu is None
        assert not report.simply_connected

    def test_json_shape(self):
        doc = full_report(spec_of([Divisor(0, Orientable(0), 5, 2)], [1])).to_json_dict()
        assert doc["c1"] == ["7/5"]
        assert doc["c1_mu"] == [7]
        assert doc["h1_order"] == 7
        assert doc["wu"] == "indeterminate"
        assert doc["h2"] is None
        doc = full_report(spec_of([Divisor(0, Orientable(0), 5, 1)], [0])).to_json_dict()
        assert doc["h1_order"] == 1
        assert doc["wu"] == 0
        assert doc["simply_connected"] is True


def _random_generator_spec(rng, pool=(2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 25, 27, 49,
                                      1009**2, 1013**2, 2003**2)):
    """A generator-class spec: 1-4 charts, up to three pairwise coprime
    multiplicities per chart from `pool` (by default small composites, and
    squares of primes above 1000 that the factorizer splits by its square
    step), some nonorientable m = 2 divisors, twist in [-2, 2]."""
    charts = rng.randint(1, 4)
    divisors = []
    for chart in range(charts):
        used = []
        for m in rng.sample(pool, k=rng.randint(0, 3)):
            if any(math.gcd(m, u) != 1 for u in used):
                continue
            used.append(m)
            b = rng.randrange(1, m)
            while math.gcd(b, m) != 1:
                b = rng.randrange(1, m)
            if m == 2 and rng.random() < 0.5:
                surface = Nonorientable(rng.randint(1, 3))
            else:
                surface = Orientable(rng.randint(0, 2))
            divisors.append(Divisor(chart, surface, m, b))
    twist = tuple(rng.randint(-2, 2) for _ in range(charts))
    return SeifertSpec(charts=charts, divisors=tuple(divisors), twist=twist)


class TestReportEquivalence:
    """full_report against the reference that computes every fact apiece."""

    def test_enumerated_classes(self):
        for _, spec in enumerate_admissible(1024, 2):
            assert full_report(spec).to_json_dict() == full_report_reference(spec).to_json_dict()

    def test_multiplicity_a_square_of_the_last_small_prime(self):
        # 997 is the largest prime the factorizer divides out by trial.
        for m in (997**2, 2 * 997**2):
            spec = spec_of([Divisor(0, Orientable(1), m, 1)], [0])
            doc = full_report(spec).to_json_dict()
            assert doc == full_report_reference(spec).to_json_dict()
            assert doc["h1_order"] == 1

    def test_factors_only_multiplicities_with_torsion(self, monkeypatch):
        # A divisor with beta = 0 adds no torsion, so its m is not factored.
        calls = []
        factorize = cohomology.factorize

        def spy(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(cohomology, "factorize", spy)
        spec = spec_of([Divisor(0, Orientable(0), 5, 1), Divisor(1, Orientable(1), 7, 1),
                        Divisor(2, Orientable(0), 9, 1)], [0, 0, 0], charts=3)
        report = full_report(spec)
        assert report.h1_order == 1
        assert report.h2 == AbelianGroup(free_rank=2, torsion=((7, 1, 2),))
        assert calls == [7]

    def test_factors_each_distinct_multiplicity_once(self, monkeypatch):
        # The betas are summed per distinct m before anything is factored.
        calls = []
        factorize = cohomology.factorize

        def spy(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(cohomology, "factorize", spy)
        spec = spec_of([Divisor(0, Orientable(1), 15, 1), Divisor(1, Orientable(2), 15, 1),
                        Divisor(2, Nonorientable(1), 2, 1), Divisor(2, Orientable(0), 15, 1),
                        Divisor(3, Orientable(1), 15, 1), Divisor(3, Orientable(1), 7, 1)],
                       [0, 0, 0, 0], charts=4)
        report = full_report(spec)
        assert report.h2 == AbelianGroup.from_counts(
            3, {(2, 1): 1, (3, 1): 8, (5, 1): 8, (7, 1): 2})
        assert report.to_json_dict() == full_report_reference(spec).to_json_dict()
        assert calls == [15, 2, 7]
        rng = random.Random(1019)
        for _ in range(200):
            spec = _random_generator_spec(rng)
            calls.clear()
            doc = full_report(spec).to_json_dict()
            assert doc == full_report_reference(spec).to_json_dict()
            torsion_ms = {d.m for d in spec.divisors if d.surface.h1_mod2_dim}
            assert sorted(calls) == (sorted(torsion_ms) if doc["h1_order"] == 1 else [])

    def test_random_generator_specs(self):
        rng = random.Random(2026)
        wu_seen, h1_seen, nonorientable = set(), set(), 0
        for _ in range(300):
            spec = _random_generator_spec(rng)
            report = full_report(spec)
            doc = report.to_json_dict()
            assert doc == full_report_reference(spec).to_json_dict()
            # The derived fields restate |H_1| and H_2 (module docstring).
            assert report.simply_connected is (report.h1_order == 1)
            h2 = doc["h2"]
            assert doc["h3_torsion"] == (None if h2 is None else {"free_rank": 0,
                                                                  "torsion": h2["torsion"]})
            wu_seen.add(doc["wu"])
            h1_seen.add(doc["h1_order"] == 1)
            nonorientable += any(isinstance(d.surface, Nonorientable) for d in spec.divisors)
        assert wu_seen == {0, 1, "inf", "indeterminate"}
        assert h1_seen == {True, False}
        assert nonorientable >= 20

    def test_output_digest(self):
        # sha256 of the report JSON over 300 seeded specs, about 30% of them
        # with |H_1| != 1, pinned so that a change to any report field,
        # the undetermined ones included, shows here.
        rng = random.Random(28)
        digest = hashlib.sha256()
        for _ in range(300):
            doc = full_report(_random_generator_spec(rng)).to_json_dict()
            digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
        assert digest.hexdigest() == (
            "f903cb0d8c3418fb14a707b1a829ce758946fe34f1cbd419d620ff71e9fe5c8c")


class TestNecessity:
    """The paper's necessity theorem against the engine: a simply connected
    total space carries the fixed-point-free circle action of its own
    presentation, so its (H_2, Wu) class must pass the gate, and `build` on
    that class must give a presentation that verifies to the same class."""

    def test_simply_connected_reports_are_admissible(self):
        rng = random.Random(7)
        wu_seen, simply_connected_count = set(), 0
        for _ in range(600):
            spec = _random_generator_spec(rng)
            report = full_report(spec)
            c1_mu = chern_mu(spec)
            rows, moduli = restriction_map(spec)
            assert _h1_order_reference(rows, moduli, c1_mu) == report.h1_order  # Lemma A
            if report.h1_order != 1:
                continue
            simply_connected_count += 1
            assert _wu_reference(spec, c1_mu) is not UNCERTIFIED  # Lemma B
            cls = FiveManifoldClass(report.h2, report.wu)
            assert circle_action_admissible(cls).admissible, spec
            rebuilt = full_report(build(cls))
            assert (rebuilt.h2, rebuilt.wu) == (report.h2, report.wu)
            wu_seen.add(report.wu)
        assert wu_seen == {0, 1, INFINITY}
        assert simply_connected_count >= 300


def _class(torsion, i, k=0):
    return FiveManifoldClass(AbelianGroup.from_counts(k, torsion), i)


class TestCompare:
    SPEC = spec_of([Divisor(0, Orientable(2), 5, 1)], [0])

    def test_match(self):
        assert compare(full_report(self.SPEC), _class({(5, 1): 4}, 0)) == []

    def test_mismatch(self):
        diffs = compare(full_report(self.SPEC), _class({(5, 1): 2}, INFINITY, k=1))
        assert [d.field for d in diffs] == ["h2", "wu"]
        assert diffs[1].to_json_dict() == {"field": "wu", "expected": "inf", "actual": 0}

    def test_h1_mismatch_hides_undetermined_fields(self):
        report = full_report(spec_of([Divisor(0, Orientable(1), 3, 1)], [1]))
        (diff,) = compare(report, _class({(3, 1): 2}, 0))
        assert (diff.field, diff.expected, diff.actual) == ("h1_order", 1, 4)
