import json
import math
import random
import sys
from fractions import Fraction

import pytest

from seifert5 import seifert
from seifert5.abgroup import _primes_below
from seifert5.cohomology import full_report
from seifert5.seifert import (
    BAD_CHART,
    BAD_H2_CLASS,
    BAD_MULTIPLICITY,
    BAD_ORBIT_INVARIANT,
    COPRIMALITY,
    NONORIENTABLE_M,
    TWIST_LENGTH,
    Divisor,
    Nonorientable,
    Orientable,
    SeifertSpec,
    SpecSchemaError,
    SpecValidationError,
    base_w2,
    chern_mu,
)

from oracles import _chern_class_by_fractions


def c1_of(spec):
    """c1 of the total space over the base, as the full report gives it."""
    return full_report(spec).c1


def simple_spec(divisors, twist, charts=1):
    return SeifertSpec(charts=charts, divisors=tuple(divisors), twist=tuple(twist))


def random_valid_spec(rng, max_charts=3):
    charts = rng.randint(1, max_charts)
    divisors = []
    for chart in range(charts):
        used = []
        for m in rng.sample([2, 3, 4, 5, 7, 9, 11], k=rng.randint(0, 2)):
            if any(math.gcd(m, u) != 1 for u in used):
                continue
            used.append(m)
            b = rng.choice([b for b in range(1, m) if math.gcd(b, m) == 1])
            if m == 2 and rng.random() < 0.3:
                surface = Nonorientable(b1=rng.randint(1, 3))
            else:
                surface = Orientable(genus=rng.randint(0, 3))
            divisors.append(Divisor(chart=chart, surface=surface, m=m, b=b))
    twist = tuple(rng.randint(-4, 4) for _ in range(charts))
    return SeifertSpec(charts=charts, divisors=tuple(divisors), twist=twist)


def issue_codes(divisors, twist, charts=1):
    """The issue codes the constructor raises for this presentation."""
    with pytest.raises(SpecValidationError) as err:
        SeifertSpec(charts=charts, divisors=tuple(divisors), twist=tuple(twist))
    return [i.code for i in err.value.issues]


class TestValidate:
    def test_coprimality(self):
        codes = issue_codes(
            [
                Divisor(0, Orientable(0), 2, 1),
                Divisor(0, Orientable(0), 4, 1),
            ],
            [0],
        )
        assert COPRIMALITY in codes

    def test_single_divisor_ok(self):
        spec = simple_spec([Divisor(0, Orientable(1), 5, 2)], [0])
        assert spec.validate() == []

    def test_nonorientable_multiplicity(self):
        codes = issue_codes([Divisor(0, Nonorientable(1), 3, 1)], [0])
        assert NONORIENTABLE_M in codes

    def test_bad_orbit_invariant(self):
        codes = issue_codes([Divisor(0, Orientable(0), 4, 2)], [0])
        assert codes == [BAD_ORBIT_INVARIANT]

    @pytest.mark.parametrize("m", [1, 0, -3])
    def test_multiplicity_below_two(self, m):
        # m = 1 is refused for its multiplicity, not for its (m, b) pair
        assert issue_codes([Divisor(0, Orientable(0), m, 1)], [0]) == [BAD_MULTIPLICITY]

    @pytest.mark.parametrize("twist", [(), (1, 0), (0, 0, 0)])
    def test_twist_length_must_equal_charts(self, twist):
        assert issue_codes([], twist) == [TWIST_LENGTH]

    def test_chart_out_of_range(self):
        assert issue_codes([Divisor(1, Orientable(0), 3, 1)], [0]) == [BAD_CHART]

    def test_distinct_charts_do_not_clash(self):
        spec = SeifertSpec(
            charts=2,
            divisors=(
                Divisor(0, Orientable(0), 3, 1),
                Divisor(1, Orientable(0), 3, 1),
            ),
            twist=(0, 0),
        )
        assert spec.validate() == []


def pairwise_coprimality(divisors):
    """The COPRIMALITY messages of the plain pairwise scan, in (a, b) order."""
    return [
        f"chart {da.chart} carries multiplicities {da.m} and {db.m}"
        for a, da in enumerate(divisors)
        for db in divisors[a + 1:]
        if da.chart == db.chart and math.gcd(da.m, db.m) != 1
    ]


class TestCoprimality:
    def test_issues_match_the_pairwise_scan(self):
        rng = random.Random(5)
        for _ in range(400):
            divisors = [
                Divisor(rng.randrange(2), Orientable(0), m, 1)
                for m in rng.choices([0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 15, -3], k=rng.randint(0, 6))
            ]
            try:
                SeifertSpec(charts=2, divisors=tuple(divisors), twist=(0, 0))
                issues = []
            except SpecValidationError as err:
                issues = err.issues
            clashes = [i.message for i in issues if i.code == COPRIMALITY]
            assert clashes == pairwise_coprimality(divisors)
            assert [i.code for i in issues] == [i.code for i in issues if i.code != COPRIMALITY] \
                + [COPRIMALITY] * len(clashes)

    @pytest.mark.parametrize("charts, per_chart", [(1, 2000), (4, 2000)])
    def test_one_gcd_per_divisor_when_coprime(self, monkeypatch, charts, per_chart):
        # The pairwise scan would take d(d - 1)/2 gcds for one chart of d
        # divisors; the constructor takes one for (m, b) and one against the
        # chart's product, per divisor.
        calls = 0

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def gcd(self, *args):
                nonlocal calls
                calls += 1
                return math.gcd(*args)

        primes = _primes_below(20000)[:per_chart]
        divisors = tuple(Divisor(chart, Orientable(0), m, 1)
                         for chart in range(charts) for m in primes)
        monkeypatch.setattr(seifert, "math", CountingMath())
        spec = SeifertSpec(charts=charts, divisors=divisors, twist=(0,) * charts)
        assert len(spec.divisors) == charts * per_chart
        assert calls <= 2 * len(divisors)


class TestChern:
    def test_plain_circle_bundle(self):
        spec = simple_spec([], [1])
        assert c1_of(spec) == (Fraction(1),)
        assert chern_mu(spec) == (1,)

    def test_single_divisor(self):
        spec = simple_spec([Divisor(0, Orientable(0), 5, 2)], [1])
        assert c1_of(spec) == (Fraction(7, 5),)
        assert chern_mu(spec) == (7,)

    def test_two_divisors(self):
        spec = simple_spec(
            [Divisor(0, Orientable(0), 2, 1), Divisor(0, Orientable(2), 5, 3)],
            [-1],
        )
        assert c1_of(spec) == (Fraction(1, 10),)
        assert chern_mu(spec) == (1,)

    def test_no_divisors_mu(self):
        assert chern_mu(simple_spec([], [3])) == (3,)

    def test_mu_always_integral(self):
        rng = random.Random(41)
        for _ in range(200):
            spec = random_valid_spec(rng)
            mu = chern_mu(spec)
            assert all(isinstance(x, int) for x in mu)
            m_x = spec.multiplicity_lcm()
            assert tuple(Fraction(x, m_x) for x in mu) == _chern_class_by_fractions(spec)

    def test_linear_in_twist(self):
        rng = random.Random(43)
        for _ in range(100):
            spec = random_valid_spec(rng)
            shift = tuple(rng.randint(-3, 3) for _ in range(spec.charts))
            shifted = SeifertSpec(
                charts=spec.charts,
                divisors=spec.divisors,
                twist=tuple(h + s for h, s in zip(spec.twist, shift)),
            )
            assert c1_of(shifted) == tuple(
                c + s for c, s in zip(c1_of(spec), shift)
            )


class TestJson:
    def test_round_trip(self):
        rng = random.Random(47)
        for _ in range(50):
            spec = random_valid_spec(rng)
            text = json.dumps(spec.to_json_dict(), indent=2)
            assert SeifertSpec.from_json_dict(json.loads(text)) == spec

    def test_unknown_field_named(self):
        data = {"charts": 1, "divisors": [], "twist": [0], "swizzle": 1}
        with pytest.raises(SpecSchemaError, match="swizzle"):
            SeifertSpec.from_json_dict(data)

    @pytest.mark.parametrize("data, message", [
        ([], "spec must be a JSON object"),
        ({"charts": 1, "divisors": []}, "missing field 'twist'"),
        ({"charts": 1, "divisors": [3], "twist": [0]}, "divisor 0 must be an object"),
        ({"charts": 1, "divisors": [{"chart": 0, "surface": {"orientable": True}, "m": 3}],
          "twist": [0]}, "missing field 'b' in divisor 0"),
        ({"charts": 1, "divisors": [{"chart": 0, "surface": {}, "m": 3, "b": 1}], "twist": [0]},
         "divisor 0 surface must carry 'orientable'"),
        ({"charts": 1, "divisors": [{"chart": 0, "surface": {"orientable": True, "b1": 1},
                                     "m": 3, "b": 1}], "twist": [0]},
         "unknown field 'b1' in surface 0"),
        ({"charts": 1, "divisors": [{"chart": 0, "surface": {"orientable": False, "genus": 0},
                                     "m": 2, "b": 1}], "twist": [0]},
         "unknown field 'genus' in surface 0"),
        ({"charts": 1, "divisors": [{"chart": 0, "surface": {"orientable": False}, "m": 2, "b": 1}],
          "twist": [0]}, "missing field 'b1' in nonorientable surface 0"),
    ])
    def test_schema_errors(self, data, message):
        with pytest.raises(SpecSchemaError) as err:
            SeifertSpec.from_json_dict(data)
        assert str(err.value) == message

    def test_unknown_divisor_field_named(self):
        data = {
            "charts": 1,
            "divisors": [
                {"chart": 0, "surface": {"orientable": True, "genus": 0}, "m": 2, "b": 1, "x": 0}
            ],
            "twist": [0],
        }
        with pytest.raises(SpecSchemaError, match="'x'"):
            SeifertSpec.from_json_dict(data)

    def test_load_rejects_bad_orbit_invariant(self):
        data = {
            "charts": 1,
            "divisors": [{"chart": 0, "surface": {"orientable": True, "genus": 0}, "m": 4, "b": 2}],
            "twist": [0],
        }
        with pytest.raises(SpecValidationError) as err:
            SeifertSpec.from_json_dict(data)
        assert any(i.code == BAD_ORBIT_INVARIANT for i in err.value.issues)

    def test_generator_class_is_dropped(self):
        bare = {
            "charts": 2,
            "divisors": [{"chart": 1, "surface": {"orientable": True, "genus": 1}, "m": 3, "b": 1}],
            "twist": [0, 0],
        }
        explicit = json.loads(json.dumps(bare))
        explicit["divisors"][0]["h2_class"] = [0, 1]
        spec = SeifertSpec.from_json_dict(explicit)
        assert spec == SeifertSpec.from_json_dict(bare)
        assert spec.to_json_dict() == bare

    @pytest.mark.parametrize("h2_class", [[1, 1], [1, 0], [0, 2], [0, -1], [1], [0, 1, 0]])
    def test_non_generator_class_refused(self, h2_class):
        data = {
            "charts": 2,
            "divisors": [{"chart": 1, "surface": {"orientable": True, "genus": 1}, "m": 3, "b": 1,
                          "h2_class": h2_class}],
            "twist": [0, 0],
        }
        with pytest.raises(SpecValidationError) as err:
            SeifertSpec.from_json_dict(data)
        assert [i.code for i in err.value.issues] == [BAD_H2_CLASS]

    def test_class_check_is_bounded_by_the_input(self):
        # A spec of about 130 bytes can name 100,000 charts, so a class of
        # the wrong length is refused without building the chart's unit vector.
        data = {
            "charts": 100_000,
            "divisors": [{"chart": 0, "surface": {"orientable": True, "genus": 1}, "m": 3, "b": 1,
                          "h2_class": [1]}],
            "twist": [0],
        }
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            with pytest.raises(SpecValidationError) as err:
                SeifertSpec.from_json_dict(data)
        finally:
            sys.setprofile(previous)
        assert str(err.value) == ("BAD_H2_CLASS: divisor 0 class [1] is not the generator "
                                  "of chart 0 (100000 charts)")
        assert calls <= 1000

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_orientable_must_be_boolean(self, value):
        data = {
            "charts": 1,
            "divisors": [{"chart": 0, "surface": {"orientable": value}, "m": 5, "b": 1}],
            "twist": [0],
        }
        with pytest.raises(SpecSchemaError, match="divisor 0 orientable must be true or false"):
            SeifertSpec.from_json_dict(data)

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    @pytest.mark.parametrize(
        "path",
        [
            ("charts",),
            ("twist", 0),
            ("divisors", 0, "chart"),
            ("divisors", 0, "m"),
            ("divisors", 0, "b"),
            ("divisors", 0, "h2_class", 0),
            ("divisors", 0, "surface", "genus"),
            ("divisors", 1, "surface", "b1"),
        ],
    )
    def test_integer_fields_refuse_non_integers(self, path, value):
        data = {
            "charts": 2,
            "divisors": [
                {"chart": 0, "surface": {"orientable": True, "genus": 1}, "m": 3, "b": 1,
                 "h2_class": [1, 0]},
                {"chart": 1, "surface": {"orientable": False, "b1": 1}, "m": 2, "b": 1},
            ],
            "twist": [0, 0],
        }
        SeifertSpec.from_json_dict(json.loads(json.dumps(data)))
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(SpecSchemaError, match="must be an integer"):
            SeifertSpec.from_json_dict(data)

    def test_canonical_output_fields(self):
        spec = simple_spec([Divisor(0, Orientable(0), 2, 1)], [0])
        assert list(spec.to_json_dict()) == ["charts", "divisors", "twist"]
        assert list(spec.to_json_dict()["divisors"][0]) == ["chart", "surface", "m", "b"]


class TestBase:
    def test_w2_all_ones(self):
        assert base_w2(3) == (1, 1, 1)

    def test_w2_by_wu_identity(self):
        # On a closed oriented 4-manifold, x.x = w2.x mod 2; with the
        # identity form this forces w2 = (1, ..., 1).  Check by brute force.
        for charts in range(1, 5):
            w2 = base_w2(charts)
            for x in range(2**charts):
                vec = [(x >> j) & 1 for j in range(charts)]
                self_int = sum(v * v for v in vec) % 2
                pairing = sum(w * v for w, v in zip(w2, vec)) % 2
                assert self_int == pairing
