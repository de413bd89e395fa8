import hashlib
import io
import json
import math
import subprocess
import sys

import pytest

from seifert5 import abgroup, cli, construct
from seifert5.abgroup import AbelianGroup
from seifert5.cli import main
from seifert5.cohomology import full_report
from seifert5.seifert import SeifertSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


HOMOLOGY_SPHERE = {
    "free_rank": 0,
    "torsion": [{"p": 5, "e": 1, "count": 4}],
    "i": 0,
}

INADMISSIBLE = {
    "free_rank": 0,
    "torsion": [{"p": 2, "e": 1, "count": 2}, {"p": 2, "e": 2, "count": 2}],
    "i": "inf",
}
REJECTION_LINE = "not admissible: R1_PRIME_COUNT, R3_SPIN_TWO_COUNT, INVALID_I"


class TestGate:
    def test_admissible_exit_zero(self, tmp_path, capsys):
        path = write_json(tmp_path, "cls.json", HOMOLOGY_SPHERE)
        code, out, err = run_cli(capsys, "gate", path)
        assert code == 0
        doc = json.loads(out)
        assert doc == {"admissible": True, "violated_rules": []}

    def test_r2_rejection(self, tmp_path, capsys):
        cls = {"free_rank": 5, "torsion": [{"p": 2, "e": 2, "count": 2}], "i": 2}
        path = write_json(tmp_path, "cls.json", cls)
        code, out, err = run_cli(capsys, "gate", path)
        assert code == 1
        assert json.loads(out)["violated_rules"] == ["R2_WU_RANGE"]

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out, err = run_cli(capsys, "gate", str(path))
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize("command", ["gate", "construct"])
    def test_rejection_text(self, tmp_path, capsys, command):
        # One line, the rules in the documented order; `construct` prints the same.
        path = write_json(tmp_path, "cls.json", INADMISSIBLE)
        code, out, err = run_cli(capsys, command, "--format", "text", path)
        assert (code, out, err) == (1, REJECTION_LINE + "\n", "")


class TestClassify:
    def test_realizable(self, tmp_path, capsys):
        cls = {"free_rank": 0, "torsion": [{"p": 2, "e": 1, "count": 1}], "i": 1}
        path = write_json(tmp_path, "cls.json", cls)
        code, out, _ = run_cli(capsys, "classify", path)
        assert code == 0
        assert json.loads(out)["realizable"] is True

    def test_not_realizable(self, tmp_path, capsys):
        cls = {"free_rank": 0, "torsion": [{"p": 3, "e": 1, "count": 1}], "i": 0}
        path = write_json(tmp_path, "cls.json", cls)
        code, out, _ = run_cli(capsys, "classify", path)
        assert code == 1

    def test_text_format(self, tmp_path, capsys):
        cls = {"free_rank": 2, "torsion": [], "i": 0}
        path = write_json(tmp_path, "cls.json", cls)
        code, out, _ = run_cli(capsys, "classify", "--format", "text", path)
        assert code == 0
        assert "realizable" in out

    @pytest.mark.parametrize("count, i, realizable", [(4, 0, True), (3, 0, False), (1, 2, False)])
    def test_decides_validate_i_once(self, tmp_path, capsys, monkeypatch, count, i, realizable):
        from seifert5 import classify

        calls = []
        real = classify.validate_i

        def spy(h2, i):
            calls.append((h2, i))
            return real(h2, i)

        monkeypatch.setattr(classify, "validate_i", spy)
        monkeypatch.setattr(cli, "validate_i", spy)
        cls = {"free_rank": 0, "torsion": [{"p": 5, "e": 1, "count": count}], "i": i}
        code, out, _ = run_cli(capsys, "classify", write_json(tmp_path, "cls.json", cls))
        assert json.loads(out)["realizable"] is realizable
        assert code == (0 if realizable else 1)
        assert len(calls) == 1


class TestConstruct:
    def test_build_and_verify(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "cls.json", {"free_rank": 0, "torsion": HOMOLOGY_SPHERE["torsion"]}
        )
        code, out, _ = run_cli(capsys, "construct", "--target-i", "0", "--verify", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["spec"]["twist"] == [-1]
        assert doc["report"]["wu"] == 0
        assert doc["report"]["h2"]["torsion"] == [{"p": 5, "e": 1, "count": 4}]

    def test_verify_builds_and_gates_once(self, tmp_path, monkeypatch, capsys):
        calls = {"build": 0, "gate": 0}

        def spy(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)
            return counted

        monkeypatch.setattr(cli, "build", spy("build", construct.build))
        monkeypatch.setattr(construct, "build", spy("build", construct.build))
        monkeypatch.setattr(construct, "circle_action_admissible",
                            spy("gate", construct.circle_action_admissible))
        path = write_json(
            tmp_path, "cls.json", {"free_rank": 0, "torsion": HOMOLOGY_SPHERE["torsion"]}
        )
        code, out, _ = run_cli(capsys, "construct", "--target-i", "0", "--verify", path)
        assert code == 0 and json.loads(out)["report"]["wu"] == 0
        assert calls == {"build": 1, "gate": 1}

    def test_inadmissible_exit_one(self, tmp_path, capsys):
        cls = {
            "free_rank": 0,
            "torsion": [
                {"p": 5, "e": 1, "count": 2},
                {"p": 5, "e": 2, "count": 2},
            ],
            "i": 0,
        }
        path = write_json(tmp_path, "cls.json", cls)
        code, out, _ = run_cli(capsys, "construct", path)
        assert code == 1
        assert "R1_PRIME_COUNT" in json.loads(out)["violated_rules"]

    def test_target_inf(self, tmp_path, capsys):
        cls = {"free_rank": 1, "torsion": [{"p": 3, "e": 1, "count": 2}]}
        path = write_json(tmp_path, "cls.json", cls)
        code, out, _ = run_cli(capsys, "construct", "--target-i", "inf", path)
        assert code == 0
        spec = json.loads(out)
        assert spec["charts"] == 2


class TestVerify:
    def test_report(self, tmp_path, capsys):
        spec = {
            "charts": 1,
            "divisors": [
                {"chart": 0, "surface": {"orientable": True, "genus": 2}, "m": 5, "b": 1}
            ],
            "twist": [0],
        }
        path = write_json(tmp_path, "spec.json", spec)
        code, out, _ = run_cli(capsys, "verify", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["h1_order"] == 1
        assert doc["h2"]["torsion"] == [{"p": 5, "e": 1, "count": 4}]

    def test_expect_match(self, tmp_path, capsys):
        spec = {
            "charts": 1,
            "divisors": [
                {"chart": 0, "surface": {"orientable": True, "genus": 2}, "m": 5, "b": 1}
            ],
            "twist": [0],
        }
        cls = {"free_rank": 0, "torsion": [{"p": 5, "e": 1, "count": 4}], "i": 0}
        spec_path = write_json(tmp_path, "spec.json", spec)
        cls_path = write_json(tmp_path, "cls.json", cls)
        code, out, _ = run_cli(capsys, "verify", "--expect", cls_path, spec_path)
        assert code == 0
        assert json.loads(out)["match"] is True

    def test_expect_mismatch_field_diff(self, tmp_path, capsys):
        spec = {
            "charts": 1,
            "divisors": [
                {"chart": 0, "surface": {"orientable": True, "genus": 2}, "m": 5, "b": 1}
            ],
            "twist": [0],
        }
        cls = {"free_rank": 0, "torsion": [{"p": 5, "e": 1, "count": 2}], "i": 0}
        spec_path = write_json(tmp_path, "spec.json", spec)
        cls_path = write_json(tmp_path, "cls.json", cls)
        code, out, _ = run_cli(capsys, "verify", "--expect", cls_path, spec_path)
        assert code == 1
        doc = json.loads(out)
        assert doc["match"] is False
        assert any(d["field"] == "h2" for d in doc["diffs"])

    def test_largest_prime_square_splits_without_rho(self, tmp_path, capsys, monkeypatch):
        # m = p**2 with p = 1,821,275,395,031, the largest prime square below
        # the multiplicity bound, splits by its square root, not by Pollard rho.
        calls = []
        brent = abgroup._brent

        def spy(n, c):
            calls.append(n)
            return brent(n, c)

        monkeypatch.setattr(abgroup, "_brent", spy)
        p = 1_821_275_395_031
        spec = dict(GENUS_TWO_SPEC, divisors=[
            {"chart": 0, "surface": {"orientable": True, "genus": 2}, "m": p * p, "b": 1}])
        report = full_report(SeifertSpec.from_json_dict(spec))
        assert report.h2 == AbelianGroup.from_counts(0, {(p, 2): 4})
        code, out, _ = run_cli(capsys, "verify", write_json(tmp_path, "spec.json", spec))
        assert code == 0
        # Recorded from the implementation that split p**2 by rho.
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b47a9af08530656ce1ee10e4072cd688145fb692d092dc9dc33a7308de01b767")
        assert calls == []

    def test_invalid_spec_is_input_error(self, tmp_path, capsys):
        spec = {
            "charts": 1,
            "divisors": [
                {"chart": 0, "surface": {"orientable": True, "genus": 0}, "m": 4, "b": 2}
            ],
            "twist": [0],
        }
        path = write_json(tmp_path, "spec.json", spec)
        code, out, err = run_cli(capsys, "verify", path)
        assert code == 2
        assert "BAD_ORBIT_INVARIANT" in err


class TestLocal:
    def test_example(self, capsys):
        code, out, _ = run_cli(capsys, "local", "--m", "12", "--exponents", "3,4")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "m": 12,
            "exponents": [3, 4],
            "c": [4, 3],
            "d": [1, 1],
            "C": 12,
            "manifold_point": True,
        }

    def test_non_faithful_is_error(self, capsys):
        code, out, err = run_cli(capsys, "local", "--m", "6", "--exponents", "2,4")
        assert code == 2


class TestSasaki:
    def test_values_feasible(self, capsys):
        code, out, _ = run_cli(capsys, "sasaki", "--values", "2,6,12,20")
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["witness"] == {"a": 1, "b": -3, "c": 2}

    def test_staircase_infeasible(self, capsys):
        values = ",".join(str(v) for v in range(2, 61, 2))
        code, out, _ = run_cli(capsys, "sasaki", "--values", values)
        assert code == 1
        assert json.loads(out)["densest_violation"] is not None

    def test_class_input_requires_rational_sphere(self, tmp_path, capsys):
        cls = {"free_rank": 1, "torsion": [{"p": 5, "e": 1, "count": 2}], "i": 0}
        path = write_json(tmp_path, "cls.json", cls)
        code, out, err = run_cli(capsys, "sasaki", path)
        assert code == 2

    def test_class_input_extracts_counts(self, tmp_path, capsys):
        cls = {"free_rank": 0, "torsion": [{"p": 5, "e": 1, "count": 2}], "i": 0}
        path = write_json(tmp_path, "cls.json", cls)
        code, out, _ = run_cli(capsys, "sasaki", path)
        assert code == 0

    def test_exhaustive_search_infeasible_text(self, capsys):
        # Sparse enough to pass the density check, and with no exceptions
        # allowed the complete search finds no quadratic covering them all.
        code, out, _ = run_cli(
            capsys, "sasaki", "--values", "1,2,4,8,16,32", "--max-exceptions", "0",
            "--format", "text",
        )
        assert code == 1
        assert out == "infeasible: exhaustive search found no covering quadratic\n"

    def test_inconclusive_exit_three(self, capsys):
        # passes the density bound, but the candidate cap stops the search
        # before any zero-exception witness can be ruled in or out
        values = ",".join(str(v) for v in range(2, 40, 2))
        code, out, _ = run_cli(
            capsys, "sasaki", "--values", values, "--max-exceptions", "0",
            "--max-candidates", "5",
        )
        assert code == 3

    def test_capped_witness_is_not_complete(self, capsys):
        # cap 2 stops the search after t^2 + 3 and t^2 + 5; the second covers
        # all but four values, but the complete search prefers 12t^2 - 5t + 3
        code, out, _ = run_cli(
            capsys, "sasaki", "--values", "3,5,10,20,37,41", "--max-candidates", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["witness"] == {"a": 1, "b": 0, "c": 5}
        assert doc["exceptions"] == [3, 10, 20, 37]
        assert doc["search_complete"] is False
        code, out, _ = run_cli(capsys, "sasaki", "--values", "3,5,10,20,37,41")
        doc = json.loads(out)
        assert doc["witness"] == {"a": 12, "b": -5, "c": 3}
        assert doc["search_complete"] is True

    def test_values_bound(self, tmp_path, capsys):
        # 1,000 values pass (these are dense, so the density check decides);
        # one more is refused, from --values or from a group's torsion.
        values = [str(v) for v in range(2, 2002, 2)]
        code, out, _ = run_cli(capsys, "sasaki", "--values", ",".join(values))
        assert code == 1 and json.loads(out)["densest_violation"] is not None
        code, out, err = run_cli(capsys, "sasaki", "--values", ",".join(values + ["2002"]))
        assert_input_error(code, out, err)
        assert err == "error: sasaki takes at most 1,000 values, got 1,001\n"
        # 1,001 prime powers below the primality bound, one entry each
        primes = [p for p in range(2, 8000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        torsion = [{"p": p, "e": 1, "count": 1} for p in primes[:1001]]
        path = write_json(tmp_path, "cls.json", {"free_rank": 0, "torsion": torsion})
        code, out, err = run_cli(capsys, "sasaki", path)
        assert_input_error(code, out, err)
        assert err == "error: sasaki takes at most 1,000 values, got 1,001\n"

    @pytest.mark.parametrize("limit", [
        ("--max-exceptions", "-1"),
        ("--max-candidates", "0"),
        ("--max-candidates", "-1"),
    ])
    def test_invalid_limits_exit_two(self, capsys, limit):
        # --max-exceptions -1 used to answer a complete "no" with exit 1
        code, out, err = run_cli(capsys, "sasaki", "--values", "1,4,11,22", *limit)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("values", [
        "1_000,2", "+5,7", "\u0661,\u0662,\u0663", " 2,6", "2, 6", "2,,6", "", "2.0,6", "0x10",
    ])
    def test_values_accept_only_ascii_decimals(self, capsys, values):
        # int() took the first five with exit 0; JSON integers decode
        # strictly, and so does each --values item now
        code, out, err = run_cli(capsys, "sasaki", "--values", values)
        assert_input_error(code, out, err)
        assert err.startswith("error: --values item ")

    def test_values_decimal_items(self, capsys):
        code, out, _ = run_cli(capsys, "sasaki", "--values", "0002,6,12,20")
        assert code == 0
        assert json.loads(out)["witness"] == {"a": 1, "b": -3, "c": 2}
        code, out, err = run_cli(capsys, "sasaki", "--values=-5,7")
        assert_input_error(code, out, err)
        assert err == "error: torsion counts must be positive\n"


class TestEnumerate:
    def test_stream_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, "enumerate", "--max-torsion-order", "8", "--max-k", "1")
        assert code == 0
        code, out2, _ = run_cli(capsys, "enumerate", "--max-torsion-order", "8", "--max-k", "1")
        assert out1 == out2
        lines = [json.loads(line) for line in out1.strip().splitlines()]
        assert all({"class", "spec"} == set(line) for line in lines)

    def test_sorted_stream(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--max-torsion-order", "6", "--max-k", "1")
        lines = [json.loads(line) for line in out.strip().splitlines()]
        keys = []
        for line in lines:
            cls = line["class"]
            i = cls["i"]
            i_key = (1, 0) if i == "inf" else (0, i)
            order = 1
            for t in cls["torsion"]:
                order *= (t["p"] ** t["e"]) ** t["count"]
            keys.append((cls["free_rank"], order, json.dumps(cls["torsion"]), i_key))
        assert keys == sorted(keys)

    def test_golden_stream(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--max-torsion-order", "4096", "--max-k", "2")
        assert code == 0
        assert len(out.splitlines()) == 886
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "527f05e2f633ff1bda068f4e8ba9300f619f38c126bf1911874112889104a80a"
        )

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_one_write_per_line(self, monkeypatch, capsys, fmt):
        argv = ["enumerate", "--format", fmt, "--max-torsion-order", "64", "--max-k", "2"]
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0
        writes = []

        class Spy:
            def write(self, text):
                writes.append(text)
                return len(text)

        monkeypatch.setattr(sys, "stdout", Spy())
        assert main(argv) == 0
        assert len(writes) == expected.count("\n") > 0
        assert all(w.endswith("\n") and w.count("\n") == 1 for w in writes)
        assert "".join(writes) == expected

    def test_bounds_below_minimum_exit_two(self, capsys):
        for bounds in (["0", "2"], ["-5", "1"], ["4", "-1"]):
            code, out, err = run_cli(
                capsys, "enumerate", "--max-torsion-order", bounds[0], "--max-k", bounds[1]
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


class TestReadmeExamples:
    """The CLI examples of the README: exit code and stdout sha256, pinned."""

    CLASS = {"free_rank": 0, "torsion": [{"p": 5, "e": 1, "count": 4}], "i": 0}
    GROUP = {"free_rank": 0, "torsion": CLASS["torsion"]}

    @pytest.mark.parametrize(
        "argv, stdin, fmt, digest",
        [
            (["gate"], CLASS, "json",
             "345f3ba3ec51192d5f6c31fd775a68868913a431a5cb65047aaa35abb04670d0"),
            (["gate"], CLASS, "text",
             "37bf0450cf2570f2f78014fe973cfba7e186131d2547079d577cd58030a092b7"),
            (["construct", "--target-i", "0", "--verify"], GROUP, "json",
             "e7652c27085ffd3556b234868e9007e6a7949c3017807bc57ed945ec88914c61"),
            (["construct", "--target-i", "0", "--verify"], GROUP, "text",
             "055b733ddf546db6824f82a1db7e39690375df91c6558522fc2b2a88199dfe05"),
            (["local", "--m", "12", "--exponents", "3,4"], None, "json",
             "1c50f9a442f68735f5a33de2357df0d393135f6513ac35b018214ebeaa13faf4"),
            (["local", "--m", "12", "--exponents", "3,4"], None, "text",
             "86fe7900529f6db5d2c4a87b0ae9959c05bbcdef89cadd416cd59f44a8787c61"),
            (["sasaki", "--values", "2,6,12,20,30"], None, "json",
             "01d208b0e00d349275338670a39b7a5453b73c5c78ba519d6d1d77686dd318dd"),
            (["sasaki", "--values", "2,6,12,20,30"], None, "text",
             "805e52efcdca2ffb41f2e05d9cfba0057af526441c824eb72cd989b4c04fcf83"),
            (["enumerate", "--max-torsion-order", "16", "--max-k", "1"], None, "json",
             "2729675690e75d9726bf85a7723ce84eb0346b87149c577a4ff50ea9c1b5516e"),
            (["enumerate", "--max-torsion-order", "16", "--max-k", "1"], None, "text",
             "2fa078f65e46ad5739ab32e37486f5cc044dca6dbcba24c61b220c79d8ae7de7"),
            (["verify", "{spec}"], None, "json",
             "4f5283209fdf3c60181b8c1a3fad6ad2311e5c7a5b9628c8d2f1fea4a681eeab"),
            (["verify", "{spec}"], None, "text",
             "f79b4ab2758fae9f413391000e354cd518403c57b560b6c45329c21189874f3b"),
            (["verify", "--expect", "{class}", "{spec}"], None, "json",
             "e07bc2b89ca0df581c705e7b258cef95bd305ea4f379d61c4016ebed0e13c311"),
            (["verify", "--expect", "{class}", "{spec}"], None, "text",
             "8c2033d557d65d18df9247264f83c23715b322718c1540aa575c3b6e814de270"),
        ],
    )
    def test_golden(self, tmp_path, capsys, monkeypatch, argv, stdin, fmt, digest):
        paths = {"{spec}": write_json(tmp_path, "spec.json", GENUS_TWO_SPEC),
                 "{class}": write_json(tmp_path, "class.json", self.CLASS)}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin) if stdin else ""))
        argv = [argv[0], "--format", fmt] + [paths.get(a, a) for a in argv[1:]]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestHelpText:
    """`seifert5 <command> --help` for every subcommand at 80 columns: exit
    code and stdout sha256, pinned, so a parser edit that changes an
    option, its help or its default shows here."""

    @pytest.mark.parametrize(
        "command, digest",
        [
            ("classify", "33e17006fdf978fc42b7e41b8abc2f2f7734b60b203df26c18f22ebdf05a9018"),
            ("gate", "07a8e6716be16819e62c2f34c20b5cdf668d7a3f442d02644b379e867bdf8200"),
            ("construct", "68557d02002d90860101015b3e2702962414909dfc1df740a28ee85c22a0ae8f"),
            ("verify", "df539e893261a3e1537eace38174fdb0212a334d3fa514605d08a15706e6b1a5"),
            ("local", "c337459123016eb80f832ddcc393cb22a71f832d4f70bdc826c9b42c411dfdef"),
            ("sasaki", "0b0983a8e03c5f0eb42239e0acdd6dd70ad8a3d0846feac5513490573fd23a3b"),
            ("enumerate", "0b5feb2ea5dda1a399b44055230c8d215f33be1d79bcc9c328c68753dd69c32c"),
        ],
    )
    def test_golden(self, capsys, monkeypatch, command, digest):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        out, err = capsys.readouterr()
        assert (done.value.code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = write_json(tmp_path, "cls.json", HOMOLOGY_SPHERE)
        proc = subprocess.run(
            [sys.executable, "-m", "seifert5", "gate", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["admissible"] is True

    def test_stdin_input(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "seifert5", "gate"],
            input=json.dumps(HOMOLOGY_SPHERE),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0


GENUS_TWO_SPEC = {
    "charts": 1,
    "divisors": [{"chart": 0, "surface": {"orientable": True, "genus": 2}, "m": 5, "b": 1}],
    "twist": [0],
}


def assert_input_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


class TestMalformedInput:
    """Malformed input exits 2 with one stderr line, never 1 (a verdict)."""

    def test_non_object_torsion_entry(self, tmp_path, capsys):
        path = write_json(tmp_path, "cls.json", {"free_rank": 0, "torsion": [3], "i": 0})
        assert_input_error(*run_cli(capsys, "gate", path))

    def test_string_free_rank(self, tmp_path, capsys):
        cls = dict(HOMOLOGY_SPHERE, free_rank="1")
        assert_input_error(*run_cli(capsys, "gate", write_json(tmp_path, "cls.json", cls)))

    def test_negative_count_offset_by_another_entry(self, tmp_path, capsys):
        # used to decode to the trivial group and answer admissible, exit 0
        torsion = [{"p": 5, "e": 1, "count": 2}, {"p": 5, "e": 1, "count": -2}]
        path = write_json(tmp_path, "cls.json", {"torsion": torsion, "i": 0})
        code, out, err = run_cli(capsys, "gate", path)
        assert_input_error(code, out, err)
        assert err == "error: torsion count must be >= 0, got -2\n"

    def test_construct_on_a_list(self, tmp_path, capsys):
        path = write_json(tmp_path, "cls.json", [1, 2])
        assert_input_error(*run_cli(capsys, "construct", "--target-i", "0", path))

    def test_float_multiplicity(self, tmp_path, capsys):
        spec = json.loads(json.dumps(GENUS_TWO_SPEC))
        spec["divisors"][0]["m"] = 2.0
        assert_input_error(*run_cli(capsys, "verify", write_json(tmp_path, "spec.json", spec)))

    def test_deeply_nested_json(self, monkeypatch, capsys):
        # json.loads gives up with a RecursionError at about 1,000 levels.
        monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100_000 + "]" * 100_000))
        code, out, err = run_cli(capsys, "gate")
        assert_input_error(code, out, err)
        assert err == "error: malformed JSON: nested too deeply\n"

    def test_unexpected_exception_is_internal_defect(self, monkeypatch, capsys):
        cases = [
            (["local", "--m", "12", "--exponents", "3,4"], "_cmd_local", KeyError("x"),
             "internal defect: KeyError: 'x'\n"),
            # A failed self-check is an AssertionError, and reads the same way.
            (["construct", "--target-i", "0", "--verify"], "_checked_report",
             construct.ConstructionDefect("h2 = 0, expected Z/5"),
             "internal defect: ConstructionDefect: h2 = 0, expected Z/5\n"),
        ]
        for argv, target, defect, line in cases:
            def broken(*args):
                raise defect

            monkeypatch.setattr(cli, target, broken)
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(TestReadmeExamples.GROUP)))
            code, out, err = run_cli(capsys, *argv)
            assert_input_error(code, out, err)
            assert err == line

    @pytest.mark.parametrize(
        "argv, document, field",
        [
            (["gate"], {"torsion": [3], "i": 0}, "torsion entry"),
            (["gate"], {"torsion": 5, "i": 0}, "torsion"),
            (["gate"], {"torsion": [{"p": 2}], "i": 0}, "missing torsion field"),
            (["construct", "--target-i", "0"], [1, 2], "class"),
            (["sasaki"], [1, 2], "class"),
            (["verify"], dict(GENUS_TWO_SPEC, divisors=5), "divisors"),
            (["verify"], dict(GENUS_TWO_SPEC, twist=5), "twist"),
            (["verify"], dict(GENUS_TWO_SPEC, divisors=[
                dict(GENUS_TWO_SPEC["divisors"][0], h2_class=3)]), "h2_class"),
        ],
    )
    def test_wrong_shape_names_the_field(self, tmp_path, capsys, argv, document, field):
        path = write_json(tmp_path, "input.json", document)
        code, out, err = run_cli(capsys, *argv, path)
        assert_input_error(code, out, err)
        assert err.startswith("error: ") and field in err

    def test_twist_longer_than_charts(self, tmp_path, capsys):
        spec = {"charts": 1, "twist": [1, 0], "divisors": []}
        code, out, err = run_cli(capsys, "verify", write_json(tmp_path, "spec.json", spec))
        assert_input_error(code, out, err)
        assert err == "error: TWIST_LENGTH: twist has 2 entries, need 1\n"

    def test_non_generator_h2_class(self, tmp_path, capsys):
        spec = json.loads(json.dumps(GENUS_TWO_SPEC))
        spec["divisors"][0]["h2_class"] = [2]
        code, out, err = run_cli(capsys, "verify", write_json(tmp_path, "spec.json", spec))
        assert_input_error(code, out, err)
        assert err.startswith("error: BAD_H2_CLASS: divisor 0 class [2]")

    def test_non_boolean_orientable(self, tmp_path, capsys):
        spec = json.loads(json.dumps(GENUS_TWO_SPEC))
        spec["divisors"][0]["surface"] = {"orientable": "false"}
        code, out, err = run_cli(capsys, "verify", write_json(tmp_path, "spec.json", spec))
        assert_input_error(code, out, err)
        assert err == "error: divisor 0 orientable must be true or false, got 'false'\n"

    def test_multiplicity_beyond_the_primality_bound(self, tmp_path, capsys):
        spec = json.loads(json.dumps(GENUS_TWO_SPEC))
        spec["divisors"][0]["m"] = (10**9 + 7) ** 2 * 999999937
        code, out, err = run_cli(capsys, "verify", write_json(tmp_path, "spec.json", spec))
        assert_input_error(code, out, err)
        assert err.startswith("error: ") and "3,317,044,064,679,887,385,961,981" in err

    @pytest.mark.parametrize("twist", [0, 1])
    def test_multiplicity_bound_on_a_divisor_without_torsion(self, tmp_path, capsys, twist):
        # The decoder bounds m even on a genus-0 divisor, which adds no
        # torsion and is never factored, and on a spec that is not simply
        # connected (twist 1 makes |H_1| = m + 1).
        spec = json.loads(json.dumps(GENUS_TWO_SPEC))
        spec["twist"] = [twist]
        spec["divisors"][0].update(surface={"orientable": True, "genus": 0},
                                   m=3_317_044_064_679_887_385_961_981)
        code, out, err = run_cli(capsys, "verify", write_json(tmp_path, "spec.json", spec))
        assert_input_error(code, out, err)
        assert err == "error: divisor 0 m must be below 3,317,044,064,679,887,385,961,981\n"
        spec["divisors"][0]["m"] -= 2
        code, out, _ = run_cli(capsys, "verify", write_json(tmp_path, "spec.json", spec))
        assert code == 0
        assert json.loads(out)["h1_order"] == (1 if twist == 0 else spec["divisors"][0]["m"] + 1)

    @pytest.mark.parametrize("e", [3000, 100_000])
    @pytest.mark.parametrize(
        "argv", [["gate"], ["classify"], ["construct"], ["construct", "--target-i", "0"], ["sasaki"]]
    )
    def test_prime_power_beyond_the_primality_bound(self, tmp_path, capsys, argv, e):
        # gate used to admit (Z/p^e)^2, and construct then hit the
        # interpreter's 4,300-digit limit after up to a second
        cls = {"free_rank": 0, "torsion": [{"p": 10**9 + 7, "e": e, "count": 2}], "i": 0}
        code, out, err = run_cli(capsys, *argv, write_json(tmp_path, "cls.json", cls))
        assert_input_error(code, out, err)
        assert err == ("error: torsion p^e must be below 3,317,044,064,679,887,385,961,981, "
                       f"got p = 1000000007, e = {e}\n")

    @pytest.mark.parametrize("m", ["3317044064679887385961981", "9" * 5000, "0" * 30 + "9" * 26])
    def test_local_multiplicity_beyond_the_primality_bound(self, capsys, m):
        code, out, err = run_cli(capsys, "local", "--m", m, "--exponents", "1,1")
        assert_input_error(code, out, err)
        assert err == "error: --m must be below 3,317,044,064,679,887,385,961,981\n"
        code, out, _ = run_cli(capsys, "local", "--m", "3317044064679887385961980",
                               "--exponents", "1,1")
        assert code == 0 and json.loads(out)["m"] == 3317044064679887385961980

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["local", "--m", "-" + "9" * 5000, "--exponents", "1,1"], "--m"),
            (["local", "--m", "12", "--exponents", "1," + "9" * 5000], "--exponents item"),
            (["sasaki", "--values", "2,6," + "9" * 5000], "--values item"),
            (["sasaki", "--values", "2,6,12", "--max-candidates", "9" * 5000], "--max-candidates"),
        ],
    )
    def test_integer_beyond_the_digit_limit(self, capsys, argv, what):
        # These used to print the interpreter's 4,300-digit message.
        code, out, err = run_cli(capsys, *argv)
        assert_input_error(code, out, err)
        assert err == f"error: {what} has more than 4,300 digits\n"

    def test_json_integer_beyond_the_digit_limit(self, tmp_path, capsys):
        text = '{"free_rank": 0, "torsion": [{"p": 5, "e": 1, "count": %s}], "i": 0}' % ("4" * 5000)
        path = tmp_path / "cls.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "gate", str(path))
        assert_input_error(code, out, err)
        assert err == "error: JSON integer has more than 4,300 digits\n"

    def test_digit_limit_counts_significant_digits(self, capsys):
        # 4,300 digits decode, and so does a long run of leading zeros.
        code, out, err = run_cli(capsys, "enumerate", "--max-torsion-order", "1",
                                 "--max-k", "-" + "9" * 4300)
        assert_input_error(code, out, err)
        assert err.startswith("error: max k must be >= 0")
        code, out, _ = run_cli(capsys, "local", "--m", "0" * 5000 + "12", "--exponents", "1,5")
        assert code == 0 and json.loads(out)["m"] == 12

    @pytest.mark.parametrize(
        "field, value",
        [("count", 2.5), ("free_rank", True), ("count", "3"), ("p", 5.0), ("e", True)],
    )
    def test_gate_refuses_non_integers(self, tmp_path, capsys, field, value):
        cls = json.loads(json.dumps(HOMOLOGY_SPHERE))
        if field == "free_rank":
            cls["free_rank"] = value
        else:
            cls["torsion"][0][field] = value
        code, out, err = run_cli(capsys, "gate", write_json(tmp_path, "cls.json", cls))
        assert_input_error(code, out, err)
        assert err.startswith("error: ")


class TestStrictIntegers:
    """Every integer argument is ASCII digits with an optional leading '-'."""

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["local", "--m", "1_2", "--exponents", "3,4"], "--m"),
            (["local", "--m", " 12", "--exponents", "3,4"], "--m"),
            (["local", "--m", "x", "--exponents", "3,4"], "--m"),
            (["local", "--m", "12", "--exponents", "+3, \u0664"], "--exponents item"),
            (["local", "--m", "12", "--exponents", "3,4.0"], "--exponents item"),
            (["construct", "--target-i", " +0"], "--target-i"),
            (["construct", "--target-i", "Inf"], "--target-i"),
            (["sasaki", "--values", "2,6,12", "--max-candidates", "1_000"], "--max-candidates"),
            (["sasaki", "--values", "2,6,12", "--max-exceptions", "+3"], "--max-exceptions"),
            (["enumerate", "--max-torsion-order", "4_0", "--max-k", "1"], "--max-torsion-order"),
            (["enumerate", "--max-torsion-order", "8", "--max-k", "\uff11"], "--max-k"),
            (["enumerate", "--max-torsion-order", "0x8", "--max-k", "1"], "--max-torsion-order"),
        ],
    )
    def test_non_decimal_is_one_error_line(self, tmp_path, capsys, argv, what):
        # int() accepted the first two and "+3, 4"; argparse's type=int
        # refused "x" with a usage line on top of its error line
        if argv[0] == "construct":
            argv = argv + [write_json(tmp_path, "cls.json", HOMOLOGY_SPHERE)]
        code, out, err = run_cli(capsys, *argv)
        assert_input_error(code, out, err)
        assert err.startswith(f"error: {what} ")

    def test_decimal_arguments_are_accepted(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "local", "--m", "012", "--exponents", "3,04")
        assert code == 0 and json.loads(out)["m"] == 12
        path = write_json(tmp_path, "cls.json", HOMOLOGY_SPHERE)
        assert run_cli(capsys, "construct", "--target-i", "00", path)[0] == 0
        code, out, err = run_cli(capsys, "construct", "--target-i", "-1", path)
        assert_input_error(code, out, err)
        assert err == "error: invalid i value -1; must be >= 0\n"
        code, out, _ = run_cli(capsys, "sasaki", "--values", "2,6,12", "--max-exceptions", "0",
                               "--max-candidates", "0050")
        assert code == 0 and json.loads(out)["witness"] == {"a": 1, "b": -3, "c": 2}


class TestVerifyExpectUndecided:
    def test_h1_mismatch_lists_one_diff(self, tmp_path, capsys):
        spec = dict(GENUS_TWO_SPEC, twist=[1])
        cls = {"free_rank": 0, "torsion": [{"p": 5, "e": 1, "count": 4}], "i": 0}
        spec_path = write_json(tmp_path, "spec.json", spec)
        cls_path = write_json(tmp_path, "cls.json", cls)
        code, out, _ = run_cli(capsys, "verify", "--expect", cls_path, spec_path)
        assert code == 1
        assert json.loads(out)["diffs"] == [{"field": "h1_order", "expected": 1, "actual": 6}]
