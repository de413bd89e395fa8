import dataclasses
import hashlib
import json
import subprocess
import sys

import pytest

from seifert5 import cli
from seifert5.cli import main
from seifert5.cohomology import INDETERMINATE


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
        # the cap stops the search after t^2 + 5 was found; it covers all
        # but four values, but the complete search prefers 12t^2 - 5t + 3
        code, out, _ = run_cli(
            capsys, "sasaki", "--values", "3,5,10,20,37,41", "--max-candidates", "1"
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

    def test_bounds_below_minimum_exit_two(self, capsys):
        for bounds in (["0", "2"], ["-5", "1"], ["4", "-1"]):
            code, out, err = run_cli(
                capsys, "enumerate", "--max-torsion-order", bounds[0], "--max-k", bounds[1]
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


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

    def test_construct_on_a_list(self, tmp_path, capsys):
        path = write_json(tmp_path, "cls.json", [1, 2])
        assert_input_error(*run_cli(capsys, "construct", "--target-i", "0", path))

    def test_float_multiplicity(self, tmp_path, capsys):
        spec = json.loads(json.dumps(GENUS_TWO_SPEC))
        spec["divisors"][0]["m"] = 2.0
        assert_input_error(*run_cli(capsys, "verify", write_json(tmp_path, "spec.json", spec)))

    def test_unexpected_exception_is_internal_defect(self, monkeypatch, capsys):
        def broken(args):
            raise KeyError("x")

        monkeypatch.setattr(cli, "_cmd_local", broken)
        code, out, err = run_cli(capsys, "local", "--m", "12", "--exponents", "3,4")
        assert_input_error(code, out, err)
        assert err == "internal defect: KeyError: 'x'\n"

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


class TestVerifyExpectUndecided:
    def test_indeterminate_wu_exits_three(self, tmp_path, monkeypatch, capsys):
        real = cli.full_report
        monkeypatch.setattr(
            cli, "full_report", lambda spec: dataclasses.replace(real(spec), wu=INDETERMINATE)
        )
        cls = {"free_rank": 0, "torsion": [{"p": 5, "e": 1, "count": 4}], "i": 0}
        spec_path = write_json(tmp_path, "spec.json", GENUS_TWO_SPEC)
        cls_path = write_json(tmp_path, "cls.json", cls)
        code, out, _ = run_cli(capsys, "verify", "--expect", cls_path, spec_path)
        assert code == 3
        doc = json.loads(out)
        assert doc["match"] is False
        assert doc["diffs"] == [{"field": "wu", "expected": 0, "actual": "indeterminate"}]

    def test_h1_mismatch_lists_one_diff(self, tmp_path, capsys):
        spec = dict(GENUS_TWO_SPEC, twist=[1])
        cls = {"free_rank": 0, "torsion": [{"p": 5, "e": 1, "count": 4}], "i": 0}
        spec_path = write_json(tmp_path, "spec.json", spec)
        cls_path = write_json(tmp_path, "cls.json", cls)
        code, out, _ = run_cli(capsys, "verify", "--expect", cls_path, spec_path)
        assert code == 1
        assert json.loads(out)["diffs"] == [{"field": "h1_order", "expected": 1, "actual": 6}]
