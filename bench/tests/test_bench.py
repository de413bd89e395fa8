"""The benchmark's own tests: `python -m pytest bench/tests -q` from the root."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import seifert5
import seifert5.cli
import spans
import worker
import workloads
from conftest import BENCH

LIBRARY_WORKLOADS = ("roundtrip", "verify-random", "sasaki")


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setitem(workloads.BLOCK, "roundtrip", 40)
    monkeypatch.setitem(workloads.BLOCK, "verify-random", 20)
    monkeypatch.setitem(workloads.BLOCK, "sasaki", 6)


@pytest.mark.parametrize("workload", LIBRARY_WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, small_blocks):
    a, b, c = (workloads.InputStream(workload, seed) for seed in (7, 7, 8))
    first = [a.block(), a.block()]
    assert first == [b.block(), b.block()]
    assert first[0] != c.block()
    assert len(first[0]) == workloads.BLOCK[workload]


def test_own_gate_agrees_with_library():
    from seifert5.abgroup import AbelianGroup
    from seifert5.classify import FiveManifoldClass, circle_action_admissible, decode_i

    stream = workloads.InputStream("roundtrip", 3)
    rng = stream.rng
    for _ in range(2000):
        k = rng.randint(0, 3)
        counts = {key: rng.randint(1, 4)
                  for key in rng.sample(workloads.ROUNDTRIP_POWERS, k=rng.randint(0, 4))}
        for i in (0, 1, 2, "inf"):
            cls = FiveManifoldClass(AbelianGroup.from_counts(k, counts), decode_i(i))
            assert workloads.admissible(k, counts, i) == circle_action_admissible(cls).admissible


@pytest.mark.parametrize("workload", LIBRARY_WORKLOADS)
def test_checks_accept_the_library_and_reject_a_changed_answer(workload, small_blocks):
    lib = worker.Library(seifert5, workload)
    for raw in workloads.InputStream(workload, 5).block():
        encoded = lib.run(lib.prepare(raw))
        assert lib.check(raw, encoded)
        report = json.loads(encoded)
        if workload == "roundtrip":
            report["h1_order"] = 2
        elif workload == "verify-random":
            report["c1_mu"][-1] += 1
        elif report["exceptions"]:
            report["exceptions"].pop()
        else:
            continue
        assert not lib.check(raw, json.dumps(report))


def test_undecided_answers_fail_the_gates(small_blocks):
    tally = worker.Tally()
    for raw in workloads.InputStream("sasaki", 5).block():
        tally.record(raw, "inconclusive", 1, workloads.check_sasaki)
    assert tally.failed == tally.undecided == workloads.BLOCK["sasaki"]

    lib = worker.Library(seifert5, "verify-random")
    tally, decided = worker.Tally(), 0
    for raw in workloads.InputStream("verify-random", 5).block():
        report = json.loads(lib.run(lib.prepare(raw)))
        if report["h1_order"] == 1:
            decided += 1
            report["wu"] = "indeterminate"
        tally.record(raw, json.dumps(report), 1, lib.check)
    assert decided and tally.failed == tally.undecided == decided


def _counts(metrics):
    return {k: v for k, v in metrics.items() if not k.endswith("_ms") and k != "trace.overhead_ratio"}


@pytest.mark.parametrize("workload", LIBRARY_WORKLOADS)
def test_traced_counts_repeat_and_wrappers_are_restored(workload, small_blocks, tmp_path):
    first = worker.traced(seifert5, workload, 11, str(tmp_path / "a.csv"))
    second = worker.traced(seifert5, workload, 11, str(tmp_path / "b.csv"))
    assert first["failed"] == 0 and first["restored"]
    assert _counts(first["metrics"]) == _counts(second["metrics"])
    assert first["spans"] == second["spans"] > 0
    with open(tmp_path / "a.csv", encoding="utf-8") as fh:
        names = json.loads(fh.readline())
        rows = fh.readlines()
    assert "bench.op" in names and len(rows) == first["spans"]


def test_install_patches_copied_bindings_and_restore_puts_them_back():
    from seifert5 import abgroup, cli, cohomology, construct, seifert

    factorize, validate = abgroup.factorize, seifert.SeifertSpec.validate
    before = worker._bindings(seifert5)
    tr = spans.Tracer()
    tr.install(seifert5)
    try:
        assert cohomology.factorize is construct.factorize is abgroup.factorize
        assert abgroup.factorize is not factorize
        assert seifert.SeifertSpec.validate is not validate
        assert cli.json is not json
    finally:
        tr.restore()
    assert worker._bindings(seifert5) == before
    assert cohomology.factorize is factorize and cli.json is json


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "roundtrip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert done.stdout == ""
