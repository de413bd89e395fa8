"""One workload in its own process: the timed closed loop or the traced run.

Run by bench/run.py with PYTHONPATH pointing at the checkout's src/.
Prints one JSON object on stdout.  A closed loop with one caller: each
operation starts when the previous one has returned.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
from array import array
from time import perf_counter_ns

import stats
import workloads
from spans import ENCODE, Tracer


def _load_package(root: str):
    import seifert5
    import seifert5.cli

    src = os.path.join(root, "src", "seifert5")
    if os.path.dirname(os.path.abspath(seifert5.__file__)) != src:
        raise SystemExit(f"seifert5 imported from {seifert5.__file__}, not from {src}")
    return seifert5


def _encode_report(report) -> str:
    # What the CLI prints for `construct --verify`'s report, `verify` and `sasaki`.
    return json.dumps(report.to_json_dict(), indent=2)


class Library:
    """The operations of the library workloads, called through module
    attributes so that patched bindings are the ones used."""

    def __init__(self, pkg, workload: str, encode=_encode_report):
        self.pkg = pkg
        self.encode = encode
        self.prepare, self.run, self.check = {
            "roundtrip": (self._class, self._roundtrip, workloads.check_roundtrip),
            "verify-random": (lambda x: x, self._verify, workloads.check_verify),
            "sasaki": (lambda x: x["values"], self._sasaki, workloads.check_sasaki),
        }[workload]

    def _class(self, data):
        return self.pkg.classify.FiveManifoldClass.from_json_dict(data)

    def _roundtrip(self, cls) -> str:
        return self.encode(self.pkg.construct.verify_roundtrip(cls))

    def _verify(self, data) -> str:
        spec = self.pkg.seifert.SeifertSpec.from_json_dict(data)
        return self.encode(self.pkg.cohomology.full_report(spec))

    def _sasaki(self, values) -> str:
        try:
            return self.encode(self.pkg.sasakian.sasaki_check(values))
        except self.pkg.sasakian.InconclusiveSearch:
            return "inconclusive"


def _undecided(encoded: str) -> bool:
    if encoded == "inconclusive":
        return True
    report = json.loads(encoded)
    return report.get("wu") == "indeterminate" and report.get("h1_order") == 1


class Tally:
    """Latencies, failures, undecided answers and a digest of every output."""

    def __init__(self) -> None:
        self.latencies = array("q")
        self.failed = 0
        self.undecided = 0
        self.digest = hashlib.sha256()

    def record(self, raw, encoded, ns: int, check) -> None:
        """Untimed: check one output against the benchmark's own recomputation."""
        self.latencies.append(ns)
        if encoded is None:
            self.failed += 1
            self.digest.update(b"<error>\n")
            return
        self.digest.update(encoded.encode() + b"\n")
        try:
            undecided = _undecided(encoded)
            ok = check(raw, encoded)
        except (KeyError, TypeError, ValueError):
            undecided, ok = False, False
        # The checks fail undecided answers, so each one also counts in failed.
        self.failed += not ok
        self.undecided += undecided


def _one(lib: Library, raw, prepared, tally: Tally, wrap=None) -> None:
    t0 = perf_counter_ns()
    try:
        encoded = wrap(lib.run, prepared) if wrap else lib.run(prepared)
    except Exception:  # any raise is a failed operation, counted below
        encoded = None
    tally.record(raw, encoded, perf_counter_ns() - t0, lib.check)


def timed(pkg, workload: str, seed: int, seconds: float) -> dict:
    """Whole blocks until `seconds` of operation time; one segment per block."""
    lib = Library(pkg, workload)
    stream = workloads.InputStream(workload, seed)
    tally = Tally()
    segments = []
    busy = 0
    while busy < seconds * 1e9:
        block = [(raw, lib.prepare(raw)) for raw in stream.block()]
        first = len(tally.latencies)
        for raw, prepared in block:
            _one(lib, raw, prepared, tally)
        segment = tally.latencies[first:]
        busy += sum(segment)
        segments.append(stats.segment(segment))
    return {"ops": len(tally.latencies), "failed": tally.failed, "undecided": tally.undecided,
            "busy_s": busy / 1e9, "digest": tally.digest.hexdigest(),
            **stats.summarize(segments)}


# ---------------------------------------------------------------------------
# traced run

LAYER_METRICS = [
    ("cli.encode", ["self_ms"]),
    ("construct._torsion_profiles", ["calls", "yielded", "self_ms"]),
    ("construct.enumerate_admissible", ["yielded", "self_ms"]),
    ("construct.build", ["calls", "self_ms"]),
    ("construct.verify_roundtrip", ["calls", "self_ms"]),
    ("classify.circle_action_admissible", ["calls", "self_ms", "admitted_ratio"]),
    ("abgroup.is_prime", ["calls", "self_ms"]),
    ("abgroup.factorize", ["calls", "self_ms", "distinct_ratio"]),
    ("abgroup.smith_normal_form", ["calls", "self_ms"]),
    ("seifert.SeifertSpec.validate", ["calls", "self_ms", "per_report"]),
    ("seifert.chern_class", ["calls", "self_ms"]),
    ("seifert.chern_mu", ["calls", "self_ms"]),
    ("seifert.SeifertSpec.from_json_dict", ["self_ms"]),
    ("cohomology.full_report", ["calls", "self_ms"]),
    ("cohomology.h1_order", ["calls", "self_ms"]),
    ("cohomology._rank_mod_p", ["calls", "self_ms"]),
    ("cohomology._F2Span.reduce", ["calls", "self_ms"]),
    ("cohomology.wu_invariant", ["calls", "self_ms"]),
    ("cohomology.h2_group", ["self_ms"]),
    ("sasakian.interval_density_check", ["calls", "self_ms"]),
    ("sasakian.quadratic_cover_search", ["calls", "self_ms"]),
    ("sasakian._divisors", ["calls", "self_ms", "distinct_ratio"]),
    ("sasakian._interpolate", ["calls", "integral_ratio"]),
    ("sasakian.Quadratic.contains", ["calls"]),
]


def _ratio(num: float, den: float) -> float:
    # A layer that never ran reports 0: the prediction is that it does not run.
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    self_ms = tr.self_ms()
    reports = tr.calls.get("cohomology.full_report", 0)
    out: dict[str, float] = {}
    for span, kinds in LAYER_METRICS:
        calls = tr.calls.get(span, 0)
        for kind in kinds:
            if kind == "calls":
                value = calls
            elif kind == "self_ms":
                value = self_ms.get(span, 0.0)
            elif kind == "yielded":
                value = tr.yielded.get(span, 0)
            elif kind == "distinct_ratio":
                value = _ratio(len(tr.args.get(span, ())), calls)
            elif kind == "per_report":
                value = _ratio(calls, reports)
            else:  # admitted_ratio, integral_ratio: useful outcomes per call
                value = _ratio(tr.useful.get(span, 0), calls)
            out[f"{span}.{kind}"] = value
    out["abgroup.AbelianGroup.constructed"] = tr.calls.get("abgroup.AbelianGroup.__post_init__", 0)
    return out


class _HashSink:
    """Stands in for stdout while the CLI runs in-process."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.lines = 0

    def write(self, text: str) -> int:
        self.digest.update(text.encode())
        self.lines += text.count("\n")
        return len(text)

    def flush(self) -> None:
        pass


def _enumerate_in_process(pkg) -> tuple[int, bool, int]:
    sink = _HashSink()
    argv = ["enumerate", "--max-torsion-order", str(workloads.ENUMERATE_MAX_ORDER),
            "--max-k", str(workloads.ENUMERATE_MAX_K)]
    t0 = perf_counter_ns()
    with contextlib.redirect_stdout(sink):
        rc = pkg.cli.main(argv)
    ns = perf_counter_ns() - t0
    ok = (rc == 0 and sink.lines == workloads.ENUMERATE_GOLDEN_LINES
          and sink.digest.hexdigest() == workloads.ENUMERATE_GOLDEN_SHA256)
    return ns, ok, sink.lines


def _bindings(pkg) -> dict:
    """Every attribute the tracer may patch, for the restore check."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == pkg.__name__ or name.startswith(pkg.__name__ + "."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        snap[(name, f"{attr}.{cattr}")] = cvalue
    return snap


def traced(pkg, workload: str, seed: int, spans_path: str) -> dict:
    """The first input block (one enumerate pass), run untraced, traced and
    untraced again: counts repeat exactly for a seed, and the traced time
    over the mean untraced time is the tracing overhead."""
    tr = Tracer()
    before = _bindings(pkg)
    if workload == "enumerate":
        def run_pass(wrap=None) -> tuple[int, int, str]:
            ns, ok, _ = wrap(_enumerate_in_process, pkg) if wrap else _enumerate_in_process(pkg)
            return ns, int(not ok), workloads.ENUMERATE_GOLDEN_SHA256 if ok else "mismatch"
        ops = workloads.ENUMERATE_GOLDEN_LINES
    else:
        raws = workloads.InputStream(workload, seed).block()
        plain = Library(pkg, workload)
        encode = functools.partial(tr.span, ENCODE, _encode_report)
        inputs = [(raw, plain.prepare(raw)) for raw in raws]

        def run_pass(wrap=None) -> tuple[int, int, str]:
            lib = Library(pkg, workload, encode=encode) if wrap else plain
            tally = Tally()
            for raw, prepared in inputs:
                _one(lib, raw, prepared, tally, wrap=wrap)
            return sum(tally.latencies), tally.failed, tally.digest.hexdigest()
        ops = len(inputs)

    plain_ns, failed, digest = run_pass()
    tr.install(pkg)
    try:
        traced_ns, traced_failed, traced_digest = run_pass(functools.partial(tr.span, "bench.op"))
    finally:
        tr.restore()
    again_ns, again_failed, _ = run_pass()
    restored = _bindings(pkg) == before
    failed += traced_failed + again_failed + (traced_digest != digest) + (not restored)
    metrics = layer_metrics(tr)
    metrics["trace.overhead_ratio"] = traced_ns / ((plain_ns + again_ns) / 2)
    tr.write(spans_path)
    return {"ops": ops, "failed": failed, "restored": restored, "spans": len(tr.start),
            "digest": digest, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    pkg = _load_package(args.root)
    if args.trace:
        result = traced(pkg, args.workload, args.seed, args.spans)
    else:
        result = timed(pkg, args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
