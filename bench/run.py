"""Benchmark entry point: one workload per call, or `--workload all`.

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of the traced run.  Earlier lines print
every metric with its unit and a stamp (Python, CPU count, git sha, seed,
workload parameters, percentile sample counts).  The exit code is 0 only
when every correctness gate passed; it is 2, with no result line, when the
checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import threading
from time import perf_counter_ns

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import stats  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("enumerate", "roundtrip", "verify-random", "sasaki")
SETUP_REPEATS = 21
IMPORT_REPEATS = 7
CHILD_TIMEOUT_S = 150


def child_timeout(seconds: float) -> float:
    """Kill timer for a child that measures for `seconds`, with room for
    its input generation and checks."""
    return max(CHILD_TIMEOUT_S, 3 * seconds + 60)


class Child:
    """A child process whose stdout is read as it arrives and whose peak
    RSS is taken from its own rusage when it is reaped."""

    def __init__(self, argv: list[str], env: dict, cwd: str, timeout: float):
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=cwd)
        self._timer = threading.Timer(timeout, self.proc.kill)
        self._timer.start()
        self.maxrss_kb = 0

    def lines(self):
        yield from self.proc.stdout

    def finish(self) -> int:
        """Drain stdout, reap the child and return its exit code."""
        try:
            self.proc.stdout.read()
            self.proc.stdout.close()
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.maxrss_kb = usage.ru_maxrss
        finally:
            self._timer.cancel()
            if self.proc.returncode is None:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


class Bench:
    def __init__(self, root: str):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONUNBUFFERED="1")
        self.cli = [sys.executable, "-m", "seifert5"]

    # -- end to end ------------------------------------------------------------

    def setup_s(self) -> tuple[float, bool]:
        """Median wall time of a cold `seifert5 local` call; the first call
        (which may compile bytecode into the checkout) is not counted."""
        times, ok = [], True
        for attempt in range(SETUP_REPEATS + 1):
            t0 = perf_counter_ns()
            done = subprocess.run(self.cli + workloads.SETUP_ARGV, env=self.env, cwd=self.root,
                                  capture_output=True, timeout=CHILD_TIMEOUT_S)
            elapsed = (perf_counter_ns() - t0) / 1e9
            ok = ok and done.returncode == 0 and json.loads(done.stdout) == workloads.SETUP_EXPECTED
            if attempt:
                times.append(elapsed)
        return stats.median(times), ok

    def enumerate_timed(self, seconds: float) -> dict:
        """Whole `seifert5 enumerate` passes until `seconds` have passed; one
        operation is one streamed class, its latency the gap since the
        previous line (or since the start, for the first), and one pass is
        one segment."""
        argv = self.cli + ["enumerate", "--max-torsion-order", str(workloads.ENUMERATE_MAX_ORDER),
                           "--max-k", str(workloads.ENUMERATE_MAX_K)]
        segments, rss, failed, busy, lines = [], [], 0, 0, 0
        while busy < seconds * 1e9:
            digest = hashlib.sha256()
            gaps = []
            t0 = last = perf_counter_ns()
            child = Child(argv, self.env, self.root, child_timeout(seconds))
            try:
                for line in child.lines():
                    now = perf_counter_ns()
                    gaps.append(now - last)
                    last = now
                    digest.update(line)
            finally:
                rc = child.finish()
            busy += perf_counter_ns() - t0
            lines += len(gaps)
            rss.append(child.maxrss_kb)
            if (rc != 0 or len(gaps) != workloads.ENUMERATE_GOLDEN_LINES
                    or digest.hexdigest() != workloads.ENUMERATE_GOLDEN_SHA256):
                failed += max(len(gaps), 1)
            if gaps:
                segments.append(stats.segment(gaps))
        if not segments:
            raise RuntimeError("enumerate printed nothing")
        return {"ops": lines, "failed": failed, "undecided": 0, "busy_s": busy / 1e9,
                "digest": workloads.ENUMERATE_GOLDEN_SHA256 if not failed else "mismatch",
                "peak_rss_kb": stats.median(rss), **stats.summarize(segments)}

    def worker(self, workload: str, seed: int, seconds: float, trace: int) -> dict:
        out_dir = os.path.join(self.root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        argv = [sys.executable, os.path.join(BENCH, "worker.py"), "--root", self.root,
                "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace),
                "--spans", os.path.join(out_dir, f"spans-{workload}-{seed}.csv")]
        child = Child(argv, self.env, self.root, child_timeout(seconds))
        try:
            output = b"".join(child.lines())
        finally:
            rc = child.finish()
        if rc != 0:
            raise RuntimeError(f"{workload} worker exited with {rc}")
        result = json.loads(output)
        result["peak_rss_kb"] = child.maxrss_kb
        return result

    def end_to_end(self, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
        setup, setup_ok = self.setup_s()
        if workload == "enumerate":
            r = self.enumerate_timed(seconds)
        else:
            r = self.worker(workload, seed, seconds, 0)
        if not setup_ok:
            r["failed"] += 1
        metrics = {
            "setup_s": (setup, "s"),
            "ops_per_s": (r["ops_per_s"], "1/s"),
            "latency_p50_ms": (r["latency_p50_ms"], "ms"),
            "latency_tail_ms": (r["latency_tail_ms"], "ms"),
            "peak_rss_mb": (r["peak_rss_kb"] / 1024, "MB"),
        }
        extra = {
            "error_ratio": r["failed"] / r["ops"],
            "undecided_ratio": r["undecided"] / r["ops"],
            "samples": r["ops"],
            "segments": r["segments"],
            "segment_samples": r["segment_samples"],
            "tail_percentile": r["tail_percentile"],
            "tail_samples_beyond": r["tail_samples_beyond"],
            "setup_samples": SETUP_REPEATS,
            "busy_s": r["busy_s"],
            "output_digest": r["digest"],
        }
        return {"metrics": metrics, "ops": r["ops"], "failed": r["failed"]}, extra

    # -- per layer -------------------------------------------------------------

    def import_ms(self) -> float:
        """Median cumulative `-X importtime` of seifert5 and seifert5.cli."""
        times = []
        for _ in range(IMPORT_REPEATS):
            done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import seifert5.cli"],
                                  env=self.env, cwd=self.root, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=True)
            total = 0
            for line in done.stderr.splitlines():
                m = re.match(r"import time:\s*\d+ \|\s*(\d+) \| (seifert5\S*)$", line)
                if m:
                    total += int(m.group(1))
            times.append(total / 1000)
        return stats.median(times)

    def per_layer(self, workload: str, seed: int) -> tuple[dict, dict]:
        r = self.worker(workload, seed, 0, 1)
        metrics = {name: (value, _unit(name)) for name, value in r["metrics"].items()}
        metrics["cli.import_ms"] = (self.import_ms(), "ms")
        extra = {"spans": r["spans"], "wrappers_restored": r["restored"],
                 "output_digest": r["digest"], "samples": r["ops"]}
        return {"metrics": metrics, "ops": r["ops"], "failed": r["failed"]}, extra


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _git_sha(root: str):
    """HEAD of the checkout, or None where it is not a git repository (the
    ceiling keeps git from answering for a repository above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_sha256(root: str) -> str:
    src = os.path.join(root, "src", "seifert5")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _params(workload: str) -> dict:
    if workload == "enumerate":
        return {"max_torsion_order": workloads.ENUMERATE_MAX_ORDER,
                "max_k": workloads.ENUMERATE_MAX_K, "seed_used": False}
    params = {"block": workloads.BLOCK[workload], "loop": "closed, one caller"}
    if workload == "roundtrip":
        params.update(primes_max=13, exponent_max=3, k_max=4, count_max=8, i=[0, 1, "inf"])
    elif workload == "verify-random":
        params.update(charts="1-5", per_chart="0-3", prime_max=workloads.VERIFY_PRIME_LIMIT,
                      exponent_max=2)
    else:
        params.update(kinds=list(workloads.SASAKI_KINDS),
                      planted_exception_max=workloads.PLANTED_EXCEPTION_LIMIT,
                      random_value_max=workloads.RANDOM_SET_LIMIT)
    return params


def run_one(bench: Bench, workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        result, extra = bench.per_layer(workload, seed)
    else:
        result, extra = bench.end_to_end(workload, seed, seconds)
    for name, (value, unit) in result["metrics"].items():
        print(f"{workload} {name} {value} {unit}")
    if not trace:
        print(f"{workload} error_ratio {extra['error_ratio']} ratio")
        print(f"{workload} undecided_ratio {extra['undecided_ratio']} ratio")
    stamp = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": _git_sha(bench.root), "src_sha256": _src_sha256(bench.root),
        "params": _params(workload), **extra,
    }
    print("stamp " + json.dumps(stamp))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "seifert5", "__init__.py")):
        print(f"error: no src/seifert5 under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    bench = Bench(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_one(bench, name, args.seed, args.seconds, args.trace) for name in names}
    attempted = sum(r["ops"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
