"""Run every workload over several seeds and summarize the spread.

    python3 bench/record.py --seeds 10 --out bench/baselines/BENCH_1.json

Each run measures for BENCHMARK.json's run_seconds.  Seeds are the outer loop, so slow spells on the machine fall on every
workload alike.  For each end-to-end metric the file records the median,
the quartiles (statistics.quantiles, n=4), their distance as a share of the
median, and the number of runs; with --trace it adds one traced run per
workload.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import workloads  # noqa: E402
from run import WORKLOADS, _git_sha  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    stamp = next(json.loads(line[6:]) for line in lines if line.startswith("stamp "))
    return {"result": json.loads(lines[-1]), "stamp": stamp}


ROUNDTRIP_PROBE = """
import statistics, time
from seifert5.construct import enumerate_admissible, verify_roundtrip
classes = [cls for cls, _ in enumerate_admissible(1024, 2)]
per_class = []
for _ in range(5):
    t0 = time.perf_counter()
    for cls in classes:
        verify_roundtrip(cls)
    per_class.append((time.perf_counter() - t0) / len(classes))
print(len(classes), statistics.median(per_class))
"""


def _wall(argv: list[str], env: dict, stdin: str = "") -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, input=stdin, env=env, capture_output=True, text=True, check=True,
                   timeout=120)
    return time.perf_counter() - t0


def probes() -> dict:
    """The ROADMAP's reference timings, measured the same way here."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    cls = '{"free_rank": 0, "torsion": [{"p": 5, "e": 1, "count": 4}]}'
    construct = [sys.executable, "-m", "seifert5", "construct", "--target-i", "0", "--verify"]
    _wall(construct, env, cls)
    out = subprocess.run([sys.executable, "-c", ROUNDTRIP_PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=300).stdout.split()
    return {
        "bare_interpreter_s": statistics.median(_wall([sys.executable, "-c", "pass"], env)
                                                for _ in range(7)),
        "construct_verify_s": statistics.median(_wall(construct, env, cls) for _ in range(7)),
        "verify_roundtrip_us_per_class": float(out[1]) * 1e6,
        "verify_roundtrip_classes": int(out[0]),
    }


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_ratio": (q3 - q1) / statistics.median(values), "repeats": len(values),
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    names = WORKLOADS
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            runs[w].append(run(w, seed, seconds, 0))
            print(f"{w} seed {seed} done", file=sys.stderr)
    out = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": _git_sha(os.getcwd()), "seconds": seconds, "seeds": list(seeds),
        "workloads": {},
    }
    for w in names:
        metrics = {}
        for name in runs[w][0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs[w]]
            metrics[name] = {"unit": runs[w][0]["result"]["metrics"][name]["unit"], **spread(values)}
        entry = {
            "metrics": metrics,
            "correct": all(r["result"]["correct"] for r in runs[w]),
            "stamp": runs[w][0]["stamp"],
        }
        if args.trace:
            traced = run(w, args.first_seed, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
            entry["trace_stamp"] = traced["stamp"]
        out["workloads"][w] = entry
    rate = out["workloads"]["enumerate"]["metrics"]["ops_per_s"]["median"]
    out["probes"] = {"enumerate_4096_2_pass_s": workloads.ENUMERATE_GOLDEN_LINES / rate,
                     **probes()}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for w in names:
        for name, m in out["workloads"][w]["metrics"].items():
            print(f"{w:14s} {name:16s} median {m['median']:.6g} {m['unit']:5s} "
                  f"iqr/median {m['iqr_ratio']:.4f}")
    return 0 if all(e["correct"] for e in out["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
