"""Seeded input generators and independent output checks for the benchmark.

Nothing here imports seifert5: inputs are plain JSON-shaped data, and every
check recomputes what it needs with the benchmark's own integer arithmetic,
so a defect in the library cannot hide behind the code that judges it.

Inputs are drawn in fixed-size blocks.  Within a block the kinds, sizes and
log-uniform magnitudes are stratified (each stratum used exactly once, in a
seeded order), so two seeds give different inputs with the same mix; that
keeps a run's throughput a property of the program rather than of the seed.
"""

from __future__ import annotations

import json
import math
import random

ENUMERATE_MAX_ORDER = 4096
ENUMERATE_MAX_K = 2
# sha256 of `seifert5 enumerate --max-torsion-order 4096 --max-k 2` stdout,
# recorded at the benchmark's first commit (886 lines).
ENUMERATE_GOLDEN_SHA256 = "527f05e2f633ff1bda068f4e8ba9300f619f38c126bf1911874112889104a80a"
ENUMERATE_GOLDEN_LINES = 886

SETUP_ARGV = ["local", "--m", "12", "--exponents", "3,4"]
SETUP_EXPECTED = {"m": 12, "exponents": [3, 4], "c": [4, 3], "d": [1, 1], "C": 12,
                  "manifold_point": True}

# Inputs per block.  A block is also one measured segment: about a second of
# work, with enough operations for a tail percentile ten samples deep.
BLOCK = {"roundtrip": 2000, "verify-random": 200, "sasaki": 60}

ROUNDTRIP_POWERS = [(p, e) for p in (2, 3, 5, 7, 11, 13) for e in (1, 2, 3)]
VERIFY_PRIME_LIMIT = 10 ** 5
PLANTED_EXCEPTION_LIMIT = 10 ** 8
RANDOM_SET_LIMIT = 10 ** 9
SASAKI_KINDS = ("planted", "random", "dense")
MAX_EXCEPTIONS = 10


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _factor(n: int) -> dict[int, int]:
    r = math.isqrt(n)
    if r > 1 and r * r == n:
        return {p: 2 * e for p, e in _factor(r).items()}
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _strata(rng: random.Random, n: int) -> list[float]:
    """n draws from [0, 1), one in each of n equal strata, in seeded order."""
    order = list(range(n))
    rng.shuffle(order)
    return [(j + rng.random()) / n for j in order]


def _log_uniform(u: float, lo: int, hi: int) -> int:
    return int(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


class InputStream:
    """Endless seeded input stream for one workload, produced in blocks."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self._make = {
            "roundtrip": _roundtrip_block,
            "verify-random": _verify_block,
            "sasaki": _sasaki_block,
        }[workload]

    def block(self) -> list[dict]:
        return self._make(self.rng)


# ---------------------------------------------------------------------------
# roundtrip: admissible classes drawn as in acceptance criterion 2


def admissible(k: int, counts: dict[tuple[int, int], int], i) -> bool:
    """The benchmark's own statement of the circle-action gate."""
    if i == "inf":
        if k < 1:
            return False
    elif i == 1:
        if counts.get((2, 1), 0) == 0:
            return False
    elif i != 0:
        return False
    if any(c % 2 for c in counts.values()):
        others_even = all(c % 2 == 0 for key, c in counts.items() if key != (2, 1))
        if not (counts.get((2, 1), 0) % 2 == 1 and others_even and i == 1):
            return False
    for p in {p for p, _ in counts}:
        if len([e for q, e in counts if q == p]) > k + 1:
            return False
    if i == "inf" and len([e for q, e in counts if q == 2]) > k:
        return False
    return True


def _class_json(k: int, counts: dict[tuple[int, int], int], i) -> dict:
    torsion = [{"p": p, "e": e, "count": c} for (p, e), c in sorted(counts.items())]
    return {"free_rank": k, "torsion": torsion, "i": i}


def _roundtrip_block(rng: random.Random) -> list[dict]:
    out: list[dict] = []
    while len(out) < BLOCK["roundtrip"]:
        k = rng.randint(0, 4)
        counts = {key: rng.randint(1, 8) for key in rng.sample(ROUNDTRIP_POWERS, k=rng.randint(0, 4))}
        for i in (0, 1, "inf"):
            if admissible(k, counts, i):
                out.append(_class_json(k, counts, i))
    return out[:BLOCK["roundtrip"]]


def expected_roundtrip(cls: dict) -> dict:
    """Fields a correct report of build(cls) must carry."""
    torsion = [t for t in cls["torsion"] if t["count"]]
    return {
        "h1_order": 1,
        "h2": {"free_rank": cls["free_rank"], "torsion": torsion},
        "h3_torsion": {"free_rank": 0, "torsion": torsion},
        "wu": cls["i"],
        "simply_connected": True,
    }


def check_roundtrip(cls: dict, encoded: str) -> bool:
    report = json.loads(encoded)
    want = expected_roundtrip(cls)
    return all(report.get(key) == value for key, value in want.items())


# ---------------------------------------------------------------------------
# verify-random: hand-written generator-class specs with large moduli


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _verify_block(rng: random.Random) -> list[dict]:
    charts = [1 + j % 5 for j in range(BLOCK["verify-random"])]
    rng.shuffle(charts)
    slots = sum(charts)
    per_chart = [j % 4 for j in range(slots)]
    rng.shuffle(per_chart)
    # One magnitude stratum per divisor; neighbouring strata alternate the
    # exponent, so every block holds the same spread of moduli.
    draws = sum(per_chart)
    magnitudes = iter(_strata(rng, draws))
    per_chart_iter = iter(per_chart)
    specs = []
    for n_charts in charts:
        divisors = []
        for chart in range(n_charts):
            used: set[int] = set()
            for _ in range(next(per_chart_iter)):
                u = next(magnitudes)
                p = _next_prime(_log_uniform(u, 2, VERIFY_PRIME_LIMIT))
                if p in used:
                    continue
                used.add(p)
                m = p ** (1 + int(u * draws) % 2)
                b = rng.randrange(1, m)
                while math.gcd(b, m) != 1:
                    b = rng.randrange(1, m)
                surface = {"orientable": True, "genus": rng.randint(0, 2)}
                divisors.append({"chart": chart, "surface": surface, "m": m, "b": b})
            if 2 not in used and rng.random() < 0.15:
                surface = {"orientable": False, "b1": rng.randint(1, 3)}
                divisors.append({"chart": chart, "surface": surface, "m": 2, "b": 1})
        twist = [rng.randint(-2, 2) for _ in range(n_charts)]
        specs.append({"charts": n_charts, "divisors": divisors, "twist": twist})
    return specs


def expected_verify(spec: dict) -> dict:
    """|H_1|, H_2 and the nonorientable Wu answer, recomputed independently.

    c1(L/mu) in chart coordinates is m(X) * (twist + sum b/m [D]); its gcd
    is |H_1| because generator-class restriction maps are surjective.
    """
    ms = [d["m"] for d in spec["divisors"]]
    m_x = math.lcm(*ms) if ms else 1
    c1_mu = [m_x * h for h in spec["twist"]]
    for d in spec["divisors"]:
        c1_mu[d["chart"]] += d["b"] * (m_x // d["m"])
    h1 = math.gcd(*c1_mu)
    out: dict = {"h1_order": h1, "c1_mu": c1_mu, "simply_connected": h1 == 1}
    if h1 != 1:
        out.update(h2=None, h3_torsion=None, wu="indeterminate")
        return out
    counts: dict[tuple[int, int], int] = {}
    for d in spec["divisors"]:
        surf = d["surface"]
        beta = 2 * surf["genus"] if surf["orientable"] else surf["b1"]
        if beta:
            for p, e in _factor(d["m"]).items():
                counts[(p, e)] = counts.get((p, e), 0) + beta
    torsion = [{"p": p, "e": e, "count": c} for (p, e), c in sorted(counts.items())]
    out["h2"] = {"free_rank": spec["charts"] - 1, "torsion": torsion}
    out["h3_torsion"] = {"free_rank": 0, "torsion": torsion}
    if any(not d["surface"]["orientable"] for d in spec["divisors"]):
        out["wu"] = 1
    return out


def check_verify(spec: dict, encoded: str) -> bool:
    report = json.loads(encoded)
    want = expected_verify(spec)
    if any(report.get(key) != value for key, value in want.items()):
        return False
    # Every simply connected spec drawn here has a decidable Wu class, so an
    # undecided answer on one is a failure, not a pass.
    return want["h1_order"] != 1 or report["wu"] in (0, 1, "inf")


# ---------------------------------------------------------------------------
# sasaki: planted families, random sets, dense sets


def _planted(rng: random.Random, u: float) -> list[int]:
    a = rng.randint(1, 3)
    b = rng.randint(-2 * a, 6)
    c = rng.randint(a + 1, 60)  # q(1) = a + b + c >= 1, and q increases from t = 1
    n = rng.randint(10, 20)
    values = {(a * t + b) * t + c for t in range(1, n + 1)}
    n_exc = int(u * (MAX_EXCEPTIONS + 1))
    for _ in range(n_exc):
        values.add(_log_uniform(rng.random(), 2, PLANTED_EXCEPTION_LIMIT))
    return sorted(values)


def _random_set(rng: random.Random, u: float) -> list[int]:
    size = 8 + int(u * 17)
    return sorted({_log_uniform(v, 2, RANDOM_SET_LIMIT) for v in _strata(rng, size)})


def _dense(rng: random.Random, u: float) -> list[int]:
    n = 30 + int(u * 51)
    span = (n - 12) ** 2 // 5
    lo = _log_uniform(rng.random(), 1, PLANTED_EXCEPTION_LIMIT)
    return sorted(rng.sample(range(lo, lo + span + 1), n))


def _sasaki_block(rng: random.Random) -> list[dict]:
    per_kind = BLOCK["sasaki"] // len(SASAKI_KINDS)
    sizes = {kind: _strata(rng, per_kind) for kind in SASAKI_KINDS}
    make = {"planted": _planted, "random": _random_set, "dense": _dense}
    kinds = [kind for kind in SASAKI_KINDS for _ in range(per_kind)]
    rng.shuffle(kinds)
    return [{"kind": kind, "values": make[kind](rng, sizes[kind].pop())} for kind in kinds]


def _in_image(a: int, b: int, c: int, v: int) -> bool:
    """Is v = a t^2 + b t + c for an integer t?  Evaluates q at the integers
    around the real roots instead of testing divisibility."""
    disc = b * b - 4 * a * (c - v)
    if disc < 0:
        return False
    r = math.isqrt(disc)
    for root in (r, -r):
        t0 = (-b + root) // (2 * a)
        for t in (t0 - 1, t0, t0 + 1):
            if (a * t + b) * t + c == v:
                return True
    return False


def check_sasaki(item: dict, encoded: str) -> bool:
    values = sorted(set(item["values"]))
    if encoded == "inconclusive":
        # The candidate cap is far above what profiles of these sizes need,
        # so hitting it is a failure, not a pass.
        return False
    report = json.loads(encoded)
    if item["kind"] == "dense":
        v = report["densest_violation"]
        if report["feasible"] or v is None:
            return False
        inside = [x for x in values if v["lo"] <= x <= v["hi"]]
        return (len(inside) == v["count"] and v["count"] > 12
                and (v["count"] - 12) ** 2 > 4 * (v["hi"] - v["lo"]))
    if report["densest_violation"] is not None:
        return False
    if item["kind"] == "planted" and not report["feasible"]:
        return False
    if not report["feasible"]:
        return report["search_complete"]
    w = report["witness"]
    if w["a"] < 1:
        return False
    missed = [x for x in values if not _in_image(w["a"], w["b"], w["c"], x)]
    return missed == report["exceptions"] and len(missed) <= MAX_EXCEPTIONS
