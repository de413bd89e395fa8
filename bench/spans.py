"""Span tracer that wraps seifert5 functions from outside the package.

Each wrapped function records one span per call (per resume, for
generators): name, start, end and the enclosing span.  Spans live in flat
arrays while the run lasts and are written out once at the end.  A
function is patched at every module binding that holds it, so names copied
by `from .abgroup import factorize` are traced too, and `restore()` puts
every original object back.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("cli", "construct", "classify", "abgroup", "seifert", "cohomology", "sasakian")

# Traced besides each layer's public functions: the three private kernels,
# the methods the per-layer metrics name, and the encode step.
EXTRA = {
    "construct": ["_torsion_profiles"],
    "cohomology": ["_rank_mod_p", "_F2Span.reduce"],
    "sasakian": ["_divisors", "_interpolate", "Quadratic.contains"],
    "seifert": ["SeifertSpec.validate", "SeifertSpec.from_json_dict"],
    "abgroup": ["AbelianGroup.__post_init__"],
}
# Called millions of times in the cover search or once per group; only
# counted (no span, no clock read), which keeps the trace small.
COUNT_ONLY = {"abgroup.AbelianGroup.__post_init__", "sasakian.Quadratic.contains",
              "sasakian._interpolate"}
# Distinct-argument ratios are kept for these single-argument kernels.
DISTINCT = {"abgroup.factorize", "sasakian._divisors"}
# Useful outcomes counted against calls, for the waste ratios.
OUTCOME = {
    "classify.circle_action_admissible": lambda verdict: verdict.admissible,
    "sasakian._interpolate": lambda quadratic: quadratic is not None,
}
ENCODE = "cli.encode"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.yielded: dict[str, int] = {}
        self.useful: dict[str, int] = {}
        self.args: dict[str, set] = {name: set() for name in DISTINCT}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.yielded[name] = 0
            self.useful[name] = 0
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def span(self, name: str, fn, *args):
        """Run fn(*args) inside a span of the given name."""
        nid = self._id(name)
        self.calls[name] += 1
        idx = self._open(nid)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self._id(name)
        calls, useful = self.calls, self.useful
        outcome = OUTCOME.get(name)
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                if outcome is not None and outcome(result):
                    useful[name] += 1
                return result
            return counted
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, nid, fn)
        seen = self.args.get(name)

        def traced(*args, **kwargs):
            calls[name] += 1
            if seen is not None:
                seen.add(args[0])
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if outcome is not None and outcome(result):
                useful[name] += 1
            return result
        return traced

    def _wrap_generator(self, name: str, nid: int, fn):
        calls, yielded = self.calls, self.yielded

        def traced(*args, **kwargs):
            calls[name] += 1
            inner = fn(*args, **kwargs)

            def resumes():
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yielded[name] += 1
                    yield item
            return resumes()
        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap every target of every layer module of `package`."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            names = [n for n in public
                     if inspect.isfunction(getattr(mod, n, None))
                     and getattr(mod, n).__module__ == mod.__name__]
            for qual in names + EXTRA.get(layer, []):
                owner_name, _, attr = qual.rpartition(".")
                name = f"{layer}.{qual}"
                if owner_name:
                    owner = getattr(mod, owner_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        self._set(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        self._set(owner, attr, self.wrap(name, raw))
                    continue
                original = getattr(mod, attr)
                wrapper = self.wrap(name, original)
                for m in modules:
                    for binding, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, binding, wrapper)
        self._wrap_cli_encoder(sys.modules[f"{package.__name__}.cli"])

    def _wrap_cli_encoder(self, cli) -> None:
        """The CLI encodes through its module-level `json`; give it a copy
        whose `dumps` is traced as the encode span."""
        real = cli.json
        dumps = real.dumps

        class TracedJson:
            def __getattr__(self, attr):
                return getattr(real, attr)

        proxy = TracedJson()
        proxy.dumps = lambda *a, **kw: self.span(ENCODE, lambda: dumps(*a, **kw))
        self._set(cli, "json", proxy)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Span time minus the time of direct child spans, summed per name."""
        n = len(self.start)
        child = [0] * n
        totals = [0] * len(self.names)
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        for idx in range(n - 1, -1, -1):
            dur = end[idx] - start[idx]
            p = parent[idx]
            if p >= 0:
                child[p] += dur
            totals[name_of[idx]] += dur - child[idx]
        return {name: totals[i] / 1e6 for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Span table: a JSON list of span names, then one
        `name_index,start_ns,end_ns,parent_row` row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.names) + "\n")
            for row in zip(self.name_of, self.start, self.end, self.parent):
                fh.write("%d,%d,%d,%d\n" % row)
