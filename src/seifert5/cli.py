"""Command-line surface: JSON in, JSON (or text) out, deterministic exit codes.

Exit codes: 0 for an affirmative verdict (realizable, admissible, verified,
feasible), 1 for a negative verdict, 2 for input or internal errors, 3 when
the Sasaki cover search was inconclusive.  Output is a single JSON document
on stdout (JSON lines for `enumerate`); diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from .abgroup import _MR_LIMIT, AbelianGroup
from .classify import (
    FiveManifoldClass,
    circle_action_admissible,
    decode_i,
    encode_i,
    smale_barden_realizable,
    validate_i,
)
from .cohomology import Indeterminate, compare, full_report
from .construct import GateRejection, _checked_report, build, enumerate_admissible
from .orbit_local import StabilizerRep, local_invariants
from .sasakian import (
    DEFAULT_CANDIDATE_CAP,
    MAX_EXCEPTIONAL_VALUES,
    InconclusiveSearch,
    sasaki_check,
)
from .seifert import SeifertSpec

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_UNDECIDED = 3

# The density check tests every pair of values, so `sasaki` takes at most
# this many (with duplicates), from --values or from a group's torsion.
MAX_SASAKI_VALUES = 1000
# `build` emits free_rank + 1 charts, so `construct` refuses a larger rank.
MAX_CONSTRUCT_RANK = 10**6
# Longer integers are refused, at CPython's default limit on int() of a
# string (sys.int_info.default_max_str_digits).
MAX_DIGITS = 4300


def _read_input(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_json(text: str):
    try:
        return json.loads(text, parse_int=lambda digits: _decimal(digits, "JSON integer"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ValueError("malformed JSON: nested too deeply")


def _emit(document: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(document, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_classify(args) -> int:
    cls = FiveManifoldClass.from_json_dict(_parse_json(_read_input(args.input)))
    valid = validate_i(cls.h2, cls.i)
    realizable = valid and smale_barden_realizable(cls)
    doc = {
        "h2": cls.h2.to_json_dict(),
        "i": encode_i(cls.i),
        "valid_i": valid,
        "realizable": realizable,
    }
    _emit(doc, args.format, [f"{cls.h2} with i = {encode_i(cls.i)}: "
                             + ("realizable" if realizable else "not realizable")])
    return EXIT_YES if realizable else EXIT_NO


def _cmd_gate(args) -> int:
    cls = FiveManifoldClass.from_json_dict(_parse_json(_read_input(args.input)))
    verdict = circle_action_admissible(cls)
    _emit(verdict.to_json_dict(), args.format, [str(verdict)])
    return EXIT_YES if verdict.admissible else EXIT_NO


def _group_of(data) -> AbelianGroup:
    """The group of a class document; its `i` field is ignored."""
    if not isinstance(data, dict):
        raise ValueError("class must be a JSON object")
    return AbelianGroup.from_json_dict({k: v for k, v in data.items() if k != "i"})


def _cmd_construct(args) -> int:
    data = _parse_json(_read_input(args.input))
    if args.target_i is not None:
        i = decode_i(args.target_i if args.target_i == "inf"
                     else _decimal(args.target_i, "--target-i"))
        cls = FiveManifoldClass(_group_of(data), i)
    else:
        cls = FiveManifoldClass.from_json_dict(data)
    if cls.k > MAX_CONSTRUCT_RANK:
        raise ValueError(f"construct takes free_rank at most {MAX_CONSTRUCT_RANK:,}, "
                         f"got {cls.k:,}")
    try:
        spec = build(cls)
    except GateRejection as exc:
        _emit(exc.verdict.to_json_dict(), args.format, [str(exc.verdict)])
        return EXIT_NO
    doc = spec.to_json_dict()
    lines = [json.dumps(doc, indent=2)]
    if args.verify:
        report = _checked_report(spec, cls)
        doc = {"spec": doc, "report": report.to_json_dict()}
        lines.append(_report_text(report))
    _emit(doc, args.format, lines)
    return EXIT_YES


def _report_text(report) -> str:
    lines = [f"|H1| = {report.h1_order!r}"]
    lines.append(f"H2 = {report.h2}" if report.h2 is not None else "H2 = (undetermined)")
    h3 = report.h3_tors
    lines.append(f"H3 torsion = {h3}" if h3 is not None else "H3 torsion = (undetermined)")
    lines.append("c1 = (" + ", ".join(str(c) for c in report.c1) + ")")
    lines.append("c1(L/mu) = " + str(list(report.c1_mu)))
    wu = "indeterminate" if isinstance(report.wu, Indeterminate) else str(encode_i(report.wu))
    lines.append(f"wu = {wu}")
    lines.append(f"simply connected: {report.simply_connected}")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    spec = SeifertSpec.from_json_dict(_parse_json(_read_input(args.input)))
    report = full_report(spec)
    doc = report.to_json_dict()
    if args.expect is None:
        _emit(doc, args.format, [_report_text(report)])
        return EXIT_YES

    expected = FiveManifoldClass.from_json_dict(_parse_json(_read_input(args.expect)))
    diffs = compare(report, expected)
    entries = [d.to_json_dict() for d in diffs]
    doc = {"report": doc, "match": not diffs, "diffs": entries}
    lines = [_report_text(report), "match" if not diffs else "MISMATCH:"]
    for d in entries:
        lines.append(f"  {d['field']}: expected {d['expected']}, got {d['actual']}")
    _emit(doc, args.format, lines)
    return EXIT_NO if diffs else EXIT_YES


def _cmd_local(args) -> int:
    m = _decimal(args.m, "--m", below=_MR_LIMIT)
    exponents = tuple(_decimal(x, "--exponents item") for x in args.exponents.split(","))
    rep = StabilizerRep(m, exponents)
    inv = local_invariants(rep)
    doc = {
        "m": rep.m,
        "exponents": list(rep.exponents),
        "c": list(inv.c),
        "d": list(inv.d),
        "C": inv.C,
        "manifold_point": inv.manifold_point,
    }
    _emit(doc, args.format, [
        f"c = {list(inv.c)}, d = {list(inv.d)}, C = {inv.C}, "
        + ("manifold point" if inv.manifold_point else "orbifold point"),
    ])
    return EXIT_YES


def _decimal(text: str, what: str, below: Optional[int] = None) -> int:
    # int() would also take "1_000", "+5", " 5" and non-ASCII digits.
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise ValueError(f"{what} {text!r} is not an integer "
                         "(ASCII digits, optional leading '-')")
    # Bounds are decided on the digit count first, so int() never meets
    # more digits than a bound has.
    negative = text[0] == "-"
    digits = text.lstrip("-").lstrip("0") or "0"
    if below is not None and not negative and (
        len(digits) > len(str(below)) or int(digits) >= below
    ):
        raise ValueError(f"{what} must be below {below:,}")
    if len(digits) > MAX_DIGITS:
        raise ValueError(f"{what} has more than {MAX_DIGITS:,} digits")
    return -int(digits) if negative else int(digits)


def _cmd_sasaki(args) -> int:
    max_exceptions = _decimal(args.max_exceptions, "--max-exceptions")
    max_candidates = _decimal(args.max_candidates, "--max-candidates")
    if args.values is not None:
        values = [_decimal(x, "--values item") for x in args.values.split(",")]
    else:
        group = _group_of(_parse_json(_read_input(args.input)))
        if group.free_rank != 0:
            raise ValueError("sasaki check applies to rational homology spheres (free_rank 0)")
        values = [c for _, _, c in group.torsion]
    if len(values) > MAX_SASAKI_VALUES:
        raise ValueError(f"sasaki takes at most {MAX_SASAKI_VALUES:,} values, got {len(values):,}")
    try:
        report = sasaki_check(values, max_exceptions=max_exceptions,
                              max_candidates=max_candidates)
    except InconclusiveSearch as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        _emit({"feasible": None, "inconclusive": True}, args.format, ["inconclusive"])
        return EXIT_UNDECIDED
    doc = report.to_json_dict()
    if report.feasible:
        lines = [f"no obstruction found; witness {report.witness}, "
                 f"{len(report.exceptions)} exception(s)"]
    elif report.densest_violation is not None:
        v = report.densest_violation
        lines = [f"infeasible: {v.count} values in [{v.lo}, {v.hi}] exceed {v.bound:.2f}"]
    else:
        lines = ["infeasible: exhaustive search found no covering quadratic"]
    _emit(doc, args.format, lines)
    return EXIT_YES if report.feasible else EXIT_NO


def _cmd_enumerate(args) -> int:
    max_torsion_order = _decimal(args.max_torsion_order, "--max-torsion-order")
    # One write per line: on an unbuffered stdout, print makes two (the line, then "\n").
    write = sys.stdout.write
    for cls, spec in enumerate_admissible(max_torsion_order, _decimal(args.max_k, "--max-k")):
        if args.format == "json":
            line = {"class": cls.to_json_dict(), "spec": spec.to_json_dict()}
            write(json.dumps(line, separators=(",", ":")) + "\n")
        else:
            write(f"k={cls.k} H2={cls.h2} i={encode_i(cls.i)} "
                  f"divisors={len(spec.divisors)} twist={list(spec.twist)}\n")
    return EXIT_YES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seifert5",
        description="Circle actions on simply connected 5-manifolds: "
        "classify, construct and verify Seifert presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        p.add_argument("--format", choices=("json", "text"), default="json")
        if with_input:
            p.add_argument("input", nargs="?", default=None,
                           help="input file (default: stdin)")

    p = sub.add_parser("classify", help="decide realizability of an (H2, i) class")
    add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("gate", help="decide circle-action admissibility")
    add_common(p)
    p.set_defaults(func=_cmd_gate)

    p = sub.add_parser("construct", help="build a Seifert presentation for an admissible class")
    p.add_argument("--target-i", default=None, help="0, a natural number, or 'inf'")
    p.add_argument("--verify", action="store_true", help="run the round-trip verification")
    add_common(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="recompute invariants from a Seifert presentation")
    p.add_argument("--expect", default=None, metavar="CLASS_JSON",
                   help="file with the expected (H2, i); exit 1 on mismatch")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("local", help="local invariants of a stabilizer representation")
    p.add_argument("--m", required=True)
    p.add_argument("--exponents", required=True, help="comma-separated, e.g. 3,4")
    add_common(p, with_input=False)
    p.set_defaults(func=_cmd_local)

    p = sub.add_parser("sasaki", help="necessary conditions for algebraic realization")
    p.add_argument("--values", default=None, help="comma-separated torsion counts")
    p.add_argument("--max-exceptions", default=str(MAX_EXCEPTIONAL_VALUES))
    p.add_argument("--max-candidates", default=str(DEFAULT_CANDIDATE_CAP))
    add_common(p)
    p.set_defaults(func=_cmd_sasaki)

    p = sub.add_parser("enumerate", help="stream admissible classes with their presentations")
    p.add_argument("--max-torsion-order", required=True)
    p.add_argument("--max-k", required=True)
    add_common(p, with_input=False)
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # SpecSchemaError and SpecValidationError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # Last resort: an unexpected exception, a failed self-check
        # (AssertionError, ConstructionDefect) among them, is a defect,
        # never a verdict.
        print(f"internal defect: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
