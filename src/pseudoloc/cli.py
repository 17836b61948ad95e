"""Command-line interface: compute/profile/verify/gen for scripts and CI.

Exit codes are part of the contract:
  0 success, 1 verification violations, 2 parse/usage error,
  3 not a pseudotree, 4 size cap exceeded, 5 k out of range.
compute and profile answer graph6 input line by line: a bad line is reported
with its number, the other lines are still answered, and the exit code is
the largest of the lines.  With --json a bad line also prints a record
{"error", "exit_code", "line"} on stdout, so every nonblank input line has
one output line, in input order.  A closed stdout (a reader such as
`head` that has read enough) ends the command quietly: no further line is
computed, and the exit code is the largest of the lines answered before.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .closed_form import compute_parameter
from .corpus import CorpusSpec, random_pseudotree, verify_corpus
from .errors import (
    GraphConstructionError,
    KOutOfRange,
    NotPseudotree,
    SizeCapExceeded,
)
from .graph import Graph, encode_graph6, parse_edgelist, parse_graph6, size_cap
from .resolvers import ORACLE_CAP, PARAMETER_NAMES
from .structure import profile_json

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_NOT_PSEUDOTREE = 3
EXIT_SIZE_CAP = 4
EXIT_K_RANGE = 5

# the errors reported with an exit code: the code of the first entry that matches
_EXIT_CODES = (
    ((KOutOfRange,), EXIT_K_RANGE),
    ((SizeCapExceeded,), EXIT_SIZE_CAP),
    ((NotPseudotree,), EXIT_NOT_PSEUDOTREE),
    ((GraphConstructionError, OSError, ValueError), EXIT_PARSE),
)
_REPORTED = tuple(kind for kinds, _ in _EXIT_CODES for kind in kinds)


def _int_at_least(low: int):
    """argparse type: an integer >= low, else a usage error (exit 2)."""

    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudoloc",
        description="Metric-location parameters of pseudotrees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute one parameter for input graphs")
    p_compute.add_argument("--param", required=True, choices=PARAMETER_NAMES)
    p_compute.add_argument("--k", type=int, default=None, help="k for --param dimk")
    p_compute.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    p_compute.add_argument("--method", choices=("auto", "closed", "brute"), default="auto")
    p_compute.add_argument("--input", default="-", help="input file, '-' for stdin")
    p_compute.add_argument("--json", action="store_true", help="machine-readable output")

    p_profile = sub.add_parser("profile", help="print the structural profile")
    p_profile.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    p_profile.add_argument("--input", default="-")
    p_profile.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="closed forms versus oracles over a corpus")
    p_verify.add_argument("--family", required=True, choices=("tree", "unicyclic", "cycle", "path"))
    p_verify.add_argument("--max-n", type=int, required=True)
    p_verify.add_argument("--params", default="all", help="comma list or 'all'")
    p_verify.add_argument("--jobs", type=_int_at_least(1), default=1)
    p_verify.add_argument("--report", default=None, help="JSONL report path")
    p_verify.add_argument("--no-dedup", action="store_true", help="verify the labeled corpus")
    p_verify.add_argument("--json", action="store_true")

    p_gen = sub.add_parser("gen", help="emit seed-deterministic graph6 samples")
    p_gen.add_argument("--kind", required=True, choices=("tree", "unicyclic", "cycle", "path"))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--count", type=_int_at_least(0), default=1)
    return parser


def _open_input(path: str):
    return contextlib.nullcontext(sys.stdin) if path == "-" else open(path, encoding="utf-8")


def _exit_code(exc: Exception) -> int:
    return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


def _answer_inputs(args, answer) -> int:
    """Call answer on each input graph as it is read and return the largest
    exit code seen, kept in args.exit_code as it grows.  A graph6 line that
    fails to parse or to answer is reported as `error: line N: ...` on
    stderr, and with --json also as a JSON error record on stdout; the lines
    after it are still answered.  A closed stdout is no line's fault: it
    ends the command (main)."""
    size_cap(ORACLE_CAP)  # a bad PSEUDOLOC_MAX_N fails the whole input once, not each line
    with _open_input(args.input) as fh:
        if args.format == "edgelist":
            answer(parse_edgelist(fh.read()))
            return EXIT_OK
        seen = False
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            seen = True
            try:
                answer(parse_graph6(line))
            except BrokenPipeError:
                raise
            except _REPORTED as exc:
                code = _exit_code(exc)
                args.exit_code = max(args.exit_code, code)
                print(f"error: line {number}: {exc}", file=sys.stderr)
                if args.json:  # one record per line keeps the output in step with the input
                    print(json.dumps({"error": str(exc), "exit_code": code, "line": number}, sort_keys=True))
    if not seen:
        raise GraphConstructionError("no graph6 input lines")
    return args.exit_code


def _result_json(param: str, result) -> dict:
    out = {"param": param}
    out.update(result.to_json())
    return out


def _result_human(param: str, result) -> str:
    if result.is_exact:
        head = f"{param} = {result.value}"
    else:
        head = f"{param} in [{result.lo}, {result.hi}]"
    parts = [head, f"method={result.method}", f"tag={result.theorem_tag}"]
    if result.witness is not None:
        parts.append("witness={" + ",".join(map(str, result.witness)) + "}")
    return "  ".join(parts)


def _cmd_compute(args) -> int:
    if (args.param == "dimk") != (args.k is not None):
        print("--k must be supplied exactly when --param dimk", file=sys.stderr)
        return EXIT_PARSE

    def answer(g: Graph) -> None:
        result = compute_parameter(g, args.param, k=args.k, method=args.method)
        if args.json:
            print(json.dumps(_result_json(args.param, result), sort_keys=True))
        else:
            print(_result_human(args.param, result))

    return _answer_inputs(args, answer)


def _cmd_profile(args) -> int:
    def answer(g: Graph) -> None:
        payload = profile_json(g)
        print(json.dumps(payload, sort_keys=True) if args.json else json.dumps(payload, indent=2))

    return _answer_inputs(args, answer)


def _cmd_verify(args) -> int:
    if args.params == "all":
        params = list(PARAMETER_NAMES)
    else:
        # verify_corpus rejects an unknown name and an empty list (exit 2)
        params = [p.strip() for p in args.params.split(",") if p.strip()]
    spec = CorpusSpec(family=args.family, max_n=args.max_n, dedup=not args.no_dedup)
    records, violations = verify_corpus(
        spec, parameters=params, jobs=args.jobs, report_path=args.report
    )
    summary = {
        "family": args.family,
        "max_n": args.max_n,
        "params": params,
        "records": len(records),
        "violations": violations,
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(
            f"verified {summary['records']} records over {args.family} corpus"
            f" (max_n={args.max_n}): {violations} violations"
        )
    return EXIT_OK if violations == 0 else EXIT_VIOLATIONS


def _cmd_gen(args) -> int:
    import random

    rng = random.Random(args.seed)
    for _ in range(args.count):
        print(encode_graph6(random_pseudotree(args.kind, args.n, rng)))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "compute": _cmd_compute,
        "profile": _cmd_profile,
        "verify": _cmd_verify,
        "gen": _cmd_gen,
    }
    args.exit_code = EXIT_OK
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # the reader is gone: answer nothing more, and send what stdout still
        # buffers to devnull, so that the flush at exit reports nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return args.exit_code
    except _REPORTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
