"""Command-line surface: verify / search / replay / list.

Exit codes: 0 success, 1 at least one check failed, no trial of a
verify run could be evaluated, a replayed instance no longer holds, or an
I/O failure (a missing ``--instance`` file, an ``--out`` that cannot be
opened); 2 usage errors (bad options, exponents, alphas, tolerances, budgets or
sizes, instance files that are not JSON, not an instance or do not fit
their check's registry row, and replayed instances whose evaluation
overflows to non-finite values or whose T is too large to vectorize).
Commands run with numpy's overflow and invalid-value warnings off, so
such an error prints as one line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys

import numpy as np

from .checks import CHECK_ANCHORS, CHECK_NAMES, GRIDS, HYPOTHESES
from .core import DEFAULT_TOL
from .errors import InvalidSpec, IOFailure, OpineqError, UnknownCheck
from .generators import evaluate_instance, instance_from_json
from .harness import RunConfig, run_suite, search_counterexample, search_options


def _ratio(text: str) -> float:
    """Parse a float, allowing a/b fractions such as 4/3."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return float(num) / float(den)
        return float(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidSpec(f"not a number or a/b fraction: {text!r}") from None


def _parse_grids(args) -> dict:
    """The points of each grid axis given by its option; each value is one
    point, comma-separated numbers or a/b fractions, one per key."""
    return {axis: tuple(tuple(_ratio(v.strip()) for v in item.split(","))
                        for item in getattr(args, axis))
            for axis in GRIDS if axis and getattr(args, axis)}


def _parse_checks(values: list[str] | None) -> tuple[str, ...]:
    """Split comma lists; RunConfig rejects names the registry lacks."""
    if not values:
        return CHECK_NAMES
    return tuple(v.strip() for item in values for v in item.split(",") if v.strip())


@functools.cache  # parsing leaves no state in the parser
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opineq",
        description="Randomized verification of operator-norm inequalities "
                    "for elementary operators over matrix-tuple modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run randomized checks and report margins")
    verify.add_argument("--checks", action="append",
                        help="comma-separated check names (default: all)")
    verify.add_argument("--trials", type=int, default=25)
    verify.add_argument("--dim", type=int, default=None,
                        help="fix the matrix dimension (default: random 1..6)")
    verify.add_argument("--len", type=int, default=None, dest="length",
                        help="fix the tuple length (default: random 1..4)")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="override the relative tolerance")
    for axis, row in GRIDS.items():
        if axis:
            default = " ".join(",".join(f"{v:g}" for v in point) for point in row.points)
            verify.add_argument(f"--{axis}", action="append", metavar=",".join(row.keys).upper(),
                                help=f"a point of the {axis} grid; repeatable; fractions like "
                                     f"4/3 are accepted (default: {default})")
    verify.add_argument("--out", default=None, help="write JSONL reports here")
    verify.add_argument("--weights", choices=("uniform", "random"), default="random")

    search = sub.add_parser("search", help="hill-climb toward negative margins")
    search.add_argument("--check", required=True)
    search.add_argument("--drop", action="append", default=None,
                        choices=tuple(HYPOTHESES),
                        help="hypothesis to drop during generation; repeatable")
    search.add_argument("--budget", type=int, default=1000)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--dim", type=int, default=None)
    search.add_argument("--len", type=int, default=None, dest="length")
    search.add_argument("--out", default=None,
                        help="write the minimal-margin instance as JSON here")

    replay = sub.add_parser("replay", help="re-evaluate a serialized instance")
    replay.add_argument("--instance", required=True)

    sub.add_parser("list", help="list available checks and their anchors")
    return parser


def _cmd_verify(args) -> int:
    cfg = RunConfig(
        trials=args.trials,
        checks=_parse_checks(args.checks),
        tol=args.tol,
        grids=_parse_grids(args),
        seed=args.seed,
        dim=args.dim,
        length=args.length,
        weights_mode=args.weights,
    )
    with _open_out(args.out) as out:
        summary = run_suite(cfg, out)
    for name in cfg.checks:
        slot = summary.counts.get(name, {"pass": 0, "fail": 0, "error": 0})
        worst = summary.worst_margin.get(name)
        worst_text = f"{worst:+.3e}" if worst is not None else "n/a"
        print(f"{name:22s} pass {slot['pass']:5d}  fail {slot['fail']:4d}  "
              f"error {slot['error']:4d}  worst margin {worst_text}")
    print(f"{summary.lines} report lines; overall {summary.verdict}")
    return 0 if summary.verdict == "OK" else 1


def _cmd_search(args) -> int:
    options = dict(drop=tuple(args.drop or ()), budget=args.budget, seed=args.seed,
                   dim=args.dim, length=args.length)
    search_options(args.check, **options)
    with _open_out(args.out) as out:
        result = search_counterexample(args.check, **options)
        rep = result.report
        print(f"{args.check}: best normalized margin {rep.margin / rep.scale:+.6e} "
              f"after {result.evaluations} evaluations "
              f"(drop: {', '.join(args.drop) if args.drop else 'none'})")
        if out:
            json.dump(result.instance.to_json(), out, sort_keys=True)
            out.write("\n")
            print(f"instance written to {args.out}")
    return 0


def _open_out(path: str | None):
    """``--out`` opened for writing (IOFailure if it cannot be), or a context
    giving None without one.  Commands open it once their options are valid,
    so a usage error leaves it alone, and before any work, so a path that
    cannot be written costs none."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise IOFailure(f"cannot open {path!r}: {exc}") from exc


def _cmd_replay(args) -> int:
    with open(args.instance, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise InvalidSpec(f"{args.instance} is not a JSON file: {exc}") from None
    inst = instance_from_json(obj)
    rep = evaluate_instance(inst)
    print(json.dumps(rep.to_json_dict(), sort_keys=True))
    return 0 if rep.holds else 1


def _cmd_list() -> int:
    for name, anchor in CHECK_ANCHORS.items():
        print(f"{name:22s} {anchor}")
    return 0


def _join_grid_values(argv: list[str]) -> list[str]:
    """``--<axis> VALUE`` as ``--<axis>=VALUE`` where VALUE starts with '-'
    and a digit or '.', such as ``--alpha -1,2``: argparse would read it as
    an option, not as the point the grid rule must name.  So is an
    abbreviation such as ``--al -1,2`` (but not ``--``, which ends the
    options): argparse resolves ``--al=-1,2`` as it resolves ``--al``."""
    options, out = [f"--{axis}" for axis in GRIDS if axis], []
    for token in argv:
        if (out and len(out[-1]) > 2 and any(o.startswith(out[-1]) for o in options)
                and re.match(r"-[0-9.]", token)):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_grid_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "verify":
                return _cmd_verify(args)
            if args.command == "search":
                return _cmd_search(args)
            if args.command == "replay":
                return _cmd_replay(args)
            return _cmd_list()
    except (InvalidSpec, UnknownCheck) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OpineqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
