"""Margin-diff gate: what a change moves in opineq's output.

    python tools/margin_diff.py PARENT [--allow CHECK[:BOUND]] ... [--coretype K]

Exports PARENT with ``git archive`` and runs one fixed command list through
``python -m opineq`` in that tree and in this checkout (its working files,
committed or not): every row of ``tests/test_runs.py``, the commands of
:data:`COMMANDS` (two larger verify runs, a run of one-segment windows, CI's
console-script commands, and a contraction-dropped ``check_alpha`` search with
the replay of its witness).
Every verify run also writes its JSONL with ``--out``.

It then compares the two trees' outputs command by command: exit codes,
stdout, stderr, JSONL lines and witness files.  It prints, per (check,
branch), how many lines moved and the largest |delta normalized margin| (a
branch is a key of a report line's ``norm_detail``), and lists each change
of an exit code, stdout, stderr or error line.

Exit status: 0 when nothing moved outside the allowances, 1 otherwise, and 2
on a usage error or a parent that cannot be exported or run.  ``--allow
CHECK`` allows every move of CHECK's lines; ``--allow CHECK:BOUND`` allows
only moves of at most BOUND in a normalized margin.  A move that no margin
measures (an error, a verdict, a witness, a record) is allowed only without a
bound.  A change that no check owns (an exit code, a line count, a verdict
line) is never allowed.

Uses only git, the CLI and the standard library.  The fixed-seed bytes depend
on the BLAS kernel, so both trees run on the one machine, under one kernel:
the machine's own, or OpenBLAS's kernel K with ``--coretype K``, which sets
``OPENBLAS_CORETYPE=K`` for every command of both trees.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# After tests/test_runs.py's rows.  A relative --out or --instance lands in the
# command's working directory, which the two trees keep apart.
COMMANDS = (
    "verify --trials 200 --seed 123",
    "verify --trials 40 --seed 3 --dim 6 --len 4",
    # one segment per window, whose seeds the caller and the worker split
    "verify --checks check_uin --trials 64 --seed 4",
    # CI's console-script commands
    "list",
    "verify --trials 2 --seed 0",
    "verify --checks check_alpha,check_interp --alpha 0.5 --alpha 3 --pqr 3,2,6 --trials 3 "
    "--seed 0",
    "verify --checks check_cs,check_alpha --alpha 0.5 --alpha 3000 --trials 3 --seed 0",
    "search --check check_cs --budget 50 --seed 1 --out witness.json",
    "replay --instance witness.json",
    "search --check check_alpha --drop contraction --budget 50 --seed 1 --out alpha.json",
    "replay --instance alpha.json",
    "search --check check_defect --drop contraction --budget 50 --seed 1 --out defect.json",
    "replay --instance defect.json",
    # a longer climb, where most candidates are refused
    "search --check check_alpha --drop contraction --budget 300 --seed 5 --out alpha_300.json",
    "replay --instance alpha_300.json",
)

# the fields of a report line that hold its numbers, not its record
_NUMBERS = ("lhs", "rhs", "margin", "holds", "norm_detail")
# a summary line: verify's per-check line or search's result
_PRINTED = re.compile(r"(check_\w+):? (.*?margin )(\S+)(.*)")


class Move(NamedTuple):
    """One difference: the check that owns it (None if none does), its branch or
    kind, its |delta normalized margin| (inf where no margin measures it), and
    where it is (file and line)."""

    check: str | None
    branch: str
    delta: float
    where: str


def command_list(root: Path = ROOT) -> list[list[str]]:
    """Each command's arguments: a verify run per row of the ``RUNS`` literal of
    ``root``'s ``tests/test_runs.py``, then :data:`COMMANDS`."""
    module = ast.parse((root / "tests" / "test_runs.py").read_text(encoding="utf-8"))
    runs = next(node.value for node in module.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "RUNS" for t in node.targets))
    rows = [f"verify {ast.literal_eval(row.elts[0])}" for row in runs.values]
    return [text.split() for text in rows + list(COMMANDS)]


def export(rev: str, dest: Path) -> None:
    """The files of commit ``rev`` of this repository, in ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_tree(tree: Path, commands, work: Path, coretype: str | None = None) -> None:
    """Run each command as ``python -m opineq`` from ``tree``'s ``src``, in ``work``,
    under ``OPENBLAS_CORETYPE=coretype`` if given: command k writes its exit code,
    stdout and stderr to ``k.rc``, ``k.stdout`` and ``k.stderr``, and a verify run
    its JSONL to ``k.jsonl``."""
    work.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    found = subprocess.run([sys.executable, "-c", "import opineq; print(opineq.__file__)"],
                           cwd=work, env=env, capture_output=True, text=True)
    if Path(found.stdout.strip()).parent != (tree / "src" / "opineq").resolve():
        raise RuntimeError(f"opineq does not import from {tree / 'src'}: "
                           f"{found.stdout.strip() or found.stderr.strip()}")
    for k, argv in enumerate(commands):
        if argv[0] == "verify":
            argv = [*argv, "--out", f"{k:02d}.jsonl"]
        done = subprocess.run([sys.executable, "-m", "opineq", *argv], cwd=work, env=env,
                              capture_output=True, text=True)
        for suffix, text in (("rc", f"{done.returncode}\n"), ("stdout", done.stdout),
                             ("stderr", done.stderr)):
            (work / f"{k:02d}.{suffix}").write_text(text, encoding="utf-8")


def compare_dirs(old: Path, new: Path) -> list[Move]:
    """Every difference between two directories of outputs, file by file."""
    moves = []
    for name in sorted({p.name for p in old.iterdir()} | {p.name for p in new.iterdir()}):
        a, b = (_read(d / name) for d in (old, new))
        if a == b:
            continue
        if a is None or b is None:
            moves.append(Move(None, "file", math.inf,
                              f"{name}: only in the {'parent' if b is None else 'change'}"))
        elif name.endswith(".rc"):
            moves.append(Move(None, "exit code", math.inf, f"{name}: {a.strip()} -> {b.strip()}"))
        else:
            moves += compare_lines(a.splitlines(), b.splitlines(), name)
    return moves


def compare_lines(old: list[str], new: list[str], where: str) -> list[Move]:
    """The moves of every changed line, or one line-count change."""
    if len(old) != len(new):
        return [Move(None, "line count", math.inf, f"{where}: {len(old)} -> {len(new)} lines")]
    return [move for k, (a, b) in enumerate(zip(old, new), 1) if a != b
            for move in line_moves(a, b, f"{where}:{k}")]


def line_moves(a: str, b: str, where: str) -> list[Move]:
    """The moves of one changed line: a report line's per ``norm_detail`` branch,
    with its error, verdict or record if they changed; a witness file's; a
    summary line's by its printed margin; else one that no check owns.  A report line
    whose lhs, rhs or margin alone moved is a "raw" move."""
    ja, jb = _object(a), _object(b)
    if ja is not None and jb is not None:
        check = ja.get("name", ja.get("check"))
        check = check if check == jb.get("name", jb.get("check")) else None
        if not ("norm_detail" in ja and "norm_detail" in jb):
            return [Move(check, "witness", math.inf, where)]
        da, db = ja["norm_detail"] or {}, jb["norm_detail"] or {}
        moves = [Move(check, branch, _delta(da.get(branch), db.get(branch)), where)
                 for branch in sorted(set(da) | set(db))
                 if json.dumps(da.get(branch)) != json.dumps(db.get(branch))]
        if ja.get("params", {}).get("error") != jb.get("params", {}).get("error"):
            moves.append(Move(check, "error", math.inf, where))
        elif ja.get("holds") != jb.get("holds"):
            moves.append(Move(check, "holds", math.inf, where))
        elif _record(ja) != _record(jb):
            moves.append(Move(check, "record", math.inf, where))
        elif not moves:
            moves.append(Move(check, "raw", math.inf, where))
        return moves
    pa, pb = _PRINTED.fullmatch(a), _PRINTED.fullmatch(b)
    if pa and pb and pa[1] == pb[1]:
        same = pa[2] == pb[2] and pa[4] == pb[4]
        return [Move(pa[1], "printed", _delta(_number(pa[3]), _number(pb[3])) if same
                     else math.inf, where)]
    return [Move(None, "text", math.inf, where)]


def allowed(move: Move, allow: dict) -> bool:
    """Whether ``allow`` (check -> bound) allows ``move``."""
    return move.check in allow and move.delta <= allow[move.check]


def report(moves: list[Move], allow: dict) -> tuple[str, bool]:
    """The gate's text and whether ``allow`` allows every move."""
    groups: dict[tuple, list[Move]] = {}
    for move in moves:
        groups.setdefault((move.check or "-", move.branch), []).append(move)
    out = []
    for (check, branch), group in sorted(groups.items()):
        verdict = "allowed" if all(allowed(m, allow) for m in group) else "NOT ALLOWED"
        worst = max(m.delta for m in group)
        out.append(f"{check:22s} {branch:22s} {len(group):6d} lines  max |delta| "
                   f"{worst:9.3e}  {verdict}  (first: {group[0].where})")
    changed = [m for m in moves if m.branch == "error" or not m.where.split(":")[0].endswith(
        ".jsonl")]
    if changed:
        out.append("changed outputs (exit code, stdout, stderr, witness or error line):")
        out += [f"  {m.where}: {m.branch}" for m in changed[:40]]
        if len(changed) > 40:
            out.append(f"  ... and {len(changed) - 40} more")
    refused = sum(not allowed(m, allow) for m in moves)
    out.append("no move" if not moves else
               f"{len(moves)} moves, {refused} outside the allowances")
    return "\n".join(out), refused == 0


def _allowance(text: str) -> tuple[str, float]:
    check, _, bound = text.partition(":")
    try:
        value = float(bound) if bound else math.inf
    except ValueError:
        value = math.nan
    if not check or not value >= 0:
        raise argparse.ArgumentTypeError(f"not CHECK or CHECK:BOUND with BOUND >= 0: {text!r}")
    return check, value


def _read(path: Path) -> str | None:
    return path.read_text(encoding="utf-8") if path.exists() else None


def _object(line: str) -> dict | None:
    try:
        value = json.loads(line)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def _record(line: dict) -> dict:
    return {k: v for k, v in line.items() if k not in _NUMBERS}


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _delta(a, b) -> float:
    """|b - a| for two finite numbers, else inf."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                  for v in (a, b))
    return abs(b - a) if numbers else math.inf


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the commit to compare this checkout against")
    parser.add_argument("--allow", action="append", default=[], type=_allowance,
                        metavar="CHECK[:BOUND]",
                        help="allow CHECK's moves, up to BOUND in a normalized margin if given")
    parser.add_argument("--coretype", metavar="K",
                        help="run both trees under OPENBLAS_CORETYPE=K (default: the machine's)")
    args = parser.parse_args(argv)
    commands = command_list()
    with tempfile.TemporaryDirectory(prefix="margin-diff-") as tmp:
        tmp = Path(tmp)
        try:
            export(args.parent, tmp / "parent")
            run_tree(tmp / "parent", commands, tmp / "parent-out", args.coretype)
            run_tree(ROOT, commands, tmp / "change-out", args.coretype)
        except (subprocess.CalledProcessError, RuntimeError, OSError, tarfile.TarError) as exc:
            detail = getattr(exc, "stderr", b"") or b""
            print(f"error: {exc} {detail.decode(errors='replace')}".rstrip(), file=sys.stderr)
            return 2
        text, ok = report(compare_dirs(tmp / "parent-out", tmp / "change-out"), dict(args.allow))
    kernel = f", OPENBLAS_CORETYPE={args.coretype}" if args.coretype else ""
    print(f"margin-diff: {args.parent} against {ROOT}, {len(commands)} commands{kernel}")
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
