"""Command-line front end.

Subcommands:

* ``synthesize {star|isom} N --costs FILE`` - run a synthesizer and
  emit the structure (JSON and/or DOT) plus a summary table; ``isom``
  picks the latency-optimal uniform tree at a workable size ``n' >= N``
  and builds its structure directly at ``N``, dropping the surplus
  inputs as it builds (``--prune`` changes nothing; it is kept only
  because existing scripts pass it),
* ``validate FILE`` - check a structure file against the defining
  properties,
* ``eval FILE --costs FILE`` - exact complexity and latency,
* ``export FILE --format dot|json`` - re-serialize a structure,
* ``verify N --costs FILE`` - run the optimizer-versus-oracle report.

Exit codes: 0 success, 1 usage, config or artifact-write error, 3
validation or verification failure.  Every failure prints a JSON error
on standard error, never a traceback; an exception no command documents
(a bug) exits 1 as ``{"error": "internal error: <Type>: <message>"}``.
A reader that closes standard output early is not a bug: the command
exits 1 and writes nothing to standard error.
All numbers print as exact rationals.
Identical invocations write byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .costs import CostModel, CostModelError, format_rational, load_cost_model
from .oracles import DEFAULT_BUDGET, EnumerationBudget, verify_report
from .staropt import synthesize_star
from .structure import Dag, complexity, dumps, latency, loads, to_dot, validate
from .uniform import synthesize_min_latency

USAGE_ERROR, MISMATCH = 1, 3


class _Failure(Exception):
    """``(exit code, message)``: :func:`main` prints the message as a
    JSON error on standard error and returns the code."""


def _load_costs(path: str) -> CostModel:
    try:
        return load_cost_model(Path(path).read_bytes())
    except (OSError, CostModelError) as exc:
        raise _Failure(USAGE_ERROR, f"cost model: {exc}")


def _load_structure(path: str) -> Dag:
    try:
        return loads(Path(path).read_bytes())
    except (OSError, ValueError) as exc:
        raise _Failure(MISMATCH, f"cannot load structure: {exc}")


def _write_artifacts(
    out_dir: str | None,
    dag: Dag,
    fmt: str,
    manifest: dict,
) -> list[str]:
    written: list[str] = []
    if out_dir is None:
        return written
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt in ("json", "all"):
        (out / "structure.json").write_text(dumps(dag), encoding="ascii")
        written.append("structure.json")
    if fmt in ("dot", "all"):
        (out / "structure.dot").write_text(to_dot(dag), encoding="ascii")
        written.append("structure.dot")
    manifest = dict(manifest, outputs=written)
    (out / "run_manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="ascii"
    )
    return written


def _summary(rows: list[tuple[str, object]]) -> None:
    width = max(len(key) for key, _ in rows)
    for key, value in rows:
        print(f"{key.ljust(width)}  {value}")


def _cmd_synthesize(args: argparse.Namespace) -> int:
    started = time.monotonic()
    cm = _load_costs(args.costs)
    if args.n < 3:
        raise _Failure(USAGE_ERROR, f"synthesis needs n >= 3, got {args.n}")

    rows: list[tuple[str, object]]
    if args.mode == "star":
        result = synthesize_star(args.n, cm)
        dag = result.structure
        rows = [
            ("mode", "star"),
            ("n", args.n),
            ("complexity", format_rational(result.complexity)),
            ("latency", format_rational(result.latency)),
            ("q", list(result.q)),
        ]
        if args.all_optima:
            rows.append(("all_q", [list(q) for q in result.all_q]))
        extra = {"q": list(result.q)}
    else:
        latopt = synthesize_min_latency(args.n, cm)
        dag = latopt.structure
        rows = [
            ("mode", "isom"),
            ("n", args.n),
            ("n_prime", latopt.n_prime),
            ("complexity", format_rational(complexity(dag, cm))),
            ("latency", format_rational(latopt.latency)),
            ("w", list(latopt.w)),
        ]
        if args.all_optima:
            rows.append(("all_w", [list(w) for w in latopt.all_w]))
        extra = {"w": list(latopt.w), "n_prime": latopt.n_prime}

    manifest = {
        "command": "synthesize",
        "parameters": {
            "mode": args.mode,
            "n": args.n,
            "all_optima": bool(args.all_optima),
        },
        "cost_model_digest": cm.digest(),
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - started, 6),
        **extra,
    }
    try:
        written = _write_artifacts(args.out, dag, args.format, manifest)
    except OSError as exc:
        raise _Failure(USAGE_ERROR, f"cannot write artifacts: {exc}")
    _summary(rows)
    for name in written:
        print(f"wrote {Path(args.out) / name}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    report = validate(_load_structure(args.path))
    print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    return 0 if report.ok else MISMATCH


def _cmd_eval(args: argparse.Namespace) -> int:
    cm = _load_costs(args.costs)
    dag = _load_structure(args.path)
    try:
        c = complexity(dag, cm)
        l = latency(dag, cm)
    except ValueError as exc:
        raise _Failure(USAGE_ERROR, str(exc))
    _summary(
        [
            ("n", dag.n),
            ("complexity", format_rational(c)),
            ("latency", format_rational(l)),
        ]
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    dag = _load_structure(args.path)
    text = to_dot(dag) if args.format == "dot" else dumps(dag)
    if args.out is None:
        print(text, end="")
    else:
        out = Path(args.out)
        name = "structure.dot" if args.format == "dot" else "structure.json"
        try:
            out.mkdir(parents=True, exist_ok=True)
            (out / name).write_text(text, encoding="ascii")
        except OSError as exc:
            raise _Failure(USAGE_ERROR, f"cannot write artifacts: {exc}")
        print(f"wrote {out / name}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    cm = _load_costs(args.costs)
    if args.n < 2:
        raise _Failure(USAGE_ERROR, f"verify needs n >= 2, got {args.n}")
    if args.budget_leaves < 1:
        raise _Failure(USAGE_ERROR, f"--budget-leaves must be >= 1, got {args.budget_leaves}")
    budget = EnumerationBudget(
        max_star_leaves=args.budget_leaves,
        max_tree_leaves=min(args.budget_leaves, DEFAULT_BUDGET.max_tree_leaves),
        max_labeling_inputs=DEFAULT_BUDGET.max_labeling_inputs,
    )
    report = verify_report(args.n, cm, budget)
    print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    return 0 if report.ok else MISMATCH


@functools.cache  # one parser per process: building it costs more than a parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpsynth",
        description="Synthesize and verify cost-optimal multi-input computation structures.",
    )
    parser.add_argument("--version", action="version", version=f"mpsynth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    syn = sub.add_parser("synthesize", help="build an optimal structure")
    syn.add_argument("mode", choices=["star", "isom"])
    syn.add_argument("n", type=int)
    syn.add_argument("--costs", required=True, help="cost model JSON file")
    syn.add_argument("--out", default=None, help="directory for artifacts")
    syn.add_argument("--format", choices=["json", "dot", "all"], default="all")
    syn.add_argument("--all-optima", action="store_true", dest="all_optima")
    syn.add_argument(
        "--prune",
        action="store_true",
        help="changes nothing; kept only because existing scripts pass it",
    )
    syn.set_defaults(func=_cmd_synthesize)

    val = sub.add_parser("validate", help="check a structure file")
    val.add_argument("path")
    val.set_defaults(func=_cmd_validate)

    ev = sub.add_parser("eval", help="exact complexity and latency of a structure file")
    ev.add_argument("path")
    ev.add_argument("--costs", required=True)
    ev.set_defaults(func=_cmd_eval)

    exp = sub.add_parser("export", help="re-serialize a structure file")
    exp.add_argument("path")
    exp.add_argument("--format", choices=["json", "dot"], default="dot")
    exp.add_argument("--out", default=None)
    exp.set_defaults(func=_cmd_export)

    ver = sub.add_parser("verify", help="optimizer-versus-oracle report")
    ver.add_argument("n", type=int)
    ver.add_argument("--costs", required=True)
    ver.add_argument(
        "--budget-leaves",
        type=int,
        default=DEFAULT_BUDGET.max_star_leaves,
        dest="budget_leaves",
    )
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        if exc.code not in (0, None):
            return USAGE_ERROR
        raise
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a failed last write lands here too
        return code
    except _Failure as exc:
        code, message = exc.args
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the interpreter's
        # own flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return USAGE_ERROR
    except Exception as exc:  # a bug: still a JSON error, not a traceback
        code, message = USAGE_ERROR, f"internal error: {type(exc).__name__}: {exc}"
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
