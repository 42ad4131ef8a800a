"""Per-stage CPU time and peak traced memory of mpsynth over a size grid.

    python tools/bench_grid.py --tag NAME [--src DIR]

writes ``BENCH_NAME.json`` at the root of the checkout, and one progress
line per cell to standard error.  The grid is both modes, n in
{64, 256, 1024, 4096, 10000} and m in {2, 3, 4, 6}.
Each cell runs the stages one CLI request goes through, in order:
``synthesize`` (``synthesize_star`` or ``synthesize_min_latency``),
``dumps`` and ``to_dot`` of the result, ``loads`` of the JSON, then
``validate``, ``complexity`` and ``latency`` of the loaded structure.

Each cell runs twice from scratch: once untraced for the CPU seconds of
every stage (``time.process_time``), then under ``tracemalloc`` for the
peak traced memory during each stage (reset between stages after a
full collection, so it counts what earlier stages left alive plus the
stage's own work).  The ``loads`` stage also records ``kept_mib``, the
traced size the loaded structure keeps once the stage returns.  A stage that raises ends its
cell: the cell records the stages before it and an ``error`` entry, and
the grid goes on.  Standard library only; mpsynth is imported from
``--src`` (default: ``src/`` of this checkout), so one script measures
any commit.  One process, one cell at a time.

A separate ``verify`` row times :func:`mpsynth.verify_report` (the
optimizer-versus-oracle report) for n in 5..12 and m in {3, 4}: CPU
seconds of one untraced call, then the tracemalloc peak of a second,
traced call.  Its cost model ties fan-ins 2 and 3 (``VERIFY_FACTORS``),
so several degree vectors are optimal and each has its star trees
enumerated, as in the ``ties-verify`` benchmark workload.

A ``broken`` row times :func:`mpsynth.validate` on two broken variants
of the loaded star structure, for m = 3 and n in {64, 256, 1024, 4096}:
``extra_operand`` (x3 added as an operand of x1's first computation
parent, so most outputs are not trees) and ``duplicate_node`` (a
parentless copy of the last computation node, which sits on the highest
level).  CPU seconds of one untraced call, then the tracemalloc peak of
a second, traced call on a fresh copy of the variant.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODES = ("star", "isom")
SIZES = (64, 256, 1024, 4096, 10000)
FAN_INS = (2, 3, 4, 6)
STAGES = ("synthesize", "dumps", "to_dot", "loads", "validate", "complexity", "latency")
VERIFY_SIZES = tuple(range(5, 13))
VERIFY_FAN_INS = (3, 4)
# c = (1, 3/2, 2) and l = (1, 3/2, 2) for fan-ins 2..4, cut to m: a
# fan-in 2 and a fan-in 3 node cost the same per leaf they add
VERIFY_FACTORS = ((1, "3/2", 2), (1, "3/2", 2))
BROKEN_SIZES = (64, 256, 1024, 4096)
BROKEN_FAN_IN = 3


def cost_factors(m: int) -> tuple[list[int], list[int]]:
    """``c[k] = k - 1`` and ``l[k] = 1`` for fan-in k = 2..m."""
    return list(range(1, m)), [1] * (m - 1)


def stage_calls(mpsynth, mode: str, n: int, cm):
    """The stages of one cell as (name, function of the previous results)."""
    synthesize = mpsynth.synthesize_star if mode == "star" else mpsynth.synthesize_min_latency
    return (
        ("synthesize", lambda r: synthesize(n, cm).structure),
        ("dumps", lambda r: mpsynth.dumps(r["synthesize"])),
        ("to_dot", lambda r: mpsynth.to_dot(r["synthesize"])),
        ("loads", lambda r: mpsynth.loads(r["dumps"])),
        ("validate", lambda r: mpsynth.validate(r["loads"])),
        ("complexity", lambda r: mpsynth.complexity(r["loads"], cm)),
        ("latency", lambda r: mpsynth.latency(r["loads"], cm)),
    )


def run_cell(mpsynth, mode: str, n: int, m: int) -> dict:
    cm = mpsynth.CostModel.from_factors(m, *cost_factors(m))
    cell: dict = {"mode": mode, "n": n, "m": m, "stages": {}, "error": None}
    for traced in (False, True):
        results: dict = {}
        gc.collect()
        if traced:
            tracemalloc.start()
        try:
            for name, call in stage_calls(mpsynth, mode, n, cm):
                if traced:
                    gc.collect()  # no garbage of earlier stages is freed inside this one
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                start = time.process_time()
                try:
                    results[name] = call(results)
                except Exception as exc:  # a failing cell is data, not the end of the grid
                    kind, message = type(exc).__name__, str(exc)[:200]
                    cell["error"] = {"stage": name, "type": kind, "message": message}
                    break
                seconds = time.process_time() - start
                entry = cell["stages"].setdefault(name, {})
                if traced:
                    current, peak = tracemalloc.get_traced_memory()
                    entry["peak_mib"] = round(peak / 2**20, 3)
                    if name == "loads":  # what the loaded structure keeps
                        entry["kept_mib"] = round((current - before) / 2**20, 3)
                else:
                    entry["cpu_s"] = round(seconds, 6)
        finally:
            if traced:
                tracemalloc.stop()
        if "synthesize" in results:
            dag = results["synthesize"]
            cell["nodes"] = dag.node_count
            cell["report_ok"] = results["validate"].ok if "validate" in results else None
            for key in ("complexity", "latency"):
                if key in results:
                    cell[key] = mpsynth.format_rational(results[key])
        if cell["error"] is not None:
            break  # the traced run would fail the same way
    return cell


def run_grid(mpsynth, modes=MODES, sizes=SIZES, fan_ins=FAN_INS) -> list[dict]:
    cells = []
    for mode in modes:
        for m in fan_ins:
            for n in sizes:
                cell = run_cell(mpsynth, mode, n, m)
                cells.append(cell)
                total = sum(s.get("cpu_s", 0.0) for s in cell["stages"].values())
                status = cell["error"]["type"] if cell["error"] else "ok"
                print(f"{mode} m={m} n={n}: {total:.3f} s {status}", file=sys.stderr, flush=True)
    return cells


def run_verify_row(mpsynth, sizes=VERIFY_SIZES, fan_ins=VERIFY_FAN_INS) -> list[dict]:
    row = []
    for m in fan_ins:
        for n in sizes:
            c, l = (factors[: m - 1] for factors in VERIFY_FACTORS)
            cm = mpsynth.CostModel.from_factors(m, c, l)
            cell: dict = {"n": n, "m": m, "error": None}
            try:
                gc.collect()
                start = time.process_time()
                report = mpsynth.verify_report(n, cm)
                seconds = time.process_time() - start
                cell.update(cpu_s=round(seconds, 6), ok=report.ok, checks=len(report.checks))
                gc.collect()
                tracemalloc.start()
                try:
                    mpsynth.verify_report(n, cm)
                    cell["peak_mib"] = round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
                finally:
                    tracemalloc.stop()
            except Exception as exc:  # a failing cell is data, not the end of the row
                cell["error"] = {"type": type(exc).__name__, "message": str(exc)[:200]}
            row.append(cell)
            status = cell["error"]["type"] if cell["error"] else "ok"
            print(f"verify m={m} n={n}: {cell.get('cpu_s', 0.0):.3f} s {status}", file=sys.stderr)
    return row


def with_extra_operand(Dag, dag):
    """``dag`` with x3 added as an operand of x1's first computation
    parent: every output whose ancestor graph holds that node reaches x3
    along a second path, so it is no longer a tree.  ``Dag`` is the class
    of the mpsynth under test."""
    x1, x3 = dag.labels.index(("x", 1)), dag.labels.index(("x", 3))
    p = next(p for p in dag.parent_map()[x1] if dag.labels[p] is None)
    children = list(dag.children)
    children[p] = tuple(sorted(children[p] + (x3,)))
    return Dag(n=dag.n, m=dag.m, labels=dag.labels, children=tuple(children))


def with_duplicate_node(Dag, dag):
    """``dag`` plus a parentless copy of its last computation node (in a
    loaded file, one on the highest level): the two compute one subtree."""
    v = max(v for v, lbl in enumerate(dag.labels) if lbl is None)
    labels, children = dag.labels + (None,), dag.children + (dag.children[v],)
    return Dag(n=dag.n, m=dag.m, labels=labels, children=children)


BROKEN_VARIANTS = (("extra_operand", with_extra_operand), ("duplicate_node", with_duplicate_node))


def run_broken_row(mpsynth, sizes=BROKEN_SIZES) -> list[dict]:
    row, m = [], BROKEN_FAN_IN
    cm = mpsynth.CostModel.from_factors(m, *cost_factors(m))
    for n in sizes:
        dag = mpsynth.loads(mpsynth.dumps(mpsynth.synthesize_star(n, cm).structure))
        for name, variant in BROKEN_VARIANTS:
            cell: dict = {"variant": name, "n": n, "m": m, "error": None}
            try:
                gc.collect()
                broken = variant(mpsynth.Dag, dag)
                start = time.process_time()
                report = mpsynth.validate(broken)
                seconds = time.process_time() - start
                cell.update(cpu_s=round(seconds, 6), failed=list(report.failed()))
                broken = variant(mpsynth.Dag, dag)  # its order is worked out again
                gc.collect()
                tracemalloc.start()
                try:
                    mpsynth.validate(broken)
                    cell["peak_mib"] = round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
                finally:
                    tracemalloc.stop()
            except Exception as exc:  # a failing cell is data, not the end of the row
                cell["error"] = {"type": type(exc).__name__, "message": str(exc)[:200]}
            row.append(cell)
            status = cell["error"]["type"] if cell["error"] else "ok"
            seconds = cell.get("cpu_s", 0.0)
            print(f"broken {name} m={m} n={n}: {seconds:.3f} s {status}", file=sys.stderr)
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding mpsynth")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import mpsynth

    cells = run_grid(mpsynth)
    verify = run_verify_row(mpsynth)
    broken = run_broken_row(mpsynth)
    record = {
        "tag": args.tag,
        "mpsynth_version": mpsynth.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "clock": "cpu_s: time.process_time, untraced; peak_mib: tracemalloc, a second run",
        "cost_model": "c[k] = k - 1, l[k] = 1 for k = 2..m",
        "stages": list(STAGES),
        "cells": cells,
        "verify_cost_model": "c[k] = l[k] = (1, 3/2, 2)[k - 2] for k = 2..m",
        "verify": verify,
        "broken_cost_model": f"c[k] = k - 1, l[k] = 1 for k = 2..{BROKEN_FAN_IN}",
        "broken": broken,
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
