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

Every CPU time in the file is the least of 3 untraced samples when the
first is under 1 s (``best_cpu``), so no single sample carries the
host's drift into it.  A stage's repeats run on the same earlier
results, except that each ``dumps`` and ``to_dot`` sample, traced or
not, gets a fresh copy of the synthesized structure (``stage_input``):
the canonical node order both write in is cached on the structure, so
on a shared one only the first sample would work it out.

A separate ``verify`` row times :func:`mpsynth.verify_report` (the
optimizer-versus-oracle report) for n in 5..12 and m in {3, 4}: CPU
seconds of untraced calls, then the tracemalloc peak of a traced call.
Its cost model ties fan-ins 2 and 3 (``VERIFY_FACTORS``), so several
degree vectors are optimal and the star-latency oracle rates each, as
in the ``ties-verify`` benchmark workload.

A ``tied`` row times :func:`mpsynth.synthesize_star` on cost models
whose degree classes all tie in cost per leaf (``TIED_CELLS``: m = 3,
4 at n in {50, 100, 200} and m = 6 at n in {16, 24, 32}), where every
degree vector is optimal and the forest table covers the union of all
their boxes.  CPU seconds only, and each cell runs under a CPU cap of
``TIED_CAP_S`` seconds (``cpu_capped``, a profiling interval timer): a
cell over the cap is recorded as an error entry and the row goes on.

A ``broken`` row times :func:`mpsynth.validate` on two broken variants
of the loaded star structure, for m = 3 and n in {64, 256, 1024, 4096}:
``extra_operand`` (x3 added as an operand of x1's first computation
parent, so most outputs are not trees) and ``duplicate_node`` (a
parentless copy of the last computation node, which sits on the highest
level).  CPU seconds of untraced calls, then the tracemalloc peak of a
traced call, each on a fresh copy of the variant.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODES = ("star", "isom")
SIZES = (64, 256, 1024, 4096, 10000)
FAN_INS = (2, 3, 4, 6)
STAGES = ("synthesize", "dumps", "to_dot", "loads", "validate", "complexity", "latency")
SAMPLES = 3
REPEAT_BELOW_S = 1.0
VERIFY_SIZES = tuple(range(5, 13))
VERIFY_FAN_INS = (3, 4)
# c = (1, 3/2, 2) and l = (1, 3/2, 2) for fan-ins 2..4, cut to m: a
# fan-in 2 and a fan-in 3 node cost the same per leaf they add
VERIFY_FACTORS = ((1, "3/2", 2), (1, "3/2", 2))
BROKEN_SIZES = (64, 256, 1024, 4096)
BROKEN_FAN_IN = 3
# (m, c, l, sizes): every class t buys t leaves for (t + 2) * c[t + 1],
# the same per leaf; the l of m = 4 is the ties4 variant of the benchmark
TIED_CELLS = (
    (3, (1, "3/2"), (1, "3/2"), (50, 100, 200)),
    (4, (1, "3/2", 2), (1, "4/3", "5/3"), (50, 100, 200)),
    (6, (1, "3/2", "9/5", 2, "15/7"), (1, "3/2", "9/5", 2, "15/7"), (16, 24, 32)),
)
TIED_CAP_S = 60


class CpuCapExceeded(Exception):
    """A cell ran past its CPU cap."""


def cost_factors(m: int) -> tuple[list[int], list[int]]:
    """``c[k] = k - 1`` and ``l[k] = 1`` for fan-in k = 2..m."""
    return list(range(1, m)), [1] * (m - 1)


def best_cpu(call, make):
    """``call(*make())``'s first result and its CPU seconds: the least of
    ``SAMPLES`` samples when the first is under ``REPEAT_BELOW_S``, else
    the first.  ``make`` runs untimed before each sample."""
    args = make()
    start = time.process_time()
    result = call(*args)
    best = time.process_time() - start
    for _ in range(SAMPLES - 1 if best < REPEAT_BELOW_S else 0):
        args = make()
        start = time.process_time()
        call(*args)
        best = min(best, time.process_time() - start)
    return result, best


def stage_input(results: dict, name: str) -> dict:
    """The earlier results a sample of stage ``name`` reads.  ``dumps``
    and ``to_dot`` get a fresh copy of the synthesized structure: its
    fields and the topological order its maker handed it (the builder
    and the loader both do), but not the canonical node order an earlier
    sample or stage cached into it, so each sample works that order out
    as the first call on a synthesized structure does."""
    if name not in ("dumps", "to_dot"):
        return results
    dag = results["synthesize"]
    fresh = type(dag)(n=dag.n, m=dag.m, labels=dag.labels, children=dag.children)
    fresh.__dict__["_order"] = dag._order
    return {**results, "synthesize": fresh}


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
                    inputs = stage_input(results, name)
                    gc.collect()  # no garbage of earlier stages is freed inside this one
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                try:
                    if traced:
                        results[name] = call(inputs)
                    else:
                        make = lambda: (stage_input(results, name),)
                        results[name], seconds = best_cpu(call, make)
                except Exception as exc:  # a failing cell is data, not the end of the grid
                    kind, message = type(exc).__name__, str(exc)[:200]
                    cell["error"] = {"stage": name, "type": kind, "message": message}
                    break
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
                report, seconds = best_cpu(mpsynth.verify_report, lambda: (n, cm))
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


def cpu_capped(call, seconds: float):
    """``call()``, stopped by ``CpuCapExceeded`` once the process has
    spent ``seconds`` of CPU time in it (``ITIMER_PROF``)."""

    def expire(signum, frame):
        raise CpuCapExceeded(f"over the CPU cap of {seconds} s")

    previous = signal.signal(signal.SIGPROF, expire)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def run_tied_row(mpsynth, cells=TIED_CELLS, cap=TIED_CAP_S) -> list[dict]:
    row = []
    for m, c, l, sizes in cells:
        cm = mpsynth.CostModel.from_factors(m, c, l)
        for n in sizes:
            cell: dict = {"n": n, "m": m, "error": None}
            try:
                gc.collect()
                timed = lambda: best_cpu(mpsynth.synthesize_star, lambda: (n, cm))
                syn, seconds = cpu_capped(timed, cap)
                cell.update(
                    cpu_s=round(seconds, 6),
                    optima=len(syn.all_q),
                    q=list(syn.q),
                    latency=mpsynth.format_rational(syn.latency),
                )
            except Exception as exc:  # a capped cell is data, not the end of the row
                cell["error"] = {"type": type(exc).__name__, "message": str(exc)[:200]}
            row.append(cell)
            status = cell["error"]["type"] if cell["error"] else "ok"
            print(f"tied m={m} n={n}: {cell.get('cpu_s', 0.0):.3f} s {status}", file=sys.stderr)
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
                # a fresh variant per sample: validate caches its order
                report, seconds = best_cpu(mpsynth.validate, lambda: (variant(mpsynth.Dag, dag),))
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
    tied = run_tied_row(mpsynth)
    record = {
        "tag": args.tag,
        "mpsynth_version": mpsynth.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "clock": (
            f"cpu_s: time.process_time, untraced, least of {SAMPLES} samples when the first"
            f" is under {REPEAT_BELOW_S} s; peak_mib: tracemalloc, a second run"
        ),
        "cost_model": "c[k] = k - 1, l[k] = 1 for k = 2..m",
        "stages": list(STAGES),
        "cells": cells,
        "verify_cost_model": "c[k] = l[k] = (1, 3/2, 2)[k - 2] for k = 2..m",
        "verify": verify,
        "broken_cost_model": f"c[k] = k - 1, l[k] = 1 for k = 2..{BROKEN_FAN_IN}",
        "broken": broken,
        "tied_cost_models": [
            {"m": m, "c": list(c), "l": list(l)} for m, c, l, _ in TIED_CELLS
        ],
        "tied_clock": f"cpu_s as above, each cell under a CPU cap of {TIED_CAP_S} s",
        "tied": tied,
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
