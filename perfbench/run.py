"""mpsynth benchmark: one workload, one closed-loop client, one process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload chain-isom --seed 1 --seconds 55 --trace 0

The run imports mpsynth from ``src/`` of the checkout, writes the
workload's cost-model files, and sends the workload's requests through
``mpsynth.cli.main``, each after the previous one returned, in whole
rounds: as many as fit in ``--seconds``, at least three.  Every round
holds each request once, so every run times the same mix of requests.
Every output passes a gate (see ``run_request``); a request that raises,
exits non-zero or fails the gate counts as failed and as an infinite time.

Times are the CPU time of this process (``time.process_time``): mpsynth
runs single-threaded in it, so on an idle core that is the wall time,
and time the host's hypervisor takes the core away (steal) is left out.

The program's set-up (importing mpsynth, one warm-up request per request
kind) is repeated every SETUP_EVERY requests, outside the request times,
so that ``setup_s`` is a median over the whole run.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run measures a sixth of the
time untraced (at least one round), then one round with every public
function of the layer modules wrapped (``spans.py``), and reports the
per-layer metrics and the tracing overhead.  A second process then
serves the same round traced (``--count-round``), and the run fails if
its exact counts differ.
Human-readable lines come first.  README.md in this directory defines
every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import spans as spanlib
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SETUP_EVERY = 8
MIN_ROUNDS = 3
TAIL_BEYOND = 10
WARMUP_N = 8


# ---------------------------------------------------------------------------
# statistics over request latencies (failures are +inf)


def nearest_rank(values: list[float], pct: float) -> float:
    """The smallest value with at least ``pct`` percent of ``values`` at or
    below it.  ``math.inf`` entries sort last, so a failure can only
    raise a percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(executions: int) -> int:
    """The highest whole percentile of ``executions`` values that leaves
    at least TAIL_BEYOND of them beyond it."""
    if executions <= TAIL_BEYOND:
        raise ValueError(f"{executions} executions cannot leave {TAIL_BEYOND} beyond a percentile")
    return math.floor(100 * (executions - TAIL_BEYOND) / executions)


@dataclass
class Outcome:
    """One execution of a request."""

    rid: str
    failed: bool = False
    wrong: bool = False  # the program answered, but the answer failed the gate
    note: str = ""
    synth_s: float = 0.0
    check_s: float = 0.0  # validate + eval
    verify_s: float = 0.0
    at: float = 0.0  # seconds into the measurement when it finished

    @property
    def req_s(self) -> float:
        return math.inf if self.failed else self.synth_s + self.check_s + self.verify_s


def end_to_end(outcomes: list[Outcome], round_size: int) -> dict[str, float]:
    """Request metrics of one run, over every execution.

    A failed execution is an infinite time.  The tail percentile is fixed
    by the fewest executions a run makes (MIN_ROUNDS rounds), so it means
    the same in every run.  ``req_ok`` counts requests, not executions, so
    that how many rounds fit in a run does not move it."""
    def p(pct: float, time_of) -> float:
        return nearest_rank([math.inf if o.failed else time_of(o) for o in outcomes], pct)

    failed = {o.rid for o in outcomes if o.failed}
    requests = {o.rid for o in outcomes}
    return {
        "req_p50_s": p(50, lambda o: o.req_s),
        "req_tail_s": p(tail_percentile(MIN_ROUNDS * round_size), lambda o: o.req_s),
        "synth_p50_s": p(50, lambda o: o.synth_s),
        "check_p50_s": p(50, lambda o: o.check_s),
        "req_ok": 1 - len(failed) / len(requests),
    }


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Env:
    workload: wl.Workload
    refs: dict
    costs: dict[str, str]
    work: Path
    cli: object = None
    package: object = None
    first_hash: dict[str, tuple[str, str]] = field(default_factory=dict)


def import_mpsynth(src: Path):
    """(Re-)import mpsynth from ``src`` so every set-up pays the import."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for key in [k for k in sys.modules if k == "mpsynth" or k.startswith("mpsynth.")]:
        del sys.modules[key]
    package = importlib.import_module("mpsynth")
    cli = importlib.import_module("mpsynth.cli")
    if Path(package.__file__).resolve().parent != (src / "mpsynth").resolve():
        raise ImportError(f"mpsynth imported from {package.__file__}, not from {src}")
    return package, cli


def prepare(work: Path, name: str, seed: int) -> Env:
    """The benchmark's own set-up, not timed: requests, cost files, references."""
    workload = wl.make_workload(name, seed)
    if work.exists():
        shutil.rmtree(work)
    (work / "costs").mkdir(parents=True)
    costs = {}
    for model in workload.models:
        path = work / "costs" / f"{model.name}.json"
        path.write_text(model.to_json(), encoding="ascii")
        costs[model.name] = str(path)
    return Env(workload, wl.load_refs(), costs, work)


def start_program(env: Env, src: Path) -> float:
    """The program's set-up: import mpsynth afresh into ``env`` and send one
    small warm-up request per request kind.  Returns the seconds the
    program spent (the import and the warm-up commands), not the
    benchmark's own file handling around them."""
    start = process_time()
    env.package, env.cli = import_mpsynth(src)
    secs = process_time() - start
    for kind in sorted({req.kind for req in env.workload.requests}):
        model = next(req.model for req in env.workload.requests if req.kind == kind)
        outcome = run_request(env, wl.Request(f"warmup-{kind}", kind, WARMUP_N, model), gate=False)
        if outcome.failed:
            raise RuntimeError(f"warm-up request failed: {outcome.note}")
        secs += outcome.req_s
    return secs


# ---------------------------------------------------------------------------
# one request and its output gate


def call(cli, argv: list[str]) -> tuple[float, int | None, str, str]:
    """Run one CLI command in-process: (CPU seconds, exit code or None if
    it raised, stdout, stderr or the exception)."""
    out, err = io.StringIO(), io.StringIO()
    start = process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a traceback the user would see; counted as a failure
        return process_time() - start, None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return process_time() - start, rc, out.getvalue(), err.getvalue()


def parse_json(stdout: str) -> dict:
    try:
        value = json.loads(stdout)
    except ValueError:
        return {}
    return value if isinstance(value, dict) else {}


def summary(stdout: str) -> dict[str, str]:
    rows = {}
    for line in stdout.splitlines():
        key, _, value = line.partition("  ")
        rows[key.strip()] = value.strip()
    return rows


def run_request(env: Env, req: wl.Request, gate: bool = True) -> Outcome:
    """Run ``req`` and check every output.

    Gate: every command exits 0; ``validate`` reports ok; ``eval`` prints
    the complexity and latency ``synthesize`` printed; both equal the
    reference (isom: complexity at most the recorded one); structure.json
    and structure.dot are byte-identical to the first execution of the
    same request in this run.  For verify requests the report is ok and
    its oracle values are the reference of the synthesized structure.

    The request's output directory is removed before it runs (outside
    the timed calls), so the gate only sees files this execution wrote.
    Only a ``synthesize`` that raises or exits non-zero is a failure
    without an answer; anything later that raises or fails a check is a
    wrong answer."""
    o = Outcome(req.rid)
    cost = env.costs[req.model.name]
    out = env.work / "out" / req.rid
    shutil.rmtree(out, ignore_errors=True)
    mode = "star" if req.kind == "verify" else req.kind
    argv = ["synthesize", mode, str(req.n), "--costs", cost, "--out", str(out)]
    if req.kind == "isom":
        argv.append("--prune")

    def fail(note: str, wrong: bool) -> Outcome:
        o.failed, o.wrong, o.note = True, wrong, f"{req.rid}: {note}"
        return o

    secs, rc, stdout, stderr = call(env.cli, argv)
    o.synth_s = secs
    if rc != 0:
        return fail(f"synthesize exit {rc}: {stderr.strip()[:200]}", False)
    try:
        made = summary(stdout)
        made_c, made_l = Fraction(made["complexity"]), Fraction(made["latency"])
    except (KeyError, ValueError, ZeroDivisionError):
        return fail(f"synthesize printed no complexity and latency: {stdout.strip()[:200]}", True)
    path = str(out / "structure.json")
    secs, rc, stdout, stderr = call(env.cli, ["validate", path])
    o.check_s += secs
    if rc != 0 or parse_json(stdout).get("ok") is not True:
        return fail(f"validate exit {rc}: {(stdout or stderr).strip()[:200]}", True)
    secs, rc, stdout, stderr = call(env.cli, ["eval", path, "--costs", cost])
    o.check_s += secs
    if rc != 0:
        return fail(f"eval exit {rc}: {stderr.strip()[:200]}", True)
    try:
        seen = summary(stdout)
        got_c, got_l = Fraction(seen["complexity"]), Fraction(seen["latency"])
    except (KeyError, ValueError, ZeroDivisionError):
        return fail(f"eval printed no complexity and latency: {stdout.strip()[:200]}", True)
    if (made_c, made_l) != (got_c, got_l):
        return fail(f"eval {got_c}, {got_l} != synthesize {made_c}, {made_l}", True)

    if req.kind == "verify":
        secs, rc, stdout, stderr = call(
            env.cli, ["verify", str(req.n), "--costs", cost]
        )
        o.verify_s = secs
        report = parse_json(stdout)
        if rc != 0 or report.get("ok") is not True:
            return fail(f"verify exit {rc}: {(stdout or stderr).strip()[:200]}", True)
    if gate:
        if req.kind == "verify":
            oracle = [Fraction(c["oracle_value"]) for c in report.get("checks", ()) if c.get("name") == "star_latency"]
            if not oracle:
                return fail("verify report has no star_latency check", True)
            want, ceiling = (wl.min_complexity(req.n, req.model.m, req.model.c), min(oracle)), False
        else:
            *want, ceiling = wl.reference(req, env.refs)
        if ceiling:
            if got_c > want[0] or got_l != want[1]:
                return fail(f"complexity {got_c} > recorded {want[0]} or latency {got_l} != {want[1]}", True)
        elif (got_c, got_l) != tuple(want):
            return fail(f"complexity, latency {got_c}, {got_l} != reference {want[0]}, {want[1]}", True)
        digest = tuple(
            hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ("structure.json", "structure.dot")
        )
        first = env.first_hash.setdefault(req.rid, digest)
        if digest != first:
            return fail("structure.json or structure.dot differs from the first execution", True)
    return o


# ---------------------------------------------------------------------------
# measuring


def spin_s() -> float:
    """Median time of a fixed pure-Python loop: a host-speed diagnostic,
    never used to rescale a metric."""
    times = []
    for _ in range(5):
        start = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(perf_counter() - start)
    return statistics.median(times)


def round_order(env: Env, seed: int, r: int) -> list[wl.Request]:
    order = list(env.workload.requests)
    random.Random(f"order:{env.workload.name}:{seed}:{r}").shuffle(order)
    return order


def run_requests(env: Env, seed: int, rounds: int, seconds: float, restart=None):
    """Send requests one after another in whole rounds, each in its own
    seeded order: at least ``rounds``, then another only while it is
    expected (from the last round's length) to end within ``seconds``.
    ``restart`` (the program's set-up) runs before every SETUP_EVERY-th
    request, between two requests."""
    outcomes: list[Outcome] = []
    start = perf_counter()
    r, last = 0, 0.0
    while r < rounds or perf_counter() - start + last <= seconds:
        began = perf_counter()
        for req in round_order(env, seed, r):
            if restart is not None and len(outcomes) % SETUP_EVERY == SETUP_EVERY - 1:
                restart()
            outcomes.append(run_request(env, req))
            outcomes[-1].at = perf_counter() - start
        r, last = r + 1, perf_counter() - began
    return outcomes, r


def traced_round(env: Env, seed: int, r: int):
    """Serve round ``r`` with every public function of mpsynth wrapped."""
    tracer = spanlib.Tracer(env.package)
    tracer.install()
    try:
        outcomes = []
        for i, req in enumerate(round_order(env, seed, r)):
            tracer.request = r * len(env.workload.requests) + i
            outcomes.append(run_request(env, req))
    finally:
        tracer.uninstall()
    return tracer, outcomes


def counts_elsewhere(args, r: int) -> dict[str, int]:
    """The counts of round ``r``, traced in a second process with
    another hash seed, so a count that depends on the process shows."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--count-round", str(r)]
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"counting process exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--count-round", type=int, default=None, metavar="R",
        help="only serve round R traced and print its exact counts as JSON"
        " (what --trace 1 runs in a second process)",
    )
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mpsynth" / "__init__.py").is_file():
        print(f"error: no mpsynth sources under {src}", file=sys.stderr)
        return 2
    part = "count" if args.count_round is not None else "work"
    work = ROOT / ".perfbench" / f"{part}-{args.workload}-{args.seed}"
    try:
        if args.count_round is not None:
            env = prepare(work, args.workload, args.seed)
            start_program(env, src)
            tracer, _ = traced_round(env, args.seed, args.count_round)
            print(json.dumps(spanlib.layer_counts(tracer.spans, tracer.counts)))
            return 0
        return measure(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, src: Path, work: Path) -> int:
    env = prepare(work, args.workload, args.seed)
    setup_times = [start_program(env, src)]
    round_size = len(env.workload.requests)
    spin_before = spin_s()

    tracer = None
    traced: list[Outcome] = []
    if args.trace:
        outcomes, rounds = run_requests(env, args.seed, 1, args.seconds / 6)
        tracer, traced = traced_round(env, args.seed, rounds)
    else:
        outcomes, rounds = run_requests(
            env, args.seed, MIN_ROUNDS, args.seconds,
            restart=lambda: setup_times.append(start_program(env, src)),
        )
    spin_after = spin_s()

    everything = outcomes + traced
    log = ROOT / ".perfbench" / f"executions-{args.workload}-s{args.seed}-t{args.trace}.json"
    log.parent.mkdir(exist_ok=True)
    log.write_text(json.dumps({
        "untraced": [vars(o) for o in outcomes],
        "traced": [vars(o) for o in traced],
        "setup_s": setup_times,
    }) + "\n")
    failed = [o for o in everything if o.failed]
    wrong = [o for o in everything if o.wrong]
    # attempted and failed count requests, not executions: how many
    # executions fit in a run depends on the host's speed
    failed_requests = {o.rid for o in failed}
    for o in sorted({o.note: o for o in failed}.values(), key=lambda o: o.note):
        print(f"failed: {o.note}")
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 client, 1 process;"
          f" {round_size} requests per round, {rounds} rounds, {len(outcomes)} untraced executions")
    print(f"host.spin_s before={spin_before:.6f} after={spin_after:.6f}")

    if not args.trace:
        metrics = end_to_end(outcomes, round_size)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {"req_ok": "ratio", "peak_rss_mib": "MiB"}
        print(f"req_tail_s is p{tail_percentile(MIN_ROUNDS * round_size)} over"
              f" {len(outcomes)} executions of {round_size} requests"
              f" (at least {TAIL_BEYOND} beyond it)")
        print(f"setup_s is the median of {len(setup_times)} set-ups")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units.get(name, 's')}")
        result = {name: {"value": value, "unit": units.get(name, "s")} for name, value in metrics.items()}
    else:
        here = spanlib.layer_counts(tracer.spans, tracer.counts)
        there = counts_elsewhere(args, rounds)
        if here != there:
            diff = {k: (here[k], there.get(k)) for k in here if here[k] != there.get(k)}
            print(f"error: exact counts differ between two traced processes at one seed: {diff}",
                  file=sys.stderr)
            return 1
        print(f"exact counts of round {rounds} agree with a second traced process")
        result = per_layer(tracer, outcomes, traced, spin_before, spin_after)
        out = ROOT / ".perfbench" / f"trace-{args.workload}-s{args.seed}.jsonl"
        tracer.write(out)
        print(f"spans written to {out.relative_to(ROOT)}")
        for command, shares in spanlib.command_shares(tracer.spans).items():
            print(f"{command}: self time by layer: "
                  + ", ".join(f"{layer} {share:.1%}" for layer, share in shares.items()))
        for name, entry in result.items():
            print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": round_size,
        "failed": len(failed_requests),
        "metrics": result,
    }))
    return 0


def per_layer(tracer, untraced, traced, spin_before, spin_after) -> dict:
    """Per-layer metrics of one traced round."""
    out: dict[str, tuple[float, str]] = {}
    for name, secs in spanlib.layer_times(tracer.spans).items():
        out[name] = (secs, "s")
    counts = spanlib.layer_counts(tracer.spans, tracer.counts)
    for name, value in counts.items():
        out[name] = (value, "count")
    emitted = counts["structure.emitted"]
    out["structure.kept_ratio"] = (counts["structure.nodes"] / emitted if emitted else 0.0, "ratio")
    for name, value in spanlib.layer_errors(tracer.errors).items():
        out[name] = (value, "count")
    p50 = nearest_rank([o.req_s for o in untraced], 50)
    out["trace.overhead_s"] = (nearest_rank([o.req_s for o in traced], 50) - p50, "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    out["host.spin_before_s"] = (spin_before, "s")
    out["host.spin_after_s"] = (spin_after, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


if __name__ == "__main__":
    sys.exit(main())
