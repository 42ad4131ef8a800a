"""Tests of the benchmark itself (not of mpsynth).

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import collections
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("name", wl.WORKLOAD_NAMES)
def test_same_seed_same_requests(name):
    a, b = wl.make_workload(name, 7), wl.make_workload(name, 7)
    assert a == b
    assert [m.to_json() for m in a.models] == [m.to_json() for m in b.models]
    assert wl.make_workload(name, 8) != a
    assert len(a.requests) == len({r.rid for r in a.requests})


def test_every_drawable_size_has_a_reference():
    refs = wl.load_refs()
    for seed in range(40):
        for name in wl.WORKLOAD_NAMES:
            for req in wl.make_workload(name, seed).requests:
                if req.kind != "verify":  # gated by the verify report
                    wl.reference(req, refs)


def test_star_chain_keeps_the_known_defect():
    reqs = wl.make_workload("chain-isom", 3).requests
    assert [(r.n, r.model.m, r.model.c) for r in reqs if r.n == wl.KNOWN_DEFECT_N] == [
        (1000, 3, wl.F(1, 2))
    ]


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds d [2, 3]) and c [5, 7]
    s = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("d", 2.0, 3.0, 1, 0),
        ("c", 5.0, 7.0, 0, 0),
    ]
    assert spans.self_times(s) == [5.0, 2.0, 1.0, 2.0]


def test_covered_merges_overlaps():
    assert spans.covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4
    assert spans.covered([]) == 0


def test_recursive_span_time_counts_once():
    t = "drt.tree_latency"
    s = [
        ("cli.verify", 0.0, 10.0, -1, 0),
        (t, 1.0, 4.0, 0, 0),
        (t, 2.0, 3.0, 1, 0),
        (t, 5.0, 6.0, 0, 0),
    ]
    assert spans.outermost(s, t) == [1, 3]
    times = spans.layer_times(s)
    assert times["drt.tree_latency.s"] == 4.0
    assert times["cli.verify.self_s"] == 6.0
    assert spans.layer_counts(s, spans.Counter())["drt.tree_latency.calls"] == 3


def test_failed_requests_are_infinite_latency():
    assert run.tail_percentile(run.MIN_ROUNDS * 40) == 91
    assert run.tail_percentile(30) == 66
    # 10 requests, 3 executions each; all of request r9's fail
    outcomes = [
        run.Outcome(f"r{i % 10}", failed=i % 10 == 9, synth_s=i + 1.0, check_s=(i + 1) / 10)
        for i in range(30)
    ]
    metrics = run.end_to_end(outcomes, round_size=10)
    assert metrics["req_ok"] == 0.9
    ok = sorted(1.1 * (i + 1) for i in range(30) if i % 10 != 9)
    assert metrics["req_p50_s"] == pytest.approx(ok[14])  # the 15th of 30
    assert metrics["req_tail_s"] == pytest.approx(ok[19])  # p66: the 20th, 10 beyond
    assert metrics["synth_p50_s"] == pytest.approx(ok[14] / 1.1)
    for o in outcomes[:8]:
        o.failed = True
    metrics = run.end_to_end(outcomes, round_size=10)
    assert metrics["req_tail_s"] == math.inf  # 11 failures reach p66
    assert metrics["req_ok"] == pytest.approx(0.1)
    # a failure never lowers a percentile, even one that took no time
    assert run.nearest_rank([1.0, 2.0, math.inf], 50) == 2.0
    assert run.nearest_rank([1.0, math.inf, math.inf], 50) == math.inf


def test_runs_serve_whole_rounds(monkeypatch):
    env = SimpleNamespace(workload=wl.make_workload("ties-verify", 1))
    size = len(env.workload.requests)
    monkeypatch.setattr(run, "run_request", lambda env, req: run.Outcome(req.rid))
    outcomes, rounds = run.run_requests(env, seed=1, rounds=2, seconds=0.0)
    assert rounds == 2 and len(outcomes) == 2 * size
    assert collections.Counter(o.rid for o in outcomes) == {r.rid: 2 for r in env.workload.requests}
    assert [o.rid for o in outcomes[:size]] != [o.rid for o in outcomes[size:]]  # each round its own order


def test_references_agree_with_oracles():
    import make_refs
    from mpsynth import oracles
    from mpsynth.drt import tree_latency

    cm = make_refs.costs.load_cost_model('{"m": 3, "c": [1, 2], "l": ["5/2", 3]}')
    for n in range(4, 9):
        want = (wl.min_complexity(n, 3, wl.F(1, 2)), wl.min_binary_star_latency(n, wl.Fraction(5, 2)))
        assert make_refs.oracle_star(n, cm) == want
        rooted = min(tree_latency(t, cm) for t in oracles.enumerate_rooted_trees(n - 1, 3))
        assert wl.min_ceiling_latency(n, cm.l[2:]) == rooted


def small_env(tmp_path):
    """An env serving three small requests, one of each kind."""
    env = run.prepare(tmp_path / "work", "ties-verify", 1)
    run.start_program(env, HERE.parent / "src")
    small = [
        wl.Request("a", "star", 14, wl.Model("c3", 3, wl.F(1, 2), wl.F(1, 2))),
        wl.Request("b", "isom", 21, wl.ISOM_MODELS[1]),
        wl.Request("c", "verify", 7, env.workload.requests[0].model),
    ]
    for model in {r.model for r in small}:
        path = tmp_path / f"{model.name}.json"
        path.write_text(model.to_json(), encoding="ascii")
        env.costs[model.name] = str(path)
    return env, small


def test_traced_counts_repeat_exactly(tmp_path):
    env, small = small_env(tmp_path)
    seen = []
    for _ in range(2):
        tracer = spans.Tracer(env.package)
        tracer.install()
        try:
            outcomes = [run.run_request(env, req, gate=False) for req in small]
        finally:
            tracer.uninstall()
        assert not any(o.failed for o in outcomes)
        seen.append(spans.layer_counts(tracer.spans, tracer.counts))
    assert seen[0] == seen[1]
    assert seen[0]["oracles.checks"] > 0 and seen[0]["structure.prune_actions"] > 0
    assert seen[0]["structure.emitted"] >= seen[0]["structure.nodes"] > 0
    # uninstall restored every original function
    assert env.cli.synthesize_star.__module__ == "mpsynth.staropt"
    assert not hasattr(env.package.structure.DagBuilder.build, "__wrapped__")


class SilentSynthesize:
    """A CLI whose ``synthesize`` claims success without writing anything."""

    def __init__(self, cli, stdout):
        self.cli, self.stdout = cli, stdout

    def main(self, argv):
        if argv[0] == "synthesize":
            print(self.stdout, end="")
            return 0
        return self.cli.main(argv)


def test_gate_never_reads_a_previous_execution(tmp_path):
    env, small = small_env(tmp_path)
    req = small[0]
    good = run.run_request(env, req)
    assert not good.failed
    _, _, stdout, _ = run.call(env.cli, ["synthesize", "star", str(req.n), "--costs", env.costs["c3"]])
    env.cli = SilentSynthesize(env.cli, stdout)
    stale = run.run_request(env, req)
    assert stale.failed and stale.wrong  # validate finds no structure.json


def test_a_raising_synthesize_is_failed_not_wrong(tmp_path):
    env, small = small_env(tmp_path)

    class Raising:
        def main(self, argv):
            raise RecursionError("maximum recursion depth exceeded")

    env.cli = Raising()
    o = run.run_request(env, small[0])
    assert o.failed and not o.wrong and o.req_s == math.inf

