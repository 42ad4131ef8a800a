from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsynth import (
    cli,
    dumps,
    load_cost_model,
    loads,
    synthesize_min_latency,
    synthesize_star,
    to_dot,
    validate,
)
from mpsynth.cli import build_parser, main

from conftest import seven_input_structure, wire_structure

COSTS = '{"m": 3, "c": [1, 2], "l": [1, 1]}'


@pytest.fixture
def costs_file(tmp_path: Path) -> Path:
    path = tmp_path / "costs.json"
    path.write_text(COSTS)
    return path


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "mpsynth", *argv],
        capture_output=True,
        text=True,
    )


def test_synthesize_star_summary(tmp_path, costs_file, capsys):
    code = main(
        ["synthesize", "star", "7", "--costs", str(costs_file), "--out", str(tmp_path / "o")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "complexity  15" in out
    assert "latency     4" in out
    assert "[5, 0]" in out
    dag = loads((tmp_path / "o" / "structure.json").read_bytes())
    assert validate(dag).ok


def test_synthesize_isom_summary(tmp_path, costs_file, capsys):
    code = main(
        ["synthesize", "isom", "7", "--costs", str(costs_file), "--out", str(tmp_path / "o")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "complexity  21" in out  # 7*c2 + 7*c3
    assert "latency     2" in out


def test_isom_without_prune_overprovisions(costs_file, capsys):
    # n - 1 = 7 is prime, above m = 3: the shape for n' = 10, built at 8
    code = main(["synthesize", "isom", "8", "--costs", str(costs_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "n_prime     10" in out


def test_isom_beats_exact_size_latency(costs_file, capsys):
    # the exact n' = 9 shape w = (3, 0) has latency 3; the n' = 10 shape
    # (0, 2), built at 9, gives 2
    code = main(["synthesize", "isom", "9", "--costs", str(costs_file), "--all-optima"])
    out = capsys.readouterr().out
    assert code == 0
    assert "latency     2" in out
    assert "all_w       [[0, 2]]" in out


def test_isom_prune_flag(tmp_path, costs_file, capsys):
    code = main(
        [
            "synthesize",
            "isom",
            "8",
            "--costs",
            str(costs_file),
            "--prune",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "n_prime     10" in out
    assert "[0, 2]" in out
    dag = loads((tmp_path / "o" / "structure.json").read_bytes())
    assert dag.n == 8
    assert validate(dag).ok


def test_validate_roundtrip(tmp_path, costs_file, capsys):
    main(["synthesize", "star", "6", "--costs", str(costs_file), "--out", str(tmp_path / "o")])
    capsys.readouterr()
    code = main(["validate", str(tmp_path / "o" / "structure.json")])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["ok"] is True


def test_validate_flags_broken_file(tmp_path, capsys):
    raw = {
        "n": 2,
        "m": 2,
        "nodes": [{"id": 0, "label": "x1"}, {"id": 1, "label": "y1"}],
        "edges": [[0, 1]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code = main(["validate", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["ok"] is False


def test_validate_a_tiny_file_declaring_a_huge_n(tmp_path, capsys):
    # the wire structure's four nodes, declared at n = 10^6: every label
    # list in the report names its first labels and counts the rest
    raw = {
        "n": 10**6,
        "m": 2,
        "nodes": [
            {"id": 0, "label": "x1"},
            {"id": 1, "label": "x2"},
            {"id": 2, "label": "y1"},
            {"id": 3, "label": "y2"},
        ],
        "edges": [[1, 2], [0, 3]],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    start = time.process_time()
    code = main(["validate", str(path)])
    assert time.process_time() - start < 0.2
    out = capsys.readouterr().out
    assert code == 3 and len(out) < 4096
    witness = {check["name"]: check["witness"] for check in json.loads(out)["checks"]}
    assert witness["inputs"] == "missing inputs: " + ", ".join(
        f"x{j}" for j in range(3, 23)
    ) + " and 999978 more"
    assert witness["output_trees"].startswith(
        "y1: missing leaves x10, x100, x1000, x10000, x100000, x1000000, x100001,"
    )
    assert witness["output_trees"].count(" and 999978 more") == 2


@pytest.mark.parametrize("n", [10**18, 10**30], ids=["1e18", "1e30"])
def test_a_structure_file_declaring_n_of_1e9_or_more_is_a_load_error(tmp_path, capsys, n):
    # the checks hold a bit per input: at n = 10^18 that is a MemoryError,
    # at 10^30 an OverflowError, unless the loader refuses the file first
    raw = {"n": n, "m": 2, "nodes": [{"id": 0, "label": "x1"}, {"id": 1, "label": "y2"}]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**raw, "edges": [[0, 1]]}))
    assert main(["validate", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": f"cannot load structure: structure.n: expected an integer below 10**9, got {n}"
    }


def test_eval_reference_structure(tmp_path, costs_file, capsys):
    dag = seven_input_structure("ascending")
    path = tmp_path / "ref.json"
    path.write_text(dumps(dag))
    code = main(["eval", str(path), "--costs", str(costs_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "complexity  23" in out  # 8 three-input units at 2 plus 7 at 1
    assert "latency     2" in out


def test_export_dot(tmp_path, costs_file, capsys):
    main(["synthesize", "star", "5", "--costs", str(costs_file), "--out", str(tmp_path / "o")])
    capsys.readouterr()
    code = main(["export", str(tmp_path / "o" / "structure.json"), "--format", "dot"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("digraph structure {")


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_export_out_writes_the_serialized_file(tmp_path, capsys, fmt):
    dag = seven_input_structure("cyclic")
    source = tmp_path / "in.json"
    source.write_text(dumps(dag))
    out = tmp_path / "exported"
    assert main(["export", str(source), "--format", fmt, "--out", str(out)]) == 0
    written = out / f"structure.{fmt}"
    assert written.read_text() == (dumps(dag) if fmt == "json" else to_dot(dag))
    assert capsys.readouterr().out == f"wrote {written}\n"


def test_eval_fan_in_above_the_cost_model_is_usage_error(tmp_path, capsys):
    costs = tmp_path / "costs2.json"
    costs.write_text('{"m": 2, "c": [1], "l": [1]}')
    path = tmp_path / "structure.json"
    path.write_text(dumps(seven_input_structure("cyclic")))  # has fan-in 3 nodes
    assert main(["eval", str(path), "--costs", str(costs)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"].endswith("> cost model m = 2")


@pytest.mark.parametrize("command", ["validate", "eval", "export"])
def test_unreadable_structure_is_usage_error_malformed_is_mismatch(
    tmp_path, costs_file, capsys, command
):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"n": 3}')
    extra = ["--costs", str(costs_file)] if command == "eval" else []
    cases = [
        (tmp_path / "missing.json", 1, "cannot read structure: "),
        (tmp_path, 1, "cannot read structure: "),  # a directory
        (malformed, 3, "cannot load structure: "),
    ]
    for path, code, prefix in cases:
        assert main([command, str(path), *extra]) == code, path
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"].startswith(prefix), path


def test_a_deeply_nested_structure_file_is_a_load_error(tmp_path, capsys):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000)
    assert main(["validate", str(nested)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error.startswith("cannot load structure: structure file is nested too deeply: ")


def test_a_deeply_nested_cost_model_is_a_cost_model_error(tmp_path, capsys):
    nested = tmp_path / "costs.json"
    nested.write_text('{"m": 3, "c": ' + "[" * 200_000)
    assert main(["synthesize", "star", "7", "--costs", str(nested)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error.startswith("cost model: config is nested too deeply: ")


@pytest.mark.parametrize(
    "costs",
    [
        '{"m": 2, "c": [1' + "0" * 5000 + '], "l": [1]}',
        '{"m": 2, "c": [1], "l": ["1e-1000000"]}',
        '{"m": 2, "c": [1], "l": ["1e-10000000"]}',
    ],
    ids=["json int", "exponent", "longer exponent"],
)
def test_a_huge_cost_factor_is_a_cost_model_error(tmp_path, capsys, costs):
    path = tmp_path / "costs.json"
    path.write_text(costs)
    start = time.process_time()
    code = main(["synthesize", "isom", "7", "--costs", str(path), "--out", str(tmp_path / "out")])
    elapsed = time.process_time() - start
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["error"].endswith(": more than 1000 digits")
    assert json.loads(captured.err)["error"].startswith("cost model: ")
    assert elapsed < 1.0  # the parent spent 12 s building 10**10000000


def test_synthesize_star_all_optima(tmp_path, capsys):
    # 3 * c2 == 4 * c3 / 2: every degree vector for n = 9 is optimal
    costs = tmp_path / "ties.json"
    costs.write_text('{"m": 3, "c": [2, 3], "l": [1, 1]}')
    assert main(["synthesize", "star", "9", "--costs", str(costs), "--all-optima"]) == 0
    out = capsys.readouterr().out
    assert "all_q       [[1, 3], [3, 2], [5, 1], [7, 0]]\n" in out


def test_verify_all_pass(costs_file, capsys):
    code = main(["verify", "7", "--costs", str(costs_file)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["ok"] is True
    assert all(check["pass"] for check in report["checks"])


def test_verify_names_the_checks_it_skips(costs_file, capsys):
    code = main(["verify", "20", "--costs", str(costs_file)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["ok"] is True
    assert {check["name"] for check in report["checks"]} == {"star_complexity", "forest_latency"}
    assert report["skipped"] == [
        {"name": "star_latency", "reason": "n = 20 exceeds the star-tree budget 12"},
        {"name": "uniform_latency", "reason": "n - 1 = 19 has no factorization over [2, 3]"},
        {"name": "labeling_minimality", "reason": "n = 20 exceeds the labeling budget 5"},
        {"name": "latency_dominance", "reason": "n - 1 = 19 exceeds the rooted-tree budget 8"},
    ]


def test_every_emitted_structure_validates(tmp_path, costs_file, capsys):
    cases = [("star", "5", []), ("star", "9", []), ("isom", "7", []), ("isom", "11", ["--prune"])]
    for i, (mode, n, extra) in enumerate(cases):
        out = tmp_path / f"case{i}"
        assert (
            main(["synthesize", mode, n, "--costs", str(costs_file), "--out", str(out), *extra])
            == 0
        )
        capsys.readouterr()
        assert main(["validate", str(out / "structure.json")]) == 0
        capsys.readouterr()


def test_bad_cost_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "costs.json"
    path.write_text('{"m": 1}')
    code = main(["synthesize", "star", "7", "--costs", str(path)])
    assert code == 1


def test_missing_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 1


def test_manifest_written(tmp_path, costs_file):
    main(["synthesize", "star", "7", "--costs", str(costs_file), "--out", str(tmp_path / "o")])
    manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
    assert manifest["command"] == "synthesize"
    assert manifest["parameters"] == {"mode": "star", "n": 7, "all_optima": False}
    assert manifest["tool_version"]
    assert len(manifest["cost_model_digest"]) == 64
    assert manifest["outputs"] == ["structure.json", "structure.dot"]


def test_subprocess_entry_point(tmp_path, costs_file):
    proc = run_cli("synthesize", "star", "7", "--costs", str(costs_file))
    assert proc.returncode == 0
    assert "complexity  15" in proc.stdout


@pytest.mark.parametrize("command", ["synthesize", "export"])
def test_out_naming_a_file_is_usage_error(tmp_path, costs_file, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("")
    source = tmp_path / "structure.json"
    source.write_text(dumps(seven_input_structure("cyclic")))
    argv = {
        "synthesize": ["synthesize", "star", "7", "--costs", str(costs_file)],
        "export": ["export", str(source), "--format", "json"],
    }[command]
    assert main([*argv, "--out", str(taken)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"].startswith("cannot write artifacts: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "0"], "verify needs n >= 2, got 0"),
        (["verify", "1"], "verify needs n >= 2, got 1"),
        (["verify", "5", "--budget-leaves", "0"], "--budget-leaves must be >= 1, got 0"),
        (["synthesize", "star", "2"], "synthesis needs n >= 3, got 2"),
    ],
)
def test_verify_bad_arguments_are_usage_errors(costs_file, capsys, argv, message):
    assert main([*argv, "--costs", str(costs_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": message}


@pytest.mark.parametrize("m", [1100, 1500])
def test_verify_takes_more_degree_classes_than_the_recursion_limit(tmp_path, capsys, m):
    # the degree and type vector enumerations recursed once per class,
    # and verify ended in "internal error: RecursionError"
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"m": m, "c": [1] * (m - 1), "l": [1] * (m - 1)}))
    assert main(["verify", "10", "--costs", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["ok"] is True


@pytest.mark.parametrize("n", [10**9, 10**21], ids=["1e9", "1e21"])
@pytest.mark.parametrize(
    "command",
    [["synthesize", "star"], ["synthesize", "isom"], ["verify"]],
    ids=["star", "isom", "verify"],
)
def test_a_size_of_1e9_or_more_is_refused_before_anything_is_built(
    monkeypatch, costs_file, capsys, command, n
):
    # the tables grow with n and ended in "internal error: MemoryError";
    # the size is refused before any of them is made (the synthesizers
    # are stubbed, so a regression cannot take the host's memory)
    def unreachable(*args):
        raise AssertionError("a refused size reached synthesis")

    for name in ("synthesize_star", "synthesize_min_latency", "verify_report"):
        monkeypatch.setattr(cli, name, unreachable)
    tracemalloc.start()
    try:
        assert main([*command, str(n), "--costs", str(costs_file)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    what = "verify" if command == ["verify"] else "synthesis"
    assert json.loads(captured.err) == {"error": f"{what} needs n < 10**9, got {n}"}


def test_undocumented_exception_is_a_json_error(monkeypatch, costs_file, capsys):
    def broken(n, cm):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "synthesize_min_latency", broken)
    assert main(["synthesize", "isom", "7", "--costs", str(costs_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert json.loads(captured.err) == {"error": "internal error: RuntimeError: boom"}


def run_cli_into_closed_pipe(*argv: str) -> subprocess.CompletedProcess:
    """Run the CLI with standard output on a pipe whose reader is gone,
    block-buffered as a pipe is by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "mpsynth", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["export", "FILE"], id="export"),
        pytest.param(["validate", "FILE"], id="validate"),
        pytest.param(["--help"], id="help"),
        pytest.param(["--version"], id="version"),
        pytest.param(["synthesize", "--help"], id="synthesize-help"),
    ],
)
def test_closed_stdout_exits_quietly(tmp_path, cm_steep, argv):
    dag = synthesize_min_latency(200, cm_steep).structure
    path = tmp_path / "structure.json"
    path.write_text(dumps(dag))
    # export's DOT text overflows the stdout buffer, so print fails;
    # validate's short report, the help and the version fail at the
    # final flush
    assert len(to_dot(dag)) > io.DEFAULT_BUFFER_SIZE
    proc = run_cli_into_closed_pipe(*(str(path) if arg == "FILE" else arg for arg in argv))
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_successive_calls_share_one_parser(tmp_path, costs_file, capsys):
    out = tmp_path / "o"
    calls = [
        (["synthesize", "star", "7", "--costs", str(costs_file), "--out", str(out)], 0),
        (["synthesize", "star"], 1),  # usage error: n missing
        (["validate", str(out / "structure.json")], 0),
        (["eval", str(out / "structure.json"), "--costs", str(costs_file)], 0),
        (["synthesize", "isom", "7", "--costs", str(costs_file), "--all-optima"], 0),
        (["verify", "5", "--costs", str(costs_file)], 0),
    ]
    first = []
    for argv, code in calls:
        assert main(argv) == code, argv
        first.append(capsys.readouterr())
    assert build_parser.cache_info().currsize == 1
    # a second pass over the same calls, the usage error included, reads the same
    for (argv, code), before in zip(calls, first):
        assert main(argv) == code, argv
        assert capsys.readouterr() == before, argv
    assert "all_w" in first[4].out and "complexity  15" in first[0].out
    assert "usage: mpsynth synthesize" in first[1].err


def test_star_1000_synthesizes_and_validates(tmp_path, costs_file, capsys):
    # the complexity backtrack used to recurse once per size here
    out = tmp_path / "o"
    assert main(["synthesize", "star", "1000", "--costs", str(costs_file), "--out", str(out)]) == 0
    assert "q           [998, 0]" in capsys.readouterr().out
    assert main(["validate", str(out / "structure.json")]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


# ---------------------------------------------------------------------------
# property: no input file makes a traceback or an internal error

# values that are wrong in kind or size for some field, and the near misses
ODD_VALUES = [-1, 0, 1, 2, 3, 4, 7, 10**6, 10**9, 10**18, 10**30, True, False, None]
ODD_VALUES += [2.0, 2.5, float("inf"), "2", "1/0", "0/0", "a", "-1/2", [], {}, [0, 1]]
ODD_SIZES = [2, 3, 4, 5, 6, 7, 8, 10**6, 10**9, 10**18, 10**30, 0, -1, True, None, "2", 2.5]
ODD_LABELS = [None, "x1", "y1", "x2", "y2", "x0", "y0", "x01", "z1", "x", "", "x-1"]
ODD_LABELS += ["x9", "y9", "y" + "9" * 30, 1, True, []]
# each change to a structure file, the ones a loader lets through more often
STRUCTURE_CHANGES = ["n", "n", "m", "id", "label", "label", "drop field", "drop key"]
STRUCTURE_CHANGES += ["drop edge", "drop edge", "add edge", "add edge", "reverse edge"]
STRUCTURE_CHANGES += ["drop node", "add node", "odd list"]


@functools.cache
def valid_structures() -> tuple[str, ...]:
    cm = load_cost_model(COSTS)
    dags = [synthesize_star(5, cm).structure, synthesize_min_latency(7, cm).structure]
    return tuple(map(dumps, [*dags, wire_structure()]))


VALID_COSTS = [COSTS, '{"m": 2, "c": [1], "l": [1]}']
VALID_COSTS += ['{"m": 4, "c": [0, 0, 1, "3/2", 2], "l": [1, 1, 2]}']


def _some(draw, values):
    return draw(st.sampled_from(values))


@st.composite
def structure_texts(draw) -> str:
    """A valid structure file, changed in one to three places, written
    as dumps writes it (so the scanner reads it first) or indented."""
    raw = json.loads(draw(st.sampled_from(valid_structures())))
    for _ in range(draw(st.integers(1, 3))):
        # a list a change has replaced stands in as an empty one
        nodes = raw.get("nodes") if isinstance(raw.get("nodes"), list) else []
        edges = raw.get("edges") if isinstance(raw.get("edges"), list) else []
        node = _some(draw, nodes) if nodes else None
        ids = [v.get("id") for v in nodes if isinstance(v, dict)]
        end = st.sampled_from(ids + ODD_VALUES)
        change = _some(draw, STRUCTURE_CHANGES)
        if change in ("n", "m"):
            raw[change] = _some(draw, ODD_SIZES)
        elif change == "id" and isinstance(node, dict):
            node["id"] = draw(end)
        elif change == "label" and isinstance(node, dict):
            node["label"] = _some(draw, ODD_LABELS)
        elif change == "drop field" and isinstance(node, dict):
            node.pop(_some(draw, ["id", "label"]), None)
        elif change == "drop key":
            raw.pop(_some(draw, ["n", "m", "nodes", "edges"]), None)
        elif change == "odd list":
            raw[_some(draw, ["nodes", "edges"])] = _some(draw, ODD_VALUES)
        elif change == "drop edge" and edges:
            edges.remove(_some(draw, edges))
        elif change == "add edge":
            edges.append(draw(st.one_of(st.tuples(end, end).map(list), st.lists(end, max_size=3))))
        elif change == "reverse edge" and edges:
            edge = _some(draw, edges)
            edges.append(edge[::-1] if isinstance(edge, list) else edge)
        elif change == "drop node" and nodes:
            nodes.remove(node)
        elif change == "add node":
            nodes.append({"id": draw(end), "label": _some(draw, ODD_LABELS)})
    if draw(st.booleans()):
        return json.dumps(raw, sort_keys=True, separators=(",", ":")) + "\n"
    return json.dumps(raw, indent=2)


@st.composite
def cost_texts(draw) -> str:
    """A valid cost model, changed in one or two places."""
    raw = json.loads(draw(st.sampled_from(VALID_COSTS)))
    for _ in range(draw(st.integers(1, 2))):
        key = _some(draw, ["m", "c", "l"])
        factors = raw.get(key)
        change = _some(draw, ["field", "factor", "length", "drop key"])
        if change == "field" or not isinstance(factors, list) or not factors:
            raw[key] = _some(draw, ODD_VALUES)
        elif change == "factor":
            factors[draw(st.integers(0, len(factors) - 1))] = _some(draw, ODD_VALUES)
        elif change == "length":
            factors.pop() if draw(st.booleans()) else factors.append(factors[-1])
        else:
            raw.pop(key)
    return json.dumps(raw)


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    structure=structure_texts(),
    costs=st.one_of(st.sampled_from(VALID_COSTS), cost_texts()),
    mode=st.sampled_from(["star", "isom"]),
    n=st.integers(3, 9),
    fmt=st.sampled_from(["json", "dot"]),
)
def test_mutated_files_get_a_documented_exit_and_one_json_error(structure, costs, mode, n, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path, costs_path, out = (os.path.join(tmp, name) for name in ("s.json", "c.json", "o"))
        Path(path).write_text(structure)
        Path(costs_path).write_text(costs)
        for argv in (
            ["validate", path],
            ["eval", path, "--costs", costs_path],
            ["export", path, "--format", fmt],
            ["export", path, "--format", fmt, "--out", out],
            ["synthesize", mode, str(n), "--costs", costs_path, "--out", out],
        ):
            code, stdout, stderr = run_in_process(argv)
            assert code in (0, 1, 3), argv
            if stderr:
                assert code != 0 and stderr.endswith("\n") and stderr.count("\n") == 1, stderr
                error = json.loads(stderr)["error"]
                assert not error.startswith("internal error"), (argv[0], error, structure, costs)
            elif code:
                # a failing validation is validate's report, on standard output
                assert argv[0] == "validate" and code == 3, (code, structure, costs)
                assert json.loads(stdout)["ok"] is False
