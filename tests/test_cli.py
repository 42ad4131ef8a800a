from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mpsynth import cli, dumps, loads, synthesize_min_latency, to_dot, validate
from mpsynth.cli import build_parser, main

from conftest import seven_input_structure

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
