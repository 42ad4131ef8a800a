from __future__ import annotations

import mpsynth

from conftest import load_tool


def test_grid_cells_time_and_trace_every_stage():
    bench = load_tool()
    cells = bench.run_grid(mpsynth, sizes=(8,), fan_ins=(3,))
    assert [(c["mode"], c["n"], c["m"]) for c in cells] == [("star", 8, 3), ("isom", 8, 3)]
    for cell in cells:
        assert cell["error"] is None
        assert cell["report_ok"] is True
        assert list(cell["stages"]) == list(bench.STAGES)
        assert all(set(stage) == {"cpu_s", "peak_mib"} for stage in cell["stages"].values())


def test_grid_records_a_raising_cell_and_goes_on(monkeypatch):
    bench = load_tool()

    def too_deep(n, cm):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(mpsynth, "synthesize_star", too_deep)
    star, isom = bench.run_grid(mpsynth, sizes=(8,), fan_ins=(3,))
    assert star["error"] == {
        "stage": "synthesize",
        "type": "RecursionError",
        "message": "maximum recursion depth exceeded",
    }
    assert star["stages"] == {}
    assert isom["error"] is None


def test_verify_row_times_and_traces_each_report():
    bench = load_tool()
    row = bench.run_verify_row(mpsynth, sizes=(5, 6), fan_ins=(3,))
    assert [(c["m"], c["n"]) for c in row] == [(3, 5), (3, 6)]
    for cell in row:
        assert cell["error"] is None and cell["ok"] is True and cell["checks"] > 0
        assert cell["cpu_s"] >= 0 and cell["peak_mib"] > 0


def test_broken_row_times_and_traces_validate_on_both_variants():
    bench = load_tool()
    row = bench.run_broken_row(mpsynth, sizes=(9, 15))
    assert [(c["variant"], c["n"], c["m"]) for c in row] == [
        (variant, n, 3) for n in (9, 15) for variant in ("extra_operand", "duplicate_node")
    ]
    for cell in row:
        assert cell["error"] is None and cell["failed"]
        assert cell["cpu_s"] >= 0 and cell["peak_mib"] > 0
