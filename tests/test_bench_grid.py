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
        for name, stage in cell["stages"].items():
            extra = {"kept_mib"} if name == "loads" else set()
            assert set(stage) == {"cpu_s", "peak_mib"} | extra
        # the loaded structure outlives its stage, and the stage's peak holds it
        loads = cell["stages"]["loads"]
        assert 0 < loads["kept_mib"] <= loads["peak_mib"]


def test_best_cpu_takes_the_least_of_three_samples_under_a_second(monkeypatch):
    bench = load_tool()
    calls = []

    def call(arg):
        calls.append(arg)
        return len(calls)

    # samples of 0.5, 0.25 and 0.75 s, each on a fresh argument
    clock = iter([0.0, 0.5, 1.0, 1.25, 2.0, 2.75])
    monkeypatch.setattr(bench.time, "process_time", lambda: next(clock))
    made = iter("abc")
    assert bench.best_cpu(call, lambda: (next(made),)) == (1, 0.25)
    assert calls == ["a", "b", "c"]
    # a first sample of 1 s or more is the only one
    clock = iter([0.0, 1.5])
    assert bench.best_cpu(call, lambda: ("d",)) == (4, 1.5)
    assert calls == ["a", "b", "c", "d"]


def test_no_sample_reads_a_canonical_order_cached_before_it(monkeypatch):
    bench = load_tool()
    seen = []  # (stage, Dag, whether it came in with a canonical order)

    def recording(name, real):
        def call(dag):
            seen.append((name, dag, "_canonical_order" in dag.__dict__))
            return real(dag)

        return call

    for name in ("dumps", "to_dot"):
        monkeypatch.setattr(mpsynth, name, recording(name, getattr(mpsynth, name)))
    bench.run_grid(mpsynth, sizes=(8,), fan_ins=(3,))
    stages = [name for name, _, _ in seen]
    # per cell: three untimed samples and one traced call of each stage
    assert stages == (["dumps"] * 3 + ["to_dot"] * 3 + ["dumps", "to_dot"]) * 2
    assert not any(cached for _, _, cached in seen)
    assert len({id(dag) for _, dag, _ in seen}) == len(seen)  # seen keeps each alive


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


def test_tied_row_times_each_cell():
    bench = load_tool()
    cells = ((3, (1, "3/2"), (1, "3/2"), (8, 12)), (4, (1, "3/2", 2), (1, "4/3", "5/3"), (9,)))
    row = bench.run_tied_row(mpsynth, cells=cells)
    assert [(c["m"], c["n"]) for c in row] == [(3, 8), (3, 12), (4, 9)]
    for cell in row:
        assert cell["error"] is None and cell["cpu_s"] >= 0 and cell["optima"] > 1
        cm = mpsynth.CostModel.from_factors(
            cell["m"], *next(f for m, *f, _ in cells if m == cell["m"])
        )
        syn = mpsynth.synthesize_star(cell["n"], cm)
        assert cell["q"] == list(syn.q)
        assert cell["latency"] == mpsynth.format_rational(syn.latency)


def test_tied_row_records_a_capped_cell_and_goes_on(monkeypatch):
    bench = load_tool()
    synthesize_star = mpsynth.synthesize_star

    def spin_at_nine(n, cm):
        while n == 9:  # until the CPU cap stops it
            pass
        return synthesize_star(n, cm)

    monkeypatch.setattr(mpsynth, "synthesize_star", spin_at_nine)
    row = bench.run_tied_row(mpsynth, cells=((3, (1, "3/2"), (1, "3/2"), (9, 8)),), cap=0.2)
    assert row[0]["error"] == {"type": "CpuCapExceeded", "message": "over the CPU cap of 0.2 s"}
    assert "cpu_s" not in row[0]
    assert row[1]["error"] is None and row[1]["q"]


def test_large_row_times_each_synthesis_on_the_grid_model():
    bench = load_tool()
    row = bench.run_large_row(mpsynth, n=40)
    assert [(c["mode"], c["m"], c["n"]) for c in row] == [
        ("star", 3, 40),
        ("isom", 2, 40),
        ("isom", 3, 40),
    ]
    isom = mpsynth.synthesize_min_latency
    for cell, synthesize in zip(row, (mpsynth.synthesize_star, isom, isom)):
        assert cell["error"] is None and cell["cpu_s"] >= 0
        cm = mpsynth.CostModel.from_factors(cell["m"], *bench.cost_factors(cell["m"]))
        syn = synthesize(40, cm)
        assert cell["nodes"] == syn.structure.node_count
        assert cell["latency"] == mpsynth.format_rational(syn.latency)
    assert bench.LARGE_N == 100_000


def test_large_row_records_a_capped_cell_and_goes_on(monkeypatch):
    bench = load_tool()

    def spin(n, cm):
        while True:  # until the CPU cap stops it
            pass

    monkeypatch.setattr(mpsynth, "synthesize_star", spin)
    star, *isom = bench.run_large_row(mpsynth, n=40, cap=0.2)
    assert star["error"] == {"type": "CpuCapExceeded", "message": "over the CPU cap of 0.2 s"}
    assert "cpu_s" not in star
    assert all(cell["error"] is None and cell["nodes"] for cell in isom)
