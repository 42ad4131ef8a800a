from __future__ import annotations

import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsynth import oracles, staropt
from mpsynth.costs import CostModel
from mpsynth.drt import LEAF, degree_vector, rooted, tree_latency
from mpsynth.oracles import (
    enumerate_degree_vectors,
    enumerate_star_trees,
    oracle_star_tree_latency,
)
from mpsynth.staropt import (
    _star_tree_from_halves,
    forest_latency_table,
    min_star_complexity,
    min_star_latency,
    optimal_degree_vectors,
    synthesize_star,
    vectors_below,
)
from mpsynth.startree import degree_vector_of, star_complexity
from mpsynth.structure import complexity, dumps, latency, loads, validate


def random_monotone_model(m: int, rng: random.Random) -> CostModel:
    def ramp():
        total, out = Fraction(0), []
        for _ in range(m - 1):
            total += Fraction(rng.randint(0, 6), rng.randint(1, 3))
            out.append(total)
        return out

    return CostModel.from_factors(m, ramp(), ramp())


# ---------------------------------------------------------------------------
# cheapest complexity (DP + backtracking)


def test_base_case_is_free(cm_unit):
    assert min_star_complexity(2, cm_unit).value() == 0


def test_seven_inputs_prefers_small_nodes_when_they_are_cheap(cm_steep):
    table = min_star_complexity(7, cm_steep)
    assert table.value() == 15
    assert optimal_degree_vectors(table) == [(5, 0)]


def test_seven_inputs_prefers_wide_nodes_under_flat_costs(cm_unit):
    table = min_star_complexity(7, cm_unit)
    assert table.value() == 11
    assert optimal_degree_vectors(table) == [(1, 2)]


def test_three_inputs_unique_vector(cm_unit):
    table = min_star_complexity(3, cm_unit)
    assert optimal_degree_vectors(table) == [(1, 0)]


def test_binary_only_closed_form():
    cm = CostModel.from_factors(2, [Fraction(5, 3)], [1])
    for n in range(3, 13):
        table = min_star_complexity(n, cm)
        assert table.value() == 3 * (n - 2) * Fraction(5, 3)
        assert optimal_degree_vectors(table) == [(n - 2,)]


def test_dp_matches_exhaustive_over_models():
    rng = random.Random(1905)
    models = [random_monotone_model(m, rng) for m in (2, 3, 4) for _ in range(5)]
    models.append(CostModel.from_factors(3, [1, 1], [1, 1]))  # tie c2 = c3
    for cm in models:
        for n in range(3, 13):
            table = min_star_complexity(n, cm)
            brute = min(
                star_complexity(q, cm)
                for q in enumerate_degree_vectors(n, cm.m)
                if sum(q) > 0
            )
            assert table.value() == brute
            for q in optimal_degree_vectors(table):
                assert star_complexity(q, cm) == brute


def fraction_star_complexity_values(n: int, cm: CostModel) -> list[Fraction]:
    """Reference: the complexity DP on Fractions, as it ran before the
    integer view of ``c``; entry ``i - 2`` is size ``i``."""
    values = [Fraction(0)]
    for i in range(3, n + 1):
        values.append(
            min(values[i - t - 2] + (t + 2) * cm.c[t + 1] for t in range(1, min(cm.m, i - 1)))
        )
    return values


def test_integer_complexity_dp_matches_fraction_reference():
    rng = random.Random(8)
    ties = [1, Fraction(3, 2), Fraction(9, 5), 2, Fraction(15, 7)]
    models = [random_monotone_model(m, rng) for m in (2, 3, 4, 6) for _ in range(2)]
    models += [CostModel.from_factors(m, ties[: m - 1], [1] * (m - 1)) for m in (3, 4, 6)]
    for cm in models:
        table = min_star_complexity(300, cm)
        assert [table.value(i) for i in range(2, 301)] == fraction_star_complexity_values(300, cm)
        assert all(isinstance(v, int) for v in table.values)


def reference_optimal_degree_vectors(table) -> list[tuple[int, ...]]:
    """The recursive backtrack, once per size, that the bottom-up loop
    replaced: the reference for small n."""
    memo = {2: {(0,) * (table.m - 1)}}

    def expand(i: int) -> set[tuple[int, ...]]:
        if i not in memo:
            out = set()
            for t in table.choices[i - 2]:
                for q in expand(i - t):
                    out.add(tuple(x + 1 if k == t - 1 else x for k, x in enumerate(q)))
            memo[i] = out
        return memo[i]

    return sorted(expand(table.n))


def smallest_class_vector(table) -> tuple[int, ...]:
    """The one optimum found by always taking the smallest minimizing class."""
    q = [0] * (table.m - 1)
    i = table.n
    while i > 2:
        t = table.choices[i - 2][0]
        q[t - 1] += 1
        i -= t
    return tuple(q)


def test_backtrack_matches_recursive_reference():
    rng = random.Random(2024)
    ties = [1, Fraction(3, 2), Fraction(9, 5), 2, Fraction(15, 7)]  # every class ties
    grid = [(random_monotone_model(m, rng), range(2, 201)) for m in (2, 3, 4) for _ in range(2)]
    grid += [(CostModel.from_factors(3, [1, 1], [1, 1]), range(2, 201))]
    grid += [(CostModel.from_factors(m, ties[: m - 1], [1] * (m - 1)), range(2, 41)) for m in (3, 4)]
    grid += [(CostModel.from_factors(6, ties, [1] * 5), range(2, 25))]
    for cm, sizes in grid:
        full = min_star_complexity(sizes[-1], cm)
        for n in sizes:  # the table of size n is a prefix of the full one
            table = replace(full, n=n, values=full.values[: n - 1], choices=full.choices[: n - 1])
            optima = optimal_degree_vectors(table)
            assert optima == reference_optimal_degree_vectors(table), (n, cm.c)
            assert smallest_class_vector(table) in optima


def test_backtrack_runs_without_recursion():
    # the recursive backtrack recursed once per size and raised near n = 1000
    cm = CostModel.from_factors(2, [1], [1])
    assert optimal_degree_vectors(min_star_complexity(5000, cm)) == [(4998,)]


def test_ops_grow_linearly(cm_unit):
    small = min_star_complexity(200, cm_unit).ops
    large = min_star_complexity(400, cm_unit).ops
    assert large <= 2 * small + 4 * cm_unit.m  # linear in n, no hidden blowup


# ---------------------------------------------------------------------------
# forest latency table


def test_empty_forest_is_instant(cm_unit):
    table = forest_latency_table([(2, 1)], cm_unit)
    for t in range(1, cm_unit.m + 1):
        assert table.value((0, 0), t) == 0


def test_single_node_tree(cm_unit):
    table = forest_latency_table([(1, 0)], cm_unit)
    assert table.value((1, 0), 1) == 1


def test_two_node_chain(cm_unit):
    table = forest_latency_table([(2, 0)], cm_unit)
    assert table.value((2, 0), 1) == 2  # both 2-input nodes stack


def test_rebuilt_witness_matches_table(cm_frac):
    qmax = (2, 2)
    table = forest_latency_table([qmax], cm_frac)
    for u in vectors_below(qmax):
        tree = table.rebuild_tree(u)
        assert degree_vector(tree, cm_frac.m) == u
        assert tree_latency(tree, cm_frac) == table.value(u, 1)


# The forest DP as it was before the scaled-integer table: Fractions in
# dicts keyed by (census tuple, t), filled over the box of one census in
# (total, lexicographic) order.  Kept only as the reference below.


def _minus_e(u, i):
    return tuple(a - 1 if k == i else a for k, a in enumerate(u))


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def reference_forest_table(qmax, cm):
    m = cm.m
    values, choices = {}, {}
    zero = (0,) * (m - 1)
    for t in range(1, m + 1):
        values[(zero, t)] = Fraction(0)
    for u in sorted(vectors_below(qmax), key=lambda v: (sum(v), v)):
        if sum(u) == 0:
            continue
        for t in range(1, m + 1):
            best = pick = None
            if t == 1:
                for i in range(m - 1):
                    if u[i] == 0:
                        continue
                    cand = values[(_minus_e(u, i), i + 2)] + cm.l[i + 2]
                    if best is None or cand < best:
                        best, pick = cand, ("root", i)
            else:
                for first in vectors_below(u):
                    cand = max(values[(first, 1)], values[(_sub(u, first), t - 1)])
                    if best is None or cand < best:
                        best, pick = cand, ("split", first)
            values[(u, t)] = best
            choices[(u, t)] = pick
    return values, choices


def reference_rebuild_tree(choices, u):
    if sum(u) == 0:
        return LEAF
    _, i = choices[(u, 1)]
    return rooted(reference_rebuild_forest(choices, _minus_e(u, i), i + 2))


def reference_rebuild_forest(choices, u, t):
    if sum(u) == 0:
        return [LEAF] * t
    if t == 1:
        return [reference_rebuild_tree(choices, u)]
    _, first = choices[(u, t)]
    return [reference_rebuild_tree(choices, first)] + reference_rebuild_forest(
        choices, _sub(u, first), t - 1
    )


def reference_min_star_latency(q, cm):
    values, choices = reference_forest_table(q, cm)
    best = split = None
    for u in vectors_below(q):
        for i in range(cm.m - 1):
            if u[i] == 0:
                continue
            heavy = values[(_minus_e(u, i), i + 2)]
            light = values[(_sub(q, u), 1)]
            if heavy <= light <= heavy + cm.l[i + 2]:
                cand = heavy + cm.l[i + 2] + light
                if best is None or cand < best:
                    best, split = cand, (u, i + 1)
    u, root_class = split
    forest = reference_rebuild_forest(choices, _minus_e(u, root_class - 1), root_class + 1)
    light_tree = reference_rebuild_tree(choices, _sub(q, u))
    return best, split, _star_tree_from_halves(forest, light_tree, cm.m)


def cross_check_models(m):
    """l[2] = 0, all l equal, and l with coprime denominators."""
    return [
        CostModel.from_factors(m, [1] * (m - 1), [0, 1, 1, 2][: m - 1]),
        CostModel.from_factors(m, [1] * (m - 1), [1] * (m - 1)),
        CostModel.from_factors(
            m, [1] * (m - 1), [Fraction(3, 2), Fraction(9, 5), Fraction(15, 7), 3][: m - 1]
        ),
    ]


def census(table, index):
    """The census stored under a flat index of ``table``."""
    digits = []
    for s in table.strides:
        a, index = divmod(index, s)
        digits.append(a)
    return tuple(digits)


def region_tops(tops, m):
    """top(u) for every census ``u`` below one of ``tops``, worked out on
    tuples: the largest ``i + 2`` with ``u + e_i`` still below a top, or
    1 when there is none; every ``t`` in 1..m for the empty census."""
    region = set().union(*(vectors_below(q) for q in tops))
    plus = lambda u, i: tuple(a + (k == i) for k, a in enumerate(u))
    out = {u: max([i + 2 for i in range(m - 1) if plus(u, i) in region], default=1) for u in region}
    out[(0,) * (m - 1)] = m
    return out


def held_keys(table, tops):
    """The flat cell keys a table over ``tops`` must hold: (u, t) for
    every census u of the region and t in 1..top(u)."""
    return {
        (t - 1) * table.size + table.index(u)
        for u, top in region_tops(tops, table.m).items()
        for t in range(1, top + 1)
    }


def assert_cells_match_reference(table, tops, q, cm):
    """Equal values, root classes, splits and rebuilt witnesses for
    every cell below ``q`` that a table over ``tops`` holds, and a
    ``KeyError`` naming top(u) for every other one."""
    values, choices = reference_forest_table(q, cm)
    top = region_tops(tops, cm.m)
    for (u, t), value in values.items():
        if t > top[u]:
            for read in (table.value, table.rebuild_forest):
                with pytest.raises(KeyError, match=rf"top\({re.escape(str(u))}\) = {top[u]}"):
                    read(u, t)
            continue
        assert table.value(u, t) == value, (q, u, t)
        assert table.rebuild_forest(u, t) == reference_rebuild_forest(choices, u, t), (q, u, t)
        if sum(u) == 0:
            continue
        kind, pick = choices[(u, t)]
        chosen = table.choices[(t - 1) * table.size + table.index(u)]
        if kind == "root":
            assert chosen == pick, (q, u, t)
        else:
            assert census(table, chosen) == pick, (q, u, t)


def box_scan_forest_table(tops, cm):
    """Reference: the integer forest table as it ran before censuses on
    one class bisected their splits, every cell with t > 1 scanning
    its whole box.  Returned as a table of the same layout."""
    table = forest_latency_table(tops, cm)
    m, size, strides, lat = cm.m, table.size, table.strides, table.lat
    values = {(t - 1) * size: 0 for t in range(1, m + 1)}
    choices = {}
    for u in sorted(set().union(*(vectors_below(q) for q in tops)))[1:]:
        iu = table.index(u)
        best = None
        for i, a in enumerate(u):
            if a:
                cand = values[(i + 1) * size + iu - strides[i]] + lat[i + 2]
                if best is None or cand < best:
                    best, pick = cand, i
        values[iu], choices[iu] = best, pick
        box = [table.index(first) for first in vectors_below(u)]
        for t in range(2, m + 1):
            cands = [max(values[f], values[(t - 2) * size + iu - f]) for f in box]
            best = min(cands)
            values[(t - 1) * size + iu] = best
            choices[(t - 1) * size + iu] = box[cands.index(best)]
    return replace(table, values=values, choices=choices, ops=None)


def assert_table_matches_box_scan(table, tops, cm, cells):
    """The table holds exactly the cells top(u) allows; each held value
    and choice equals the full box scan's, and so does the rebuilt
    forest of each census of ``cells`` at every held t."""
    ref = box_scan_forest_table(tops, cm)
    held = held_keys(table, tops)
    assert set(table.values) == held, (tops, cm.l)
    assert set(table.choices) == {k for k in held if k % table.size}, (tops, cm.l)
    assert table.values == {k: ref.values[k] for k in held}, (tops, cm.l)
    assert table.choices == {k: ref.choices[k] for k in table.choices}, (tops, cm.l)
    top = region_tops(tops, cm.m)
    for u in cells:
        for t in range(1, top[u] + 1):
            assert table.rebuild_forest(u, t) == ref.rebuild_forest(u, t), (u, t)


def axis(m, k, a):
    """The census ``a * e_k`` of length ``m - 1``."""
    return tuple(a if i == k else 0 for i in range(m - 1))


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_one_class_bisection_matches_box_scan(m):
    rng = random.Random(9000 + m)
    models = [random_monotone_model(m, rng) for _ in range(4)]
    models.append(CostModel.from_factors(m, [1] * (m - 1), [0] * (m - 1)))  # every split ties
    for cm in models:
        k = rng.randrange(m - 1)
        a = rng.randint(200, 300)
        table = forest_latency_table([axis(m, k, a)], cm)
        cells = [axis(m, k, b) for b in sorted({a, a - 1, 1, *rng.sample(range(a), 8)})]
        assert_table_matches_box_scan(table, [axis(m, k, a)], cm, cells)
        # about 2 log2(a) probes per cell, against a + 1 for the scan
        assert table.ops <= (m - 1) * a * (2 * a.bit_length() + 2)


def test_axis_cells_of_many_class_tables_match_box_scan():
    factors = [1, Fraction(3, 2), Fraction(9, 5), 2, Fraction(15, 7)]
    grid = [
        (CostModel.from_factors(4, [1, Fraction(3, 2), 2], factors[1:4]), 13),
        (CostModel.from_factors(6, factors, factors), 16),
        (CostModel.from_factors(3, factors[:2], factors[:2]), 33),
        (CostModel.from_factors(3, [2, 3], [0, 1]), 20),  # l2 = 0 ties splits
    ]
    for cm, n in grid:
        tops = optimal_degree_vectors(min_star_complexity(n, cm))
        assert len(tops) > 2
        table = forest_latency_table(tops, cm)
        cells = [axis(cm.m, k, a) for k in range(cm.m - 1) for a in range(1, table.radix[k] + 1)]
        cells = [u for u in cells if any(all(x <= y for x, y in zip(u, q)) for q in tops)]
        assert cells
        assert_table_matches_box_scan(table, tops, cm, cells)


# every q with sum(q) up to the bound, per m
CROSS_CHECK_SUMS = {2: 12, 3: 7, 4: 5, 5: 4}


@pytest.mark.parametrize("m", sorted(CROSS_CHECK_SUMS))
def test_integer_table_matches_fraction_reference(m):
    for cm in cross_check_models(m):
        for q in product(range(CROSS_CHECK_SUMS[m] + 1), repeat=m - 1):
            if not 0 < sum(q) <= CROSS_CHECK_SUMS[m]:
                continue
            table = forest_latency_table([q], cm)
            assert_cells_match_reference(table, [q], q, cm)
            assert set(table.values) == held_keys(table, [q])
            value, split, tree = reference_min_star_latency(q, cm)
            result = min_star_latency(q, cm, table)
            assert (result.value, result.split, result.tree) == (value, split, tree), (q, cm.l)


def test_shared_table_matches_reference_in_any_order():
    cm = CostModel.from_factors(
        4, [1, Fraction(3, 2), 2], [Fraction(3, 2), Fraction(9, 5), Fraction(15, 7)]
    )
    tops = optimal_degree_vectors(min_star_complexity(13, cm))
    assert len(tops) > 2
    shared = forest_latency_table(tops, cm)
    backward = forest_latency_table(tops[::-1], cm)
    assert shared.values == backward.values
    assert shared.choices == backward.choices
    assert set(shared.values) == held_keys(shared, tops)
    for q in tops:
        assert_cells_match_reference(shared, tops, q, cm)
        value, split, tree = reference_min_star_latency(q, cm)
        result = min_star_latency(q, cm, shared)
        assert (result.value, result.split, result.tree) == (value, split, tree), q


def test_a_table_that_misses_q_names_its_census():
    # the radix of tops (2, 0) and (0, 1) covers (2, 1); their region does not
    cm = CostModel.from_factors(3, [1, 1], [1, 1])
    table = forest_latency_table([(2, 0), (0, 1)], cm)
    with pytest.raises(KeyError, match=r"census \(2, 1\) is not in the table"):
        min_star_latency((2, 1), cm, table)


def test_table_values_are_exact_fractions():
    cm = CostModel.from_factors(3, [1, 1], [Fraction(3, 2), Fraction(9, 5)])
    table = forest_latency_table([(3, 2)], cm)
    assert table.scale == 10
    assert all(isinstance(v, int) for v in table.values.values())
    # (2, 2) + e_0 is the top, so its 2-forest is held; the top's is not
    assert isinstance(table.value((2, 2), 2), Fraction)
    assert isinstance(table.value((3, 2), 1), Fraction)
    with pytest.raises(KeyError, match=r"\(\(3, 2\), 2\) is not held: top\(\(3, 2\)\) = 1"):
        table.value((3, 2), 2)
    result = min_star_latency((3, 2), cm, table)
    assert isinstance(result.value, Fraction)
    assert result.value == reference_min_star_latency((3, 2), cm)[0]


def test_shared_table_scans_fewer_candidates():
    cm = CostModel.from_factors(
        6,
        [1, Fraction(3, 2), Fraction(9, 5), 2, Fraction(15, 7)],
        [1, Fraction(3, 2), Fraction(9, 5), 2, Fraction(15, 7)],
    )
    tops = optimal_degree_vectors(min_star_complexity(16, cm))
    shared = forest_latency_table(tops, cm)
    per_vector = [forest_latency_table([q], cm) for q in tops]
    assert shared.ops < sum(t.ops for t in per_vector)
    assert len(shared.values) < sum(len(t.values) for t in per_vector)


class RecordingDict(dict):
    """A dict that adds every key read by indexing to ``log``."""

    def __init__(self, data, log):
        super().__init__(data)
        self.log = log

    def __getitem__(self, key):
        self.log.add(key)
        return super().__getitem__(key)


def recording_table(table):
    """``table`` with recording ``values`` and ``choices``, and their logs."""
    read_values, read_choices = set(), set()
    recorded = replace(
        table,
        values=RecordingDict(table.values, read_values),
        choices=RecordingDict(table.choices, read_choices),
    )
    return recorded, read_values, read_choices


def test_every_cell_a_reader_asks_for_is_held(monkeypatch):
    """The fill reads its own plain dict, which raises on any cell it has
    not written, so a fill that returns read only held cells.  Every
    reader after it, ``_best_split`` of every top, ``_realize`` of each
    top's best split (the witness rebuild) and ``verify_report``, reads
    the table through recording dicts here, and reads held cells only."""
    factors = [1, Fraction(3, 2), Fraction(9, 5), 2, Fraction(15, 7)]
    grid = [
        ([q], cm)
        for m in (2, 3, 4)
        for cm in cross_check_models(m)
        for q in product(range(4), repeat=m - 1)
        if 0 < sum(q) <= 5
    ]
    for cm, n in [
        (CostModel.from_factors(4, [1, Fraction(3, 2), 2], factors[1:4]), 13),
        (CostModel.from_factors(6, factors, factors), 16),
        (CostModel.from_factors(3, factors[:2], factors[:2]), 33),
        (CostModel.from_factors(3, [2, 3], [0, 1]), 20),
    ]:
        grid.append((optimal_degree_vectors(min_star_complexity(n, cm)), cm))
    for m in (2, 3, 4, 6):
        grid.append(([axis(m, m - 2, 40)], CostModel.from_factors(m, [1] * (m - 1), [1] * (m - 1))))
    levels = set()  # the t of every value read
    for tops, cm in grid:
        table, read_values, read_choices = recording_table(forest_latency_table(tops, cm))
        for q in tops:
            _, split = staropt._best_split(q, table)
            staropt._realize(q, split, table)
        assert read_values <= set(table.values) and read_choices <= set(table.choices), tops
        levels |= {k // table.size + 1 for k in read_values}
    assert levels == set(range(1, 7))

    tables = []

    def recorded_fill(tops, cm):
        tables.append(recording_table(forest_latency_table(tops, cm)))
        return tables[-1][0]

    monkeypatch.setattr(oracles, "forest_latency_table", recorded_fill)
    for cm in (
        CostModel.from_factors(3, factors[:2], factors[:2]),
        CostModel.from_factors(4, [1, Fraction(3, 2), 2], [1, Fraction(4, 3), Fraction(5, 3)]),
    ):
        for n in range(5, 11):
            assert oracles.verify_report(n, cm).ok
    assert tables
    for table, read_values, read_choices in tables:
        assert read_values <= set(table.values) and read_choices <= set(table.choices)


def test_ops_count_the_candidates_probed(monkeypatch):
    # a box scan probes half the box at t = 2 and all of it at t = 3..top(u);
    # a one-class census counts what its bisections report
    probes = []
    axis_split = staropt._axis_split

    def counted(*args):
        out = axis_split(*args)
        probes.append(out[2])
        return out

    monkeypatch.setattr(staropt, "_axis_split", counted)
    factors = [1, Fraction(3, 2), Fraction(9, 5), 2, Fraction(15, 7)]
    for cm, n in [
        (CostModel.from_factors(4, [1, Fraction(3, 2), 2], factors[1:4]), 13),
        (CostModel.from_factors(6, factors, factors), 16),
        (CostModel.from_factors(3, factors[:2], factors[:2]), 33),
    ]:
        tops = optimal_degree_vectors(min_star_complexity(n, cm))
        probes.clear()
        table = forest_latency_table(tops, cm)
        scanned = 0
        for u, top in region_tops(tops, cm.m).items():
            if sum(1 for a in u if a) > 1 and top > 1:
                box = len(list(vectors_below(u)))
                scanned += (box + 1) // 2 + (top - 2) * box
        assert probes and table.ops == sum(probes) + scanned


def test_one_class_table_does_not_grow_with_m():
    # c[k] = k - 1, l = 1: only degree-3 nodes are optimal, whatever m,
    # so the tables on m = 2 and m = 6 hold and probe the same cells
    n = 10_000
    tables = {}
    for m in (2, 6):
        cm = CostModel.from_factors(m, range(1, m), [1] * (m - 1))
        tables[m] = forest_latency_table(optimal_degree_vectors(min_star_complexity(n, cm)), cm)
    assert tables[2].radix == (n - 2,) and tables[6].radix == (n - 2, 0, 0, 0, 0)
    assert tables[6].ops == tables[2].ops
    assert len(tables[6].values) == len(tables[2].values) + 4  # the empty census's t = 3..6


def test_deep_witness_rebuilds_without_recursion():
    # l[2] = 0 ties every split, so the witness is a chain as deep as n
    cm = CostModel.from_factors(2, [1], [0])
    syn = synthesize_star(400, cm)
    assert syn.latency == 0 and validate(syn.structure).ok
    # past the recursion limit: neither the backtrack nor the rebuild recurses
    syn = synthesize_star(1000, cm)
    assert syn.latency == 0
    assert validate(syn.structure).ok


# ---------------------------------------------------------------------------
# latency-optimal trees for a degree vector


LATENCY_MODELS = [
    CostModel.from_factors(4, [1, 1, 1], [1, 1, 1]),
    CostModel.from_factors(4, [1, 2, 3], [1, Fraction(3, 2), 2]),
    CostModel.from_factors(4, [1, 1, 2], [0, 1, 1]),
    CostModel.from_factors(4, [1, 1, 1], [0, 0, 0]),
]


def shrink(cm: CostModel, m: int) -> CostModel:
    return CostModel.from_factors(m, cm.c[2 : m + 1], cm.l[2 : m + 1])


def test_three_leaf_value(cm_unit):
    result = min_star_latency((1, 0), cm_unit)
    assert result.value == 1


def test_five_binary_nodes(cm_unit):
    result = min_star_latency((5, 0), cm_unit)
    assert result.value == 4
    assert degree_vector_of(result.tree) == (5, 0)


def test_mixed_vector_matches_enumeration():
    cm = CostModel.from_factors(3, [1, 1], [1, 2])
    result = min_star_latency((1, 1), cm)
    brute = min(
        oracle_star_tree_latency(t, cm) for t in enumerate_star_trees((1, 1))
    )
    assert result.value == brute == 3


def test_zero_vector_rejected(cm_unit):
    with pytest.raises(ValueError):
        min_star_latency((0, 0), cm_unit)


def test_all_zero_latency_model():
    cm = CostModel.from_factors(3, [1, 2], [0, 0])
    result = min_star_latency((2, 1), cm)
    assert result.value == 0


def test_even_halves_vector():
    # the vector whose unique tree splits evenly; a strict balance test
    # would find no split at all
    cm = CostModel.from_factors(3, [1, 1], [1, 2])
    result = min_star_latency((0, 2), cm)
    assert result.value == 4
    assert degree_vector_of(result.tree) == (0, 2)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_dp_matches_enumeration_everywhere(m):
    from mpsynth.oracles import EnumerationBudget

    budget = EnumerationBudget(max_star_leaves=14)
    for cm4 in LATENCY_MODELS:
        cm = shrink(cm4, m)
        for q in product(range(5), repeat=m - 1):
            total = sum(q)
            if total == 0 or total > 4:
                continue
            result = min_star_latency(q, cm)
            trees = enumerate_star_trees(q, budget)
            brute = min(oracle_star_tree_latency(t, cm) for t in trees)
            assert result.value == brute, (m, q, cm.l)
            # the witness achieves the value
            assert degree_vector_of(result.tree) == q
            assert oracle_star_tree_latency(result.tree, cm) == result.value


def test_accepted_split_satisfies_balance_conditions(cm_frac):
    q = (3, 1)
    result = min_star_latency(q, cm_frac)
    table = forest_latency_table([q], cm_frac)
    u, root_class = result.split
    heavy_children = table.value(
        tuple(x - 1 if k == root_class - 1 else x for k, x in enumerate(u)), root_class + 1
    )
    light = table.value(tuple(a - b for a, b in zip(q, u)), 1)
    assert heavy_children <= light
    assert heavy_children + cm_frac.l[root_class + 1] >= light
    assert result.value == heavy_children + cm_frac.l[root_class + 1] + light


# ---------------------------------------------------------------------------
# combined pipeline


def test_pipeline_three_inputs(cm_unit):
    syn = synthesize_star(3, cm_unit)
    assert syn.complexity == 3
    assert syn.latency == 1
    assert validate(syn.structure).ok


def test_pipeline_seven_inputs(cm_steep):
    syn = synthesize_star(7, cm_steep)
    assert (syn.complexity, syn.latency, syn.q) == (15, 4, (5, 0))


def test_pipeline_witness_achieves_both_values(cm_frac):
    for n in range(3, 11):
        syn = synthesize_star(n, cm_frac)
        assert complexity(syn.structure, cm_frac) == syn.complexity
        assert latency(syn.structure, cm_frac) == syn.latency
        assert validate(syn.structure).ok
        assert degree_vector_of(syn.tree) == syn.q


def test_pipeline_scans_all_optimal_vectors():
    # c2 = c3 = 1/3 ties many vectors; latency must pick the best among them
    cm = CostModel.from_factors(3, [Fraction(1, 3), Fraction(1, 3)], [1, 1])
    syn = synthesize_star(7, cm)
    for q in syn.all_q:
        assert min_star_latency(q, cm).value >= syn.latency


def test_pipeline_rates_each_optimal_vector_once(monkeypatch):
    # 3 * c2 == 4 * c3 / 2: four optimal vectors, the first two tied in
    # latency; the winner is realized from the split that rated it
    cm = CostModel.from_factors(3, [2, 3], [1, 1])
    calls = []
    best_split = staropt._best_split
    monkeypatch.setattr(
        staropt, "_best_split", lambda q, table: calls.append(q) or best_split(q, table)
    )
    syn = synthesize_star(9, cm)
    assert calls == list(syn.all_q) == [(1, 3), (3, 2), (5, 1), (7, 0)]
    assert syn.q == (1, 3)  # the tie goes to the smaller vector
    monkeypatch.undo()
    alone = min_star_latency(syn.q, cm)
    assert (syn.latency, syn.tree) == (alone.value, alone.tree)


def least_cubic_diameter(n: int) -> int:
    """The least diameter, in edges, of a tree with ``n`` leaves whose
    inner nodes all have degree 3.  Diameter 2r holds at most
    3 * 2**(r - 1) leaves (three full binary trees on a centre node),
    2r + 1 at most 2**(r + 1) (two on a centre edge); dropping two
    sibling leaves removes one leaf, so every smaller n fits too."""
    d = 1
    while (3 * 2 ** (d // 2 - 1) if d % 2 == 0 else 2 ** (d // 2 + 1)) < n:
        d += 1
    return d


def cubic_model_checks(n: int) -> None:
    """On m = 3, c = (1, 2), l = (1, 1) a fan-in 2 node buys a leaf for
    3 and a fan-in 3 node two for 8, so only degree-3 star-tree nodes
    are optimal.  The latency is l2 times the most inner nodes on one
    leaf-to-leaf path, which is the diameter less one."""
    cm = CostModel.from_factors(3, [1, 2], [1, 1])
    syn = synthesize_star(n, cm)
    knapsack = min(
        3 * cm.c[2] * (n - 2 - 2 * q2) + 4 * cm.c[3] * q2 for q2 in range((n - 2) // 2 + 1)
    )
    assert syn.q == (n - 2, 0)
    assert syn.complexity == knapsack == complexity(syn.structure, cm)
    assert syn.latency == cm.l[2] * (least_cubic_diameter(n) - 1)
    assert latency(syn.structure, cm) == syn.latency
    assert validate(syn.structure).ok


def test_cubic_closed_form_at_small_n():
    for n in range(3, 70):
        cubic_model_checks(n)


def test_star_at_ten_thousand_inputs():
    # a one-class table at n = 10**4, where the box scan took tens of seconds
    cubic_model_checks(10_000)


# ---------------------------------------------------------------------------
# property: star synthesis on drawn models


def ramp(increments):
    """Cumulative sums: a non-negative, non-decreasing factor sequence."""
    out, total = [], Fraction(0)
    for x in increments:
        total += x
        out.append(total)
    return out


STEPS = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2)])


@st.composite
def star_models(draw):
    """m = 2..6; ``c`` with every class tied per leaf (class t buys t
    leaves for (t + 2) c[t + 1], so c[t + 1] = r t / (t + 2)), all zero
    (every vector optimal) or a ramp of zero and fractional steps; ``l``
    all zero, all equal, or such a ramp."""
    m = draw(st.integers(min_value=2, max_value=6))
    kind = draw(st.sampled_from(["tied", "zero", "ramp"]))
    if kind == "tied":
        r = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(3)]))
        c = [r * t / (t + 2) for t in range(1, m)]
    elif kind == "zero":
        c = [0] * (m - 1)
    else:
        c = ramp(draw(st.lists(STEPS, min_size=m - 1, max_size=m - 1)))
    kind = draw(st.sampled_from(["zero", "equal", "ramp"]))
    if kind == "zero":
        l = [0] * (m - 1)
    elif kind == "equal":
        l = [draw(st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(5, 2)]))] * (m - 1)
    else:
        l = ramp(draw(st.lists(STEPS, min_size=m - 1, max_size=m - 1)))
    return CostModel.from_factors(m, c, l)


# where every class ties, the optima and the reference box scan grow
# fast with n on large m
N_CAP = {2: 40, 3: 40, 4: 40, 5: 24, 6: 20}


def input_arcs_are_cyclic(dag) -> bool:
    """Each node reads a set of inputs x_1..x_n that is one cyclic arc:
    exactly one of its members has its ring predecessor outside it."""
    below = [0] * dag.node_count
    for v in dag._order:
        label = dag.labels[v]
        if label is not None and label[0] == "x":
            below[v] = 1 << (label[1] - 1)
        for c in dag.children[v]:
            below[v] |= below[c]
    full = (1 << dag.n) - 1
    for bits in below:
        # members whose predecessor on the ring is not a member
        rotated = ((bits << 1) | (bits >> (dag.n - 1))) & full
        starts = bits & ~rotated
        if bits == 0 or bits == full or starts & (starts - 1):
            return False
    return True


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cm=star_models(), n=st.integers(min_value=3, max_value=40))
def test_star_synthesis_matches_box_scan_and_round_trips(cm, n):
    n = min(n, N_CAP[cm.m])
    syn = synthesize_star(n, cm)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(staropt, "forest_latency_table", box_scan_forest_table)
        ref = synthesize_star(n, cm)
    split = staropt._best_split(syn.q, forest_latency_table(syn.all_q, cm))
    assert (syn.complexity, syn.latency, syn.q, syn.all_q) == (
        ref.complexity, ref.latency, ref.q, ref.all_q
    )
    assert split == staropt._best_split(ref.q, box_scan_forest_table(ref.all_q, cm))
    assert syn.tree == ref.tree
    text = dumps(syn.structure)
    assert text == dumps(ref.structure)
    loaded = loads(text)
    assert dumps(loaded) == text
    assert validate(loaded).ok
    # what ``mpsynth eval`` prints for the written file
    assert (complexity(loaded, cm), latency(loaded, cm)) == (syn.complexity, syn.latency)
    assert input_arcs_are_cyclic(loaded)


def test_pipeline_rejects_tiny_n(cm_unit):
    with pytest.raises(ValueError):
        synthesize_star(2, cm_unit)
