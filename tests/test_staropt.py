from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

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
from mpsynth.startree import degree_vector_of, star_complexity, star_tree_latency
from mpsynth.structure import complexity, latency, validate


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
    assert optimal_degree_vectors(table, all_optima=True) == [(5, 0)]


def test_seven_inputs_prefers_wide_nodes_under_flat_costs(cm_unit):
    table = min_star_complexity(7, cm_unit)
    assert table.value() == 11
    assert optimal_degree_vectors(table, all_optima=True) == [(1, 2)]


def test_three_inputs_unique_vector(cm_unit):
    table = min_star_complexity(3, cm_unit)
    assert optimal_degree_vectors(table, all_optima=True) == [(1, 0)]


def test_binary_only_closed_form():
    cm = CostModel.from_factors(2, [Fraction(5, 3)], [1])
    for n in range(3, 13):
        table = min_star_complexity(n, cm)
        assert table.value() == 3 * (n - 2) * Fraction(5, 3)
        assert optimal_degree_vectors(table, all_optima=True) == [(n - 2,)]


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
            for q in optimal_degree_vectors(table, all_optima=True):
                assert star_complexity(q, cm) == brute


def test_single_witness_mode_gives_an_optimum(cm_unit):
    table = min_star_complexity(9, cm_unit)
    (q,) = optimal_degree_vectors(table)
    assert q in optimal_degree_vectors(table, all_optima=True)


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


def assert_cells_match_reference(table, q, cm):
    """Equal values, root classes, splits and rebuilt witnesses for
    every cell below ``q``."""
    values, choices = reference_forest_table(q, cm)
    for (u, t), value in values.items():
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


# every q with sum(q) up to the bound, per m
CROSS_CHECK_SUMS = {2: 12, 3: 7, 4: 5, 5: 4}


@pytest.mark.parametrize("m", sorted(CROSS_CHECK_SUMS))
def test_integer_table_matches_fraction_reference(m):
    for cm in cross_check_models(m):
        for q in product(range(CROSS_CHECK_SUMS[m] + 1), repeat=m - 1):
            if not 0 < sum(q) <= CROSS_CHECK_SUMS[m]:
                continue
            table = forest_latency_table([q], cm)
            assert_cells_match_reference(table, q, cm)
            assert len(table.values) == m * len(list(vectors_below(q)))
            value, split, tree = reference_min_star_latency(q, cm)
            result = min_star_latency(q, cm, table)
            assert (result.value, result.split, result.tree) == (value, split, tree), (q, cm.l)


def test_shared_table_matches_reference_in_any_order():
    cm = CostModel.from_factors(
        4, [1, Fraction(3, 2), 2], [Fraction(3, 2), Fraction(9, 5), Fraction(15, 7)]
    )
    tops = optimal_degree_vectors(min_star_complexity(13, cm), all_optima=True)
    assert len(tops) > 2
    shared = forest_latency_table(tops, cm)
    backward = forest_latency_table(tops[::-1], cm)
    assert shared.values == backward.values
    assert shared.choices == backward.choices
    for q in tops:
        assert_cells_match_reference(shared, q, cm)
        value, split, tree = reference_min_star_latency(q, cm)
        result = min_star_latency(q, cm, shared)
        assert (result.value, result.split, result.tree) == (value, split, tree), q


def test_table_values_are_exact_fractions():
    cm = CostModel.from_factors(3, [1, 1], [Fraction(3, 2), Fraction(9, 5)])
    table = forest_latency_table([(3, 2)], cm)
    assert table.scale == 10
    assert all(isinstance(v, int) for v in table.values.values())
    assert isinstance(table.value((3, 2), 2), Fraction)
    result = min_star_latency((3, 2), cm, table)
    assert isinstance(result.value, Fraction)
    assert result.value == reference_min_star_latency((3, 2), cm)[0]


def test_shared_table_scans_fewer_candidates():
    cm = CostModel.from_factors(
        6,
        [1, Fraction(3, 2), Fraction(9, 5), 2, Fraction(15, 7)],
        [1, Fraction(3, 2), Fraction(9, 5), 2, Fraction(15, 7)],
    )
    tops = optimal_degree_vectors(min_star_complexity(16, cm), all_optima=True)
    shared = forest_latency_table(tops, cm)
    per_vector = [forest_latency_table([q], cm) for q in tops]
    assert shared.ops < sum(t.ops for t in per_vector)
    assert len(shared.values) < sum(len(t.values) for t in per_vector)


def test_deep_witness_rebuilds_without_recursion():
    # l[2] = 0 ties every split, so the witness is a chain as deep as n
    cm = CostModel.from_factors(2, [1], [0])
    syn = synthesize_star(400, cm)
    assert syn.latency == 0 and validate(syn.structure).ok
    # optimal_degree_vectors still recurses once per size when it lists
    # every optimum; m = 2 has one, which the single-witness backtrack finds
    syn = synthesize_star(1000, cm, all_optima=False)
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
            assert star_tree_latency(result.tree, cm) == result.value


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


def test_pipeline_rejects_tiny_n(cm_unit):
    with pytest.raises(ValueError):
        synthesize_star(2, cm_unit)
