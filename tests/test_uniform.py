from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

import pytest

from mpsynth.costs import CostModel
from mpsynth.drt import tree_latency
from mpsynth.oracles import (
    enumerate_rooted_trees,
    enumerate_type_vectors,
    min_labeling_complexity,
    structure_from_labeled_copies,
)
from mpsynth.structure import DagBuilder, complexity, dumps, latency, to_dot, validate
from mpsynth.uniform import (
    UniformTree,
    leaf_count_of_type_vector,
    min_uniform_latency,
    structure_from_uniform_tree,
    synthesize_min_latency,
    type_vector_complexity,
    type_vector_latency,
    uniform_tree_from_type_vector,
)

from conftest import prune


# ---------------------------------------------------------------------------
# shapes and type vectors


def test_default_order_is_non_increasing():
    tree = uniform_tree_from_type_vector((1, 1))
    assert tree.levels == (3, 2)
    assert tree.leaf_count == 6


def test_explicit_level_order():
    tree = UniformTree((2, 3))
    assert tree.levels == (2, 3)
    assert tree.leaf_count == 6


def test_perfect_binary_shape():
    tree = uniform_tree_from_type_vector((2, 0))
    assert tree.levels == (2, 2)
    assert tree.leaf_count == 4


def test_degenerate_single_leaf():
    tree = uniform_tree_from_type_vector((0, 0))
    assert tree.levels == ()
    assert tree.leaf_count == 1


def test_type_vector_round_trip():
    for w in [(1, 1), (2, 0), (0, 2), (3, 0), (1, 0, 1)]:
        tree = uniform_tree_from_type_vector(w)
        assert tuple(tree.levels.count(i + 2) for i in range(len(w))) == w
        assert tree.leaf_count == leaf_count_of_type_vector(w)


def test_level_product_identity():
    for w in enumerate_type_vectors(9, 4) + enumerate_type_vectors(13, 4):
        tree = uniform_tree_from_type_vector(w)
        n = tree.leaf_count + 1
        assert leaf_count_of_type_vector(w) == n - 1


# ---------------------------------------------------------------------------
# replicated structures


def test_latency_formula(cm_frac):
    assert type_vector_latency((1, 1), cm_frac) == 1 + Fraction(3, 2)
    assert type_vector_latency((0, 0), cm_frac) == 0
    assert type_vector_latency((3, 0), cm_frac) == 3


def test_three_input_wheel(cm_unit):
    tree = uniform_tree_from_type_vector((1, 0))
    dag = structure_from_uniform_tree(tree, 3)
    assert validate(dag).ok
    assert complexity(dag, cm_unit) == 3


def test_cyclic_labeling_reference_counts(shared7_cyclic, cm_steep):
    assert complexity(shared7_cyclic, cm_steep) == 7 * 1 + 7 * 2
    assert latency(shared7_cyclic, cm_steep) == 2


def test_five_inputs_perfect_binary(cm_unit):
    tree = uniform_tree_from_type_vector((2, 0))
    dag = structure_from_uniform_tree(tree, 3)
    assert validate(dag).ok
    assert complexity(dag, cm_unit) == 10  # n * w_1 = 5 * 2 two-input units


def test_every_feasible_shape_and_order_validates(cm_unit):
    cm = CostModel.from_factors(4, [1, 1, 1], [1, 1, 1])
    for n in range(3, 66):
        for w in enumerate_type_vectors(n, 4):
            orders = set(
                itertools.permutations(
                    [i + 2 for i, wi in enumerate(w) for _ in range(wi)]
                )
            )
            for order in sorted(orders):
                tree = UniformTree(order)
                dag = structure_from_uniform_tree(tree, 4)
                assert dag.n == n
                assert validate(dag).ok
                assert latency(dag, cm) == type_vector_latency(w, cm)
                formula = sum(n * wi * cm.c[i + 2] for i, wi in enumerate(w))
                assert complexity(dag, cm) == formula == type_vector_complexity(w, cm)


def cyclic_labeling(n: int) -> list[list[int]]:
    """Copy ``j`` reads ``x_{j+1}..x_n, x_1..x_{j-1}``."""
    return [[(j + pos) % n + 1 for pos in range(n - 1)] for j in range(1, n + 1)]


def test_memoized_build_matches_per_copy_build():
    for m in (2, 3, 4):
        for n in range(2, 201):
            for w in enumerate_type_vectors(n, m):
                orders = set(
                    itertools.permutations([i + 2 for i, wi in enumerate(w) for _ in range(wi)])
                )
                # every level order at small n; above, the default order
                for order in sorted(orders) if n <= 40 else [max(orders)]:
                    tree = UniformTree(order)
                    got = structure_from_uniform_tree(tree, m)
                    want = structure_from_labeled_copies(tree, cyclic_labeling(n), m)
                    assert (got.labels, got.children) == (want.labels, want.children), (m, order)


def test_cyclic_build_calls_op_once_per_node(monkeypatch):
    calls = []
    op = DagBuilder.op
    monkeypatch.setattr(DagBuilder, "op", lambda self, kids: calls.append(1) or op(self, kids))
    dag = structure_from_uniform_tree(uniform_tree_from_type_vector((10,)), 2)
    assert dag.n == 1025
    assert len(calls) == sum(1 for lbl in dag.labels if lbl is None) == 1025 * 9


# level sequences with fan-ins 2..6 and at most 64 leaves; at (3, 3) and
# n = 5 a whole root branch of some outputs empties
ONE_PASS_SHAPES = [
    (), (2,), (6,), (2, 2), (3, 3), (2, 5), (4, 2), (5, 3),
    (2, 2, 2), (3, 2, 2), (2, 3, 4), (4, 4, 4),
]


def one_pass_sizes(levels: tuple[int, ...]) -> list[int]:
    """The sizes the builder takes: 2, and every n whose n - 1 inputs
    do not fit under one root child, up to the ring."""
    child = prod(levels[1:])
    return [2] + list(range(child + 2, prod(levels) + 2))


def test_one_pass_build_writes_what_prune_writes():
    for levels in ONE_PASS_SHAPES:
        tree = UniformTree(levels)
        full = structure_from_uniform_tree(tree, 6)
        for n in one_pass_sizes(levels):
            want = prune(full, n)
            got = structure_from_uniform_tree(tree, 6, n)
            assert dumps(got) == dumps(want.structure), (levels, n)
            assert to_dot(got) == to_dot(want.structure), (levels, n)


def test_one_pass_build_rejects_sizes_off_the_ring():
    tree = UniformTree((3, 3))
    for n in (1, 0, 11):
        with pytest.raises(ValueError, match="2 <= n <= 10"):
            structure_from_uniform_tree(tree, 3, n)


def test_one_pass_build_rejects_sizes_under_one_root_child():
    # one root child of (3, 3) holds 3 leaves: at n = 3 and 4, y1's
    # inputs all sit under it
    tree = UniformTree((3, 3))
    for n in (3, 4):
        with pytest.raises(ValueError, match="need n = 2 or n > 4"):
            structure_from_uniform_tree(tree, 3, n)
    for n in (2, *range(5, 11)):
        assert validate(structure_from_uniform_tree(tree, 3, n)).ok, n


SYNTHESIS_MODELS = [
    CostModel.from_factors(2, [1], [1]),
    CostModel.from_factors(2, [0], [0]),
    CostModel.from_factors(3, [1, 2], [1, 1]),
    CostModel.from_factors(3, [0, 0], [0, 0]),
    CostModel.from_factors(3, [1, 1], [0, 1]),
    CostModel.from_factors(3, [0, 1], [1, 1]),
    CostModel.from_factors(3, [2, 3], [1, Fraction(3, 2)]),
    CostModel.from_factors(4, [1, 2, 3], [1, 1, 2]),
    CostModel.from_factors(4, [1, 1, 1], [0, 0, 1]),
    CostModel.from_factors(4, [1, Fraction(3, 2), 2], [1, Fraction(4, 3), Fraction(5, 3)]),
    CostModel.from_factors(5, [1, 1, 2, 2], [1, Fraction(3, 2), 2, 2]),
    CostModel.from_factors(5, [0, 0, 0, 0], [1, 1, 1, 1]),
    CostModel.from_factors(6, [1, 2, 3, 4, 5], [1, 1, 1, 1, 1]),
    CostModel.from_factors(6, [1, 1, 1, 1, 1], [0, 0, 0, 0, 0]),
    CostModel.from_factors(6, [1, 2, 2, 3, 3], [1, 2, 2, 3, 3]),
]


@pytest.mark.parametrize("cm", SYNTHESIS_MODELS, ids=lambda cm: cm.dumps())
def test_synthesis_stays_inside_the_builders_sizes(cm):
    # the module docstring's argument: no latency-optimal shape puts all
    # n - 1 inputs under one root child, so the builder never refuses
    for n in range(3, 151):
        result = synthesize_min_latency(n, cm)
        assert result.structure.n == n


def test_labeling_must_be_bijective():
    tree = uniform_tree_from_type_vector((1, 0))
    bad = [[2, 2], [1, 3], [1, 2]]
    with pytest.raises(ValueError, match="bijection"):
        structure_from_labeled_copies(tree, bad, 3)


def test_cheapest_labeling_is_cyclic_at_desk_scale(cm_steep):
    for n in (3, 4, 5):
        for w in enumerate_type_vectors(n, 3):
            best, achievers = min_labeling_complexity(w, n, 3, cm_steep)
            formula = sum(n * wi * cm_steep.c[i + 2] for i, wi in enumerate(w))
            assert best == formula == type_vector_complexity(w, cm_steep)
            assert achievers >= 1


# ---------------------------------------------------------------------------
# exact latency DP


def test_dp_value_seven_inputs(cm_frac):
    result = min_uniform_latency(7, cm_frac)
    assert result.value == Fraction(5, 2)
    assert result.type_vectors == ((1, 1),)


def test_dp_trivial_sizes(cm_unit):
    assert min_uniform_latency(2, cm_unit).value == 0
    assert min_uniform_latency(3, cm_unit).value == 1


def test_dp_unfactorable_size_raises(cm_unit):
    with pytest.raises(ValueError, match="factorization"):
        min_uniform_latency(8, cm_unit)  # 7 is prime, above m = 3


def test_dp_matches_exhaustive_for_all_sizes():
    models = {
        2: CostModel.from_factors(2, [1], [1]),
        3: CostModel.from_factors(3, [1, 2], [1, Fraction(3, 2)]),
        4: CostModel.from_factors(4, [1, 2, 3], [1, 1, 2]),
        5: CostModel.from_factors(5, [1, 1, 2, 2], [1, Fraction(3, 2), 2, 2]),
    }
    for m, cm in models.items():
        for n in range(2, 202):
            vectors = enumerate_type_vectors(n, m)
            if not vectors:
                with pytest.raises(ValueError):
                    min_uniform_latency(n, cm)
                continue
            result = min_uniform_latency(n, cm)
            brute = min(type_vector_latency(w, cm) for w in vectors)
            assert result.value == brute
            for w in result.type_vectors:
                assert type_vector_latency(w, cm) == brute


def test_dp_ops_grow_linearly(cm_unit):
    small = min_uniform_latency(129, cm_unit).ops
    large = min_uniform_latency(257, cm_unit).ops
    assert large <= 2 * small + 4 * cm_unit.m


# ---------------------------------------------------------------------------
# latency-first synthesis


def test_pruned_seven_inputs_no_pruning_needed(cm_unit):
    result = synthesize_min_latency(7, cm_unit)
    assert result.latency == 2
    assert result.n_prime == 7
    assert validate(result.structure).ok


def test_pruned_eight_inputs(cm_unit):
    result = synthesize_min_latency(8, cm_unit)
    assert result.latency == 2
    assert result.n_prime == 10
    assert result.w == (0, 2)
    assert result.structure.n == 8
    assert validate(result.structure).ok
    assert latency(result.structure, cm_unit) == 2


def test_pruned_matches_rooted_tree_lower_bound():
    models = [
        CostModel.from_factors(2, [1], [1]),
        CostModel.from_factors(3, [1, 2], [1, 1]),
        CostModel.from_factors(3, [1, 2], [1, 2]),
        CostModel.from_factors(3, [1, 1], [0, 1]),
    ]
    for cm in models:
        for n in range(3, 10):
            result = synthesize_min_latency(n, cm)
            brute = min(
                tree_latency(t, cm) for t in enumerate_rooted_trees(n - 1, cm.m)
            )
            assert result.latency == brute
            assert latency(result.structure, cm) == brute
            assert validate(result.structure).ok


def test_pruned_rejects_tiny_n(cm_unit):
    with pytest.raises(ValueError):
        synthesize_min_latency(2, cm_unit)
