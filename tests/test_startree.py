from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import pytest

from mpsynth.costs import CostModel
from mpsynth.oracles import (
    enumerate_degree_vectors,
    enumerate_star_trees,
    oracle_star_tree_latency,
)
from mpsynth.startree import (
    StarTree,
    _edge_latencies,
    degree_vector_of,
    feasible_input_size,
    star_complexity,
    star_tree_latency,
    structure_from_star_tree,
)
from mpsynth.structure import DagBuilder, complexity, latency, validate

from conftest import star_tree_from_degree_vector


def all_trees_up_to(n_max: int, m: int):
    for n in range(3, n_max + 1):
        for q in enumerate_degree_vectors(n, m):
            if sum(q) == 0:
                continue
            for tree in enumerate_star_trees(q):
                yield q, tree


# ---------------------------------------------------------------------------
# degree vectors and construction


def test_unique_three_leaf_tree():
    tree = star_tree_from_degree_vector((1, 0), n=3)
    assert tree.n == 3
    assert degree_vector_of(tree) == (1, 0)
    assert len(tree.internal_nodes()) == 1


def test_degree_vector_feasibility_identity():
    for n in range(3, 10):
        for q in enumerate_degree_vectors(n, 4):
            assert feasible_input_size(q) == n


def test_construction_round_trip():
    for q in [(5, 0), (3, 1), (1, 2), (0, 0, 2), (2, 1, 0)]:
        tree = star_tree_from_degree_vector(q)
        assert degree_vector_of(tree) == q


def test_infeasible_target_n_rejected():
    # 2 + 1*1 + 2*1 = 5, not 6
    with pytest.raises(ValueError, match="infeasible"):
        star_tree_from_degree_vector((1, 1), n=6)


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        star_tree_from_degree_vector((0, 0))


def test_policies_are_deterministic_and_valid():
    for policy in ("chain", "bushy"):
        a = star_tree_from_degree_vector((3, 1), policy=policy)
        b = star_tree_from_degree_vector((3, 1), policy=policy)
        assert a == b
        assert degree_vector_of(a) == (3, 1)


# ---------------------------------------------------------------------------
# induced structures


def test_three_leaf_tree_gives_the_three_wheel(cm_unit):
    dag = structure_from_star_tree(star_tree_from_degree_vector((1, 0)))
    assert validate(dag).ok
    assert dag.degree_histogram() == {0: 3, 2: 3}
    assert complexity(dag, cm_unit) == 3  # three 2-input nodes


def test_every_induced_structure_validates():
    for q, tree in all_trees_up_to(8, 3):
        assert validate(structure_from_star_tree(tree)).ok


def test_structure_complexity_matches_closed_form(cm_steep):
    for q, tree in all_trees_up_to(9, 3):
        assert complexity(structure_from_star_tree(tree), cm_steep) == star_complexity(
            q, cm_steep
        )


def test_complexity_depends_only_on_degree_vector(cm_frac):
    for n in range(3, 10):
        for q in enumerate_degree_vectors(n, 3):
            if sum(q) == 0:
                continue
            values = {
                complexity(structure_from_star_tree(t), cm_frac)
                for t in enumerate_star_trees(q)
            }
            assert len(values) == 1


def test_star_complexity_examples(cm_unit, cm_steep):
    assert star_complexity((1, 0), cm_unit) == 3
    assert star_complexity((5, 0), cm_steep) == 15
    assert star_complexity((1, 2), cm_steep) == 3 + 16
    with pytest.raises(ValueError):
        star_complexity((0, 0), cm_unit)


def _per_output_build(tree):
    """Reference builder: every output's full tree, deduplicated only by
    the builder's hash-consing."""
    builder = DagBuilder()

    def emit(v: int, parent: int) -> int:
        if tree.labels[v] is not None:
            return builder.input(tree.labels[v])
        return builder.op(emit(u, v) for u in tree.adj[v] if u != parent)

    for leaf in tree.leaves():
        (neighbor,) = tree.adj[leaf]
        operands = [emit(u, neighbor) for u in tree.adj[neighbor] if u != leaf]
        builder.output(tree.labels[leaf], operands)
    return builder.build(tree.n, tree.m)


def _degree_vectors(n: int) -> list[tuple[int, ...]]:
    """A few degree vectors per m = 2..4 realizing ``n``, mixed classes included."""
    k = n - 2
    return sorted(
        {(k,), (k % 2, k // 2), (k - 2 * (k // 4), k // 4), (k % 3 % 2, k % 3 // 2, k // 3)}
    )


def test_memoized_build_matches_per_output_build():
    for n in [*range(3, 30), *range(30, 120, 11)]:
        for q in _degree_vectors(n):
            for policy in ("chain", "bushy"):
                tree = star_tree_from_degree_vector(q, policy=policy)
                got, want = structure_from_star_tree(tree), _per_output_build(tree)
                assert (got.labels, got.children) == (want.labels, want.children), (q, policy)


def test_build_calls_op_once_per_node(monkeypatch):
    calls = []
    op = DagBuilder.op
    monkeypatch.setattr(DagBuilder, "op", lambda self, kids: calls.append(1) or op(self, kids))
    dag = structure_from_star_tree(star_tree_from_degree_vector((1998, 0)))
    assert len(calls) == sum(1 for lbl in dag.labels if lbl is None)


def test_chain_at_n5000_builds_without_recursion(cm_frac):
    q = (4998, 0)
    tree = star_tree_from_degree_vector(q)
    dag = structure_from_star_tree(tree)
    assert dag.node_count - tree.n == sum((i + 3) * qi for i, qi in enumerate(q))
    assert latency(dag, cm_frac) == star_tree_latency(tree, cm_frac)


# ---------------------------------------------------------------------------
# latency


def test_single_internal_node_latency(cm_unit):
    tree = star_tree_from_degree_vector((1, 0))
    assert star_tree_latency(tree, cm_unit) == 1  # one 2-input stage


def test_tree_latency_equals_structure_latency(cm_frac):
    for q, tree in all_trees_up_to(9, 3):
        assert star_tree_latency(tree, cm_frac) == latency(
            structure_from_star_tree(tree), cm_frac
        )


def test_tree_latency_matches_leaf_pair_oracle(cm_frac):
    for q, tree in all_trees_up_to(9, 3):
        assert star_tree_latency(tree, cm_frac) == oracle_star_tree_latency(tree, cm_frac)


def relabel_leaves(tree: StarTree, permutation: Sequence[int]) -> StarTree:
    """Apply a permutation of 1..n to the leaf labels."""
    if sorted(permutation) != list(range(1, tree.n + 1)):
        raise ValueError("not a permutation of 1..n")
    labels = tuple(
        None if lbl is None else permutation[lbl - 1] for lbl in tree.labels
    )
    return StarTree(n=tree.n, m=tree.m, labels=labels, adj=tree.adj)


def test_latency_is_leaf_label_invariant(cm_frac):
    tree = star_tree_from_degree_vector((3, 1))
    base = star_tree_latency(tree, cm_frac)
    for perm in itertools.islice(itertools.permutations(range(1, tree.n + 1)), 24):
        shuffled = relabel_leaves(tree, perm)
        assert star_tree_latency(shuffled, cm_frac) == base
        assert latency(structure_from_star_tree(shuffled), cm_frac) == base


# ---------------------------------------------------------------------------
# balanced split


@dataclass(frozen=True)
class LatencySplit:
    edge: tuple[int, int]
    heavy: Fraction
    light: Fraction


def balanced_edge_split(tree: StarTree, cm: CostModel) -> LatencySplit:
    """An edge splitting the tree into a heavy and a light side whose
    one-sided latencies sum to the tree latency.

    The returned orientation ``(a, b)`` satisfies ``heavy >= light``
    and ``heavy - l[degree(a) - 1] <= light``, i.e. the heavy side
    stops dominating once its root's own weight is discounted.  An
    orientation with ``heavy > light`` strictly is preferred when one
    exists; under latency ties only the non-strict form is satisfiable.
    """
    heights = _edge_latencies(tree, cm)

    def weight(v: int) -> Fraction:
        return Fraction(0) if tree.labels[v] is not None else cm.l[len(tree.adj[v]) - 1]

    candidates: list[tuple[bool, tuple[int, int]]] = []
    for a, b in sorted(
        (a, b) for v, nb in enumerate(tree.adj) for a, b in [(v, u) for u in nb]
    ):
        heavy, light = heights[(a, b)], heights[(b, a)]
        if heavy >= light and heavy - weight(a) <= light:
            candidates.append((heavy > light, (a, b)))
    if not candidates:
        raise RuntimeError("no balanced edge found; tree or cost model is inconsistent")
    strict = [edge for is_strict, edge in candidates if is_strict]
    chosen = strict[0] if strict else candidates[0][1]
    a, b = chosen
    return LatencySplit(edge=chosen, heavy=heights[(a, b)], light=heights[(b, a)])


def test_split_sums_to_latency_everywhere(cm_frac):
    models = [
        cm_frac,
        CostModel.from_factors(3, [1, 1], [0, 1]),  # zero-latency 2-input units
        CostModel.from_factors(3, [1, 1], [0, 0]),  # all free
    ]
    for cm in models:
        for q, tree in all_trees_up_to(9, 3):
            split = balanced_edge_split(tree, cm)
            assert split.heavy + split.light == star_tree_latency(tree, cm)
            assert split.heavy >= split.light


def test_split_single_center(cm_unit):
    # one internal node of degree n: the light side is a bare leaf
    cm = CostModel.from_factors(4, [1, 1, 1], [1, 2, 3])
    tree = star_tree_from_degree_vector((0, 0, 1))
    split = balanced_edge_split(tree, cm)
    assert (split.heavy, split.light) == (3, 0)  # l[4] = 3


def test_split_three_leaf(cm_unit):
    split = balanced_edge_split(star_tree_from_degree_vector((1, 0)), cm_unit)
    assert split.heavy + split.light == 1


def test_split_handles_even_halves():
    # two degree-4 nodes: both halves have equal latency, only the
    # non-strict orientation exists
    cm = CostModel.from_factors(3, [1, 1], [1, 2])
    tree = star_tree_from_degree_vector((0, 2))
    split = balanced_edge_split(tree, cm)
    assert split.heavy == split.light == 2
    assert star_tree_latency(tree, cm) == 4
