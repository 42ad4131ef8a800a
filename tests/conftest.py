from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import pytest

from mpsynth.costs import CostModel
from mpsynth.oracles import ascending_labeling, structure_from_labeled_copies
from mpsynth.startree import StarTree, feasible_input_size
from mpsynth.structure import Dag, DagBuilder, _topological_order, canonical_keys
from mpsynth.uniform import structure_from_uniform_tree, uniform_tree_from_type_vector


@pytest.fixture
def cm_unit() -> CostModel:
    """m = 3, every factor 1."""
    return CostModel.from_factors(3, [1, 1], [1, 1])


@pytest.fixture
def cm_steep() -> CostModel:
    """m = 3, c = (1, 2), l = (1, 1): 3-input units twice as big."""
    return CostModel.from_factors(3, [1, 2], [1, 1])


@pytest.fixture
def cm_frac() -> CostModel:
    """m = 3 with fractional latencies."""
    return CostModel.from_factors(3, [1, 2], [1, Fraction(3, 2)])


def nodes_with_label(dag: Dag, kind: str) -> dict[int, int]:
    """Map label index -> node id for all ``("x", j)`` or ``("y", j)`` nodes."""
    return {lbl[1]: v for v, lbl in enumerate(dag.labels) if lbl is not None and lbl[0] == kind}


def signature(dag: Dag) -> tuple:
    """Value identity of a structure: equal signatures mean the same
    computation (same outputs over the same subtrees, same node set up
    to renaming of internal nodes)."""
    keys = canonical_keys(dag)
    outs = tuple(
        sorted((lbl[1], keys[v]) for v, lbl in enumerate(dag.labels) if lbl and lbl[0] == "y")
    )
    return (dag.n, outs, tuple(sorted(keys)))


def union(a: Dag, b: Dag) -> Dag:
    """Deduplicating union: one copy of every shared subtree is kept.

    Inputs merge by label, computation nodes merge by canonical key,
    and outputs merge by label only when they compute the same subtree
    (conflicting redefinitions raise).  Both arguments must be acyclic;
    the fan-in bound is re-checked defensively on the result.
    """
    builder = DagBuilder()
    for dag in (a, b):
        mapped: dict[int, int] = {}
        for v in _topological_order(dag):
            lbl = dag.labels[v]
            kids = [mapped[c] for c in dag.children[v]]
            if lbl is not None and lbl[0] == "x":
                mapped[v] = builder.input(lbl[1])
            elif lbl is not None and lbl[0] == "y":
                mapped[v] = builder.output(lbl[1], kids)
            else:
                mapped[v] = builder.op(kids)
    return builder.build(max(a.n, b.n), max(a.m, b.m))


@dataclass(frozen=True)
class PruneResult:
    structure: Dag
    actions: tuple[str, ...]


def prune(dag: Dag, n: int) -> PruneResult:
    """Shrink an ``n'``-input structure to ``n`` inputs.

    Removes ``x_{n+1}..x_{n'}`` and ``y_{n+1}..y_{n'}`` and re-interns
    the rest bottom-up into a fresh builder.  A computation node's image
    is nothing when every operand is gone (dropped), its one surviving
    operand (a pass-through, spliced out), or the interned node over its
    operands' distinct images, so subtrees the removal made equal merge
    on the way.  An output left with a single internal operand takes
    that operand's operands, and only what the outputs reach is kept.
    Each action is logged.  Latency and complexity never increase
    (weights are non-negative and nodes are only removed or merged).

    This is the reference for :func:`mpsynth.uniform.structure_from_uniform_tree`,
    which applies the same rules in one pass as it builds; the tests
    hold the two to the same bytes.
    """
    if n < 2:
        raise ValueError(f"cannot prune to n = {n} < 2")
    if n > dag.n:
        raise ValueError(f"cannot prune to n = {n} > current input size {dag.n}")
    if n == dag.n:
        return PruneResult(dag, ())

    builder = DagBuilder()
    actions: list[str] = []
    image: list[int | None] = [None] * dag.node_count
    outputs: list[int] = []
    for v in dag._order:
        lbl = dag.labels[v]
        if lbl is not None and lbl[1] > n:
            actions.append(f"removed {lbl[0]}{lbl[1]}")
        elif lbl is not None and lbl[0] == "x":
            image[v] = builder.input(lbl[1])
        else:
            kids = sorted({image[c] for c in dag.children[v]} - {None})
            if lbl is not None:
                if len(kids) == 1 and builder._labels[kids[0]] is None:
                    j = lbl[1]
                    actions.append(f"relabeled y{j}'s only operand as y{j} (pass-through output)")
                    kids = builder._children[kids[0]]
                outputs.append(builder.output(lbl[1], kids))
            elif not kids:
                actions.append(f"dropped node {v}: all operands pruned away")
            elif len(kids) == 1:
                image[v] = kids[0]
                actions.append(f"spliced pass-through node {v}")
            else:
                image[v] = builder.op(kids)

    # keep only what the outputs reach (absorbed operands and nodes that
    # fed removed outputs alone fall away)
    return PruneResult(builder.build(n, dag.m, keep=outputs), tuple(actions))


def seven_input_structure(labeling: str):
    """The two 7-input reference structures: one replicated 2-over-3
    tree per output, leaves labeled either ascending or cyclically."""
    tree = uniform_tree_from_type_vector((1, 1), level_order=(2, 3))
    if labeling == "ascending":
        return structure_from_labeled_copies(tree, ascending_labeling(7), 3)
    return structure_from_uniform_tree(tree, 3)


@pytest.fixture
def shared7_ascending():
    return seven_input_structure("ascending")


@pytest.fixture
def shared7_cyclic():
    return seven_input_structure("cyclic")


@pytest.fixture
def shared6_pruned(shared7_cyclic):
    return prune(shared7_cyclic, 6).structure


def wire_structure(m: int = 2) -> Dag:
    """The degenerate 2-input structure: y_1 = x_2 and y_2 = x_1."""
    builder = DagBuilder()
    x1, x2 = builder.input(1), builder.input(2)
    builder.output(1, [x2])
    builder.output(2, [x1])
    return builder.build(2, m)


def star_tree_from_degree_vector(
    q: Sequence[int],
    n: int | None = None,
    policy: str = "chain",
) -> StarTree:
    """Deterministically build a star tree with degree vector ``q``.

    Grows the tree one internal node at a time: the first chosen degree
    class seeds a star, and every further node replaces an existing
    leaf, contributing its degree minus 2 to the leaf count.  Policies
    fix the two free choices (which degree class next, which leaf to
    expand):

    * ``"chain"`` (default): largest degree first, expand the most
      recently created leaf (path-like trees).
    * ``"bushy"``: largest degree first, expand the oldest leaf
      (shallow trees).
    """
    q = tuple(q)
    if any(x < 0 for x in q):
        raise ValueError("degree vector entries must be non-negative")
    if sum(q) == 0:
        raise ValueError("degree vector has no internal nodes")
    want_n = feasible_input_size(q)
    if n is not None and n != want_n:
        raise ValueError(
            f"degree vector {q} is infeasible for n = {n}: 2 + sum i*q_i = {want_n}"
        )
    if policy not in ("chain", "bushy"):
        raise ValueError(f"unknown policy {policy!r}")

    remaining = list(q)
    adj: list[list[int]] = []
    leaf_stack: list[int] = []

    def new_node() -> int:
        adj.append([])
        return len(adj) - 1

    def connect(a: int, b: int) -> None:
        adj[a].append(b)
        adj[b].append(a)

    # 0-based entry k of q counts internal nodes of degree k + 3.
    order = range(len(q) - 1, -1, -1)  # largest degree class first
    first = next(i for i in order if remaining[i] > 0)
    remaining[first] -= 1
    center = new_node()
    for _ in range(first + 3):
        leaf = new_node()
        connect(center, leaf)
        leaf_stack.append(leaf)

    while any(remaining):
        i = next(k for k in range(len(q) - 1, -1, -1) if remaining[k] > 0)
        remaining[i] -= 1
        grow_at = leaf_stack.pop() if policy == "chain" else leaf_stack.pop(0)
        for _ in range(i + 2):
            leaf = new_node()
            connect(grow_at, leaf)
            leaf_stack.append(leaf)

    return StarTree.from_adjacency(adj, len(q) + 1)
