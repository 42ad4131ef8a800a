"""Star trees and the structures they induce.

A star tree for input size ``n`` is an undirected tree whose ``n``
leaves are the inputs ``x_1..x_n`` and whose internal nodes all have
degree between 3 and ``m+1``.  Re-rooting at each leaf's neighbor and
deleting the leaf yields the tree computing that leaf's output; the
deduplicating union of those ``n`` trees is the star-tree-based
structure, in which every computation unit is shared by as many
outputs as possible.

The complexity of the induced structure depends only on the tree's
degree vector ``q`` (entry ``q_i`` counts internal nodes of degree
``i+2``): each degree-``d`` internal node appears once per incident
edge as a ``(d-1)``-input unit, giving ``sum (i+2) * q_i * c[i+1]``.
Its latency equals the tree's own latency: the maximum over simple
leaf-to-leaf paths of ``sum l[degree(v) - 1]``, since a path in the
tree maps to a path in the structure with every degree lowered by one
(the edge toward the path is the one not consumed as an operand).

This module builds star trees and their structures; it does not choose
them, and it does not rate their latency.  Every star structure is made
by one pass up and one down over the tree's edges,
:func:`_star_structure`: :func:`structure_from_star_tree` runs it on a
star tree, for ``verify``'s induced-structure check, and synthesis runs
it straight on the two halves of the winning split, without a star tree
(:func:`mpsynth.staropt.synthesize_star`).  The latency-optimal tree for
a degree vector comes from :func:`mpsynth.staropt.min_star_latency`,
and every tree of a degree vector from
:func:`mpsynth.oracles.enumerate_star_trees`; both number the leaves
through :meth:`StarTree.from_adjacency`.  A tree's latency is read off
its structure (:func:`mpsynth.structure.latency`) or walked over the
internal nodes of every leaf pair's path by
:func:`mpsynth.oracles.oracle_star_tree_latency`.  The least latency
over every tree of a degree vector, which ``verify`` checks the DP
against, comes from :func:`mpsynth.oracles.oracle_min_star_latency`
without building any tree: it rates the DP's witness tree by that walk
and grows only the bare skeletons, each carrying its own latency, that
are strictly below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .costs import CostModel
from .structure import Dag, Label, _with_order


@dataclass(frozen=True)
class StarTree:
    """Undirected tree with labeled leaves and unlabeled internal nodes.

    ``labels[v]`` is the input index for leaves, ``None`` for internal
    nodes.  Degree and connectivity invariants are checked on
    construction.
    """

    n: int
    m: int
    labels: tuple[Optional[int], ...]
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"a star tree needs n >= 3 leaves, got {self.n}")
        if len(self.labels) != len(self.adj):
            raise ValueError("labels and adjacency must have equal length")
        size = len(self.adj)
        edge_count = sum(len(nb) for nb in self.adj)
        if edge_count != 2 * (size - 1):
            raise ValueError("not a tree: edge count mismatch")
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in self.adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != size:
            raise ValueError("not a tree: graph is disconnected")
        leaf_labels = []
        for v, nb in enumerate(self.adj):
            deg = len(nb)
            if self.labels[v] is not None:
                if deg != 1:
                    raise ValueError(f"labeled node x{self.labels[v]} must be a leaf")
                leaf_labels.append(self.labels[v])
            else:
                if not 3 <= deg <= self.m + 1:
                    raise ValueError(
                        f"internal node {v} has degree {deg}, outside [3, {self.m + 1}]"
                    )
        if sorted(leaf_labels) != list(range(1, self.n + 1)):
            raise ValueError("leaf labels must be exactly x1..xn")

    @classmethod
    def from_adjacency(cls, adj: Sequence[Sequence[int]], m: int) -> StarTree:
        """The star tree on ``adj``, its degree-1 nodes labeled
        ``x_1..x_n`` in node order."""
        labels: list[Optional[int]] = [None] * len(adj)
        n = 0
        for v, nb in enumerate(adj):
            if len(nb) == 1:
                n += 1
                labels[v] = n
        return cls(n=n, m=m, labels=tuple(labels), adj=tuple(tuple(sorted(nb)) for nb in adj))

    def internal_nodes(self) -> list[int]:
        return [v for v, lbl in enumerate(self.labels) if lbl is None]

    def leaves(self) -> list[int]:
        return [v for v, lbl in enumerate(self.labels) if lbl is not None]


def degree_vector_of(tree: StarTree) -> tuple[int, ...]:
    """Entry ``i`` (1-based ``i``, 0-based index ``i-1``) counts internal
    nodes of degree ``i+2``; always satisfies ``2 + sum i*q_i == n``."""
    q = [0] * (tree.m - 1)
    for v in tree.internal_nodes():
        q[len(tree.adj[v]) - 3] += 1
    return tuple(q)


def feasible_input_size(q: Sequence[int]) -> int:
    """The unique n a degree vector can realize: ``2 + sum i*q_i``."""
    return 2 + sum((i + 1) * qi for i, qi in enumerate(q))


def _star_structure(kids: Sequence[Sequence[int]], inputs: Iterable[int], m: int) -> Dag:
    """The structure a star tree induces: one node per directed edge, in
    one pass up and one pass down.

    The tree is rooted at internal node 0, ``kids[v]`` lists the
    children of ``v``, each numbered above ``v``, and ``inputs`` gives
    each leaf's input index, leaves in node order.  Each edge between a
    node ``v`` and its parent ``p`` has two sides.  ``up[v]`` is ``v``'s
    side, ``v``'s subtree: the input of a leaf, else a node over ``up``
    of ``v``'s children; these are made bottom-up.  ``down[v]`` is
    ``p``'s side: a node over ``up`` of ``p``'s other children and
    ``down[p]`` (none at the root), or output ``y`` of the leaf ``v``;
    these are made top-down, so id order is topological.  Raises unless
    every internal node has degree in ``[3, m + 1]``, so that every node
    made has fan-in in ``[2, m]``.
    """
    leaves = [v for v, nb in enumerate(kids) if not nb]
    n = len(leaves)
    up = [0] * len(kids)
    for v, j in zip(leaves, inputs):
        up[v] = j - 1  # x_j is node j - 1
    labels: list[Label] = [("x", j) for j in range(1, n + 1)]
    children: list[tuple[int, ...]] = [()] * n
    for v in range(len(kids) - 1, 0, -1):
        if kids[v]:
            up[v] = len(children)
            children.append(tuple(sorted(map(up.__getitem__, kids[v]))))
            labels.append(None)
    down = [0] * len(kids)
    for p, nb in enumerate(kids):
        if not nb:
            continue
        ops = sorted(map(up.__getitem__, nb))
        if p:
            ops.append(down[p])  # made after every up node
        if not 3 <= len(ops) <= m + 1:
            raise ValueError(f"internal node {p} has degree {len(ops)}, outside [3, {m + 1}]")
        for v in nb:
            i = ops.index(up[v])
            down[v] = len(children)
            children.append((*ops[:i], *ops[i + 1 :]))
            labels.append(("y", up[v] + 1) if not kids[v] else None)
    dag = Dag(n=n, m=m, labels=tuple(labels), children=tuple(children))
    return _with_order(dag, range(len(children)))


def structure_from_star_tree(tree: StarTree) -> Dag:
    """Union of the n per-output trees obtained by re-rooting at each
    leaf's neighbor; shared subtrees are single nodes.

    Each directed edge stands for the subtree on one side of it,
    whatever output it is built for, so the structure has one node per
    directed edge (:func:`_star_structure`): the tree is rooted at its
    first internal node and numbered in pre-order.
    """
    root = tree.labels.index(None)
    kids: list[list[int]] = [[]]
    inputs: list[int] = []
    stack = [(u, root, 0) for u in reversed(tree.adj[root])]
    while stack:
        v, p, parent = stack.pop()
        node = len(kids)
        kids[parent].append(node)
        kids.append([])
        if tree.labels[v] is None:
            stack.extend((u, v, node) for u in reversed(tree.adj[v]) if u != p)
        else:
            inputs.append(tree.labels[v])
    return _star_structure(kids, inputs, tree.m)


def star_complexity(q: Sequence[int], cm: CostModel) -> Fraction:
    """Closed-form complexity of any structure induced by a star tree
    with degree vector ``q``: ``sum (i+2) * q_i * c[i+1]``."""
    q = tuple(q)
    if sum(q) == 0:
        raise ValueError("degree vector has no internal nodes")
    if len(q) != cm.m - 1:
        raise ValueError(f"degree vector length {len(q)} != m - 1 = {cm.m - 1}")
    return sum(((i + 3) * qi * cm.c[i + 2] for i, qi in enumerate(q)), Fraction(0))
