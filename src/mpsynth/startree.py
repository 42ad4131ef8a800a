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
leaf-to-leaf paths of ``sum l[degree(v) - 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Container, Iterable, Iterator, Optional, Sequence

from .costs import CostModel
from .structure import Dag, DagBuilder


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

    def internal_nodes(self) -> list[int]:
        return [v for v, lbl in enumerate(self.labels) if lbl is None]

    def leaves(self) -> list[int]:
        return [v for v, lbl in enumerate(self.labels) if lbl is not None]

    def edges(self) -> list[tuple[int, int]]:
        return [(v, u) for v, nb in enumerate(self.adj) for u in nb if v < u]


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

    m = len(q) + 1
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

    labels: list[Optional[int]] = [None] * len(adj)
    next_label = 1
    for v in range(len(adj)):
        if len(adj[v]) == 1:
            labels[v] = next_label
            next_label += 1
    return StarTree(
        n=want_n,
        m=m,
        labels=tuple(labels),
        adj=tuple(tuple(sorted(nb)) for nb in adj),
    )


def _post_order(
    tree: StarTree, roots: Iterable[tuple[int, int]], done: Container[tuple[int, int]]
) -> Iterator[tuple[int, int]]:
    """Directed edges ``(v, p)`` (``v``'s side of the edge ``v-p``) below
    ``roots`` that are not in ``done``, children before parents, in the
    order a left-to-right recursion would finish them.

    The caller records every yielded edge in ``done`` before asking for
    the next one, so each edge is yielded once and nothing recurses.
    """
    stack = [(v, p, False) for v, p in reversed(list(roots))]
    while stack:
        v, p, expanded = stack.pop()
        if (v, p) in done:
            continue
        if expanded:
            yield v, p
            continue
        stack.append((v, p, True))
        stack.extend((u, v, False) for u in reversed(tree.adj[v]) if u != p)


def structure_from_star_tree(tree: StarTree) -> Dag:
    """Union of the n per-output trees obtained by re-rooting at each
    leaf's neighbor; shared subtrees intern to single nodes.

    Each directed edge ``(v, p)`` stands for the subtree on ``v``'s side
    of the edge, whatever output it is built for, so its node is built
    once and memoized: the builder sees every one of the ``sum deg(v)``
    directed copies of the internal nodes once (``n`` of them become
    outputs), not once per output containing it.
    """
    builder = DagBuilder()
    built: dict[tuple[int, int], int] = {}
    for leaf in tree.leaves():
        (neighbor,) = tree.adj[leaf]
        roots = [(u, neighbor) for u in tree.adj[neighbor] if u != leaf]
        for v, p in _post_order(tree, roots, built):
            if tree.labels[v] is not None:
                built[(v, p)] = builder.input(tree.labels[v])
            else:
                built[(v, p)] = builder.op(built[(u, v)] for u in tree.adj[v] if u != p)
        builder.output(tree.labels[leaf], [built[edge] for edge in roots])
    return builder.build(tree.n, tree.m)


def star_complexity(q: Sequence[int], cm: CostModel) -> Fraction:
    """Closed-form complexity of any structure induced by a star tree
    with degree vector ``q``: ``sum (i+2) * q_i * c[i+1]``."""
    q = tuple(q)
    if sum(q) == 0:
        raise ValueError("degree vector has no internal nodes")
    if len(q) != cm.m - 1:
        raise ValueError(f"degree vector length {len(q)} != m - 1 = {cm.m - 1}")
    return sum(((i + 3) * qi * cm.c[i + 2] for i, qi in enumerate(q)), Fraction(0))


def _edge_latencies(tree: StarTree, cm: CostModel) -> dict[tuple[int, int], Fraction]:
    """For every directed edge (a, b): the worst leaf-to-a latency
    within a's side of the edge (a's own weight included)."""

    def weight(v: int) -> Fraction:
        if tree.labels[v] is not None:
            return Fraction(0)
        return cm.l[len(tree.adj[v]) - 1]

    memo: dict[tuple[int, int], Fraction] = {}
    edges = [(a, b) for a, nb in enumerate(tree.adj) for b in nb]
    for a, b in _post_order(tree, edges, memo):
        branches = [memo[(u, a)] for u in tree.adj[a] if u != b]
        memo[(a, b)] = weight(a) + (max(branches) if branches else Fraction(0))
    return memo


def star_tree_latency(tree: StarTree, cm: CostModel) -> Fraction:
    """Maximum over simple paths of ``sum l[degree(v) - 1]``.

    Equals the latency of the induced structure: a path in the tree
    maps to a path in the structure with every degree lowered by one
    (the edge toward the path is the one not consumed as an operand).
    """
    if max(len(nb) for nb in tree.adj) - 1 > cm.m:
        raise ValueError("tree degree exceeds cost model fan-in bound")
    heights = _edge_latencies(tree, cm)
    return max(heights[(a, b)] + heights[(b, a)] for a, b in tree.edges())


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


def relabel_leaves(tree: StarTree, permutation: Sequence[int]) -> StarTree:
    """Apply a permutation of 1..n to the leaf labels."""
    if sorted(permutation) != list(range(1, tree.n + 1)):
        raise ValueError("not a permutation of 1..n")
    labels = tuple(
        None if lbl is None else permutation[lbl - 1] for lbl in tree.labels
    )
    return StarTree(n=tree.n, m=tree.m, labels=labels, adj=tree.adj)


def star_tree_to_json_dict(tree: StarTree) -> dict:
    """Same node/edge schema as structures, flagged undirected."""
    nodes = [
        {"id": v, "label": None if lbl is None else f"x{lbl}"}
        for v, lbl in enumerate(tree.labels)
    ]
    edges = sorted([a, b] for a, b in tree.edges())
    return {"n": tree.n, "m": tree.m, "directed": False, "nodes": nodes, "edges": edges}


def star_tree_from_json_dict(raw: dict) -> StarTree:
    if raw.get("directed", True):
        raise ValueError("star tree JSON must carry \"directed\": false")
    labels: list[Optional[int]] = []
    ids: dict[int, int] = {}
    for entry in raw["nodes"]:
        ids[entry["id"]] = len(labels)
        lbl = entry.get("label")
        labels.append(None if lbl is None else int(lbl[1:]))
    adj: list[list[int]] = [[] for _ in labels]
    for a, b in raw["edges"]:
        adj[ids[a]].append(ids[b])
        adj[ids[b]].append(ids[a])
    return StarTree(
        n=raw["n"],
        m=raw["m"],
        labels=tuple(labels),
        adj=tuple(tuple(sorted(nb)) for nb in adj),
    )
