from __future__ import annotations

import heapq
import importlib.util
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import prod
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import pytest
from hypothesis import strategies as st

from mpsynth.costs import CostModel
from mpsynth.drt import Rooted, _internal_nodes
from mpsynth.oracles import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    EnumerationBudget,
    _labeling_classes,
    ascending_labeling,
    structure_from_labeled_copies,
)
from mpsynth.startree import StarTree, feasible_input_size
from mpsynth.structure import (
    Dag,
    DagBuilder,
    _ancestor_set,
    _leaves_failure,
    _topological_order,
    _with_order,
    complexity,
)
from mpsynth.uniform import (
    UniformTree,
    structure_from_uniform_tree,
    uniform_tree_from_type_vector,
)

BENCH_GRID = Path(__file__).resolve().parent.parent / "tools" / "bench_grid.py"


def load_tool():
    """``tools/bench_grid.py`` as a module."""
    spec = importlib.util.spec_from_file_location("bench_grid", BENCH_GRID)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the broken variants the benchmark's ``broken`` row times
_bench_grid = load_tool()
with_extra_operand = partial(_bench_grid.with_extra_operand, Dag)
with_duplicate_node = partial(_bench_grid.with_duplicate_node, Dag)


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


def canonical_keys(dag: Dag) -> tuple[str, ...]:
    """Canonical key per node.

    Two nodes receive equal keys iff their computation trees are the
    same once internal labels are erased: inputs match by label, and
    every other node matches by the multiset of its operand keys (the
    node function is treated as commutative, so operand order never
    matters).  Output labels are deliberately not part of the key; the
    validity checker layers label identity on top.

    The reference for :func:`mpsynth.structure._subtree_ids`, which
    must partition the nodes alike, and for the keys the validator
    renders below the subtrees it names.
    """
    keys: list[str] = [""] * dag.node_count
    for v in dag._order:
        lbl = dag.labels[v]
        if lbl is not None and lbl[0] == "x":
            keys[v] = f"x{lbl[1]}"
        else:
            keys[v] = "(" + ",".join(sorted(keys[c] for c in dag.children[v])) + ")"
    return tuple(keys)


def _mask(positions: Iterable[int], top: int) -> int:
    """The bitset of ``positions``, none above ``top``."""
    packed = bytearray(top // 8 + 1)
    for i in positions:
        packed[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(packed, "little")


def output_tree_failures(
    dag: Dag, parents: list[list[int]], j: int, y: int
) -> list[str]:
    """Why y_j's ancestor graph is not a tree over the other inputs
    (empty when it is), by walking the graph: the witnesses.

    The reference for the validator's output-tree witness, which takes
    the leaves from its one bottom-up pass and walks only the first
    outputs that are not trees.
    """
    failures = []
    n = dag.n
    anc = _ancestor_set(dag, [y])
    for v in anc:
        if v == y:
            continue
        outs_inside = [p for p in parents[v] if p in anc]
        if len(outs_inside) != 1:
            failures.append(
                f"y{j}: node {v} feeds it along {len(outs_inside)} edges"
                " (ancestor graph is not a tree)"
            )
    leaves = {dag.labels[v] for v in anc if not dag.children[v]}
    inputs = [lbl[1] for lbl in leaves if lbl and lbl[0] == "x" and 1 <= lbl[1] <= n]
    others = leaves.difference(("x", i) for i in inputs)
    witness = _leaves_failure(n, j, _mask(inputs, n), others)
    return failures + [witness] if witness else failures


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
    which applies the same rules in one pass as it builds, at the sizes
    it takes, where no output is left with a single internal operand;
    the tests hold the two to the same bytes there.
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
    # fed removed outputs alone fall away), renumbered in id order, which
    # stays topological
    built = builder.build(n, dag.m)
    kept = sorted(_ancestor_set(built, outputs))
    renum = {v: i for i, v in enumerate(kept)}
    pruned = Dag(
        n=n,
        m=dag.m,
        labels=tuple(built.labels[v] for v in kept),
        children=tuple(tuple(renum[c] for c in built.children[v]) for v in kept),
    )
    return PruneResult(_with_order(pruned, range(len(kept))), tuple(actions))


def reference_uniform_structure(tree: UniformTree, m: int, n: int | None = None) -> Dag:
    """The reference for :func:`mpsynth.uniform.structure_from_uniform_tree`:
    the recursive builder it replaced, which the tests hold it to byte
    for byte.

    ``emit(d, s)`` makes the node at depth ``d`` whose first leaf sits
    at ring offset ``s``, memoized on ``(d, s)``, from the images of its
    children, through the hash-consing :class:`DagBuilder`, under the
    same drop rules and size refusal.  It numbers the nodes in the order
    the recursion finishes them.
    """
    levels = tree.levels
    if max(levels, default=2) > m:
        raise ValueError("tree fan-in exceeds m")
    ring = tree.leaf_count + 1
    if n is None:
        n = ring
    if not 2 <= n <= ring:
        raise ValueError(f"need 2 <= n <= {ring} for a tree with {ring - 1} leaves, got n = {n}")
    span = [prod(levels[d:]) for d in range(len(levels) + 1)]
    if 2 < n <= 1 + span[1]:
        raise ValueError(f"need n = 2 or n > {1 + span[1]} for levels {levels}, got n = {n}")
    builder = DagBuilder()
    memo: dict[tuple[int, int], int | None] = {}

    def images(depth: int, start: int) -> set[int]:
        step = span[depth]
        found = {emit(depth, (start + k * step) % ring) for k in range(levels[depth - 1])}
        found.discard(None)
        return found

    def emit(depth: int, start: int) -> int | None:
        key = (depth, start)
        if key not in memo:
            if depth == len(levels):
                memo[key] = builder.input(start + 1) if start < n else None
            else:
                kids = images(depth + 1, start)
                if len(kids) > 1:
                    memo[key] = builder.op(kids)
                else:
                    memo[key] = kids.pop() if kids else None
        return memo[key]

    for j in range(1, n + 1):
        builder.output(j, images(1, j) if levels else {emit(0, j % ring)})
    return builder.build(n, m)


def ramp(increments):
    """Cumulative sums: a non-negative, non-decreasing factor sequence."""
    out, total = [], Fraction(0)
    for x in increments:
        total += x
        out.append(total)
    return out


STEPS = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2)])


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


def seven_input_structure(labeling: str):
    """The two 7-input reference structures: one replicated 2-over-3
    tree per output, leaves labeled either ascending or cyclically."""
    tree = UniformTree((2, 3))
    if labeling == "ascending":
        return structure_from_labeled_copies(tree, ascending_labeling(7), 3)
    return structure_from_uniform_tree(tree, 3)


def reference_min_labeling_complexity(
    w: Sequence[int], n: int, m: int, cm: CostModel
) -> tuple[Fraction, int]:
    """The reference for :func:`mpsynth.oracles.min_labeling_complexity`:
    the same product of per-copy labeling classes, each combination
    built by :func:`structure_from_labeled_copies` and rated by
    :func:`mpsynth.structure.complexity`.  Returns the least complexity
    and how many combinations achieve it."""
    tree = uniform_tree_from_type_vector(w)
    classes = _labeling_classes(tree)
    per_copy_labels = ascending_labeling(n)
    best: Fraction | None = None
    achievers = 0
    for combo in itertools.product(range(len(classes)), repeat=n):
        labelings = [
            [per_copy_labels[j][classes[c][pos]] for pos in range(n - 1)]
            for j, c in enumerate(combo)
        ]
        cost = complexity(structure_from_labeled_copies(tree, labelings, m), cm)
        if best is None or cost < best:
            best, achievers = cost, 1
        elif cost == best:
            achievers += 1
    return best, achievers


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


# ---------------------------------------------------------------------------
# references for the star-tree enumerator and oracle: the same expansion
# copying every candidate as dicts, and a walk over every node


def _unrooted_code(adj: dict[int, list[int]], extra_leaves: dict[int, int]) -> str:
    """Canonical form of an internal skeleton with ``extra_leaves[v]``
    anonymous leaves attached to each vertex; leaves indistinguishable."""

    def rooted_code(v: int, parent: Optional[int]) -> str:
        subs = sorted(rooted_code(u, v) for u in adj[v] if u != parent)
        return "(" + "L" * extra_leaves[v] + "".join(subs) + ")"

    # center(s) of the skeleton: peel leaves layer by layer
    if len(adj) == 1:
        centers = [next(iter(adj))]
    else:
        degree = {v: len(nb) for v, nb in adj.items()}
        layer = [v for v in adj if degree[v] <= 1]
        remaining = len(adj)
        while remaining > 2:
            nxt = []
            for v in layer:
                remaining -= 1
                for u in adj[v]:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
            layer = nxt
        centers = layer
    return min(rooted_code(c, None) for c in centers)


def _star_tree_from_skeleton(
    adj: dict[int, list[int]], target_degree: dict[int, int], m: int
) -> StarTree:
    """The skeleton (vertices 0..k-1) with its anonymous leaves hung on,
    numbered k, k+1, ... in vertex order."""
    full_adj = [list(adj[v]) for v in range(len(adj))]
    for v in range(len(adj)):
        for _ in range(target_degree[v] - len(adj[v])):
            full_adj.append([v])
            full_adj[v].append(len(full_adj) - 1)
    return StarTree.from_adjacency(full_adj, m)


def reference_star_trees(
    q: Sequence[int], budget: EnumerationBudget = DEFAULT_BUDGET
) -> list[StarTree]:
    """The reference for :func:`mpsynth.oracles.enumerate_star_trees`:
    the same expansion, copying every candidate skeleton as dicts.

    Every star tree with degree vector ``q``, up to isomorphism with
    unlabeled leaves (leaves get labels 1..n in a fixed walk order, but
    no two returned trees share an unlabeled shape).

    Grown by repeatedly expanding a leaf into a new internal node,
    deduplicating shapes at every step; the peeling argument behind the
    feasibility identity guarantees completeness.
    """
    q = tuple(q)
    m = len(q) + 1
    if sum(q) == 0:
        raise ValueError("degree vector has no internal nodes")
    n = feasible_input_size(q)
    if n > budget.max_star_leaves:
        raise BudgetExceeded(f"n = {n} exceeds star-tree budget {budget.max_star_leaves}")

    # A state is an internal skeleton's adjacency, each vertex's target
    # degree, and the classes still to place.  The first step places one
    # node on an empty skeleton; later steps hang one on each vertex that
    # still owns an anonymous leaf.  Every state in a frontier has placed
    # as many nodes, so remaining counts are exhausted simultaneously.
    frontier: dict[str, tuple] = {"": ({}, {}, q)}
    while any(sum(rem) > 0 for _, _, rem in frontier.values()):
        nxt: dict[str, tuple] = {}
        for adj, targets, rem in frontier.values():
            hooks = [v for v in adj if targets[v] > len(adj[v])] if adj else [None]
            for k in range(m - 1):
                if rem[k] == 0:
                    continue
                rem2 = rem[:k] + (rem[k] - 1,) + rem[k + 1 :]
                for v in hooks:
                    adj2 = {u: list(nb) for u, nb in adj.items()}
                    new_v = len(adj2)
                    adj2[new_v] = [] if v is None else [v]
                    if v is not None:
                        adj2[v].append(new_v)
                    targets2 = {**targets, new_v: k + 3}
                    key = _unrooted_code(adj2, {u: targets2[u] - len(adj2[u]) for u in adj2})
                    nxt.setdefault(key, (adj2, targets2, rem2))
            if len(nxt) > budget.max_count:
                raise BudgetExceeded("star-tree enumeration exceeded max_count")
        frontier = nxt

    # a final key is the shape code of its tree: sort by the keys
    return [
        _star_tree_from_skeleton(adj, targets, m)
        for _, (adj, targets, _) in sorted(frontier.items())
    ]


def reference_star_tree_latency(tree: StarTree, cm: CostModel) -> Fraction:
    """The reference for :func:`mpsynth.oracles.oracle_star_tree_latency`,
    walking leaves as well as internal nodes.

    Literal definition: the most, over leaf-to-leaf simple paths, of
    ``l[degree(v) - 1]`` summed over the path's nodes.

    One walk from each leaf ``a`` carries the path sum from ``a``, so the
    path to every leaf ``b > a`` is summed exactly once, on the model's
    integer latencies (:attr:`CostModel.scaled_l`).
    """
    scale, lat = cm.scaled_l
    adj = tree.adj
    weight = [0 if lbl is not None else lat[len(nb) - 1] for lbl, nb in zip(tree.labels, adj)]
    best = 0
    for a in tree.leaves():
        stack = [(a, a, 0)]  # (node, node the walk came from, path sum before node)
        while stack:
            v, came_from, total = stack.pop()
            total += weight[v]
            if v > a and total > best and len(adj[v]) == 1:  # a leaf b = v ends a path
                best = total
            for u in adj[v]:
                if u != came_from:
                    stack.append((u, v, total))
    return Fraction(best, scale)


# ---------------------------------------------------------------------------
# oracles only the tests call: second strategies and a literal path walk


def star_tree_shape_codes_via_labeled_skeletons(q: Sequence[int]) -> set[str]:
    """Independent second strategy: enumerate labeled internal skeletons
    from coding sequences (every labeled tree on k vertices appears once),
    assign the degree multiset in all distinct ways, canonicalize, and
    collect shape codes.  Used to cross-check :func:`enumerate_star_trees`.
    """
    q = tuple(q)
    if sum(q) == 0:
        raise ValueError("degree vector has no internal nodes")
    degree_pool = [k + 3 for k, c in enumerate(q) for _ in range(c)]
    k = len(degree_pool)

    skeletons: list[dict[int, list[int]]] = []
    if k == 1:
        skeletons.append({0: []})
    else:
        for seq in itertools.product(range(k), repeat=k - 2):
            # decode the coding sequence into a labeled tree
            count = [1] * k
            for s in seq:
                count[s] += 1
            adj: dict[int, list[int]] = {v: [] for v in range(k)}
            heap = [v for v in range(k) if count[v] == 1]
            heapq.heapify(heap)
            for s in seq:
                v = heapq.heappop(heap)
                adj[v].append(s)
                adj[s].append(v)
                count[s] -= 1
                if count[s] == 1:
                    heapq.heappush(heap, s)
            a = heapq.heappop(heap)
            b = heapq.heappop(heap)
            adj[a].append(b)
            adj[b].append(a)
            skeletons.append(adj)

    # distinct orderings of the degree multiset, grown by insertion so
    # repeated degrees never multiply the count
    perms: set[tuple[int, ...]] = {()}
    for d in degree_pool:
        perms = {p[:i] + (d,) + p[i:] for p in perms for i in range(len(p) + 1)}
    codes: set[str] = set()
    for adj in skeletons:
        for perm in perms:
            if all(perm[v] >= len(adj[v]) for v in adj):
                extra = {v: perm[v] - len(adj[v]) for v in adj}
                codes.add(_unrooted_code(adj, extra))
    return codes


def star_tree_shape_code(tree: StarTree) -> str:
    """Canonical unlabeled-leaf shape code of a star tree."""
    internal = tree.internal_nodes()
    adj = {v: [u for u in tree.adj[v] if tree.labels[u] is None] for v in internal}
    extra = {v: sum(1 for u in tree.adj[v] if tree.labels[u] is not None) for v in internal}
    return _unrooted_code(adj, extra)


def leaf_count(tree: Rooted) -> int:
    # each fan-in d node turns one leaf into d
    return 1 + sum(len(t) - 1 for t in _internal_nodes(tree))


def count_rooted_trees(leaves: int, m: int) -> int:
    """Arithmetic second strategy: count the same family through the
    multiset-of-children recursion without building any tree."""
    from math import comb

    memo: dict[int, int] = {1: 1}

    def count(k: int) -> int:
        if k in memo:
            return memo[k]
        total = 0

        def partitions(left: int, slots: int, max_part: int) -> Iterator[tuple[int, ...]]:
            if slots == 0:
                if left == 0:
                    yield ()
                return
            for part in range(min(left - slots + 1, max_part), 0, -1):
                for rest in partitions(left - part, slots - 1, part):
                    yield (part,) + rest

        for t in range(2, m + 1):
            if t > k:
                break
            for parts in partitions(k, t, k - 1 if t > 1 else k):
                ways = 1
                for size in set(parts):
                    mult = parts.count(size)
                    ways *= comb(count(size) + mult - 1, mult)
                total += ways
        memo[k] = total
        return total

    return count(leaves)


def oracle_structure_latency(
    dag: Dag, cm: CostModel, budget: EnumerationBudget = DEFAULT_BUDGET
) -> Fraction:
    """Literal definition: enumerate every source-to-sink path."""
    if dag.node_count > 30:
        raise BudgetExceeded("path enumeration oracle is limited to 30 nodes")
    parents = dag.parent_map()
    scale, lat = cm.scaled_l
    best = count = 0
    # (node, latency of the path walked up to it): every path starts at a source
    stack = [(v, 0) for v in range(dag.node_count) if not dag.children[v]]
    while stack:
        v, acc = stack.pop()
        acc += lat[len(dag.children[v])]
        if not parents[v]:
            count += 1
            if count > budget.max_count:
                raise BudgetExceeded("path enumeration exceeded max_count")
            best = max(best, acc)
        stack.extend((p, acc) for p in parents[v])
    return Fraction(best, scale)
