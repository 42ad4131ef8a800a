"""Brute-force reference implementations.

Everything the optimizers compute has an independent, enumeration-based
counterpart here, runnable at desk scale: exhaustive degree/type-vector
generation, star-tree and rooted-tree enumeration up to isomorphism
(the tests check each against a second, independently derived
generation or counting strategy, because a single enumerator
validating itself proves nothing), a literal star-tree latency oracle
that walks every leaf pair's path over the internal nodes alone (a
leaf adds nothing) and its least value over every star tree of a degree
vector, a per-copy builder of replicated structures under
any leaf labeling
(:func:`structure_from_labeled_copies`, the reference for the cyclic
builder), and a bundled :func:`verify_report` that cross-checks every
optimizer answer and is exposed through the command line.

Oracle values are compared to optimizer values with exact equality;
there are no tolerances anywhere.  Path walks add the model's integer
latencies (:attr:`CostModel.scaled_l`); no brute value comes from an
optimizer's DP, and no oracle reads a value a DP claims.  What
:func:`oracle_min_star_latency` takes from the star-latency DP is its
witness tree, which it rates by the literal walk before growing only
the star-tree skeletons strictly below that rating: its answer is the
exact least latency over every star tree of the vector, whatever the
witness.  The labeling search rates every combination of per-copy
labelings by the distinct labeled subtrees it unites, without building
a structure for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .costs import CostModel, format_rational
from .drt import LEAF, Rooted, degree_vector, tree_latency
from .startree import (
    StarTree,
    degree_vector_of,
    feasible_input_size,
    star_complexity,
    structure_from_star_tree,
)
from .staropt import (
    forest_latency_table,
    min_star_complexity,
    min_star_latency,
    optimal_degree_vectors,
    vectors_below,
)
from .structure import Dag, DagBuilder, complexity, latency, validate
from .uniform import (
    UniformTree,
    min_uniform_latency,
    structure_from_uniform_tree,
    synthesize_min_latency,
    type_vector_complexity,
    type_vector_latency,
    uniform_tree_from_type_vector,
)

Vec = tuple[int, ...]


class BudgetExceeded(ValueError):
    """An enumeration was asked to exceed its configured budget."""


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps on the exhaustive searches; all positive."""

    max_star_leaves: int = 12
    max_tree_leaves: int = 8
    max_labeling_inputs: int = 5
    max_count: int = 500_000

    def __post_init__(self) -> None:
        for name in ("max_star_leaves", "max_tree_leaves", "max_labeling_inputs", "max_count"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


DEFAULT_BUDGET = EnumerationBudget()


# ---------------------------------------------------------------------------
# degree and type vectors


def enumerate_degree_vectors(n: int, m: int) -> list[Vec]:
    """All q >= 0 with ``2 + sum i*q_i == n`` (0-based entry k carries
    weight k+1), in lexicographic order."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    out: list[Vec] = []

    def fill(k: int, left: int, acc: tuple[int, ...]) -> None:
        weight = k + 1
        if k == m - 2:  # the last entry takes what is left, if it can
            if left % weight == 0:
                out.append(acc + (left // weight,))
            return
        for count in range(left // weight + 1):
            fill(k + 1, left - weight * count, acc + (count,))

    fill(0, n - 2, ())
    return sorted(out)


def count_degree_vectors(n: int, m: int) -> int:
    """``len(enumerate_degree_vectors(n, m))`` without building them: the
    partitions of ``n - 2`` into parts 1..m-1."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    ways = [1] + [0] * (n - 2)
    for weight in range(1, m):
        for total in range(weight, n - 1):
            ways[total] += ways[total - weight]
    return ways[n - 2]


def enumerate_type_vectors(n: int, m: int) -> list[Vec]:
    """All w >= 0 with ``prod (i+2)^{w_i} == n - 1`` (0-based), sorted."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    out: list[Vec] = []

    def fill(k: int, rem: int, acc: tuple[int, ...]) -> None:
        if k == m - 1:
            if rem == 1:
                out.append(acc)
            return
        base = k + 2
        power, count = 1, 0
        while rem % power == 0:
            fill(k + 1, rem // power, acc + (count,))
            count += 1
            power *= base

    fill(0, n - 1, ())
    return sorted(set(out))


# ---------------------------------------------------------------------------
# star-tree enumeration


def _unrooted_code(adj: list[list[int]], targets: list[int]) -> str:
    """Canonical form of an internal skeleton whose vertex ``v`` carries
    ``targets[v] - len(adj[v])`` anonymous leaves; leaves indistinguishable."""

    def subs(v: int, parent: int) -> list[str]:  # v's sorted subtree codes
        return sorted([code(u, subs(u, v)) for u in adj[v] if u != parent])

    def code(v: int, parts: list[str]) -> str:
        return "(" + "L" * (targets[v] - len(adj[v])) + "".join(parts) + ")"

    if len(adj) == 1:
        return code(0, [])
    # center(s) of the skeleton: peel leaves layer by layer
    degree = [len(nb) for nb in adj]
    layer = [v for v, d in enumerate(degree) if d == 1]
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
    if len(layer) == 1:
        return code(layer[0], subs(layer[0], -1))
    # two centers a - b: each hangs below the other with its other subtrees
    a, b = layer
    sa, sb = subs(a, b), subs(b, a)
    return min(code(a, sorted(sa + [code(b, sb)])), code(b, sorted(sb + [code(a, sa)])))


def _grow_star_skeletons(
    q: tuple[int, ...],
    budget: EnumerationBudget,
    lat: Sequence[int] | None = None,
    limit: int | None = None,
) -> dict[str, tuple]:
    """The internal skeletons of every star tree with degree vector ``q``,
    one per shape, as ``{shape code: (adj, targets, rem, latency)}``.

    Grown by repeatedly expanding a leaf into a new internal node,
    deduplicating shapes at every step; the peeling argument behind the
    feasibility identity guarantees completeness.  Given the integer
    latencies ``lat`` (indexed by fan-in), each skeleton carries its
    latency: the most, over pairs of its anonymous leaves, of ``lat``
    summed over the internal nodes on their path.  A candidate above
    ``limit`` is dropped before its shape is coded.  Hanging a node on
    a leaf only lengthens paths (no ``lat`` is negative), so every
    skeleton a tree within ``limit`` grows from is within it too, and
    the result holds exactly the skeletons of the trees within it.
    """
    m = len(q) + 1
    if sum(q) == 0:
        raise ValueError("degree vector has no internal nodes")
    n = feasible_input_size(q)
    if n > budget.max_star_leaves:
        raise BudgetExceeded(f"n = {n} exceeds star-tree budget {budget.max_star_leaves}")

    # A state is an internal skeleton's adjacency lists, each vertex's
    # target degree, the classes still to place and the latency.  The
    # first step places one node on an empty skeleton; later steps hang
    # one on each vertex that still owns an anonymous leaf.  Every state
    # in a frontier has placed as many nodes, so remaining counts are
    # exhausted simultaneously.  A candidate is hung on the state's own
    # lists and taken off again; only a new shape is copied into the
    # next frontier.
    frontier: dict[str, tuple] = {"": ([], [], q, 0)}
    while any(sum(rem) > 0 for _, _, rem, _ in frontier.values()):
        nxt: dict[str, tuple] = {}
        for adj, targets, rem, latency in frontier.values():
            new_v = len(adj)
            hooks = [v for v in range(new_v) if targets[v] > len(adj[v])] if adj else [None]
            # a node hung on v lengthens by its own weight every path from
            # the leaf it takes to the leaves the skeleton keeps
            reach = [0] * len(hooks)
            if lat is not None and adj:
                weight = [lat[t - 1] for t in targets]
                held = [t - len(nb) for t, nb in zip(targets, adj)]
                reach = [_leaf_reach(adj, weight, held, v) for v in hooks]
            for k in range(m - 1):
                if rem[k] == 0:
                    continue
                rem2 = rem[:k] + (rem[k] - 1,) + rem[k + 1 :]
                own = lat[k + 2] if lat is not None else 0
                targets.append(k + 3)
                for v, far in zip(hooks, reach):
                    latency2 = max(latency, own + far)
                    if limit is not None and latency2 > limit:
                        continue
                    if v is None:
                        adj.append([])
                    else:
                        adj.append([v])
                        adj[v].append(new_v)
                    key = _unrooted_code(adj, targets)
                    if key not in nxt:
                        nxt[key] = ([list(nb) for nb in adj], targets[:], rem2, latency2)
                    adj.pop()
                    if v is not None:
                        adj[v].pop()
                targets.pop()
            if len(nxt) > budget.max_count:
                raise BudgetExceeded("star-tree enumeration exceeded max_count")
        frontier = nxt
    return frontier


def enumerate_star_trees(
    q: Sequence[int], budget: EnumerationBudget = DEFAULT_BUDGET
) -> list[StarTree]:
    """Every star tree with degree vector ``q``, up to isomorphism with
    unlabeled leaves (leaves get labels 1..n in a fixed walk order, but
    no two returned trees share an unlabeled shape), in shape-code order.
    """
    q = tuple(q)
    m = len(q) + 1
    # a final key is the shape code of its tree: sort by the keys, and
    # hang each skeleton's anonymous leaves on, numbered in vertex order
    trees = []
    for _, (adj, targets, _, _) in sorted(_grow_star_skeletons(q, budget).items()):
        for v in range(len(targets)):
            for _ in range(targets[v] - len(adj[v])):
                adj.append([v])
                adj[v].append(len(adj) - 1)
        trees.append(StarTree.from_adjacency(adj, m))
    return trees


def oracle_min_star_latency(
    q: Sequence[int],
    cm: CostModel,
    witness: StarTree | None = None,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> Fraction:
    """The least latency over every star tree with degree vector ``q``,
    by the literal leaf-pair definition of :func:`oracle_star_tree_latency`.

    A ``witness`` tree of ``q`` is rated by that walk, and only the
    skeletons strictly below its rating are grown: the least latency is
    the witness's own or the least of what grew, whatever tree the
    witness is.  Without a witness of ``q`` (none, or one of another
    degree vector) every skeleton is grown.
    """
    q = tuple(q)
    scale, lat = cm.scaled_l
    if witness is None or degree_vector_of(witness) != q:
        frontier = _grow_star_skeletons(q, budget, lat)
        return Fraction(min(latency for *_, latency in frontier.values()), scale)
    rated = int(oracle_star_tree_latency(witness, cm) * scale)
    below = _grow_star_skeletons(q, budget, lat, rated - 1)
    return Fraction(min([rated] + [latency for *_, latency in below.values()]), scale)


# ---------------------------------------------------------------------------
# rooted-tree enumeration


def enumerate_rooted_trees(
    leaves: int, m: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> list[Rooted]:
    """Every rooted multiway tree with the given leaf count and internal
    fan-in in [2, m], up to isomorphism.  Canonical by construction:
    children are chosen as non-decreasing multisets of smaller trees.
    """
    if leaves > budget.max_tree_leaves:
        raise BudgetExceeded(f"{leaves} leaves exceeds rooted-tree budget {budget.max_tree_leaves}")
    if leaves < 1:
        raise ValueError("need at least one leaf")

    memo: dict[int, list[Rooted]] = {1: [LEAF]}

    def gen(k: int) -> list[Rooted]:
        if k in memo:
            return memo[k]
        pool = [(size, tree) for size in range(1, k) for tree in gen(size)]
        out: list[Rooted] = []

        def choose(start: int, left: int, slots: int, acc: list[Rooted]) -> None:
            if slots == 0:
                if left == 0:
                    out.append(tuple(sorted(acc)))
                return
            if left < slots:  # every child needs >= 1 leaf
                return
            for idx in range(start, len(pool)):
                size, tree = pool[idx]
                if size > left - (slots - 1):
                    continue
                acc.append(tree)
                choose(idx, left - size, slots - 1, acc)
                acc.pop()

        for t in range(2, m + 1):
            if t > k:
                break
            choose(0, k, t, [])
        uniq = sorted(set(out))
        memo[k] = uniq
        return uniq

    trees = gen(leaves)
    if len(trees) > budget.max_count:
        raise BudgetExceeded("rooted-tree enumeration exceeded max_count")
    return trees


def enumerate_rooted_trees_with_census(
    u: Sequence[int], m: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> list[Rooted]:
    """All rooted trees whose fan-in census equals ``u`` (0-based entry
    k counts fan-in k+2 nodes)."""
    u = tuple(u)
    leaves = 1 + sum((k + 1) * uk for k, uk in enumerate(u))
    return [
        tree
        for tree in enumerate_rooted_trees(leaves, m, budget)
        if degree_vector(tree, m) == u
    ]


# ---------------------------------------------------------------------------
# literal latency oracles


def _leaf_reach(
    inner: Sequence[Sequence[int]], weight: Sequence[int], held: Sequence[int], a: int
) -> int:
    """The largest path sum, ``weight`` over the internal nodes from ``a``
    to ``b`` both included, to a ``b`` that holds a leaf once ``a`` gives
    one up (``held`` counts each node's leaves): the longest leaf-to-leaf
    path through one of ``a``'s leaves.  ``inner`` lists each internal
    node's internal neighbours."""
    best = weight[a] if held[a] > 1 else -1
    stack = [(a, a, weight[a])]  # (node, node the walk came from, path sum)
    while stack:
        v, came_from, total = stack.pop()
        for u in inner[v]:
            if u != came_from:
                reached = total + weight[u]
                if held[u] and reached > best:
                    best = reached
                stack.append((u, v, reached))
    return best


def oracle_star_tree_latency(tree: StarTree, cm: CostModel) -> Fraction:
    """Literal definition: the most, over leaf-to-leaf simple paths, of
    ``l[degree(v) - 1]`` summed over the path's nodes.

    Leaves add nothing, so the path from a leaf of internal node ``a`` to
    a leaf of internal node ``b`` sums the internal nodes from ``a`` to
    ``b`` (``a`` alone when ``a = b``, which needs two leaves on ``a``).
    One walk over the internal nodes from each ``a`` that holds a leaf
    (:func:`_leaf_reach`) finds the longest path through its leaves, on
    the model's integer latencies (:attr:`CostModel.scaled_l`).
    """
    scale, lat = cm.scaled_l
    labels = tree.labels
    weight, inner, held = [], [], []  # per node; leaves get empty entries
    for lbl, nb in zip(labels, tree.adj):
        internal = [u for u in nb if labels[u] is None] if lbl is None else []
        weight.append(lat[len(nb) - 1] if lbl is None else 0)
        inner.append(internal)
        held.append(len(nb) - len(internal) if lbl is None else 0)
    ends = [a for a, h in enumerate(held) if h]
    return Fraction(max((_leaf_reach(inner, weight, held, a) for a in ends), default=0), scale)


# ---------------------------------------------------------------------------
# labeling search (cheapest structure over a fixed replicated shape)


def ascending_labeling(n: int) -> list[list[int]]:
    """Copy ``j`` reads the other inputs in ascending index order."""
    return [[i for i in range(1, n + 1) if i != j] for j in range(1, n + 1)]


def structure_from_labeled_copies(
    tree: UniformTree, labelings: Sequence[Sequence[int]], m: int
) -> Dag:
    """Reference builder for any labeling: unite one copy of ``tree``
    per output, every copy emitted in full and deduplicated only by the
    builder's hash-consing.

    ``labelings[j-1]`` assigns input indices to copy ``j``'s leaves in
    left-to-right order and must be a bijection onto ``{1..n} - {j}``,
    where ``n = len(labelings)``.  Fed the cyclic labeling, it gives the
    same structure, byte for byte, as
    :func:`mpsynth.uniform.structure_from_uniform_tree`.
    """
    n = len(labelings)
    if tree.leaf_count != n - 1:
        raise ValueError(f"tree has {tree.leaf_count} leaves, expected n - 1 = {n - 1}")
    if max(tree.levels, default=2) > m:
        raise ValueError("tree fan-in exceeds m")
    builder = DagBuilder()
    for j, seq in enumerate(labelings, start=1):
        if sorted(seq) != [i for i in range(1, n + 1) if i != j]:
            raise ValueError(f"labeling for copy {j} is not a bijection onto the other inputs")
        it = iter(seq)

        def emit(depth: int) -> int:
            if depth == tree.height:
                return builder.input(next(it))
            return builder.op([emit(depth + 1) for _ in range(tree.levels[depth])])

        builder.output(j, [emit(1) for _ in range(tree.levels[0])] if tree.levels else [emit(0)])
    return builder.build(n, m)


def _labeling_classes(tree: UniformTree) -> list[tuple[int, ...]]:
    """Distinct ways to pour k ordered labels into the tree's leaves, up
    to the shape's symmetries; returned as permutations of 0..k-1 in
    left-to-right leaf order."""
    k = tree.leaf_count

    def canon(perm: Sequence[int]) -> tuple:
        it = iter(perm)

        def emit(depth: int):
            if depth == len(tree.levels):
                return next(it)
            return tuple(sorted(emit(depth + 1) for _ in range(tree.levels[depth])))

        return emit(0)

    seen: dict[tuple, tuple[int, ...]] = {}
    for perm in itertools.permutations(range(k)):
        key = canon(perm)
        if key not in seen:
            seen[key] = perm
    return sorted(seen.values())


def min_labeling_complexity(
    w: Sequence[int],
    n: int,
    m: int,
    cm: CostModel,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> tuple[Fraction, int]:
    """Exhaustive search over per-copy leaf labelings of the replicated
    shape for type vector ``w``: returns the least complexity over the
    whole labeling space and how many labeling combinations achieve it.

    The search space collapses per copy to symmetry classes (two
    labelings whose labeled trees are equal contribute identically to
    any union), which keeps the product exact yet tiny.  No structure is
    built: the builder's hash-consing keeps one node per distinct
    labeled subtree of the copies (:func:`structure_from_labeled_copies`),
    and no two roots are equal, as each copy leaves out another input.
    So every copy's subtrees are interned once per class, a subtree as
    the set of its operands (input ``i`` as ``-i``, a subtree by its id),
    and a combination is rated by the union of its copies' id sets, each
    id weighing ``c`` of its fan-in.
    """
    if n > budget.max_labeling_inputs:
        raise BudgetExceeded(f"n = {n} exceeds labeling budget {budget.max_labeling_inputs}")
    tree = uniform_tree_from_type_vector(w)
    if tree.leaf_count != n - 1:
        raise ValueError(f"type vector {tuple(w)} is infeasible for n = {n}")
    if max(tree.levels, default=2) > min(m, cm.m):
        raise ValueError("tree fan-in exceeds m")
    scale, cost = cm.scaled_c
    ids: dict[frozenset[int], int] = {}
    weight: list[int] = []  # per interned subtree, c of its fan-in

    def emit(depth: int, leaves: Iterator[int], made: set[int]) -> int:
        if depth == tree.height:
            return -next(leaves)
        key = frozenset(emit(depth + 1, leaves, made) for _ in range(tree.levels[depth]))
        if key not in ids:
            ids[key] = len(weight)
            weight.append(cost[len(key)])
        made.add(ids[key])
        return ids[key]

    classes = _labeling_classes(tree)
    copies = []  # per copy, per class: the ids of its subtrees
    for labels in ascending_labeling(n):
        row = []
        for perm in classes:
            made: set[int] = set()
            emit(0, iter([labels[pos] for pos in perm]), made)
            row.append(made)
        copies.append(row)
    best: int | None = None
    achievers = 0
    for combo in itertools.product(*copies):
        total = sum(weight[i] for i in set().union(*combo))
        if best is None or total < best:
            best, achievers = total, 1
        elif total == best:
            achievers += 1
    return Fraction(best, scale), achievers


# ---------------------------------------------------------------------------
# bundled verification report


@dataclass(frozen=True)
class CheckResult:
    name: str
    params: dict
    dp_value: str
    oracle_value: str
    passed: bool
    witness: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "params": self.params,
            "dp_value": self.dp_value,
            "oracle_value": self.oracle_value,
            "pass": self.passed,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class VerifyReport:
    """The checks that ran, and ``skipped``: a ``(name, reason)`` pair for
    every kind of check that did not run at all.  ``ok`` reads the
    checks only."""

    n: int
    checks: tuple[CheckResult, ...]
    skipped: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ok": self.ok,
            "checks": [c.to_json_dict() for c in self.checks],
            "skipped": [{"name": name, "reason": reason} for name, reason in self.skipped],
        }


def _validity_witness(dag: Dag) -> str | None:
    """The defining properties ``dag`` fails, or None for a valid structure."""
    failed = validate(dag).failed()
    return "structure fails " + ", ".join(failed) if failed else None


def verify_report(
    n: int, cm: CostModel, budget: EnumerationBudget = DEFAULT_BUDGET
) -> VerifyReport:
    """Run every optimizer-versus-oracle comparison feasible under the
    budget for input size ``n`` and report each with exact values; each
    structure built must also pass :func:`validate`.  A kind of check
    that cannot run is listed in ``skipped`` with its reason."""
    checks: list[CheckResult] = []
    skipped: list[tuple[str, str]] = []
    m = cm.m
    type_vectors = enumerate_type_vectors(n, m)
    small = (n < 3, f"n = {n} needs no computation node")
    unfactored = (not type_vectors, f"n - 1 = {n - 1} has no factorization over [2, {m}]")

    def over(budget_name: str, size: str, value: int, cap: int) -> tuple[bool, str]:
        return value > cap, f"{size} = {value} exceeds the {budget_name} budget {cap}"

    def runs(name: str, *cases: tuple[bool, str]) -> bool:
        """Whether check ``name`` runs: the first case that holds skips it
        for its reason."""
        for holds, reason in cases:
            if holds:
                skipped.append((name, reason))
                return False
        return True

    def record(name: str, params: dict, dp: Fraction, oracle: Fraction, witness=None) -> None:
        checks.append(
            CheckResult(
                name=name,
                params=params,
                dp_value=format_rational(dp),
                oracle_value=format_rational(oracle),
                passed=dp == oracle and witness is None,
                witness=witness,
            )
        )

    # 1. cheapest star complexity vs exhaustive degree vectors
    table = min_star_complexity(n, cm)
    optima = optimal_degree_vectors(table) if n > 2 else []
    vector_count = over("count", "degree vectors", count_degree_vectors(n, m), budget.max_count)
    if runs("star_complexity", vector_count):
        vectors = enumerate_degree_vectors(n, m)
        brute = min((star_complexity(q, cm) for q in vectors if sum(q) > 0), default=Fraction(0))
        witness = None
        for q in optima:
            if star_complexity(q, cm) != table.value():
                witness = f"backtracked vector {q} does not achieve the DP value"
                break
        record("star_complexity", {"n": n, "m": m}, table.value(), brute, witness)

    # the censuses the spot checks of 3 read: the first six below the
    # first optimal vector that fit the rooted-tree budget
    spots: list[tuple[int, ...]] = []
    for u in vectors_below(optima[0]) if optima else ():
        leaves = 1 + sum((k + 1) * uk for k, uk in enumerate(u))
        if sum(u) and leaves <= budget.max_tree_leaves:
            spots.append(u)
            if len(spots) == 6:
                break

    # 2. star latency per optimal degree vector vs exhaustive trees; one
    # forest table over every optimal vector (over the spot censuses alone
    # when the trees are over budget; a cell reads only the cells below
    # it) serves these and the spot checks of 3
    if runs("star_latency", small, over("star-tree", "n", n, budget.max_star_leaves)):
        ftable = forest_latency_table(optima, cm)
        for q in optima:
            result = min_star_latency(q, cm, ftable)
            brute = oracle_min_star_latency(q, cm, result.tree, budget)
            induced = structure_from_star_tree(result.tree)
            witness = _validity_witness(induced)
            if degree_vector_of(result.tree) != q:
                witness = "witness tree has the wrong degree vector"
            elif oracle_star_tree_latency(result.tree, cm) != result.value:
                witness = "witness tree does not achieve the DP latency"
            elif witness is None and latency(induced, cm) != result.value:
                witness = "induced structure disagrees with the tree latency"
            record("star_latency", {"n": n, "m": m, "q": list(q)}, result.value, brute, witness)
    elif spots:
        ftable = forest_latency_table(spots, cm)

    # 3. forest table spot checks against census-filtered tree enumeration
    for u in spots:
        candidates = enumerate_rooted_trees_with_census(u, m, budget)
        brute = min(tree_latency(t, cm) for t in candidates)
        witness, value = None, ftable.value(u, 1)
        rebuilt = ftable.rebuild_tree(u)
        if degree_vector(rebuilt, m) != u:
            witness = "rebuilt witness tree has the wrong census"
        elif tree_latency(rebuilt, cm) != value:
            witness = "rebuilt witness tree does not achieve the table value"
        record("forest_latency", {"n": n, "m": m, "census": list(u)}, value, brute, witness)
    no_spot = "no census below the first optimal degree vector fits the rooted-tree budget"
    runs("forest_latency", small, (not spots, f"{no_spot} {budget.max_tree_leaves}"))

    # 4. uniform latency DP vs exhaustive type vectors
    if runs("uniform_latency", unfactored):
        result = min_uniform_latency(n, cm)
        brute = min(type_vector_latency(w, cm) for w in type_vectors)
        witness = None
        for w in result.type_vectors:
            if type_vector_latency(w, cm) != result.value:
                witness = f"backtracked type vector {w} does not achieve the DP value"
                break
        record("uniform_latency", {"n": n, "m": m}, result.value, brute, witness)

    # 5. cyclic labeling is the cheapest labeling of each feasible shape
    labeling_budget = over("labeling", "n", n, budget.max_labeling_inputs)
    if runs("labeling_minimality", small, labeling_budget, unfactored):
        for w in type_vectors:
            best, _ = min_labeling_complexity(w, n, m, cm, budget)
            built = structure_from_uniform_tree(uniform_tree_from_type_vector(w), m)
            achieved = complexity(built, cm)
            formula = type_vector_complexity(w, cm)
            witness = _validity_witness(built)
            if witness is None and achieved != formula:
                witness = f"cyclic labeling complexity {achieved} != formula {formula}"
            record("labeling_minimality", {"n": n, "m": m, "w": list(w)}, formula, best, witness)

    # 6. latency-first synthesis matches the exhaustive rooted-tree lower bound
    tree_budget = over("rooted-tree", "n - 1", n - 1, budget.max_tree_leaves)
    if runs("latency_dominance", small, tree_budget):
        synthesis = synthesize_min_latency(n, cm)
        brute = min(tree_latency(t, cm) for t in enumerate_rooted_trees(n - 1, m, budget))
        witness = _validity_witness(synthesis.structure)
        if witness is None and latency(synthesis.structure, cm) != synthesis.latency:
            witness = "latency-first structure does not achieve the DP latency"
        record("latency_dominance", {"n": n, "m": m}, synthesis.latency, brute, witness)

    return VerifyReport(n=n, checks=tuple(checks), skipped=tuple(skipped))
