"""Brute-force reference implementations.

Everything the optimizers compute has an independent, enumeration-based
counterpart here, runnable at desk scale: exhaustive degree/type-vector
generation, star-tree and rooted-tree enumeration up to isomorphism
(the tests check each against a second, independently derived
generation or counting strategy, because a single enumerator
validating itself proves nothing), a literal path-walking star-tree
latency oracle, a per-copy builder of
replicated structures under any leaf labeling
(:func:`structure_from_labeled_copies`, the reference for the cyclic
builder), and a bundled :func:`verify_report` that cross-checks every
optimizer answer and is exposed through the command line.

Oracle values are compared to optimizer values with exact equality;
there are no tolerances anywhere.  Path walks add the model's integer
latencies (:attr:`CostModel.scaled_l`); no brute value comes from an
optimizer's DP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

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
# star-tree enumeration (two strategies)


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


def enumerate_star_trees(
    q: Sequence[int], budget: EnumerationBudget = DEFAULT_BUDGET
) -> list[StarTree]:
    """Every star tree with degree vector ``q``, up to isomorphism with
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


def oracle_star_tree_latency(tree: StarTree, cm: CostModel) -> Fraction:
    """Literal definition: the most, over leaf-to-leaf simple paths, of
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
    same graph as :func:`mpsynth.uniform.structure_from_uniform_tree`.
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
    any union), which keeps the product exact yet tiny.
    """
    if n > budget.max_labeling_inputs:
        raise BudgetExceeded(f"n = {n} exceeds labeling budget {budget.max_labeling_inputs}")
    tree = uniform_tree_from_type_vector(w)
    if tree.leaf_count != n - 1:
        raise ValueError(f"type vector {tuple(w)} is infeasible for n = {n}")
    classes = _labeling_classes(tree)
    per_copy_labels = ascending_labeling(n)
    best: Fraction | None = None
    achievers = 0
    for combo in itertools.product(range(len(classes)), repeat=n):
        labelings = [
            [per_copy_labels[j][classes[c][pos]] for pos in range(n - 1)]
            for j, c in enumerate(combo)
        ]
        dag = structure_from_labeled_copies(tree, labelings, m)
        cost = complexity(dag, cm)
        if best is None or cost < best:
            best, achievers = cost, 1
        elif cost == best:
            achievers += 1
    return best, achievers


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
            trees = enumerate_star_trees(q, budget)
            brute = min(oracle_star_tree_latency(t, cm) for t in trees)
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
