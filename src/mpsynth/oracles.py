"""Brute-force reference implementations.

Everything the optimizers compute has an independent, enumeration-based
counterpart here, runnable at desk scale: exhaustive degree/type-vector
generation, star-tree and rooted-tree enumeration up to isomorphism
(each with a second, independently derived generation or counting
strategy, because a single enumerator validating itself proves
nothing), literal path-walking latency oracles, a per-copy builder of
replicated structures under any leaf labeling
(:func:`structure_from_labeled_copies`, the reference for the cyclic
builder), and a bundled :func:`verify_report` that cross-checks every
optimizer answer and is exposed through the command line.

Oracle values are compared to optimizer values with exact equality;
there are no tolerances anywhere.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .costs import CostModel, format_rational
from .drt import LEAF, Rooted, degree_vector, tree_latency
from .startree import (
    StarTree,
    degree_vector_of,
    feasible_input_size,
    star_complexity,
    star_tree_latency,
    structure_from_star_tree,
)
from .staropt import (
    forest_latency_table,
    min_star_complexity,
    min_star_latency,
    optimal_degree_vectors,
    vectors_below,
)
from .structure import Dag, DagBuilder, complexity, latency
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
        if k == m - 1:
            if left == 0:
                out.append(acc)
            return
        weight = k + 1
        for count in range(left // weight + 1):
            fill(k + 1, left - weight * count, acc + (count,))

    fill(0, n - 2, ())
    return sorted(out)


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
    full_adj: list[list[int]] = []
    ids: dict[int, int] = {}
    for v in sorted(adj):
        ids[v] = len(full_adj)
        full_adj.append([])
    for v in sorted(adj):
        for u in adj[v]:
            if v < u:
                full_adj[ids[v]].append(ids[u])
                full_adj[ids[u]].append(ids[v])
    for v in sorted(adj):
        for _ in range(target_degree[v] - len(adj[v])):
            full_adj.append([ids[v]])
            full_adj[ids[v]].append(len(full_adj) - 1)
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

    # state: internal skeleton adjacency + per-vertex target degree + remaining q
    State = tuple  # (adj, targets, remaining)

    def state_key(adj: dict[int, list[int]], targets: dict[int, int]) -> str:
        extra = {v: targets[v] - len(adj[v]) for v in adj}
        return _unrooted_code(adj, extra)

    initial: list[State] = []
    for k in range(m - 1):
        if q[k] > 0:
            rem = list(q)
            rem[k] -= 1
            adj = {0: []}
            targets = {0: k + 3}
            initial.append((adj, targets, tuple(rem)))
    frontier: dict[str, State] = {}
    for st in initial:
        frontier[state_key(st[0], st[1])] = st

    # Every state in a frontier has consumed the same number of internal
    # nodes, so remaining counts are exhausted simultaneously.
    while any(sum(st[2]) > 0 for st in frontier.values()):
        nxt: dict[str, State] = {}
        for adj, targets, rem in frontier.values():
            for k in range(m - 1):
                if rem[k] == 0:
                    continue
                rem2 = list(rem)
                rem2[k] -= 1
                # expand each vertex that still owns an anonymous leaf
                for v in adj:
                    if targets[v] - len(adj[v]) <= 0:
                        continue
                    adj2 = {u: list(nb) for u, nb in adj.items()}
                    new_v = max(adj2) + 1
                    adj2[new_v] = [v]
                    adj2[v].append(new_v)
                    targets2 = dict(targets)
                    targets2[new_v] = k + 3
                    key = state_key(adj2, targets2)
                    if key not in nxt:
                        nxt[key] = (adj2, targets2, tuple(rem2))
            if len(nxt) > budget.max_count:
                raise BudgetExceeded("star-tree enumeration exceeded max_count")
        frontier = nxt

    trees = [
        _star_tree_from_skeleton(adj, targets, m) for adj, targets, rem in frontier.values()
    ]
    trees.sort(key=star_tree_shape_code)
    return trees


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


# ---------------------------------------------------------------------------
# rooted-tree enumeration (two strategies)


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
    """Literal definition: walk every leaf-to-leaf simple path and sum
    ``l[degree(v) - 1]`` over its nodes."""

    def weight(v: int) -> Fraction:
        return Fraction(0) if tree.labels[v] is not None else cm.l[len(tree.adj[v]) - 1]

    leaves = tree.leaves()
    best = Fraction(0)
    for a in leaves:
        # BFS parents from a
        parent: dict[int, Optional[int]] = {a: None}
        queue = [a]
        while queue:
            v = queue.pop()
            for u in tree.adj[v]:
                if u not in parent:
                    parent[u] = v
                    queue.append(u)
        for b in leaves:
            if b <= a:
                continue
            total = Fraction(0)
            v: Optional[int] = b
            while v is not None:
                total += weight(v)
                v = parent[v]
            if total > best:
                best = total
    return best


def oracle_structure_latency(
    dag: Dag, cm: CostModel, budget: EnumerationBudget = DEFAULT_BUDGET
) -> Fraction:
    """Literal definition: enumerate every source-to-sink path."""
    if dag.node_count > 30:
        raise BudgetExceeded("path enumeration oracle is limited to 30 nodes")
    parents = dag.parent_map()
    best = Fraction(0)
    count = 0

    def walk(v: int, acc: Fraction) -> None:
        nonlocal best, count
        acc = acc + cm.l[dag.in_degree(v)]
        if not parents[v]:
            count += 1
            if count > budget.max_count:
                raise BudgetExceeded("path enumeration exceeded max_count")
            if acc > best:
                best = acc
            return
        for p in parents[v]:
            walk(p, acc)

    for v in range(dag.node_count):
        if dag.in_degree(v) == 0:
            walk(v, Fraction(0))
    return best


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
    n: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ok": self.ok,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def verify_report(
    n: int, cm: CostModel, budget: EnumerationBudget = DEFAULT_BUDGET
) -> VerifyReport:
    """Run every optimizer-versus-oracle comparison feasible under the
    budget for input size ``n`` and report each with exact values."""
    checks: list[CheckResult] = []
    m = cm.m

    def record(name: str, params: dict, dp, oracle, witness: str | None = None) -> None:
        dp_s = format_rational(dp) if isinstance(dp, Fraction) else str(dp)
        or_s = format_rational(oracle) if isinstance(oracle, Fraction) else str(oracle)
        checks.append(
            CheckResult(
                name=name,
                params=params,
                dp_value=dp_s,
                oracle_value=or_s,
                passed=dp == oracle and witness is None,
                witness=witness,
            )
        )

    # 1. cheapest star complexity vs exhaustive degree vectors
    table = min_star_complexity(n, cm)
    optima = optimal_degree_vectors(table, all_optima=True) if n > 2 else []
    vectors = enumerate_degree_vectors(n, m)
    if n == 2:
        brute = Fraction(0)
    else:
        brute = min(star_complexity(q, cm) for q in vectors if sum(q) > 0)
    witness = None
    for q in optima:
        if star_complexity(q, cm) != table.value():
            witness = f"backtracked vector {q} does not achieve the DP value"
            break
    record("star_complexity", {"n": n, "m": m}, table.value(), brute, witness)

    # 2. star latency per optimal degree vector vs exhaustive trees; one
    # forest table over every optimal vector serves these and the spot
    # checks of 3
    if n >= 3 and n <= budget.max_star_leaves:
        ftable = forest_latency_table(optima, cm)
        for q in optima:
            result = min_star_latency(q, cm, ftable)
            trees = enumerate_star_trees(q, budget)
            brute = min(oracle_star_tree_latency(t, cm) for t in trees)
            witness = None
            if degree_vector_of(result.tree) != q:
                witness = "witness tree has the wrong degree vector"
            elif star_tree_latency(result.tree, cm) != result.value:
                witness = "witness tree does not achieve the DP latency"
            elif latency(structure_from_star_tree(result.tree), cm) != result.value:
                witness = "induced structure disagrees with the tree latency"
            record(
                "star_latency",
                {"n": n, "m": m, "q": list(q)},
                result.value,
                brute,
                witness,
            )
    elif n >= 3:
        ftable = forest_latency_table([optima[0]], cm)

    # 3. forest table spot checks against census-filtered tree enumeration
    if n >= 3:
        spots = 0
        for u in vectors_below(optima[0]):
            if sum(u) == 0 or spots >= 6:
                continue
            leaves = 1 + sum((k + 1) * uk for k, uk in enumerate(u))
            if leaves > budget.max_tree_leaves:
                continue
            spots += 1
            candidates = enumerate_rooted_trees_with_census(u, m, budget)
            brute = min(tree_latency(t, cm) for t in candidates)
            witness = None
            rebuilt = ftable.rebuild_tree(u)
            if degree_vector(rebuilt, m) != u:
                witness = "rebuilt witness tree has the wrong census"
            elif tree_latency(rebuilt, cm) != ftable.value(u, 1):
                witness = "rebuilt witness tree does not achieve the table value"
            record(
                "forest_latency",
                {"n": n, "m": m, "census": list(u)},
                ftable.value(u, 1),
                brute,
                witness,
            )

    # 4. uniform latency DP vs exhaustive type vectors
    type_vectors = enumerate_type_vectors(n, m)
    if type_vectors:
        result = min_uniform_latency(n, cm)
        brute = min(type_vector_latency(w, cm) for w in type_vectors)
        witness = None
        for w in result.type_vectors:
            if type_vector_latency(w, cm) != result.value:
                witness = f"backtracked type vector {w} does not achieve the DP value"
                break
        record("uniform_latency", {"n": n, "m": m}, result.value, brute, witness)

    # 5. cyclic labeling is the cheapest labeling of each feasible shape
    if 3 <= n <= budget.max_labeling_inputs:
        for w in type_vectors:
            best, _ = min_labeling_complexity(w, n, m, cm, budget)
            built = structure_from_uniform_tree(uniform_tree_from_type_vector(w), m)
            achieved = complexity(built, cm)
            formula = type_vector_complexity(w, cm)
            witness = None
            if achieved != formula:
                witness = f"cyclic labeling complexity {achieved} != formula {formula}"
            record(
                "labeling_minimality",
                {"n": n, "m": m, "w": list(w)},
                formula,
                best,
                witness,
            )

    # 6. pruned synthesis matches the exhaustive rooted-tree lower bound
    if n >= 3 and n - 1 <= budget.max_tree_leaves:
        synthesis = synthesize_min_latency(n, cm)
        brute = min(
            tree_latency(t, cm) for t in enumerate_rooted_trees(n - 1, m, budget)
        )
        witness = None
        if latency(synthesis.structure, cm) != synthesis.latency:
            witness = "pruned structure does not achieve the DP latency"
        record("latency_dominance", {"n": n, "m": m}, synthesis.latency, brute, witness)

    return VerifyReport(n=n, checks=tuple(checks))
