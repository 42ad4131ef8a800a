"""Uniform replicated trees and latency-first synthesis.

A *uniform tree* is a rooted tree in which all subtrees hanging off any
node are isomorphic, so each level has a single fan-in and the whole
shape is the top-to-bottom fan-in sequence ``levels``.  Its *type
vector* ``w`` counts levels by fan-in (entry ``i``, 0-based, counts
fan-in ``i+2`` levels); the leaf count is the product of the level
fan-ins, so ``w`` is realizable for input size ``n`` iff
``prod (i+2)^{w_i} == n - 1``.

Replicating such a tree once per output and uniting the copies gives a
structure whose latency is forced to ``sum w_i * l[i+2]`` (every
input-to-output path crosses each level once), independent of how the
copies' leaves are labeled.  Among all structures, none has lower
latency than the best uniform-tree-based one, which is why the
latency-first synthesizer lives here:

* :func:`synthesize_min_latency` - the latency-first entry point: a
  ceiling DP finds the best over-provisioned size ``n' >= n``, and the
  built structure is pruned back down to ``n`` without increasing
  latency;
* :func:`min_uniform_latency` - the exact-size reference: a DP over the
  divisors of ``n - 1`` (only when it factors over ``[2, m]``), never
  faster than the ceiling DP and sometimes slower.

Labeling the copies' leaves cyclically (copy ``j`` reads
``x_{j+1}..x_n, x_1..x_{j-1}`` left to right) maximizes sharing between
copies and achieves complexity ``sum n * w_i * c[i+2]``, the least any
labeling of the same shape can achieve.  It also lets
:func:`structure_from_uniform_tree` build each node once: under that
labeling a node at depth ``d`` whose first leaf is ``x_{s+1}`` covers
``x_{s+1}..x_{s+size}`` cyclically, so ``(d, s)`` names it exactly and
the build takes time proportional to the ``~n * height`` nodes it
makes rather than to the ``n * n`` leaves of all copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from .costs import CostModel
from .structure import Dag, DagBuilder, prune

Vec = tuple[int, ...]


@dataclass(frozen=True)
class UniformTree:
    """Shape of a uniform replicated tree: top-to-bottom level fan-ins.

    ``levels == ()`` is the degenerate single-leaf tree.
    """

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        for d in self.levels:
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"level fan-in must be an integer >= 2, got {d!r}")

    @property
    def leaf_count(self) -> int:
        return prod(self.levels)

    @property
    def height(self) -> int:
        return len(self.levels)


def type_vector_of(tree: UniformTree, m: int) -> Vec:
    """Count levels by fan-in: entry ``i`` (0-based) counts fan-in ``i+2``."""
    w = [0] * (m - 1)
    for d in tree.levels:
        if d > m:
            raise ValueError(f"level fan-in {d} exceeds m = {m}")
        w[d - 2] += 1
    return tuple(w)


def leaf_count_of_type_vector(w: Sequence[int]) -> int:
    return prod((i + 2) ** wi for i, wi in enumerate(w))


def uniform_tree_from_type_vector(
    w: Sequence[int],
    level_order: Sequence[int] | None = None,
) -> UniformTree:
    """Realize a type vector as a shape.

    ``level_order`` fixes the top-to-bottom fan-in sequence and must be
    a permutation of the multiset ``w`` encodes; the default is
    non-increasing fan-in.  Distinct orders give different shapes with
    identical latency and (under cyclic labeling) identical complexity.
    """
    w = tuple(w)
    if any(x < 0 for x in w):
        raise ValueError("type vector entries must be non-negative")
    multiset = sorted(
        (i + 2 for i, wi in enumerate(w) for _ in range(wi)),
        reverse=True,
    )
    if level_order is None:
        return UniformTree(levels=tuple(multiset))
    if sorted(level_order, reverse=True) != multiset:
        raise ValueError(
            f"level order {tuple(level_order)} is not a permutation of the"
            f" fan-ins encoded by w = {w}"
        )
    return UniformTree(levels=tuple(level_order))


def type_vector_latency(w: Sequence[int], cm: CostModel) -> Fraction:
    """Latency forced by a type vector: ``sum w_i * l[i+2]``."""
    w = tuple(w)
    if len(w) > cm.m - 1:
        raise ValueError(f"type vector length {len(w)} exceeds m - 1 = {cm.m - 1}")
    return sum((wi * cm.l[i + 2] for i, wi in enumerate(w)), Fraction(0))


# ---------------------------------------------------------------------------
# labelings and structure construction


def consecutive_labeling(tree: UniformTree, n: int) -> list[list[int]]:
    """Copy ``j`` reads the other inputs cyclically from ``x_{j+1}``:
    ``x_{j+1}..x_n, x_1..x_{j-1}`` in left-to-right leaf order."""
    if tree.leaf_count != n - 1:
        raise ValueError(f"tree has {tree.leaf_count} leaves, expected n - 1 = {n - 1}")
    ring = list(range(1, n + 1)) * 2
    return [ring[j + 1 : j + n] for j in range(n)]


def ascending_labeling(tree: UniformTree, n: int) -> list[list[int]]:
    """Copy ``j`` reads the other inputs in ascending index order."""
    if tree.leaf_count != n - 1:
        raise ValueError(f"tree has {tree.leaf_count} leaves, expected n - 1 = {n - 1}")
    return [[i for i in range(1, n + 1) if i != j] for j in range(1, n + 1)]


def structure_from_uniform_tree(
    tree: UniformTree,
    labelings: Sequence[Sequence[int]],
    n: int,
    m: int,
) -> Dag:
    """Unite one labeled copy of ``tree`` per output.

    ``labelings[j-1]`` assigns input indices to copy ``j``'s leaves in
    left-to-right order and must be a bijection onto ``{1..n} - {j}``.
    Shared subtrees across copies intern to single nodes.

    Nodes are memoized on ``(depth, first leaf label)``.  The copies
    whose labeling is the cyclic rotation :func:`consecutive_labeling`
    gives share one memo, which names a node exactly among them, so
    each shared node is emitted once; any other copy gets a memo of its
    own and is emitted in full, deduplicated by hash-consing alone.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if tree.leaf_count != n - 1:
        raise ValueError(f"tree has {tree.leaf_count} leaves, expected n - 1 = {n - 1}")
    if max(tree.levels, default=2) > m:
        raise ValueError("tree fan-in exceeds m")
    if len(labelings) != n:
        raise ValueError(f"expected {n} labelings, got {len(labelings)}")
    levels = tree.levels
    span = [prod(levels[d:]) for d in range(len(levels) + 1)]
    ring = list(range(1, n + 1)) * 2
    builder = DagBuilder()
    shared: dict[tuple[int, int], int] = {}

    def emit(seq: list[int], memo: dict[tuple[int, int], int], depth: int, pos: int) -> int:
        # the node at ``depth`` whose leaves start at position ``pos``
        key = (depth, seq[pos])
        if key not in memo:
            if depth == len(levels):
                memo[key] = builder.input(seq[pos])
            else:
                step = span[depth + 1]
                memo[key] = builder.op(
                    [emit(seq, memo, depth + 1, pos + k * step) for k in range(levels[depth])]
                )
        return memo[key]

    for j in range(1, n + 1):
        seq = list(labelings[j - 1])
        rotation = seq == ring[j : j + n - 1]
        if not rotation and sorted(seq) != [i for i in range(1, n + 1) if i != j]:
            raise ValueError(f"labeling for copy {j} is not a bijection onto the other inputs")
        memo = shared if rotation else {}
        if not levels:
            builder.output(j, [emit(seq, memo, 0, 0)])
        else:
            builder.output(j, [emit(seq, memo, 1, k * span[1]) for k in range(levels[0])])
    return builder.build(n, m)


# ---------------------------------------------------------------------------
# latency DPs


def _latency_dp(k: int, cm: CostModel, ceiling: bool) -> tuple[Fraction, set[Vec], int] | None:
    """Least ``sum w_i * l[i+2]`` over level sequences covering ``k``
    leaves, every optimal type vector, and the number of transitions
    tried; ``None`` when no sequence fits.

    Peeling a fan-in ``t`` level leaves ``ceil(k/t)`` leaves to cover
    (``ceiling``), or exactly ``k/t`` when ``t`` divides ``k`` (exact
    sizes).  Only the sizes reachable from ``k`` are solved, smallest
    first, without recursion.
    """
    m = cm.m

    def steps(j: int) -> list[tuple[int, int]]:
        return [(t, -(-j // t)) for t in range(2, m + 1) if ceiling or j % t == 0]

    sizes = {k}
    stack = [k]
    while stack:
        for _, i in steps(stack.pop()):
            if i not in sizes:
                sizes.add(i)
                stack.append(i)
    best: dict[int, tuple[Fraction, set[Vec]]] = {1: (Fraction(0), {(0,) * (m - 1)})}
    ops = 0
    for j in sorted(sizes - {1}):
        entry: tuple[Fraction, set[Vec]] | None = None
        for t, i in steps(j):
            if i not in best:
                continue
            ops += 1
            cand = best[i][0] + cm.l[t]
            grown = {w[: t - 2] + (w[t - 2] + 1,) + w[t - 1 :] for w in best[i][1]}
            if entry is None or cand < entry[0]:
                entry = (cand, grown)
            elif cand == entry[0]:
                entry[1].update(grown)
        if entry is not None:
            best[j] = entry
    return None if k not in best else (*best[k], ops)


@dataclass(frozen=True)
class UniformLatencyResult:
    value: Fraction
    type_vectors: tuple[Vec, ...]  # every optimal w, sorted
    ops: int


def min_uniform_latency(n: int, cm: CostModel) -> UniformLatencyResult:
    """Least latency over uniform-tree-based structures with exactly
    ``n`` inputs: DP over the divisors of ``n - 1``, peeling one level
    (a factor ``t`` in ``[2, m]``) at a time.

    Raises when ``n - 1`` has no factorization over ``[2, m]``; the
    pruned synthesizer handles those sizes.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    found = _latency_dp(n - 1, cm, ceiling=False)
    if found is None:
        raise ValueError(
            f"n - 1 = {n - 1} has no factorization into factors from [2, {cm.m}];"
            " use the pruned synthesizer for this input size"
        )
    value, vectors, ops = found
    return UniformLatencyResult(value=value, type_vectors=tuple(sorted(vectors)), ops=ops)


# ---------------------------------------------------------------------------
# pruned synthesis (any input size)


@dataclass(frozen=True)
class PrunedSynthesis:
    latency: Fraction
    n_prime: int
    w: Vec
    all_w: tuple[Vec, ...]  # every latency-optimal w, sorted
    structure: Dag
    actions: tuple[str, ...]


def synthesize_min_latency(n: int, cm: CostModel) -> PrunedSynthesis:
    """Globally latency-optimal structure for any ``n >= 3``.

    A tree computing one output must feed at least ``n - 1`` leaves
    into its root, and a fan-in ``t`` root needs a child subtree with
    at least ``ceil((n-1)/t)`` leaves, so the ceiling recursion
    ``lat(k) = min_t l[t] + lat(ceil(k/t))`` lower-bounds every
    structure.  The witness type vector realizes the bound with
    ``n' - 1 >= n - 1`` leaves; building it at size ``n'`` with cyclic
    labeling and pruning back to ``n`` meets the bound exactly.

    Among equally fast type vectors the cheapest by the cyclic-labeling
    complexity formula (at its own ``n'``) wins, then the smallest
    lexicographically.
    """
    if n < 3:
        raise ValueError(f"pruned synthesis needs n >= 3, got {n}")
    value, vectors, _ = _latency_dp(n - 1, cm, ceiling=True)

    def formula_cost(w: Vec) -> Fraction:
        n_prime = 1 + leaf_count_of_type_vector(w)
        return sum((n_prime * wi * cm.c[i + 2] for i, wi in enumerate(w)), Fraction(0))

    all_w = tuple(sorted(vectors))
    w = min(all_w, key=lambda cand: (formula_cost(cand), cand))
    n_prime = 1 + leaf_count_of_type_vector(w)
    tree = uniform_tree_from_type_vector(w)
    full = structure_from_uniform_tree(tree, consecutive_labeling(tree, n_prime), n_prime, cm.m)
    result = prune(full, n)
    return PrunedSynthesis(
        latency=value,
        n_prime=n_prime,
        w=w,
        all_w=all_w,
        structure=result.structure,
        actions=result.actions,
    )
