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
  structure of that shape is built directly at ``n`` by the drop rules
  below, without increasing latency;
* :func:`min_uniform_latency` - the exact-size reference: a DP over the
  divisors of ``n - 1`` (only when it factors over ``[2, m]``), never
  faster than the ceiling DP and sometimes slower.

Labeling the copies' leaves cyclically (copy ``j`` reads
``x_{j+1}..x_n, x_1..x_{j-1}`` left to right) maximizes sharing between
copies and achieves complexity ``sum n * w_i * c[i+2]``
(:func:`type_vector_complexity`), the least any labeling of the same
shape can achieve, so it is the only labeling
:func:`structure_from_uniform_tree` builds.  Other labelings live with
the oracles (:func:`mpsynth.oracles.structure_from_labeled_copies`).
The cyclic labeling also lets the builder make each node once: a node
at depth ``d`` whose first leaf is ``x_{s+1}`` covers the *block*
``x_{s+1}..x_{s+span}`` cyclically (``span`` leaves from ring offset
``s``), so ``(d, s)`` names it exactly.  The builder makes the nodes
depth by depth from the leaves, one int per ring offset, each from the
images of its children one depth below, in flat loops with no
recursion; it takes time and memory proportional to the ``~n * height``
nodes it makes rather than to the ``n * n`` leaves of all copies.

Below the ring size, the builder cuts the ring of ``n'`` inputs down to
``n`` as it makes each ``(d, s)``, by two rules: a node left with no
operand (a leaf past ``x_n`` included) is dropped, and a node left with
one operand is that operand.  Only outputs ``y_1..y_n`` are built, so
the ``n' - n`` surplus inputs and outputs are never made, and latency
and complexity never increase: nodes are only removed.

The builder takes ``n = 2`` and every ``n`` with ``n - 1`` above the
leaf count of one root child, ``n = n'`` included; in between, ``y_1``
would keep a single root operand.  Synthesis never asks for those
sizes.  If one root child covered the ``n - 1`` leaves, the shape
without its root level would cover them too, so either that level
weighs something and the ceiling DP's optimum was not optimal, or every
level weighs nothing and a smaller optimal vector, no more complex,
wins the tie-break.

At every size it takes above 2, each ring offset at each depth below
the roots is in some output's tree, and no two nodes it makes are
equal, so nothing needs marking or merging.  Copy ``j``'s blocks at
depth ``d`` start at ``j + t * span``, so the ``n`` copies' blocks
start at every offset from 1 to ``n + n' - 1 - span``: the whole ring,
as ``n - 1 >= span``.  A node's inputs are its block less the dropped
arc ``x_{n+1}..x_{n'}``.  Two blocks that keep the same inputs have
their differences inside that arc; being one arc, it then holds either
their common part, which leaves them no input, or all the ring outside
it, which puts all ``n`` inputs into a block of fewer than ``n - 1``
leaves.  So no two blocks of one depth keep the same inputs, and a
deeper block that keeps those of a shallower one lies at one end of
it, inside one of its child blocks: the shallower node keeps a single
operand and is not made.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterator, Sequence

from .costs import CostModel
from .structure import Dag, _with_order

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


def leaf_count_of_type_vector(w: Sequence[int]) -> int:
    return prod((i + 2) ** wi for i, wi in enumerate(w))


def uniform_tree_from_type_vector(w: Sequence[int]) -> UniformTree:
    """Realize a type vector as a shape, fan-ins non-increasing top to
    bottom.  Other level orders (:class:`UniformTree` of any permutation)
    have identical latency and, under cyclic labeling, complexity."""
    w = tuple(w)
    if any(x < 0 for x in w):
        raise ValueError("type vector entries must be non-negative")
    levels = sorted((i + 2 for i, wi in enumerate(w) for _ in range(wi)), reverse=True)
    return UniformTree(levels=tuple(levels))


def type_vector_latency(w: Sequence[int], cm: CostModel) -> Fraction:
    """Latency forced by a type vector: ``sum w_i * l[i+2]``."""
    w = tuple(w)
    if len(w) > cm.m - 1:
        raise ValueError(f"type vector length {len(w)} exceeds m - 1 = {cm.m - 1}")
    return sum((wi * cm.l[i + 2] for i, wi in enumerate(w)), Fraction(0))


def type_vector_complexity(w: Sequence[int], cm: CostModel) -> Fraction:
    """Complexity of the cyclic structure for a type vector:
    ``sum n * w_i * c[i+2]`` at its own size ``n = 1 + leaf count``."""
    n = 1 + leaf_count_of_type_vector(w)
    return sum((n * wi * cm.c[i + 2] for i, wi in enumerate(w)), Fraction(0))


# ---------------------------------------------------------------------------
# structure construction


def _rows(below: list[int | None], fan: int, step: int) -> Iterator[tuple[int | None, ...]]:
    """Row ``s`` for each ring offset ``s``: the images ``below[s + k * step]``
    (cyclically) of the ``fan`` children of the node one depth above."""
    return zip(*[below[k * step :] + below[: k * step] for k in range(fan)])


def structure_from_uniform_tree(tree: UniformTree, m: int, n: int | None = None) -> Dag:
    """Unite one cyclically labeled copy of ``tree`` per output on the
    ring of ``n' = tree.leaf_count + 1`` inputs, keeping ``x_1..x_n`` and
    ``y_1..y_n`` (``n`` defaults to ``n'``).

    Copy ``j`` reads ``x_{j+1}..x_{n'}, x_1..x_{j-1}`` left to right, so
    a node at depth ``d`` whose first leaf sits at ring offset ``s`` (it
    reads ``x_{s+1}``) covers as many inputs as it has leaves from there
    on, cyclically, in every copy that contains it.  The nodes are made
    depth by depth from the leaves: ``below[s]`` is the image of
    ``(d + 1, s)``, and row ``s`` of the depth above reads
    ``below[s + k * span]`` for each of its children ``k``.

    Below ``n'`` the surplus inputs are dropped as the nodes are made: a
    leaf at offset ``s >= n`` is nothing, a node with no surviving
    operand is nothing, a node with one is that operand, and any other
    is a node over its operands' images.  Every node made feeds an
    output, and none equals another (see the module docstring).  Each
    node made has fan-in in ``[2, m]``: the levels' fan-ins are at most
    ``m``, a node needs two operands, and an output keeps two at the
    sizes taken above 2.

    ``n`` must be 2 or exceed ``1 +`` the leaf count of one root child:
    in between, all of ``y_1``'s inputs fit under its first root child,
    which would leave ``y_1`` a single internal operand.  Latency-first
    synthesis never asks for those sizes (see the module docstring).
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
        raise ValueError(
            f"need n = 2 or n > {1 + span[1]} for levels {levels}, got n = {n}:"
            " y1 would keep a single root operand"
        )
    inputs = [("x", i) for i in range(1, n + 1)]
    outputs = [("y", j) for j in range(1, n + 1)]
    if n == 2:  # each output is a wire from the other input
        dag = Dag(n=2, m=m, labels=(*inputs, *outputs), children=((), (), (1,), (0,)))
        return _with_order(dag, range(4))
    children: list[tuple[int, ...]] = [()] * n
    below: list[int | None] = [*range(n), *[None] * (ring - n)]  # x_{s+1} is node s
    for depth in range(len(levels) - 1, 0, -1):
        images = []
        for row in _rows(below, levels[depth], span[depth + 1]):
            if None in row:
                row = [c for c in row if c is not None]
                if len(row) < 2:  # one operand passes through; none leaves nothing
                    images.append(row[0] if row else None)
                    continue
            images.append(len(children))
            children.append(tuple(sorted(row)))
        below = images
    made = len(children) - n
    roots = list(_rows(below, levels[0], span[1]))  # y_j's operands: row j % ring
    for j in range(1, n + 1):
        children.append(tuple(sorted(c for c in roots[j % ring] if c is not None)))
    dag = Dag(n=n, m=m, labels=(*inputs, *[None] * made, *outputs), children=tuple(children))
    return _with_order(dag, range(len(children)))


# ---------------------------------------------------------------------------
# latency DPs


def _latency_dp(k: int, cm: CostModel, ceiling: bool) -> tuple[Fraction, set[Vec], int] | None:
    """Least ``sum w_i * l[i+2]`` over level sequences covering ``k``
    leaves, every optimal type vector, and the number of transitions
    tried; ``None`` when no sequence fits.

    Peeling a fan-in ``t`` level leaves ``ceil(k/t)`` leaves to cover
    (``ceiling``), or exactly ``k/t`` when ``t`` divides ``k`` (exact
    sizes).  Only the sizes reachable from ``k`` are solved, smallest
    first, without recursion, on the ints of :attr:`CostModel.scaled_l`.
    """
    m = cm.m
    scale, lat = cm.scaled_l

    def steps(j: int) -> list[tuple[int, int]]:
        return [(t, -(-j // t)) for t in range(2, m + 1) if ceiling or j % t == 0]

    sizes = {k}
    stack = [k]
    while stack:
        for _, i in steps(stack.pop()):
            if i not in sizes:
                sizes.add(i)
                stack.append(i)
    best: dict[int, tuple[int, set[Vec]]] = {1: (0, {(0,) * (m - 1)})}
    ops = 0
    for j in sorted(sizes - {1}):
        entry: tuple[int, set[Vec]] | None = None
        for t, i in steps(j):
            if i not in best:
                continue
            ops += 1
            cand = best[i][0] + lat[t]
            grown = {w[: t - 2] + (w[t - 2] + 1,) + w[t - 1 :] for w in best[i][1]}
            if entry is None or cand < entry[0]:
                entry = (cand, grown)
            elif cand == entry[0]:
                entry[1].update(grown)
        if entry is not None:
            best[j] = entry
    return None if k not in best else (Fraction(best[k][0], scale), best[k][1], ops)


@dataclass(frozen=True)
class UniformLatencyResult:
    value: Fraction
    type_vectors: tuple[Vec, ...]  # every optimal w, sorted
    ops: int


def min_uniform_latency(n: int, cm: CostModel) -> UniformLatencyResult:
    """Least latency over uniform-tree-based structures with exactly
    ``n`` inputs: DP over the divisors of ``n - 1``, peeling one level
    (a factor ``t`` in ``[2, m]``) at a time.

    Raises when ``n - 1`` has no factorization over ``[2, m]``;
    :func:`synthesize_min_latency` handles those sizes.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    found = _latency_dp(n - 1, cm, ceiling=False)
    if found is None:
        raise ValueError(
            f"n - 1 = {n - 1} has no factorization into factors from [2, {cm.m}];"
            " use synthesize_min_latency for this input size"
        )
    value, vectors, ops = found
    return UniformLatencyResult(value=value, type_vectors=tuple(sorted(vectors)), ops=ops)


# ---------------------------------------------------------------------------
# latency-first synthesis (any input size)


@dataclass(frozen=True)
class LatencySynthesis:
    latency: Fraction
    n_prime: int  # the ring size of the winning shape, leaf count + 1
    w: Vec
    all_w: tuple[Vec, ...]  # every latency-optimal w, sorted
    structure: Dag


def synthesize_min_latency(n: int, cm: CostModel) -> LatencySynthesis:
    """Globally latency-optimal structure for any ``n >= 3``.

    A tree computing one output must feed at least ``n - 1`` leaves
    into its root, and a fan-in ``t`` root needs a child subtree with
    at least ``ceil((n-1)/t)`` leaves, so the ceiling recursion
    ``lat(k) = min_t l[t] + lat(ceil(k/t))`` lower-bounds every
    structure.  The witness type vector realizes the bound with
    ``n' - 1 >= n - 1`` leaves; its cyclic structure, built at ``n`` in
    one pass with the surplus inputs dropped
    (:func:`structure_from_uniform_tree`), meets the bound exactly.

    Among equally fast type vectors the cheapest by the cyclic-labeling
    complexity formula (at its own ``n'``) wins, then the smallest
    lexicographically.
    """
    if n < 3:
        raise ValueError(f"synthesize_min_latency needs n >= 3, got {n}")
    value, vectors, _ = _latency_dp(n - 1, cm, ceiling=True)

    all_w = tuple(sorted(vectors))
    w = min(all_w, key=lambda cand: (type_vector_complexity(cand, cm), cand))
    tree = uniform_tree_from_type_vector(w)
    return LatencySynthesis(
        latency=value,
        n_prime=tree.leaf_count + 1,
        w=w,
        all_w=all_w,
        structure=structure_from_uniform_tree(tree, cm.m, n),
    )
