"""Optimizers over star-tree-based structures.

Three exact dynamic programs, each with witness reconstruction:

* :func:`min_star_complexity` - the cheapest achievable complexity for
  input size ``n`` over all star-tree degree vectors, via a 1-D DP on
  the leaf-count identity ``2 + sum i*q_i = n`` (each degree class
  ``i`` buys ``i`` extra leaves for ``(i+2) * c[i+1]``).
* :func:`forest_latency_table` - the least achievable worst-tree
  latency over forests of ``t`` disjoint rooted trees whose combined
  fan-in census is ``u``, tabulated for every census below one of a
  set of degree vectors: the union of their boxes, so
  :func:`synthesize_star` fills one table for all its optimal vectors.
  Runtime is O(m * sum over filled censuses u of prod (u_i + 1)).
* :func:`min_star_latency` - the least tree latency among star trees
  with a given degree vector, by scanning balanced two-sided splits
  whose side latencies come from the forest table.

Every value is an exact rational at the API.  Inside, the forest table
and the split scan run on ints: latencies scaled by the LCM of the
denominators of ``l[2..m]``, converted back to ``Fraction`` only by
:meth:`ForestLatencyTable.value` and in :class:`StarLatencyResult`.
Ties are broken toward the lexicographically smallest choice so results
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Iterable, Iterator, Sequence

from .costs import CostModel
from .drt import LEAF, Rooted, rooted
from .startree import StarTree, structure_from_star_tree
from .structure import Dag

Vec = tuple[int, ...]


def _zero(m: int) -> Vec:
    return (0,) * (m - 1)


def _sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def _minus_e(u: Vec, i: int) -> Vec:
    return tuple(a - 1 if k == i else a for k, a in enumerate(u))


def vectors_below(qmax: Vec) -> Iterator[Vec]:
    """All vectors componentwise <= qmax, in lexicographic order."""
    return product(*(range(x + 1) for x in qmax))


# ---------------------------------------------------------------------------
# complexity DP


@dataclass(frozen=True)
class ComplexityTable:
    """``values[i]`` is the least structure complexity for input size
    ``i`` (``i`` in 2..n); ``choices[i]`` lists every degree class
    (1-based) achieving it.  ``ops`` counts DP inner steps."""

    n: int
    m: int
    values: tuple[Fraction, ...]
    choices: tuple[tuple[int, ...], ...]
    ops: int

    def value(self, i: int | None = None) -> Fraction:
        i = self.n if i is None else i
        return self.values[i - 2]


def min_star_complexity(n: int, cm: CostModel) -> ComplexityTable:
    """1-D DP over input sizes: size 2 costs nothing (both outputs are
    wires); adding a degree-(t+2) internal node buys ``t`` leaves for
    ``(t+2) * c[t+1]``.  Runs in O(m*n)."""
    if n < 2:
        raise ValueError(f"input size must be >= 2, got {n}")
    values: list[Fraction] = [Fraction(0)]
    choices: list[tuple[int, ...]] = [()]
    ops = 0
    for i in range(3, n + 1):
        best: Fraction | None = None
        argmin: list[int] = []
        for t in range(1, cm.m):
            if t > i - 2:
                break
            ops += 1
            cand = values[i - t - 2] + (t + 2) * cm.c[t + 1]
            if best is None or cand < best:
                best, argmin = cand, [t]
            elif cand == best:
                argmin.append(t)
        values.append(best)
        choices.append(tuple(argmin))
    return ComplexityTable(n=n, m=cm.m, values=tuple(values), choices=tuple(choices), ops=ops)


def optimal_degree_vectors(table: ComplexityTable, all_optima: bool = False) -> list[Vec]:
    """Backtrack the complexity DP into concrete degree vectors.

    With ``all_optima`` every optimal vector is returned (sorted);
    otherwise the single vector obtained by always taking the smallest
    minimizing degree class.
    """
    m = table.m
    if not all_optima:
        q = [0] * (m - 1)
        i = table.n
        while i > 2:
            t = table.choices[i - 2][0]
            q[t - 1] += 1
            i -= t
        return [tuple(q)]

    memo: dict[int, set[Vec]] = {2: {_zero(m)}}

    def expand(i: int) -> set[Vec]:
        if i not in memo:
            out: set[Vec] = set()
            for t in table.choices[i - 2]:
                for q in expand(i - t):
                    out.add(tuple(x + 1 if k == t - 1 else x for k, x in enumerate(q)))
            memo[i] = out
        return memo[i]

    return sorted(expand(table.n))


# ---------------------------------------------------------------------------
# forest latency table


def _census_box(u: Sequence[int], strides: Sequence[int]) -> list[int]:
    """Flat indices of every census ``<= u``, ascending (= lexicographic)."""
    box = [0]
    for a, s in zip(u, strides):
        if a:
            box = [b + j for b in box for j in range(0, (a + 1) * s, s)]
    return box


@dataclass(frozen=True)
class ForestLatencyTable:
    """``value(u, t)``: least achievable maximum latency over forests of
    ``t`` disjoint rooted trees (bare leaves allowed) whose combined
    fan-in census is ``u`` (entry ``i`` counts fan-in ``i+2`` nodes,
    0-based).  Filled for every ``u`` below one of the censuses the
    table was built for, and ``t`` in 1..m.

    A census is stored under one mixed-radix int, first component most
    significant, with digit ``k`` in ``0..radix[k]``; cell ``(u, t)``
    sits at ``(t - 1) * size + index(u)``.  Cells hold latencies scaled
    by ``scale`` (the LCM of the denominators of ``l[2..m]``) as ints;
    ``lat[k]`` is ``l[k]`` so scaled.  ``choices`` holds the witness of a
    cell: the root's fan-in class ``i`` (0-based) when ``t == 1``, the
    first tree's census index when ``t > 1``.  ``ops`` counts the split
    candidates scanned (first-tree censuses over all cells with
    ``t > 1``)."""

    m: int
    radix: Vec
    strides: Vec
    size: int
    scale: int
    lat: tuple[int, ...]
    values: dict[int, int]
    choices: dict[int, int]
    ops: int

    def index(self, u: Sequence[int]) -> int:
        if len(u) != self.m - 1 or not all(0 <= a <= r for a, r in zip(u, self.radix)):
            raise KeyError(tuple(u))
        return sum(a * s for a, s in zip(u, self.strides))

    def value(self, u: Sequence[int], t: int) -> Fraction:
        return Fraction(self.values[(t - 1) * self.size + self.index(u)], self.scale)

    def _forest(self, index: int, t: int) -> list[int]:
        """Census indices of the ``t`` trees of the witness of cell
        ``(index, t)``, in the order their splits were chosen."""
        out = []
        while t > 1 and index:
            first = self.choices[(t - 1) * self.size + index]
            out.append(first)
            index -= first
            t -= 1
        # what is left is one tree (t == 1) or t bare leaves (index 0)
        out.extend([index] * t)
        return out

    def _trees(self, roots: list[int]) -> dict[int, Rooted]:
        """The witness tree of every census index reachable from
        ``roots``, built bottom-up: a child's census index is always
        smaller than its parent's, so no recursion is needed."""
        children: dict[int, list[int]] = {}
        stack = list(roots)
        while stack:
            index = stack.pop()
            if index and index not in children:
                i = self.choices[index]
                children[index] = self._forest(index - self.strides[i], i + 2)
                stack.extend(children[index])
        trees: dict[int, Rooted] = {0: LEAF}
        for index in sorted(children):
            trees[index] = rooted(trees[c] for c in children[index])
        return trees

    def rebuild_tree(self, u: Vec) -> Rooted:
        """A rooted tree realizing ``value(u, 1)``."""
        index = self.index(u)
        return self._trees([index])[index]

    def rebuild_forest(self, u: Vec, t: int) -> list[Rooted]:
        """A forest of ``t`` trees realizing ``value(u, t)``."""
        forest = self._forest(self.index(u), t)
        trees = self._trees(forest)
        return [trees[index] for index in forest]


def forest_latency_table(tops: Iterable[Sequence[int]], cm: CostModel) -> ForestLatencyTable:
    """Fill the forest-latency DP for every census below one of ``tops``.

    The cells filled are the union of the tops' boxes, not the box of
    their componentwise maximum, which can be many times larger.
    Censuses are visited in index order, so every lookup hits a filled
    cell (each lies componentwise below the census being filled).  A
    single tree (t = 1) chooses its root fan-in ``i+2`` and recurses on
    the child forest; a larger forest (t > 1) splits off the census of
    its first tree, the lexicographically smallest on ties.  All values
    are ints scaled by the LCM of the denominators of ``l[2..m]``, so
    the DP runs on exact integer arithmetic.  Runtime is
    O(m * sum over filled censuses u of prod (u_i + 1)), the split scan
    running inside ``map``/``max``/``min``.
    """
    m = cm.m
    tops = [tuple(q) for q in tops]
    if not tops:
        raise ValueError("no census to tabulate")
    for q in tops:
        if len(q) != m - 1:
            raise ValueError(f"census length {len(q)} != m - 1 = {m - 1}")
    radix = tuple(map(max, zip(*tops)))
    strides = [1] * (m - 1)
    for k in range(m - 3, -1, -1):
        strides[k] = strides[k + 1] * (radix[k + 1] + 1)
    size = strides[0] * (radix[0] + 1)
    scale = lcm(*(x.denominator for x in cm.l[2:]))
    lat = tuple(x.numerator * (scale // x.denominator) for x in cm.l)

    values: dict[int, int] = {(t - 1) * size: 0 for t in range(1, m + 1)}
    choices: dict[int, int] = {}
    ops = 0
    censuses = sorted(set().union(*(vectors_below(q) for q in tops)))
    for u in censuses[1:]:  # censuses[0] is the empty census
        iu = sum(a * s for a, s in zip(u, strides))
        best: int | None = None
        for i, (a, s) in enumerate(zip(u, strides)):
            if a:
                cand = values[(i + 1) * size + iu - s] + lat[i + 2]
                if best is None or cand < best:
                    best, pick = cand, i
        values[iu] = best
        choices[iu] = pick
        # the first tree's census runs over the box below u, and the
        # rest of the forest over the same box reversed
        box = _census_box(u, strides)
        ones = list(map(values.__getitem__, box))
        for t in range(2, m + 1):
            rest = map(values.__getitem__, map(((t - 2) * size).__add__, reversed(box)))
            cands = list(map(max, ones, rest))
            best = min(cands)
            values[(t - 1) * size + iu] = best
            choices[(t - 1) * size + iu] = box[cands.index(best)]
        ops += (m - 1) * len(box)
    return ForestLatencyTable(
        m=m,
        radix=radix,
        strides=tuple(strides),
        size=size,
        scale=scale,
        lat=lat,
        values=values,
        choices=choices,
        ops=ops,
    )


# ---------------------------------------------------------------------------
# latency-optimal star tree for a degree vector


@dataclass(frozen=True)
class StarLatencyResult:
    value: Fraction
    split: tuple[Vec, int]  # heavy-side census and its root class (1-based)
    tree: StarTree


def _star_tree_from_halves(heavy_forest: list[Rooted], light: Rooted, m: int) -> StarTree:
    """Join a rooted forest (under a fresh root) and a rooted tree by an
    edge between their roots, then label the leaves 1..n in walk order."""
    adj: list[list[int]] = []

    def new_node(parent: int | None = None) -> int:
        adj.append([])
        node = len(adj) - 1
        if parent is not None:
            adj[node].append(parent)
            adj[parent].append(node)
        return node

    def attach(trees: Sequence[Rooted], parent: int) -> None:
        """Hang ``trees`` below ``parent``, numbering nodes in pre-order."""
        stack = [(tree, parent) for tree in reversed(trees)]
        while stack:
            tree, above = stack.pop()
            node = new_node(above)
            stack.extend((child, node) for child in reversed(tree))

    heavy_root = new_node()
    attach(heavy_forest, heavy_root)
    if light == LEAF:
        new_node(heavy_root)
    else:
        attach(light, new_node(heavy_root))
    return StarTree.from_adjacency(adj, m)


def _best_split(q: Vec, table: ForestLatencyTable) -> tuple[int, tuple[Vec, int]]:
    """The least scaled tree latency over balanced splits of ``q``, and
    the first split (heavy census, 1-based root class) achieving it."""
    values, strides, size, lat = table.values, table.strides, table.size, table.lat
    iq = table.index(q)
    best: int | None = None
    best_split: tuple[Vec, int] | None = None
    for u, iu in zip(vectors_below(q), _census_box(q, strides)):
        light = values[iq - iu]
        for i, a in enumerate(u):
            if a == 0:
                continue
            heavy_children = values[(i + 1) * size + iu - strides[i]]
            if not (heavy_children <= light <= heavy_children + lat[i + 2]):
                continue
            cand = heavy_children + lat[i + 2] + light
            if best is None or cand < best:
                best, best_split = cand, (u, i + 1)
    if best is None:
        raise RuntimeError(f"no balanced split found for degree vector {q}")
    return best, best_split


def min_star_latency(
    q: Sequence[int], cm: CostModel, table: ForestLatencyTable | None = None
) -> StarLatencyResult:
    """Least tree latency among star trees with degree vector ``q``.

    Every star tree splits at some edge into a heavy side (a rooted
    tree whose root sat on that edge) and a light side, with the tree
    latency equal to the two sides' latencies summed and the split
    balanced: discounting the heavy root's own weight flips the
    comparison.  The scan enumerates the heavy side's census ``u`` and
    root class ``i``, rates both sides by the forest table, and keeps
    balanced splits only.  The balance test uses the non-strict
    ``heavy >= light``: requiring strict dominance is unsatisfiable
    whenever the optimal tree halves evenly (equal-latency sides), so
    the strict variant would wrongly report such vectors infeasible.

    ``table`` must cover ``q`` and come from ``cm``; without one, a
    table over ``q`` alone is built.  The scan compares the table's
    scaled ints.
    """
    q = tuple(q)
    if len(q) != cm.m - 1:
        raise ValueError(f"degree vector length {len(q)} != m - 1 = {cm.m - 1}")
    if sum(q) == 0:
        raise ValueError("degree vector has no internal nodes (n = 2 has no star tree)")
    if table is None:
        table = forest_latency_table([q], cm)
    best, (u, root_class) = _best_split(q, table)
    forest = table.rebuild_forest(_minus_e(u, root_class - 1), root_class + 1)
    light_tree = table.rebuild_tree(_sub(q, u))
    tree = _star_tree_from_halves(forest, light_tree, cm.m)
    return StarLatencyResult(
        value=Fraction(best, table.scale), split=(u, root_class), tree=tree
    )


# ---------------------------------------------------------------------------
# full pipeline: complexity first, then latency


@dataclass(frozen=True)
class StarSynthesis:
    complexity: Fraction
    latency: Fraction
    q: Vec
    all_q: tuple[Vec, ...]  # every complexity-optimal degree vector
    tree: StarTree
    structure: Dag


def synthesize_star(n: int, cm: CostModel, all_optima: bool = True) -> StarSynthesis:
    """Complexity-optimal structure, then the lowest-latency one among
    those: backtrack every optimal degree vector, rate each from one
    forest table over all of them, keep the best (ties to the smaller
    vector), and realize it by :func:`min_star_latency`."""
    if n < 3:
        raise ValueError(f"star synthesis needs n >= 3, got {n}")
    table = min_star_complexity(n, cm)
    candidates = optimal_degree_vectors(table, all_optima=all_optima)
    forest = forest_latency_table(candidates, cm)
    best: int | None = None
    best_q: Vec | None = None
    for q in candidates:
        value, _ = _best_split(q, forest)
        if best is None or value < best:
            best, best_q = value, q
    result = min_star_latency(best_q, cm, forest)
    structure = structure_from_star_tree(result.tree)
    return StarSynthesis(
        complexity=table.value(),
        latency=result.value,
        q=best_q,
        all_q=tuple(candidates),
        tree=result.tree,
        structure=structure,
    )
