"""Optimizers over star-tree-based structures.

Three exact dynamic programs, each with witness reconstruction:

* :func:`min_star_complexity` - the cheapest achievable complexity for
  input size ``n`` over all star-tree degree vectors, via a 1-D DP on
  the leaf-count identity ``2 + sum i*q_i = n`` (each degree class
  ``i`` buys ``i`` extra leaves for ``(i+2) * c[i+1]``);
  :func:`optimal_degree_vectors` enumerates every degree vector whose
  price is that optimum, pruning each prefix by the DP's values.
* :func:`forest_latency_table` - the least achievable worst-tree
  latency over forests of ``t`` disjoint rooted trees whose combined
  fan-in census is ``u``, tabulated for every census below one of a
  set of degree vectors: the union of their boxes, so
  :func:`synthesize_star` fills one table for all its optimal vectors.
  Each census gets only the forests some reader asks for, ``t`` in
  1..top(u), where top(u) is the largest ``i + 2`` with ``u + e_i``
  still in the union (1 when there is none).  A census on one class
  (``u = a * e_k``) reads its forests off the capacity of complete
  trees, in O(log a); any other census scans its box,
  O(top(u) * prod (u_i + 1)), and at ``t = 2`` only the box's first
  half, since a split and its mirror rate alike.
* :func:`min_star_latency` - the least tree latency among star trees
  with a given degree vector, by scanning balanced two-sided splits
  whose side latencies come from the forest table, and the tree the
  best split realizes.  :func:`synthesize_star` scans each optimal
  vector's splits once and builds only the winner's structure, straight
  from the split's two rooted halves, by the edge pass every star
  structure is made with (:func:`mpsynth.startree._star_structure`),
  without building the star tree; its ``tree`` is built from the halves
  only when read.

Every value is an exact rational at the API.  Inside, all three run on
ints, the model's integer views of ``c`` and ``l``
(:attr:`CostModel.scaled_c`, :attr:`CostModel.scaled_l`), converted
back to ``Fraction`` only by :meth:`ComplexityTable.value`,
:meth:`ForestLatencyTable.value` and in :class:`StarLatencyResult`.
Ties are broken toward the lexicographically smallest choice so results
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, product, repeat
from typing import Iterable, Iterator, Sequence

from .costs import CostModel
from .drt import LEAF, Rooted, rooted
from .startree import StarTree, _star_structure
from .structure import Dag

Vec = tuple[int, ...]


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
    """``values[i - 2]`` is the least structure complexity for input
    size ``i`` (``i`` in 2..n), times ``scale`` (the scale of
    :attr:`CostModel.scaled_c`); ``price[t - 1]`` is the scaled cost of
    one class-``t`` node, ``(t + 2) * c[t + 1]``, so a degree vector
    ``q`` costs ``sum(q_k * price[k])``.  ``ops`` counts DP inner steps."""

    n: int
    m: int
    scale: int
    values: tuple[int, ...]
    price: tuple[int, ...]
    ops: int

    def value(self, i: int | None = None) -> Fraction:
        i = self.n if i is None else i
        return Fraction(self.values[i - 2], self.scale)


def min_star_complexity(n: int, cm: CostModel) -> ComplexityTable:
    """1-D DP over input sizes: size 2 costs nothing (both outputs are
    wires); adding a degree-(t+2) internal node buys ``t`` leaves for
    ``(t+2) * c[t+1]``.  Runs in O(m*n)."""
    if n < 2:
        raise ValueError(f"input size must be >= 2, got {n}")
    scale, cost = cm.scaled_c
    price = tuple((t + 2) * cost[t + 1] for t in range(1, cm.m))
    values: list[int] = [0]
    ops = 0
    for i in range(3, n + 1):
        classes = min(cm.m - 1, i - 2)
        ops += classes
        best = values[i - 3] + price[0]
        for t in range(2, classes + 1):
            cand = values[i - t - 2] + price[t - 1]
            if cand < best:
                best = cand
        values.append(best)
    return ComplexityTable(n, cm.m, scale, tuple(values), price, ops)


def optimal_degree_vectors(table: ComplexityTable) -> list[Vec]:
    """Every optimal degree vector, sorted: each ``q`` with
    ``2 + sum t*q_t = n`` whose price is ``values[n - 2]``.

    A depth-first walk on an explicit stack places the classes smallest
    first, each count ascending, so the vectors come out in
    lexicographic order; the last class takes what is left, if it can.
    A prefix that spent ``spent`` and leaves ``left`` leaves costs at
    least ``spent + values[left]``, which never falls as a count grows
    (``values[left] <= values[left - t] + price``), and at least
    ``spent`` plus ``left`` times the least price per leaf of the
    classes after it.  Once either bound exceeds the optimum the prefix
    is dropped, and the first bound ends the class.  A prefix with no
    leaves left is padded with zeros; one whose next class is above the
    leaves left is dropped.
    """
    values, price, m = table.values, table.price, table.m
    best = values[table.n - 2]
    # rate[t]: the least price per leaf of classes t..m-1, as (price, leaves)
    rate = {m: (1, 0)}  # no class: any leaf is too dear
    for t in range(m - 1, 0, -1):
        p, s = rate[t + 1]
        rate[t] = (price[t - 1], t) if price[t - 1] * s <= p * t else (p, s)
    out: list[Vec] = []
    stack: list[tuple[Vec, int, int]] = [((), 0, table.n - 2)]
    while stack:
        prefix, spent, left = stack.pop()
        t = len(prefix) + 1  # the class to place next
        if left == 0:
            out.append(prefix + (0,) * (m - t))
        elif t == m - 1:
            if left % t == 0 and spent + left // t * price[t - 1] == best:
                out.append(prefix + (left // t,))
        elif t <= left:
            p, s = rate[t + 1]
            step = []
            for count in range(left // t + 1):
                rest = left - count * t
                cost = spent + count * price[t - 1]
                if cost + values[rest] > best:
                    break
                if (best - cost) * s >= rest * p:
                    step.append((prefix + (count,), cost, rest))
            stack.extend(reversed(step))
    return out


# ---------------------------------------------------------------------------
# forest latency table


def _census_box(u: Sequence[int], strides: Sequence[int]) -> list[int]:
    """Flat indices of every census ``<= u``, ascending (= lexicographic)."""
    box = [0]
    for a, s in zip(u, strides):
        if a:
            steps = range(0, (a + 1) * s, s)
            box = [b + j for b in box for j in steps]
    return box


@dataclass(frozen=True)
class ForestLatencyTable:
    """``value(u, t)``: least achievable maximum latency over forests of
    ``t`` disjoint rooted trees (bare leaves allowed) whose combined
    fan-in census is ``u`` (entry ``i`` counts fan-in ``i+2`` nodes,
    0-based).  Held for every ``u`` below one of the censuses the
    table was built for (the region), and ``t`` in 1..top(u): top(u) is
    the largest ``i + 2`` such that ``u + e_i`` lies in the region, or 1
    when there is none, and the empty census holds every ``t`` in 1..m.
    Those are all the cells a reader asks for: a tree on ``u + e_i``
    reads ``(u, i + 2)`` as its root's child forest; a forest ``(u, t)``
    reads ``(f, 1)`` and ``(u - f, t - 1)`` for its first tree ``f``,
    held since the region is closed downward, so top(u - f) >= top(u);
    :func:`_best_split` on a top ``q`` reads ``(u - e_i, i + 2)`` and
    ``(q - u, 1)``; the witness rebuild reads what the first two read.
    :meth:`value` and :meth:`rebuild_forest` on any other cell raise
    ``KeyError`` naming top(u).

    A census is stored under one mixed-radix int, first component most
    significant, with digit ``k`` in ``0..radix[k]``; cell ``(u, t)``
    sits at ``(t - 1) * size + index(u)``.  Cells hold latencies scaled
    by ``scale`` as ints, and ``lat[k]`` is ``l[k]`` so scaled
    (:attr:`CostModel.scaled_l`).  ``choices`` holds the witness of a
    cell: the root's fan-in class ``i`` (0-based) when ``t == 1``, the
    first tree's census index when ``t > 1``.  ``ops`` counts the split
    candidates box scans rate over all cells with ``t > 1``: every
    first-tree census of the box (half of it at ``t = 2``); a census on
    one class adds nothing, as its forests are read off in closed form."""

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

    def _cell(self, u: Sequence[int], t: int) -> int:
        """The flat index of cell ``(u, t)``; ``KeyError`` naming
        ``top(u)`` when the table does not hold it."""
        iu = self.index(u)
        cell = (t - 1) * self.size + iu
        if cell in self.values:
            return cell
        top = sum((k - 1) * self.size + iu in self.values for k in range(1, self.m + 1))
        if not top:
            raise KeyError(f"census {tuple(u)} is not in the table")
        raise KeyError(f"cell ({tuple(u)}, {t}) is not held: top({tuple(u)}) = {top}")

    def value(self, u: Sequence[int], t: int) -> Fraction:
        return Fraction(self.values[self._cell(u, t)], self.scale)

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
        index = self._cell(u, 1)
        return self._trees([index])[index]

    def rebuild_forest(self, u: Vec, t: int) -> list[Rooted]:
        """A forest of ``t`` trees realizing ``value(u, t)``."""
        forest = self._forest(self._cell(u, t) % self.size, t)
        trees = self._trees(forest)
        return [trees[index] for index in forest]


def forest_latency_table(tops: Iterable[Sequence[int]], cm: CostModel) -> ForestLatencyTable:
    """Fill the forest-latency DP for every census below one of ``tops``.

    The censuses filled are the union of the tops' boxes, not the box
    of their componentwise maximum, which can be many times larger, and
    each census ``u`` gets ``t`` in 1..top(u) only, the cells some
    reader asks for (:class:`ForestLatencyTable`).  Censuses are visited
    in index order, so every lookup hits a filled cell (each lies
    componentwise below the census being filled).  A single tree
    (t = 1) chooses its root fan-in ``i+2`` and recurses on the child
    forest; a larger forest (t > 1) splits off the census of its first
    tree, the lexicographically smallest on ties.

    A census on one class, ``u = a * e_k``, needs no scan.  Its forest
    of ``t`` trees holds ``a`` nodes of fan-in ``d = k + 2``, each
    weighing ``w = l[d]``, so its latency is ``w`` times the height of
    its tallest tree.  A tree of height ``h`` holds any number of nodes
    up to ``cap(h) = (d**h - 1) / (d - 1)``, a complete tree's, so the
    value is ``w * h`` for the least ``h`` with ``t * cap(h) >= a``.  The
    smallest first tree that leaves the other ``t - 1`` trees within
    height ``h`` takes ``max(0, a - (t - 1) * cap(h))`` nodes, at most
    ``cap(h)``; with ``w = 0`` every split rates 0 and the first tree is
    empty.  This costs O(log a) per cell and reads no other cell.

    Any other census scans its box, in O(prod (u_i + 1)) per cell,
    inside ``map``/``max``/``min``.  The box is in ascending index
    order, so ``u`` minus its ``k``-th census is its ``k``-th from the
    end; at t = 2 the rest is one tree too, so a split and its mirror
    rate alike, the first minimizer lies in the first half, and the
    scan stops there.  All values are ints on the model's integer view
    of ``l``, so the DP runs on exact integer arithmetic.
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
    scale, lat = cm.scaled_l

    # every census of the region under its index, in index order
    region: dict[int, Vec] = {}
    for q in tops:
        region.update(zip(_census_box(q, strides), vectors_below(q)))
    # a tree on u reads the child forest (u - e_i, i + 2) of its root class i
    down = [(i + 1) * size - s for i, s in enumerate(strides)]
    up = list(zip(range(m, 1, -1), reversed(radix), reversed(strides)))

    values: dict[int, int] = {(t - 1) * size: 0 for t in range(1, m + 1)}
    choices: dict[int, int] = {}
    ops = 0
    for iu in sorted(region)[1:]:  # index 0 is the empty census
        u = region[iu]
        best: int | None = None
        for i, a in enumerate(u):
            if a:
                cand = values[iu + down[i]] + lat[i + 2]
                if best is None or cand < best:
                    best, pick = cand, i
        values[iu] = best
        choices[iu] = pick
        # top: the largest i + 2 with u + e_i in the region, else 1
        top = 1
        for t, r, s in up:
            if u[t - 2] < r and iu + s in region:
                top = t
                break
        if u[pick] * strides[pick] == iu:  # one class: complete trees
            a, d, w = u[pick], pick + 2, lat[pick + 2]
            for t in range(2, top + 1):
                h = cap = 0  # the least height h with t * cap(h) >= a
                while t * cap < a:
                    h, cap = h + 1, cap * d + 1
                cell = (t - 1) * size + iu
                values[cell] = w * h
                choices[cell] = max(0, a - (t - 1) * cap) * strides[pick] if w else 0
            continue
        if top == 1:
            continue
        # the first tree's census runs over the box below u, and the
        # rest of the forest over the same box reversed; at t = 2 the
        # rest is one tree too, so the scan stops halfway
        box = _census_box(u, strides)
        ones = list(map(values.__getitem__, box))
        cands = list(map(max, ones[: (len(box) + 1) // 2], reversed(ones)))
        best = min(cands)
        values[size + iu] = best
        choices[size + iu] = box[cands.index(best)]
        ops += len(cands)
        for t in range(3, top + 1):
            rest = map(values.__getitem__, map(((t - 2) * size).__add__, reversed(box)))
            cands = list(map(max, ones, rest))
            best = min(cands)
            values[(t - 1) * size + iu] = best
            choices[(t - 1) * size + iu] = box[cands.index(best)]
            ops += len(box)
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


def _halves_preorder(heavy_forest: Sequence[Rooted], light: Rooted) -> list[list[int]]:
    """The children of every node of the star tree that joins a rooted
    forest (under a fresh root) and a rooted tree by an edge between
    their roots, rooted at the forest's root, node 0.  Nodes are
    numbered in pre-order: the forest's trees, then the light tree."""
    kids: list[list[int]] = [[]]
    stack = [(tree, 0) for tree in reversed([*heavy_forest, light])]
    while stack:
        tree, parent = stack.pop()
        node = len(kids)
        kids[parent].append(node)
        kids.append([])
        stack.extend(zip(reversed(tree), repeat(node)))
    return kids


def _star_tree_from_halves(heavy_forest: Sequence[Rooted], light: Rooted, m: int) -> StarTree:
    """Join a rooted forest (under a fresh root) and a rooted tree by an
    edge between their roots, then label the leaves 1..n in pre-order."""
    kids = _halves_preorder(heavy_forest, light)
    adj = [list(nb) for nb in kids]
    for v, nb in enumerate(kids):
        for c in nb:
            adj[c].append(v)
    return StarTree.from_adjacency(adj, m)


def _structure_from_halves(heavy_forest: Sequence[Rooted], light: Rooted, m: int) -> Dag:
    """The structure :func:`mpsynth.startree.structure_from_star_tree`
    induces on ``_star_tree_from_halves(heavy_forest, light, m)``, built
    without the star tree: the same one pass per edge side
    (:func:`mpsynth.startree._star_structure`) over the pre-order of
    :func:`_halves_preorder`, leaves ``x_1..x_n`` in pre-order as in the
    star tree."""
    return _star_structure(_halves_preorder(heavy_forest, light), count(1), m)


def _best_split(q: Vec, table: ForestLatencyTable) -> tuple[int, tuple[Vec, int]]:
    """The least scaled tree latency over balanced splits of ``q``, and
    the first split (heavy census, 1-based root class) achieving it."""
    values, strides, size, lat = table.values, table.strides, table.size, table.lat
    # (q, 1) is the light side at u = 0; _cell names q's census when the
    # table does not hold it; with (q, 1) held, so is every cell read below
    iq = table._cell(q, 1)
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


def _halves(
    q: Vec, split: tuple[Vec, int], table: ForestLatencyTable
) -> tuple[list[Rooted], Rooted]:
    """The halves of the star tree of degree vector ``q`` that ``split``
    (heavy census, 1-based root class) of :func:`_best_split` rates: the
    heavy root's child forest and the light tree, both rebuilt from
    ``table``."""
    u, root_class = split
    forest = table.rebuild_forest(_minus_e(u, root_class - 1), root_class + 1)
    return forest, table.rebuild_tree(_sub(q, u))


def _realize(q: Vec, split: tuple[Vec, int], table: ForestLatencyTable) -> StarTree:
    """The star tree of degree vector ``q`` that ``split`` rates."""
    return _star_tree_from_halves(*_halves(q, split, table), table.m)


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
    best, split = _best_split(q, table)
    return StarLatencyResult(
        value=Fraction(best, table.scale), split=split, tree=_realize(q, split, table)
    )


# ---------------------------------------------------------------------------
# full pipeline: complexity first, then latency


@dataclass(frozen=True)
class StarSynthesis:
    complexity: Fraction
    latency: Fraction
    q: Vec
    all_q: tuple[Vec, ...]  # every complexity-optimal degree vector
    halves: tuple[tuple[Rooted, ...], Rooted]  # the winner's heavy forest and light tree
    structure: Dag

    @property
    def tree(self) -> StarTree:
        """The star tree that induces :attr:`structure`, built from the
        halves on each read."""
        return _star_tree_from_halves(*self.halves, self.structure.m)


def synthesize_star(n: int, cm: CostModel) -> StarSynthesis:
    """Complexity-optimal structure, then the lowest-latency one among
    those: enumerate every optimal degree vector, rate each once, by
    :func:`_best_split` on one forest table over all of them, keep the
    best (ties to the smaller vector), and build its structure straight
    from the halves of the split that rated it
    (:func:`_structure_from_halves`)."""
    if n < 3:
        raise ValueError(f"star synthesis needs n >= 3, got {n}")
    table = min_star_complexity(n, cm)
    candidates = optimal_degree_vectors(table)
    forest = forest_latency_table(candidates, cm)
    rated = [(_best_split(q, forest), q) for q in candidates]
    # min keeps the first of equal values: candidates are sorted
    (value, split), q = min(rated, key=lambda r: r[0][0])
    heavy, light = _halves(q, split, forest)
    return StarSynthesis(
        complexity=table.value(),
        latency=Fraction(value, forest.scale),
        q=q,
        all_q=tuple(candidates),
        halves=(tuple(heavy), light),
        structure=_structure_from_halves(heavy, light, cm.m),
    )
