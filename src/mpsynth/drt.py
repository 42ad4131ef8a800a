"""Unlabeled rooted multiway trees as nested tuples.

A tree is ``()`` for a bare leaf, or a tuple of child trees (sorted, so
the representation is canonical: two values are equal iff the trees are
isomorphic).  Internal nodes have fan-in ``len(node)``.

These lightweight values back the forest-latency optimizer's witness
reconstruction and the brute-force enumeration oracles.  Each walk here
uses an explicit stack, so no depth is too deep, and adds exact ints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .costs import CostModel

Rooted = Tuple  # () | tuple of Rooted, children sorted

LEAF: Rooted = ()


def rooted(children) -> Rooted:
    """Canonical internal node over the given child trees."""
    kids = tuple(sorted(children))
    if len(kids) < 2:
        raise ValueError("an internal node needs at least 2 children")
    return kids


def _internal_nodes(tree: Rooted) -> list[Rooted]:
    """Every internal node of ``tree``, once per occurrence, each before
    its children."""
    out, stack = [], [tree]
    while stack:
        t = stack.pop()
        if t:  # not a leaf
            out.append(t)
            stack.extend(t)
    return out


def leaf_count(tree: Rooted) -> int:
    # each fan-in d node turns one leaf into d
    return 1 + sum(len(t) - 1 for t in _internal_nodes(tree))


def degree_vector(tree: Rooted, m: int) -> tuple[int, ...]:
    """Count internal nodes by fan-in: entry ``i`` (0-based) counts fan-in ``i+2``."""
    q = [0] * (m - 1)
    for t in _internal_nodes(tree):
        d = len(t)
        if d < 2 or d > m:
            raise ValueError(f"fan-in {d} outside [2, {m}]")
        q[d - 2] += 1
    return tuple(q)


def tree_latency(tree: Rooted, cm: CostModel) -> Fraction:
    """Longest leaf-to-root latency under the model's fan-in factors."""
    scale, lat = cm.scaled_l
    # keyed by id: every subtree stays alive inside ``tree``; leaves weigh 0
    height: dict[int, int] = {}
    for t in reversed(_internal_nodes(tree)):
        height[id(t)] = lat[len(t)] + max(height.get(id(c), 0) for c in t)
    return Fraction(height.get(id(tree), 0), scale)
