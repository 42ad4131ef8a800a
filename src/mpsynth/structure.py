"""Computation-structure DAGs.

A *structure* with input size ``n`` routes the incoming messages
``x_1..x_n`` to the outgoing messages ``y_1..y_n``: output ``y_j`` is
the root of a tree over every input except ``x_j``, all computation
subtrees are pairwise distinct (equal subtrees are stored once), and
every computation node has fan-in between 2 and ``m``.

This module owns the graph plumbing every synthesizer shares:

* the validity checker, which reports each defining property
  separately with a witness so it can double as a test oracle,
* exact complexity (weighted node count) and latency (node-weighted
  longest path) evaluation, computed on ints,
* deterministic JSON and DOT serialization, whose node order sorts
  computation nodes by the canonical integer ids that also decide the
  distinct-subtrees check.

Edges are stored child -> parent, i.e. pointing the way messages flow.
Structures are immutable; every operation returns a fresh value.  Each
structure has one topological order and computes its canonical node
order at most once, so loading, checking and writing it walk one order.
The code that makes a structure hands over the order it already knows:
:meth:`DagBuilder.build` its id order (every node is made after its
operands), and :func:`_scan` the file's order, outputs last.  Kahn's
sort runs only for a structure made any other way, by hand or by
:func:`from_json_dict`; it takes the ready node that comes first in
that same order, so a file :func:`dumps` wrote, once re-indented,
gets the order the scanner hands over for it.
:func:`loads` reads the exact text :func:`dumps` writes with a scanner
that parses only its ints, with no JSON dict per node or list per edge,
checks that the text is what :func:`dumps` writes for those ints, and
hands over the same operands and order :func:`from_json_dict` would;
any other text goes through ``json.loads`` and :func:`from_json_dict`.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain, filterfalse, islice, repeat
from operator import and_, eq, ge, le, lt
from typing import Iterable, Iterator, Optional, Sequence

from .costs import CostModel

# ("x", j) for input j, ("y", j) for output j, None for internal.
Label = Optional[tuple[str, int]]

_LABEL_RE = re.compile(r"([xy])([1-9][0-9]*)")


@dataclass(frozen=True)
class Dag:
    """Shape-only computation DAG.

    ``children[v]`` lists the node ids feeding ``v`` (its operands),
    sorted.  ``n`` is the declared input/output count and ``m`` the
    fan-in bound the graph is meant to respect; neither is enforced
    here (see :func:`validate`), so invalid graphs can be represented
    and diagnosed.

    Its topological order comes from the code that made it: the builder
    and the scanner store the one they know.  A ``Dag`` constructed
    directly runs Kahn's sort on first use, which raises on a cycle.
    """

    n: int
    m: int
    labels: tuple[Label, ...]
    children: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.children):
            raise ValueError("labels and children must have equal length")

    @property
    def node_count(self) -> int:
        return len(self.labels)

    def parent_map(self) -> list[list[int]]:
        parents: list[list[int]] = [[] for _ in self.children]
        for v, cs in enumerate(self.children):
            for c in cs:
                parents[c].append(v)
        return parents

    # safe to cache: the fields never change (_with_order fills it early)
    @cached_property
    def _order(self) -> Sequence[int]:
        return _topological_order(self)

    @cached_property
    def _canonical_order(self) -> list[int]:
        """Inputs by label, then outputs by label, then computation nodes
        by canonical id: an order independent of node numbering."""
        ids = _subtree_ids(self, self._order)

        def sort_key(v: int) -> tuple[int, int]:
            lbl = self.labels[v]
            return (2, ids[v]) if lbl is None else (0 if lbl[0] == "x" else 1, lbl[1])

        return sorted(range(self.node_count), key=sort_key)

    def degree_histogram(self) -> dict[int, int]:
        return dict(Counter(map(len, self.children)))


class DagBuilder:
    """Hash-consing constructor: structurally identical subtrees intern
    to a single node, so building the per-output trees one after another
    yields their deduplicating union for free.
    """

    def __init__(self) -> None:
        self._key_to_id: dict[tuple, int] = {}
        self._labels: list[Label] = []
        self._children: list[tuple[int, ...]] = []

    def _new_node(self, key: tuple, label: Label, children: tuple[int, ...]) -> int:
        node = len(self._labels)
        self._key_to_id[key] = node
        self._labels.append(label)
        self._children.append(children)
        return node

    def input(self, j: int) -> int:
        key = ("x", j)
        if key in self._key_to_id:
            return self._key_to_id[key]
        return self._new_node(key, ("x", j), ())

    def op(self, children: Iterable[int]) -> int:
        kids = tuple(sorted(children))
        if len(kids) < 2:
            raise ValueError("computation node needs at least 2 operands")
        if len(set(kids)) != len(kids):
            raise ValueError("computation node operands must be distinct")
        key = ("op",) + kids
        if key in self._key_to_id:
            return self._key_to_id[key]
        return self._new_node(key, None, kids)

    def output(self, j: int, children: Iterable[int]) -> int:
        kids = tuple(sorted(children))
        if not kids:
            raise ValueError(f"output y{j} needs at least 1 operand")
        key = ("y", j)
        if key in self._key_to_id:
            node = self._key_to_id[key]
            if self._children[node] != kids:
                raise ValueError(f"output y{j} already defined with different operands")
            return node
        return self._new_node(key, ("y", j), kids)

    def build(self, n: int, m: int) -> Dag:
        """Every node built so far, as a structure.  Each node is made
        after its operands, so id order is its topological order."""
        for cs in self._children:
            if len(cs) > m:
                raise ValueError(f"fan-in {len(cs)} exceeds bound m = {m}")
        dag = Dag(n=n, m=m, labels=tuple(self._labels), children=tuple(self._children))
        return _with_order(dag, range(dag.node_count))


def _with_order(dag: Dag, order: Sequence[int]) -> Dag:
    """``dag`` with ``order`` (operands before the nodes they feed) as its
    topological order, so Kahn's sort never runs for it."""
    dag.__dict__["_order"] = order
    return dag


# ---------------------------------------------------------------------------
# topological order


def _topological_order(dag: Dag) -> list[int]:
    """Kahn order (children before parents) that takes the ready node of
    least rank: outputs last, every other node in id order.  Where rank
    order is topological, as in every file dumps writes, it is the
    order.  Raises on cycles."""
    size = dag.node_count
    rank = [v + size if lbl and lbl[0] == "y" else v for v, lbl in enumerate(dag.labels)]
    indeg = [len(cs) for cs in dag.children]
    parents = dag.parent_map()
    ready = [rank[v] for v in range(size) if indeg[v] == 0]
    heapify(ready)
    order: list[int] = []
    while ready:
        v = heappop(ready) % size
        order.append(v)
        for p in parents[v]:
            indeg[p] -= 1
            if indeg[p] == 0:
                heappush(ready, rank[p])
    if len(order) != dag.node_count:
        raise ValueError("graph contains a cycle")
    return order


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[PropertyCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)

    def check(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in self.checks
            ],
        }


def _ancestor_set(dag: Dag, roots: Iterable[int]) -> set[int]:
    """Every node that feeds one of ``roots``, the roots included."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        v = stack.pop()
        for c in dag.children[v]:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def _tree_pass(
    dag: Dag, order: Sequence[int], outputs: dict[int, int]
) -> tuple[dict[int, str | None], list[int]]:
    """The leaves witness of each output y_j (``outputs[j]`` is its node),
    and the outputs whose ancestor graph is not a tree, in order of j,
    found in one bottom-up pass over ``order``.

    Each distinct source label gets one bit: x_i (1 <= i <= n) bit i,
    any other label a bit above n.  Each node gets the bits of the
    sources below it and its number of paths down to them.  A node
    reached twice from y_j would give every source below it a second
    path, so y_j's ancestor graph is a tree when its path count is its
    bit count.  Its leaves are the labels of its bits either way.
    """
    n = dag.n
    labels, children = dag.labels, dag.children
    bit_of: dict[Label, int] = {}  # the source labels that are not x_1..x_n
    below = [0] * dag.node_count
    paths = [0] * dag.node_count
    for v in order:
        if children[v]:
            bits = count = 0
            for c in children[v]:
                bits |= below[c]
                count += paths[c]
            below[v], paths[v] = bits, count
        else:
            lbl = labels[v]
            if lbl and lbl[0] == "x" and 1 <= lbl[1] <= n:
                bit = lbl[1]
            else:
                bit = bit_of.setdefault(lbl, n + 1 + len(bit_of))
            below[v], paths[v] = 1 << bit, 1
    others = list(bit_of)  # others[k] has bit n + 1 + k
    full = (1 << (n + 1)) - 2
    leaves: dict[int, str | None] = {}
    tangled = []
    for j in sorted(outputs):
        y = outputs[j]
        bits = below[y]
        if paths[y] != bits.bit_count():
            tangled.append(j)
        elif bits == (full ^ (1 << j) if 1 <= j <= n else full):
            leaves[j] = None
            continue
        high, extra = bits >> (n + 1), []
        while high:
            extra.append(others[(high & -high).bit_length() - 1])
            high &= high - 1
        leaves[j] = _leaves_failure(n, j, bits & full, extra)
    return leaves, tangled


def _walk_failures(dag: Dag, parents: list[list[int]], j: int, y: int) -> list[str]:
    """The nodes that feed y_j along other than one edge, found by walking
    its ancestor graph: the witnesses that it is not a tree."""
    anc = _ancestor_set(dag, [y])
    fed = ((v, sum(p in anc for p in parents[v])) for v in anc if v != y)
    return [
        f"y{j}: node {v} feeds it along {k} edges (ancestor graph is not a tree)"
        for v, k in fed
        if k != 1
    ]


# a label list in a witness names at most this many labels, then counts
# the rest; the ancestor walk runs for at most this many outputs
_LISTED = 20


def _listed(names: list[str], total: int) -> str:
    """``names``, the first of ``total`` labels, and a count of the rest."""
    rest = total - len(names)
    return ", ".join(names) + (f" and {rest} more" if rest else "")


def _first_as_strings(mask: int) -> list[int]:
    """The first ``_LISTED`` set bits of ``mask`` (bit 0 clear) in the
    order of their decimal strings: a preorder walk of the decimal prefix
    tree that skips the prefixes no set bit starts with."""
    bits = bin(mask)[:1:-1]  # character i is bit i
    size = len(bits)

    def occupied(prefix: int) -> bool:
        lo, hi = prefix, prefix + 1
        while lo < size:
            if bits.find("1", lo, hi) >= 0:
                return True
            lo, hi = lo * 10, hi * 10
        return False

    found: list[int] = []
    stack = list(range(9, 0, -1))
    while stack and len(found) < _LISTED:
        prefix = stack.pop()
        if occupied(prefix):
            if bits[prefix] == "1":
                found.append(prefix)
            stack.extend(range(10 * prefix + 9, 10 * prefix - 1, -1))
    return found


def _leaves_failure(n: int, j: int, inputs: int, others: Iterable[Label]) -> str | None:
    """The leaves witness of y_j, whose ancestor graph has the sources
    x_i (1 <= i <= n) of bitset ``inputs`` and the other source labels
    ``others``; None when the sources are exactly the other inputs."""
    want = (1 << (n + 1)) - 2
    extra = ["?" if lbl is None else lbl[0] + str(lbl[1]) for lbl in others]
    if 1 <= j <= n:
        want ^= 1 << j
        if inputs >> j & 1:
            extra.append(f"x{j}")
    missing = want & ~inputs
    parts = []
    if extra:
        parts.append("unexpected leaves " + _listed(sorted(extra)[:_LISTED], len(extra)))
    if missing:
        names = [f"x{i}" for i in _first_as_strings(missing)]
        parts.append("missing leaves " + _listed(names, missing.bit_count()))
    return f"y{j}: " + "; ".join(parts) if parts else None


def _subtree_ids(dag: Dag, order: Sequence[int]) -> list[int]:
    """Canonical integer id per node (Aho-Hopcroft-Ullman), equal for two
    nodes iff they compute the same tree once internal labels are erased
    (see :func:`_keys_below`), and independent of node numbering.  An
    input keys on its label and sits at height 0; any other node keys on
    the sorted tuple of its operands' ids, one level above its highest
    operand.  Ids are given out level by level, and within a level to
    the distinct keys in sorted order."""
    labels, children = dag.labels, dag.children
    # x_j keys as (-1, j): no operand tuple starts with -1
    input_key = {v: (-1, lbl[1]) for v, lbl in enumerate(labels) if lbl and lbl[0] == "x"}
    height = [0] * dag.node_count
    levels: dict[int, list[int]] = defaultdict(list)
    for v in order:
        if children[v] and v not in input_key:
            height[v] = 1 + max(map(height.__getitem__, children[v]))
        levels[height[v]].append(v)
    ids = [0] * dag.node_count
    id_of = ids.__getitem__
    given = 0
    for _, level in sorted(levels.items()):
        keys = [input_key.get(v) or tuple(sorted(map(id_of, children[v]))) for v in level]
        rank = {key: i for i, key in enumerate(sorted(set(keys)), given)}
        given += len(rank)
        for v, key in zip(level, keys):
            ids[v] = rank[key]
    return ids


def _operands_are_distinct(dag: Dag) -> bool:
    """True when no two nodes with operands have equal operand tuples.  On
    a graph whose inputs check passed, no two nodes then share a
    canonical id (by induction on height), so the ids need not be
    computed."""
    operands = [cs for cs in dag.children if cs]
    return len(set(operands)) == len(operands)


def _keys_below(dag: Dag, order: Sequence[int], roots: Iterable[int]) -> dict[int, str]:
    """The string key of each node that feeds one of ``roots``, the roots
    included: an input keys on its label, any other node on the sorted
    keys of its operands (the node function is commutative), so two nodes
    get equal keys iff they compute the same tree once internal labels
    are erased.  Only witnesses name subtrees this way."""
    inside = _ancestor_set(dag, roots)
    keys: dict[int, str] = {}
    for v in order:
        if v in inside:
            lbl = dag.labels[v]
            if lbl is not None and lbl[0] == "x":
                keys[v] = f"x{lbl[1]}"
            else:
                keys[v] = "(" + ",".join(sorted(keys[c] for c in dag.children[v])) + ")"
    return keys


def _shared_subtree_failures(dag: Dag, order: Sequence[int]) -> list[str]:
    """The groups of nodes that compute one subtree, found on canonical
    ids and named by the string key of their subtree, which is rendered
    only for the nodes below the groups.  Distinctly labeled outputs are
    told apart by their labels (inputs share a group only with their own
    label), and a stray unlabeled source counts under "inputs"."""
    ids = _subtree_ids(dag, order)
    labels = dag.labels
    groups: dict[int, list[int]] = {}
    for v, i in enumerate(ids):
        if dag.children[v] or (labels[v] and labels[v][0] == "x"):
            groups.setdefault(i, []).append(v)
    shared = []
    for group in groups.values():
        names = {labels[v] for v in group}
        if len(group) > 1 and (None in names or len(names) < len(group)):
            shared.append(group)
    if not shared:
        return []
    keys = _keys_below(dag, order, [g[0] for g in shared])
    return [f"nodes {g} all compute {keys[g[0]]}" for g in sorted(shared, key=lambda g: keys[g[0]])]


def _terminal_check(
    dag: Dag, kind: str, linked: Sequence[object]
) -> tuple[PropertyCheck, dict[int, int]]:
    """Property 1 (``kind`` "x", ``linked[v]`` true when v has operands)
    or 2 (``kind`` "y", ``linked[v]`` true when v feeds a node): the
    nodes not linked are exactly the ones labeled ``kind`` 1..n, each
    label used once.  Also returns label -> node for the labels seen."""
    noun, direction = ("input", "incoming") if kind == "x" else ("output", "outgoing")
    n = dag.n
    failures = []
    seen: dict[int, int] = {}
    for v, lbl in enumerate(dag.labels):
        if lbl and lbl[0] == kind:
            j = lbl[1]
            if j in seen:
                failures.append(f"duplicate {noun} label {kind}{j} (nodes {seen[j]}, {v})")
            seen[j] = v
    for v, e in enumerate(linked):
        if not e and not (dag.labels[v] and dag.labels[v][0] == kind):
            failures.append(f"node {v} has no {direction} edges but is not an {noun}")
    for j, v in seen.items():
        if linked[v]:
            failures.append(f"{noun} {kind}{j} (node {v}) has {direction} edges")
        if not 1 <= j <= n:
            failures.append(f"{noun} label {kind}{j} outside 1..{n}")
    missing = n - sum(1 for j in seen if 1 <= j <= n)
    if missing:
        # stops after the first _LISTED: at most len(seen) + _LISTED probes
        first = islice(filterfalse(seen.__contains__, range(1, n + 1)), _LISTED)
        names = [f"{kind}{j}" for j in first]
        failures.append(f"missing {noun}s: {_listed(names, missing)}")
    return PropertyCheck(f"{noun}s", not failures, "; ".join(failures) or None), seen


def validate(dag: Dag) -> ValidationReport:
    """Check the five defining properties plus acyclicity.

    Every failing property is reported (not just the first) with a
    witness node or edge, so the report can serve as a mutation-test
    oracle; the ancestor-walk witnesses are capped at ``_LISTED``
    outputs, as below.  A graph passes iff it is a valid structure with
    input size ``n``.

    The single degenerate exception: for ``n == 2`` the two outputs are
    bare wires (``y_1 = x_2``, ``y_2 = x_1``), so in-degree 1 outputs
    are accepted there and only there.

    On an acyclic graph the output-tree property is decided in one
    bottom-up pass (:func:`_tree_pass`: per node, the source labels
    below it as an int bitset and its number of paths down to them),
    which writes every output's leaves witness.  The ancestor walk
    (:func:`_walk_failures`) names the nodes that feed an output along
    more than one edge.  Like a list of labels in a witness, which names
    its first ``_LISTED`` labels, it runs for the first ``_LISTED``
    outputs that are not trees, and the witness counts the rest.  So a
    file that declares a huge ``n`` gets a short report, a valid
    structure is checked in one pass without parent lists, and a broken
    one in that pass plus at most ``_LISTED`` walks, each linear in the
    size of the graph.  The inputs check is decided once:
    distinct subtrees are decided on canonical ids, unless the inputs
    passed and no two nodes share an operand tuple
    (:func:`_operands_are_distinct`); string keys name the shared
    subtrees only.
    """
    n = dag.n
    labels, children = dag.labels, dag.children
    feeding = set(chain.from_iterable(children))

    # acyclicity first; the order-based checks need it
    order: Sequence[int] | None
    try:
        order = dag._order
    except ValueError:
        order = None
    cyclic = order is None

    inputs, _ = _terminal_check(dag, "x", children)
    outputs, seen_y = _terminal_check(dag, "y", [v in feeding for v in range(dag.node_count)])
    checks = [inputs, outputs]

    # property 3: each output's ancestor graph is a tree over the other
    # inputs; property 4: no two nodes compute the same subtree
    trees = shared = ["not evaluated: graph contains a cycle"]
    if not cyclic:
        leaves, tangled = _tree_pass(dag, order, seen_y)
        walked = set(tangled[:_LISTED])
        parents = dag.parent_map() if walked else []
        trees = []
        for j, witness in leaves.items():
            if j in walked:
                trees += _walk_failures(dag, parents, j, seen_y[j])
            if witness:
                trees.append(witness)
        if len(tangled) > _LISTED:
            rest = len(tangled) - _LISTED
            trees.append(f"and {rest} more outputs reach a leaf label along two or more paths")
        distinct = inputs.passed and _operands_are_distinct(dag)
        shared = [] if distinct else _shared_subtree_failures(dag, order)
    checks.append(PropertyCheck("output_trees", not trees, "; ".join(trees) or None))
    checks.append(PropertyCheck("distinct_subtrees", not shared, "; ".join(shared) or None))

    # property 5: computation fan-in within [2, m]
    failures = []
    for v, cs in enumerate(children):
        d = len(cs)
        lbl = labels[v]
        if 2 <= d <= dag.m or (lbl and lbl[0] == "x"):
            continue
        if d > dag.m:
            failures.append(f"node {v} has fan-in {d} > m = {dag.m}")
        elif not (n == 2 and lbl and lbl[0] == "y" and d == 1):  # the n = 2 wire pair
            failures.append(f"node {v} has fan-in {d} < 2")
    checks.append(PropertyCheck("fan_in", not failures, "; ".join(failures) or None))

    checks.append(
        PropertyCheck("acyclic", not cyclic, "graph contains a cycle" if cyclic else None)
    )
    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# evaluation


def _check_fan_in(dag: Dag, cm: CostModel) -> None:
    if max(map(len, dag.children), default=0) > cm.m:
        v = next(v for v, cs in enumerate(dag.children) if len(cs) > cm.m)
        raise ValueError(f"node {v} has fan-in {len(dag.children[v])} > cost model m = {cm.m}")


def complexity(dag: Dag, cm: CostModel) -> Fraction:
    """Fan-in-weighted node count: sum of ``c[fan_in(v)]`` over all nodes,
    taken as ``c[d]`` times the number of nodes of fan-in ``d``.

    Sources weigh ``c[0] = 0`` and wires ``c[1] = 0``, so the sum only
    sees real computation nodes.
    """
    _check_fan_in(dag, cm)
    return sum((cm.c[d] * count for d, count in dag.degree_histogram().items()), Fraction(0))


def latency(dag: Dag, cm: CostModel) -> Fraction:
    """Node-weighted longest path, node ``v`` weighing ``l[fan_in(v)]``.

    The DP runs on the model's integer view of ``l``
    (:attr:`CostModel.scaled_l`); only the result is a ``Fraction``.
    """
    _check_fan_in(dag, cm)
    scale, weight = cm.scaled_l
    children = dag.children
    dist = [0] * dag.node_count  # sources weigh l[0] = 0
    below = dist.__getitem__
    for v in dag._order:
        cs = children[v]
        if cs:
            dist[v] = weight[len(cs)] + max(map(below, cs))
    return Fraction(max(dist, default=0), scale)


# ---------------------------------------------------------------------------
# serialization


def dumps(dag: Dag) -> str:
    """Deterministic JSON text: nodes in canonical order, edges sorted,
    written directly in the form ``json.dumps(..., sort_keys=True,
    separators=(",", ":"))`` gives, keys sorted and no spaces."""
    order = dag._canonical_order
    renum = [0] * dag.node_count
    names = []
    for i, v in enumerate(order):
        renum[v] = i
        lbl = dag.labels[v]
        names.append("null" if lbl is None else f'"{lbl[0]}{lbl[1]}"')
    nodes = ",".join(f'{{"id":{i},"label":{name}}}' for i, name in enumerate(names))
    # parents are appended in ascending order, so (child, parent) pairs
    # come out sorted without a sort
    parents: list[list[int]] = [[] for _ in order]
    for p, v in enumerate(order):
        for c in dag.children[v]:
            parents[renum[c]].append(p)
    edges = ",".join(f"[{c},{p}]" for c, ps in enumerate(parents) for p in ps)
    return f'{{"edges":[{edges}],"m":{dag.m},"n":{dag.n},"nodes":[{nodes}]}}\n'


def _edge_error(edges: list, ids: dict[int, int]) -> str:
    """The first bad entry of ``edges``, located: the slow path of
    :func:`from_json_dict`, taken only to raise."""
    seen: set[tuple[int, int]] = set()
    for idx, pair in enumerate(edges):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or set(map(type, pair)) != {int}:
            return f"edges[{idx}]: expected [child_id, parent_id]"
        for x in pair:
            if x not in ids:
                return f"edges[{idx}]: unknown node id {x}"
        c, p = pair
        if (c, p) in seen:
            return f"edges[{idx}]: duplicate edge {c} -> {p}"
        seen.add((c, p))
    raise AssertionError("no bad edge")


def from_json_dict(raw: object) -> Dag:
    """Inverse of :func:`dumps`, on its parsed JSON; rejects malformed
    input with the offending location, including cycles and duplicate
    labels.  Node ids and edge endpoints are ints, booleans excluded."""
    if not isinstance(raw, dict):
        raise ValueError("structure: expected a JSON object")
    for key in ("n", "m", "nodes", "edges"):
        if key not in raw:
            raise ValueError(f"structure.{key}: missing required field")
    n, m, nodes, edges = raw["n"], raw["m"], raw["nodes"], raw["edges"]
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"structure.n: expected an integer >= 2, got {n!r}")
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"structure.m: expected an integer >= 2, got {m!r}")
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise ValueError("structure.nodes / structure.edges: expected arrays")

    ids: dict[int, int] = {}
    labels: list[Label] = []
    seen_labels: set[str] = set()
    for entry in nodes:
        # entry is nodes[len(labels)]
        if not isinstance(entry, dict) or "id" not in entry:
            raise ValueError(f"nodes[{len(labels)}]: expected an object with an 'id'")
        nid = entry["id"]
        if type(nid) is not int:
            raise ValueError(f"nodes[{len(labels)}].id: expected an integer, got {nid!r}")
        if nid in ids:
            raise ValueError(f"nodes[{len(labels)}].id: duplicate node id {nid}")
        lbl_raw = entry.get("label")
        lbl: Label = None
        if lbl_raw is not None:
            match = _LABEL_RE.fullmatch(lbl_raw) if isinstance(lbl_raw, str) else None
            if match is None:
                raise ValueError(
                    f"nodes[{len(labels)}].label: expected 'x<j>', 'y<j>' or null, got {lbl_raw!r}"
                )
            if lbl_raw in seen_labels:
                raise ValueError(f"nodes[{len(labels)}].label: duplicate label {lbl_raw}")
            seen_labels.add(lbl_raw)
            lbl = (match.group(1), int(match.group(2)))
        ids[nid] = len(labels)
        labels.append(lbl)

    children: list[list[int]] = [[] for _ in labels]
    get = ids.get
    for pair in edges:
        if isinstance(pair, (list, tuple)) and len(pair) == 2:
            c, p = pair
            if type(c) is int and type(p) is int:
                ci, pi = get(c), get(p)
                if ci is not None and pi is not None:
                    children[pi].append(ci)
                    continue
        raise ValueError(_edge_error(edges, ids))

    kids = tuple(tuple(sorted(set(cs))) for cs in children)
    if sum(map(len, kids)) != len(edges):  # a duplicate edge
        raise ValueError(_edge_error(edges, ids))
    dag = Dag(n=n, m=m, labels=tuple(labels), children=kids)
    dag._order  # Kahn's sort; raises "graph contains a cycle"
    return dag


# The scanner's pieces.  No regex repeats over the node or edge text: a
# backtracking `(?:...)*` keeps state for every repetition, and the
# possessive quantifiers and atomic groups that avoid it need Python
# 3.11, while the package supports 3.10.  The scanner compares the node
# text with what dumps writes for it, a few thousand nodes at a time, and
# checks the edge text's punctuation with str.translate and str.count.
_COUNTS_RE = re.compile(r'\],"m":([1-9][0-9]{0,8}),"n":([1-9][0-9]{0,8}),"nodes":\[')
_NO_DIGITS = dict.fromkeys(map(ord, "0123456789"))
_NO_BRACKETS = dict.fromkeys(map(ord, "[]"))
# the shortest node dumps writes, '{"id":0,"label":null}', and a comma
_NODE_MIN = 22


def _blocks(piece: str, ints: list[int], per: int) -> Iterator[str]:
    """``piece % args`` for each ``per`` ints of ``ints`` in turn, joined
    with commas 4096 at a time, so only that many are held at once."""
    step = 4096 * per
    for i in range(0, len(ints), step):
        args = tuple(ints[i : i + step])
        yield ",".join(repeat(piece, len(args) // per)) % args


def _written(text: str, start: int, end: int, blocks: Iterable[str]) -> bool:
    """``text[start:end]`` is ``blocks`` joined with commas."""
    sep = ""
    for block in blocks:
        if not (text.startswith(sep, start) and text.startswith(block, start + len(sep))):
            return False
        start += len(sep) + len(block)
        sep = ","
    return start == end


def _edge_ends(edges: str, ids: list[int]) -> tuple[list[int], list[int]] | None:
    """The operands and the parents of ``edges`` written as
    ``[c,p],[c,p],...``, each end the int of ``ids`` it names; None for
    any other text or an id past the last node."""
    # only digits besides the brackets and commas of '[,],[,],...,[,]'
    pairs = edges.translate(_NO_DIGITS)
    count = (len(pairs) + 1) // 4
    if pairs + "," != "[,]," * count:
        return None
    # and every digit in a slot: none before the first '[', after the
    # last ']' or inside a '],['
    if not (edges.startswith("[") and edges.endswith("]")):
        return None
    if edges.count("],[") != count - 1:
        return None
    try:  # json.loads rejects an empty slot and a leading zero
        ends = json.loads(edges.translate(_NO_BRACKETS).join("[]"))
        ends = list(map(ids.__getitem__, ends))
    except (ValueError, IndexError):  # not ints, or an id past the last node
        return None
    return ends[0::2], ends[1::2]


def _scan(text: str) -> Dag | None:
    """The structure of ``text`` when it is exactly what :func:`dumps`
    writes for one with inputs x1..xn and outputs y1..yn, read with no
    JSON dict per node or list per edge; None for any other text.

    Where it reads a structure it returns the ``Dag``
    :func:`from_json_dict` returns, with one int per node id as there.
    It also checks that every edge runs forward in rank and each node's
    operands arrive ascending with no edge repeated, so the operand lists
    need no sort and rank order is the ``Dag``'s topological order."""
    if not (text.startswith('{"edges":[') and text.endswith("]}\n")):
        return None
    mid = text.find('],"m":')
    counts = _COUNTS_RE.match(text, mid) if mid > 0 else None
    if counts is None:
        return None
    m, n = int(counts[1]), int(counts[2])
    size = text.count("{", counts.end())  # one per node
    nodes_end = len(text) - 3
    # before anything of size n or size is made
    if m < 2 or n < 2 or size < 2 * n or _NODE_MIN * size > nodes_end - counts.end() + 1:
        return None
    ids = list(range(size))
    inputs = ids[1 : n + 1]
    # id and label number of x1..xn, then of y1..yn
    labeled = list(chain.from_iterable(zip(ids, inputs + inputs)))
    nodes = chain(
        _blocks('{"id":%d,"label":"x%d"}', labeled[: 2 * n], 2),
        _blocks('{"id":%d,"label":"y%d"}', labeled[2 * n :], 2),
        _blocks('{"id":%d,"label":null}', ids[2 * n :], 1),
    )
    if not _written(text, counts.end(), nodes_end, nodes):
        return None
    edges = _edge_ends(text[10:mid], ids)
    if edges is None:
        return None
    operands, parents = edges
    # rank: outputs last, every other node in id order
    rank = ids[:n] + list(range(size + n, size + 2 * n)) + ids[2 * n :]
    if not all(map(lt, map(rank.__getitem__, operands), map(rank.__getitem__, parents))):
        return None
    # edges sorted by (operand, parent) with no repeat: each node's
    # operands arrive ascending, and no edge is listed twice
    if not all(map(le, operands, islice(operands, 1, None))):
        return None
    same = map(eq, operands, islice(operands, 1, None))
    if any(map(and_, same, map(ge, parents, islice(parents, 1, None)))):
        return None
    children: list[list[int]] = list(map(list, repeat((), size)))
    deque(map(list.append, map(children.__getitem__, parents), operands), maxlen=0)
    labels = tuple(zip(repeat("x"), inputs)) + tuple(zip(repeat("y"), inputs))
    dag = Dag(
        n=n,
        m=m,
        labels=labels + (None,) * (size - 2 * n),
        children=tuple(map(tuple, children)),
    )
    return _with_order(dag, ids[:n] + ids[2 * n :] + ids[n : 2 * n])


def loads(text: str | bytes) -> Dag:
    """The structure in a JSON file (text or UTF-8 bytes), as
    :func:`from_json_dict` reads it; raises ``ValueError`` on a file that
    is not JSON or not a structure.  The text :func:`dumps` writes is
    read by a scanner that parses only its ints and compares the text
    with what :func:`dumps` writes for them; any other text goes through
    ``json.loads``."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    dag = _scan(text)
    if dag is not None:
        return dag
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"structure file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"structure file is nested too deeply: {exc}") from exc
    return from_json_dict(raw)


def to_dot(dag: Dag) -> str:
    """Graphviz rendering: inputs ranked as sources, outputs as sinks,
    computation nodes annotated with their fan-in."""
    order = dag._canonical_order
    renum = [0] * dag.node_count
    name = [""] * dag.node_count
    for i, v in enumerate(order):
        lbl = dag.labels[v]
        renum[v] = i
        name[v] = f"{lbl[0]}{lbl[1]}" if lbl else f"v{i}"

    lines = ["digraph structure {", "  rankdir=TB;"]
    sources = [name[v] for v in order if dag.labels[v] and dag.labels[v][0] == "x"]
    sinks = [name[v] for v in order if dag.labels[v] and dag.labels[v][0] == "y"]
    lines.append("  { rank=source; " + "; ".join(sources) + "; }")
    lines.append("  { rank=sink; " + "; ".join(sinks) + "; }")
    for v in order:
        if dag.labels[v] is None:
            lines.append(f'  {name[v]} [shape=circle, label="{len(dag.children[v])}-in"];')
        elif dag.labels[v][0] == "y":
            lines.append(f"  {name[v]} [shape=doublecircle];")
        else:
            lines.append(f"  {name[v]} [shape=plaintext];")
    for p in order:
        for c in sorted(dag.children[p], key=renum.__getitem__):
            lines.append(f"  {name[c]} -> {name[p]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
