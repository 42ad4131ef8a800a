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
  distinct-subtrees check; string canonical keys only name its witnesses.

Edges are stored child -> parent, i.e. pointing the way messages flow.
Structures are immutable; every operation returns a fresh value.  Each
structure computes its topological order and canonical node order at
most once, so loading, checking and writing it walk one order.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional, Sequence

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

    # safe to cache: the fields never change
    @cached_property
    def _order(self) -> list[int]:
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

    def build(self, n: int, m: int, keep: Iterable[int] | None = None) -> Dag:
        """The structure built so far; with ``keep``, only the nodes that
        feed one of those ids (themselves included), renumbered in id
        order."""
        for cs in self._children:
            if len(cs) > m:
                raise ValueError(f"fan-in {len(cs)} exceeds bound m = {m}")
        dag = Dag(n=n, m=m, labels=tuple(self._labels), children=tuple(self._children))
        if keep is None:
            return dag
        order = sorted(_ancestor_set(dag, keep))
        renum = {v: i for i, v in enumerate(order)}
        return Dag(
            n=n,
            m=m,
            labels=tuple(dag.labels[v] for v in order),
            children=tuple(tuple(renum[c] for c in dag.children[v]) for v in order),
        )


# ---------------------------------------------------------------------------
# canonical keys


def _topological_order(dag: Dag) -> list[int]:
    """Kahn order (children before parents).  Raises on cycles."""
    indeg = [len(cs) for cs in dag.children]
    parents = dag.parent_map()
    ready = [v for v in range(dag.node_count) if indeg[v] == 0]
    order: list[int] = []
    while ready:
        v = ready.pop()
        order.append(v)
        for p in parents[v]:
            indeg[p] -= 1
            if indeg[p] == 0:
                ready.append(p)
    if len(order) != dag.node_count:
        raise ValueError("graph contains a cycle")
    return order


def canonical_keys(dag: Dag) -> tuple[str, ...]:
    """Canonical key per node.

    Two nodes receive equal keys iff their computation trees are the
    same once internal labels are erased: inputs match by label, and
    every other node matches by the multiset of its operand keys (the
    node function is treated as commutative, so operand order never
    matters).  Output labels are deliberately not part of the key; the
    validity checker layers label identity on top.
    """
    keys: list[str] = [""] * dag.node_count
    for v in dag._order:
        lbl = dag.labels[v]
        if lbl is not None and lbl[0] == "x":
            keys[v] = f"x{lbl[1]}"
        else:
            keys[v] = "(" + ",".join(sorted(keys[c] for c in dag.children[v])) + ")"
    return tuple(keys)


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


def _tree_pass(dag: Dag, order: list[int], outputs: dict[int, int]) -> set[int] | None:
    """Labels ``j`` of the outputs (``outputs[j]`` is y_j's node) whose
    ancestor graph is not a tree over exactly the other inputs, found in
    one bottom-up pass over ``order``; ``None`` when the sources are not
    exactly x_1..x_n, where the pass does not apply.

    Each node gets the set of inputs below it (bit ``i`` for x_i) and
    its number of paths down to them.  Output y_j passes iff its set is
    the other inputs and it has one path to each: a node reached twice
    from y_j would give every input below it a second path.
    """
    full = (1 << (dag.n + 1)) - 2
    sources = 0
    below = [0] * dag.node_count
    paths = [0] * dag.node_count
    for v in order:
        if not dag.children[v]:
            lbl = dag.labels[v]
            if not (lbl and lbl[0] == "x" and 1 <= lbl[1] <= dag.n) or sources >> lbl[1] & 1:
                return None
            sources |= 1 << lbl[1]
            below[v], paths[v] = 1 << lbl[1], 1
        else:
            bits = count = 0
            for c in dag.children[v]:
                bits |= below[c]
                count += paths[c]
            below[v], paths[v] = bits, count
    if sources != full:
        return None
    flagged: set[int] = set()
    for j, y in outputs.items():
        want = full ^ (1 << j) if 1 <= j <= dag.n else full
        if below[y] != want or paths[y] != want.bit_count():
            flagged.add(j)
    return flagged


def _output_tree_failures(
    dag: Dag, parents: list[list[int]], j: int, y: int
) -> list[str]:
    """Why y_j's ancestor graph is not a tree over the other inputs
    (empty when it is), by walking the graph: the witnesses."""
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
    want = {("x", i) for i in range(1, n + 1) if i != j}
    if leaves != want:
        extra = sorted(
            ("?" if lbl is None else lbl[0] + str(lbl[1])) for lbl in leaves - want
        )
        missing = sorted(lbl[0] + str(lbl[1]) for lbl in want - leaves)
        parts = []
        if extra:
            parts.append("unexpected leaves " + ", ".join(extra))
        if missing:
            parts.append("missing leaves " + ", ".join(missing))
        failures.append(f"y{j}: " + "; ".join(parts))
    return failures


def _subtree_ids(dag: Dag, order: list[int]) -> list[int]:
    """Canonical integer id per node (Aho-Hopcroft-Ullman), equal for two
    nodes iff their canonical keys are equal and independent of node
    numbering.  An input keys on its label and sits at height 0; any
    other node keys on the sorted tuple of its operands' ids, one level
    above its highest operand.  Ids are given out level by level, and
    within a level to the distinct keys in sorted order."""
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


def _ids_are_distinct(dag: Dag) -> bool:
    """True when every source is an input with its own label, no other
    node carries an input label, and no two other nodes have equal
    operand tuples: then, by induction on height, no two nodes share a
    canonical id, and the ids need not be computed."""
    sources = [lbl for lbl, cs in zip(dag.labels, dag.children) if not cs]
    inputs = [lbl for lbl in dag.labels if lbl and lbl[0] == "x"]
    operands = [cs for cs in dag.children if cs]
    # equal lists: the sources are exactly the input-labeled nodes
    return sources == inputs and all(len(set(x)) == len(x) for x in (inputs, operands))


def _shared_subtree_failures(dag: Dag, order: list[int]) -> list[str]:
    """The groups of nodes that compute one subtree, found on canonical
    ids; the string canonical keys that name the groups are built only
    when there is one.  Distinctly labeled outputs are told apart by
    their labels (inputs share a group only with their own label), and
    a stray unlabeled source counts under "inputs"."""
    if _ids_are_distinct(dag):
        return []
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
    keys = canonical_keys(dag) if shared else ()
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
    missing = sorted(set(range(1, n + 1)) - set(seen))
    if missing:
        failures.append(f"missing {noun}s: {', '.join(f'{kind}{j}' for j in missing)}")
    return PropertyCheck(f"{noun}s", not failures, "; ".join(failures) or None), seen


def validate(dag: Dag) -> ValidationReport:
    """Check the five defining properties plus acyclicity.

    Every failure is reported (not just the first) with a witness node
    or edge, so the report can serve as a mutation-test oracle.  A
    graph passes iff it is a valid structure with input size ``n``.

    The single degenerate exception: for ``n == 2`` the two outputs are
    bare wires (``y_1 = x_2``, ``y_2 = x_1``), so in-degree 1 outputs
    are accepted there and only there.

    The output-tree property is decided for all outputs in one
    bottom-up pass (:func:`_tree_pass`: per node, the inputs below it
    as an int bitset and its number of paths down to them).  The
    per-output ancestor walk, which writes the witnesses, runs only for
    the outputs that pass flags, or for all of them when the sources
    are not exactly x_1..x_n; so a valid structure is checked in one
    pass, without parent lists, and a report never differs from walking
    every output.  Distinct subtrees are decided on canonical ids, only
    when a cheap test cannot rule them out (:func:`_ids_are_distinct`).
    """
    n = dag.n
    labels, children = dag.labels, dag.children
    feeding = set(chain.from_iterable(children))

    # acyclicity first; the order-based checks need it
    order: list[int] | None
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
        flagged = _tree_pass(dag, order, seen_y)
        walked = [j for j in sorted(seen_y) if flagged is None or j in flagged]
        parents = dag.parent_map() if walked else []
        trees = [f for j in walked for f in _output_tree_failures(dag, parents, j, seen_y[j])]
        shared = _shared_subtree_failures(dag, order)
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

    children: list[set[int]] = [set() for _ in labels]
    get = ids.get
    for pair in edges:
        if isinstance(pair, (list, tuple)) and len(pair) == 2:
            c, p = pair
            if type(c) is int and type(p) is int:
                ci, pi = get(c), get(p)
                if ci is not None and pi is not None:
                    children[pi].add(ci)
                    continue
        raise ValueError(_edge_error(edges, ids))
    kids = tuple(tuple(sorted(cs)) for cs in children)
    if sum(map(len, kids)) != len(edges):  # a duplicate edge
        raise ValueError(_edge_error(edges, ids))

    dag = Dag(n=n, m=m, labels=tuple(labels), children=kids)
    dag._order  # raises "graph contains a cycle"
    return dag


def loads(text: str | bytes) -> Dag:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"structure file is not valid JSON: {exc}") from exc
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
