"""Computation-structure DAGs.

A *structure* with input size ``n`` routes the incoming messages
``x_1..x_n`` to the outgoing messages ``y_1..y_n``: output ``y_j`` is
the root of a tree over every input except ``x_j``, all computation
subtrees are pairwise distinct (equal subtrees are stored once), and
every computation node has fan-in between 2 and ``m``.

This module owns the graph plumbing every synthesizer shares:

* canonical subtree keys (the "same computation" test),
* the deduplicating union of sub-DAGs,
* the validity checker, which reports each defining property
  separately with a witness so it can double as a test oracle,
* exact complexity (weighted node count) and latency (node-weighted
  longest path) evaluation,
* pruning an ``n'``-input structure down to ``n`` inputs,
* deterministic JSON and DOT serialization.

Edges are stored child -> parent, i.e. pointing the way messages flow.
Structures are immutable; every operation returns a fresh value.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .costs import CostModel

# ("x", j) for input j, ("y", j) for output j, None for internal.
Label = Optional[tuple[str, int]]

_LABEL_RE = re.compile(r"^([xy])([1-9][0-9]*)$")


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

    def in_degree(self, v: int) -> int:
        return len(self.children[v])

    def parent_map(self) -> dict[int, list[int]]:
        parents: dict[int, list[int]] = {v: [] for v in range(self.node_count)}
        for v, cs in enumerate(self.children):
            for c in cs:
                parents[c].append(v)
        return parents

    def nodes_with_label(self, kind: str) -> dict[int, int]:
        """Map label index -> node id for all ``("x", j)`` or ``("y", j)`` nodes."""
        found: dict[int, int] = {}
        for v, lbl in enumerate(self.labels):
            if lbl is not None and lbl[0] == kind:
                if lbl[1] in found:
                    raise ValueError(f"duplicate label {kind}{lbl[1]}")
                found[lbl[1]] = v
        return found

    def degree_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for cs in self.children:
            hist[len(cs)] = hist.get(len(cs), 0) + 1
        return hist


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
        for cs in self._children:
            if len(cs) > m:
                raise ValueError(f"fan-in {len(cs)} exceeds bound m = {m}")
        return Dag(n=n, m=m, labels=tuple(self._labels), children=tuple(self._children))


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
    return _canonical_keys(dag, _topological_order(dag))


def _canonical_keys(dag: Dag, order: list[int]) -> tuple[str, ...]:
    keys: list[str] = [""] * dag.node_count
    for v in order:
        lbl = dag.labels[v]
        if lbl is not None and lbl[0] == "x":
            keys[v] = f"x{lbl[1]}"
        else:
            keys[v] = "(" + ",".join(sorted(keys[c] for c in dag.children[v])) + ")"
    return tuple(keys)


def signature(dag: Dag) -> tuple:
    """Value identity of a structure: equal signatures mean the same
    computation (same outputs over the same subtrees, same node set up
    to renaming of internal nodes)."""
    keys = canonical_keys(dag)
    outs = tuple(
        sorted((lbl[1], keys[v]) for v, lbl in enumerate(dag.labels) if lbl and lbl[0] == "y")
    )
    return (dag.n, outs, tuple(sorted(keys)))


# ---------------------------------------------------------------------------
# union


def union(a: Dag, b: Dag) -> Dag:
    """Deduplicating union: one copy of every shared subtree is kept.

    Inputs merge by label, computation nodes merge by canonical key,
    and outputs merge by label only when they compute the same subtree
    (conflicting redefinitions raise).  Both arguments must be acyclic;
    the fan-in bound is re-checked defensively on the result.
    """
    builder = DagBuilder()
    for dag in (a, b):
        mapped: dict[int, int] = {}
        for v in _topological_order(dag):
            lbl = dag.labels[v]
            kids = [mapped[c] for c in dag.children[v]]
            if lbl is not None and lbl[0] == "x":
                mapped[v] = builder.input(lbl[1])
            elif lbl is not None and lbl[0] == "y":
                mapped[v] = builder.output(lbl[1], kids)
            else:
                mapped[v] = builder.op(kids)
    return builder.build(max(a.n, b.n), max(a.m, b.m))


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
    dag: Dag, parents: dict[int, list[int]], j: int, y: int
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
    leaves = {dag.labels[v] for v in anc if dag.in_degree(v) == 0}
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
    pass and a report never differs from walking every output.  One
    topological order serves the pass and the canonical keys.
    """
    checks: list[PropertyCheck] = []
    n = dag.n
    failures: list[str]

    # acyclicity first; key-based checks need it
    order: list[int] | None
    try:
        order = _topological_order(dag)
    except ValueError:
        order = None
    cyclic = order is None
    parents = dag.parent_map()

    # property 1: sources are exactly x_1..x_n
    failures = []
    sources = [v for v in range(dag.node_count) if dag.in_degree(v) == 0]
    seen_x: dict[int, int] = {}
    for v, lbl in enumerate(dag.labels):
        if lbl and lbl[0] == "x":
            if lbl[1] in seen_x:
                failures.append(f"duplicate input label x{lbl[1]} (nodes {seen_x[lbl[1]]}, {v})")
            seen_x[lbl[1]] = v
    for v in sources:
        lbl = dag.labels[v]
        if not (lbl and lbl[0] == "x"):
            failures.append(f"node {v} has no incoming edges but is not an input")
    for j, v in seen_x.items():
        if dag.in_degree(v) != 0:
            failures.append(f"input x{j} (node {v}) has incoming edges")
        if not 1 <= j <= n:
            failures.append(f"input label x{j} outside 1..{n}")
    if set(seen_x) != set(range(1, n + 1)):
        missing = sorted(set(range(1, n + 1)) - set(seen_x))
        if missing:
            failures.append(f"missing inputs: {', '.join('x%d' % j for j in missing)}")
    checks.append(PropertyCheck("inputs", not failures, "; ".join(failures) or None))

    # property 2: sinks are exactly y_1..y_n
    failures = []
    sinks = [v for v in range(dag.node_count) if not parents[v]]
    seen_y: dict[int, int] = {}
    for v, lbl in enumerate(dag.labels):
        if lbl and lbl[0] == "y":
            if lbl[1] in seen_y:
                failures.append(f"duplicate output label y{lbl[1]} (nodes {seen_y[lbl[1]]}, {v})")
            seen_y[lbl[1]] = v
    for v in sinks:
        lbl = dag.labels[v]
        if not (lbl and lbl[0] == "y"):
            failures.append(f"node {v} has no outgoing edges but is not an output")
    for j, v in seen_y.items():
        if parents[v]:
            failures.append(f"output y{j} (node {v}) has outgoing edges")
        if not 1 <= j <= n:
            failures.append(f"output label y{j} outside 1..{n}")
    if set(seen_y) != set(range(1, n + 1)):
        missing = sorted(set(range(1, n + 1)) - set(seen_y))
        if missing:
            failures.append(f"missing outputs: {', '.join('y%d' % j for j in missing)}")
    checks.append(PropertyCheck("outputs", not failures, "; ".join(failures) or None))

    # property 3: each output's ancestor graph is a tree over the other inputs
    failures = []
    if cyclic:
        failures.append("not evaluated: graph contains a cycle")
    else:
        flagged = _tree_pass(dag, order, seen_y)
        for j in sorted(seen_y):
            if flagged is None or j in flagged:
                failures.extend(_output_tree_failures(dag, parents, j, seen_y[j]))
    checks.append(PropertyCheck("output_trees", not failures, "; ".join(failures) or None))

    # property 4: no two nodes compute the same subtree
    failures = []
    if cyclic:
        failures.append("not evaluated: graph contains a cycle")
    else:
        keys = _canonical_keys(dag, order)
        by_key: dict[str, list[int]] = {}
        for v in range(dag.node_count):
            if dag.in_degree(v) == 0 and not (dag.labels[v] and dag.labels[v][0] == "x"):
                continue  # stray unlabeled source, reported under "inputs"
            by_key.setdefault(keys[v], []).append(v)
        for key, group in sorted(by_key.items()):
            if len(group) < 2:
                continue
            # distinctly labeled outputs are told apart by their labels
            non_outputs = [v for v in group if not (dag.labels[v] and dag.labels[v][0] == "y")]
            if non_outputs or len({dag.labels[v] for v in group}) < len(group):
                failures.append(f"nodes {group} all compute {key}")
    checks.append(PropertyCheck("distinct_subtrees", not failures, "; ".join(failures) or None))

    # property 5: computation fan-in within [2, m]
    failures = []
    for v in range(dag.node_count):
        lbl = dag.labels[v]
        if lbl and lbl[0] == "x":
            continue
        d = dag.in_degree(v)
        if d > dag.m:
            failures.append(f"node {v} has fan-in {d} > m = {dag.m}")
        elif d < 2:
            if n == 2 and lbl and lbl[0] == "y" and d == 1:
                continue  # the n = 2 wire pair
            failures.append(f"node {v} has fan-in {d} < 2")
    checks.append(PropertyCheck("fan_in", not failures, "; ".join(failures) or None))

    checks.append(
        PropertyCheck("acyclic", not cyclic, "graph contains a cycle" if cyclic else None)
    )
    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# evaluation


def _check_fan_in(dag: Dag, cm: CostModel) -> None:
    for v, cs in enumerate(dag.children):
        if len(cs) > cm.m:
            raise ValueError(f"node {v} has fan-in {len(cs)} > cost model m = {cm.m}")


def complexity(dag: Dag, cm: CostModel) -> Fraction:
    """Fan-in-weighted node count: sum of ``c[fan_in(v)]`` over all nodes.

    Sources weigh ``c[0] = 0`` and wires ``c[1] = 0``, so the sum only
    sees real computation nodes.
    """
    _check_fan_in(dag, cm)
    return sum((cm.c[len(cs)] for cs in dag.children), Fraction(0))


def latency(dag: Dag, cm: CostModel) -> Fraction:
    """Node-weighted longest path, node ``v`` weighing ``l[fan_in(v)]``."""
    _check_fan_in(dag, cm)
    dist: list[Fraction] = [Fraction(0)] * dag.node_count
    best = Fraction(0)
    for v in _topological_order(dag):
        w = cm.l[dag.in_degree(v)]
        dist[v] = w + max((dist[c] for c in dag.children[v]), default=Fraction(0))
        if dist[v] > best:
            best = dist[v]
    return best


# ---------------------------------------------------------------------------
# pruning


@dataclass(frozen=True)
class PruneResult:
    structure: Dag
    actions: tuple[str, ...]


def prune(dag: Dag, n: int) -> PruneResult:
    """Shrink an ``n'``-input structure to ``n`` inputs.

    Removes ``x_{n+1}..x_{n'}`` and ``y_{n+1}..y_{n'}`` and re-interns
    the rest bottom-up into a fresh builder.  A computation node's image
    is nothing when every operand is gone (dropped), its one surviving
    operand (a pass-through, spliced out), or the interned node over its
    operands' distinct images, so subtrees the removal made equal merge
    on the way.  An output left with a single internal operand takes
    that operand's operands, and only what the outputs reach is kept.
    Each action is logged.  Latency and complexity never increase
    (weights are non-negative and nodes are only removed or merged).
    """
    if n < 2:
        raise ValueError(f"cannot prune to n = {n} < 2")
    if n > dag.n:
        raise ValueError(f"cannot prune to n = {n} > current input size {dag.n}")
    if n == dag.n:
        return PruneResult(dag, ())

    builder = DagBuilder()
    actions: list[str] = []
    image: list[int | None] = [None] * dag.node_count
    outputs: list[int] = []
    for v in _topological_order(dag):
        lbl = dag.labels[v]
        if lbl is not None and lbl[1] > n:
            actions.append(f"removed {lbl[0]}{lbl[1]}")
        elif lbl is not None and lbl[0] == "x":
            image[v] = builder.input(lbl[1])
        else:
            kids = sorted({image[c] for c in dag.children[v]} - {None})
            if lbl is not None:
                if len(kids) == 1 and builder._labels[kids[0]] is None:
                    j = lbl[1]
                    actions.append(f"relabeled y{j}'s only operand as y{j} (pass-through output)")
                    kids = builder._children[kids[0]]
                outputs.append(builder.output(lbl[1], kids))
            elif not kids:
                actions.append(f"dropped node {v}: all operands pruned away")
            elif len(kids) == 1:
                image[v] = kids[0]
                actions.append(f"spliced pass-through node {v}")
            else:
                image[v] = builder.op(kids)

    # keep only what the outputs reach (absorbed operands and nodes that
    # fed removed outputs alone fall away); renumbering keeps id order
    full = builder.build(n, dag.m)
    order = sorted(_ancestor_set(full, outputs))
    renum = {v: i for i, v in enumerate(order)}
    result = Dag(
        n=n,
        m=dag.m,
        labels=tuple(full.labels[v] for v in order),
        children=tuple(tuple(renum[c] for c in full.children[v]) for v in order),
    )
    return PruneResult(result, tuple(actions))


# ---------------------------------------------------------------------------
# serialization


def _canonical_node_order(dag: Dag) -> list[int]:
    keys = canonical_keys(dag)

    def sort_key(v: int):
        lbl = dag.labels[v]
        if lbl and lbl[0] == "x":
            return (0, lbl[1], "")
        if lbl and lbl[0] == "y":
            return (1, lbl[1], "")
        return (2, 0, keys[v])

    return sorted(range(dag.node_count), key=sort_key)


def to_json_dict(dag: Dag) -> dict:
    """Deterministic JSON form: nodes in canonical order, edges sorted."""
    order = _canonical_node_order(dag)
    renum = {v: i for i, v in enumerate(order)}
    nodes = []
    for v in order:
        lbl = dag.labels[v]
        nodes.append({"id": renum[v], "label": None if lbl is None else f"{lbl[0]}{lbl[1]}"})
    edges = sorted([renum[c], renum[p]] for p in order for c in dag.children[p])
    return {"n": dag.n, "m": dag.m, "nodes": nodes, "edges": edges}


def dumps(dag: Dag) -> str:
    return json.dumps(to_json_dict(dag), sort_keys=True, separators=(",", ":")) + "\n"


def from_json_dict(raw: object) -> Dag:
    """Inverse of :func:`to_json_dict`; rejects malformed input with the
    offending location, including cycles and duplicate labels."""
    if not isinstance(raw, dict):
        raise ValueError("structure: expected a JSON object")
    for key in ("n", "m", "nodes", "edges"):
        if key not in raw:
            raise ValueError(f"structure.{key}: missing required field")
    n, m = raw["n"], raw["m"]
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"structure.n: expected an integer >= 2, got {n!r}")
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"structure.m: expected an integer >= 2, got {m!r}")
    if not isinstance(raw["nodes"], list) or not isinstance(raw["edges"], list):
        raise ValueError("structure.nodes / structure.edges: expected arrays")

    ids: dict[int, int] = {}
    labels: list[Label] = []
    seen_labels: set[str] = set()
    for idx, entry in enumerate(raw["nodes"]):
        where = f"nodes[{idx}]"
        if not isinstance(entry, dict) or "id" not in entry:
            raise ValueError(f"{where}: expected an object with an 'id'")
        nid = entry["id"]
        if not isinstance(nid, int):
            raise ValueError(f"{where}.id: expected an integer, got {nid!r}")
        if nid in ids:
            raise ValueError(f"{where}.id: duplicate node id {nid}")
        lbl_raw = entry.get("label")
        lbl: Label = None
        if lbl_raw is not None:
            if not isinstance(lbl_raw, str) or not _LABEL_RE.match(lbl_raw):
                raise ValueError(f"{where}.label: expected 'x<j>', 'y<j>' or null, got {lbl_raw!r}")
            if lbl_raw in seen_labels:
                raise ValueError(f"{where}.label: duplicate label {lbl_raw}")
            seen_labels.add(lbl_raw)
            match = _LABEL_RE.match(lbl_raw)
            lbl = (match.group(1), int(match.group(2)))
        ids[nid] = len(labels)
        labels.append(lbl)

    children: list[set[int]] = [set() for _ in labels]
    for idx, pair in enumerate(raw["edges"]):
        where = f"edges[{idx}]"
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(x, int) for x in pair)
        ):
            raise ValueError(f"{where}: expected [child_id, parent_id]")
        c, p = pair
        for x in (c, p):
            if x not in ids:
                raise ValueError(f"{where}: unknown node id {x}")
        if ids[c] in children[ids[p]]:
            raise ValueError(f"{where}: duplicate edge {c} -> {p}")
        children[ids[p]].add(ids[c])

    dag = Dag(
        n=n,
        m=m,
        labels=tuple(labels),
        children=tuple(tuple(sorted(cs)) for cs in children),
    )
    _topological_order(dag)  # raises "graph contains a cycle"
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
    order = _canonical_node_order(dag)
    renum = {v: i for i, v in enumerate(order)}

    def name(v: int) -> str:
        lbl = dag.labels[v]
        return f"{lbl[0]}{lbl[1]}" if lbl else f"v{renum[v]}"

    lines = ["digraph structure {", "  rankdir=TB;"]
    sources = [name(v) for v in order if dag.labels[v] and dag.labels[v][0] == "x"]
    sinks = [name(v) for v in order if dag.labels[v] and dag.labels[v][0] == "y"]
    lines.append("  { rank=source; " + "; ".join(sources) + "; }")
    lines.append("  { rank=sink; " + "; ".join(sinks) + "; }")
    for v in order:
        if dag.labels[v] is None:
            lines.append(f'  v{renum[v]} [shape=circle, label="{dag.in_degree(v)}-in"];')
        elif dag.labels[v][0] == "y":
            lines.append(f"  {name(v)} [shape=doublecircle];")
        else:
            lines.append(f"  {name(v)} [shape=plaintext];")
    for p in order:
        for c in sorted(dag.children[p], key=lambda u: renum[u]):
            lines.append(f"  {name(c)} -> {name(p)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
