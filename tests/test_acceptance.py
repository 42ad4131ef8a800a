"""Acceptance suite.

One test per acceptance criterion, each printing a pass/fail line; all
comparisons are exact (rationals, integer counts, byte equality).
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mpsynth import structure
from mpsynth.costs import CostModel
from mpsynth.drt import tree_latency
from mpsynth.oracles import (
    EnumerationBudget,
    ascending_labeling,
    enumerate_degree_vectors,
    enumerate_rooted_trees,
    enumerate_star_trees,
    enumerate_type_vectors,
    min_labeling_complexity,
    oracle_star_tree_latency,
    structure_from_labeled_copies,
)
from mpsynth.staropt import (
    min_star_complexity,
    min_star_latency,
    optimal_degree_vectors,
    synthesize_star,
)
from mpsynth.startree import (
    degree_vector_of,
    star_complexity,
    structure_from_star_tree,
)
from mpsynth.structure import (
    Dag,
    DagBuilder,
    complexity,
    latency,
    validate,
)
from mpsynth.uniform import (
    UniformTree,
    min_uniform_latency,
    structure_from_uniform_tree,
    synthesize_min_latency,
    type_vector_latency,
    uniform_tree_from_type_vector,
)

from conftest import (
    canonical_keys,
    nodes_with_label,
    output_tree_failures,
    prune,
    signature,
    union,
    wire_structure,
)


@contextlib.contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


# ---------------------------------------------------------------------------
# 1. reference structures at n = 7, exact node counts and latency


def _single_output_copy(levels, j: int, leaf_labels: list[int], n: int, m: int) -> Dag:
    """One output's tree as a standalone graph (for the union pipeline)."""
    builder = DagBuilder()
    it = iter(leaf_labels)

    def emit(depth: int) -> int:
        if depth == len(levels):
            return builder.input(next(it))
        return builder.op([emit(depth + 1) for _ in range(levels[depth])])

    builder.output(j, [emit(1) for _ in range(levels[0])])
    return builder.build(n, m)


def test_c1_reference_structures():
    with criterion("1 reference-structure reproduction"):
        tree = UniformTree((2, 3))

        # seven standalone per-output trees (ascending labels), united:
        # 8 shared 3-input units plus the 7 two-input output stages
        copies = [
            _single_output_copy(tree.levels, j, labels, 7, 3)
            for j, labels in zip(range(1, 8), ascending_labeling(7))
        ]
        assert all(c.degree_histogram() == {0: 6, 3: 2, 2: 1} for c in copies)
        shared = copies[0]
        for copy in copies[1:]:
            shared = union(shared, copy)
        assert shared.degree_histogram() == {0: 7, 2: 7, 3: 8}
        assert validate(shared).ok
        assert signature(shared) == signature(
            structure_from_labeled_copies(tree, ascending_labeling(7), 3)
        )

        # cyclic labeling: one 3-input unit fewer, same latency
        cyclic = structure_from_uniform_tree(tree, 3)
        assert cyclic.degree_histogram() == {0: 7, 2: 7, 3: 7}
        assert validate(cyclic).ok
        for l2, l3 in ((1, 1), (1, 10), (Fraction(3, 2), 2)):
            cm = CostModel.from_factors(3, [1, 1], [l2, l3])
            assert latency(cyclic, cm) == l2 + l3
        assert complexity(cyclic, CostModel.from_factors(3, [1, 7], [1, 1])) == 7 + 49

        # pruning one input/output pair preserves validity and latency
        pruned = prune(cyclic, 6).structure
        assert pruned.n == 6
        assert validate(pruned).ok
        cm = CostModel.from_factors(3, [1, 1], [1, 1])
        assert latency(pruned, cm) == latency(cyclic, cm) == 2


# ---------------------------------------------------------------------------
# 2. cheapest-complexity DP versus exhaustive degree vectors


def _monotone_models(m: int) -> list[CostModel]:
    rng = random.Random(97 * m)
    models = [
        CostModel.from_factors(m, [1] * (m - 1), [1] * (m - 1)),  # full ties
        CostModel.from_factors(m, list(range(1, m)), [1] * (m - 1)),
    ]
    while len(models) < 5:
        total, ramp = Fraction(0), []
        for _ in range(m - 1):
            total += Fraction(rng.randint(0, 8), rng.randint(1, 5))
            ramp.append(total)
        models.append(CostModel.from_factors(m, ramp, [1] * (m - 1)))
    return models


def test_c2_star_complexity_oracle_equivalence():
    with criterion("2 star-complexity DP equals exhaustive minimum"):
        for m in (2, 3, 4):
            for cm in _monotone_models(m):
                for n in range(3, 13):
                    table = min_star_complexity(n, cm)
                    brute = min(
                        star_complexity(q, cm)
                        for q in enumerate_degree_vectors(n, m)
                        if sum(q) > 0
                    )
                    assert table.value() == brute, (m, n, cm.c)
                    for q in optimal_degree_vectors(table):
                        assert star_complexity(q, cm) == brute, (m, n, q)


# ---------------------------------------------------------------------------
# 3. latency DP versus exhaustive star trees, per degree vector


def test_c3_star_latency_oracle_equivalence():
    with criterion("3 star-latency DP equals exhaustive tree minimum"):
        budget = EnumerationBudget(max_star_leaves=17)
        latency_ramps = [
            lambda m: [1] * (m - 1),  # ties
            lambda m: [Fraction(k + 2, 2) for k in range(m - 1)],  # strictly rising
            lambda m: [0] + [1] * (m - 2) if m > 2 else [0],  # zero head
        ]
        for m in (2, 3, 4):
            models = [CostModel.from_factors(m, [1] * (m - 1), ramp(m)) for ramp in latency_ramps]
            for q in itertools.product(range(6), repeat=m - 1):
                total = sum(q)
                if total == 0 or total > 5:
                    continue
                trees = enumerate_star_trees(q, budget)
                for cm in models:
                    result = min_star_latency(q, cm)
                    brute = min(oracle_star_tree_latency(t, cm) for t in trees)
                    assert result.value == brute, (m, q, cm.l)
                    # the backtracked witness realizes the value, walked
                    # leaf to leaf and on the DAG alike
                    assert degree_vector_of(result.tree) == q
                    assert oracle_star_tree_latency(result.tree, cm) == result.value
                    assert (
                        latency(structure_from_star_tree(result.tree), cm) == result.value
                    )


# ---------------------------------------------------------------------------
# 4. uniform-tree latency DP versus exhaustive type vectors


def test_c4_uniform_latency_oracle_equivalence():
    with criterion("4 uniform-latency DP equals exhaustive minimum"):
        models = {
            2: CostModel.from_factors(2, [1], [1]),
            3: CostModel.from_factors(3, [1, 2], [1, Fraction(3, 2)]),
            4: CostModel.from_factors(4, [1, 1, 2], [1, 1, 2]),
            5: CostModel.from_factors(5, [1, 2, 3, 4], [1, Fraction(3, 2), 2, 2]),
        }
        for m, cm in models.items():
            for n in range(2, 202):
                vectors = enumerate_type_vectors(n, m)
                if not vectors:
                    with pytest.raises(ValueError):
                        min_uniform_latency(n, cm)
                    continue
                result = min_uniform_latency(n, cm)
                brute = min(type_vector_latency(w, cm) for w in vectors)
                assert result.value == brute, (m, n)
                for w in result.type_vectors:
                    assert type_vector_latency(w, cm) == brute


# ---------------------------------------------------------------------------
# 5. cyclic labeling minimality at desk scale


def test_c5_cyclic_labeling_minimality():
    with criterion("5 cyclic labeling is the cheapest labeling (n <= 5)"):
        models = [
            CostModel.from_factors(4, [1, 2, 3], [1, 1, 1]),
            CostModel.from_factors(4, [1, 1, 1], [1, 1, 1]),
        ]
        for cm in models:
            for n in (3, 4, 5):
                for w in enumerate_type_vectors(n, 4):
                    formula = sum(
                        (n * wi * cm.c[i + 2] for i, wi in enumerate(w)), Fraction(0)
                    )
                    best, achievers = min_labeling_complexity(w, n, 4, cm)
                    assert best == formula, (n, w)
                    assert achievers >= 1
                    tree = uniform_tree_from_type_vector(w)
                    built = structure_from_uniform_tree(tree, 4)
                    assert complexity(built, cm) == formula, (n, w)
                    assert validate(built).ok


# ---------------------------------------------------------------------------
# 6. latency-first synthesis equals the global rooted-tree latency bound


def test_c6_global_latency_optimality():
    with criterion("6 latency-first synthesis equals exhaustive rooted-tree minimum"):
        model_ramps = [[1] * 4, [1, Fraction(3, 2), 2, 2], [0, 1, 1, 1]]
        for m in (2, 3):
            for ramp in model_ramps:
                cm = CostModel.from_factors(m, [1] * (m - 1), ramp[: m - 1])
                for n in range(3, 7):
                    result = synthesize_min_latency(n, cm)
                    brute = min(
                        tree_latency(t, cm) for t in enumerate_rooted_trees(n - 1, m)
                    )
                    assert result.latency == brute, (m, n, cm.l)
                    assert latency(result.structure, cm) == brute
                    assert validate(result.structure).ok


# ---------------------------------------------------------------------------
# 7. validator mutation suite


def _mutable(dag: Dag):
    return list(dag.labels), [list(cs) for cs in dag.children]


def _freeze(dag: Dag, labels, children) -> Dag:
    return Dag(
        n=dag.n,
        m=dag.m,
        labels=tuple(labels),
        children=tuple(tuple(sorted(set(cs))) for cs in children),
    )


def _mutate(dag: Dag, kind: str, rng: random.Random):
    """Apply one mutation; returns (mutated, expected failing check) or
    None when the structure offers no site for this mutation."""
    labels, children = _mutable(dag)
    parents: dict[int, list[int]] = {v: [] for v in range(dag.node_count)}
    for v, cs in enumerate(dag.children):
        for c in cs:
            parents[c].append(v)
    inputs = nodes_with_label(dag, "x")
    outputs = nodes_with_label(dag, "y")
    internal = [v for v, lbl in enumerate(dag.labels) if lbl is None]

    def ancestors(v: int) -> set[int]:
        seen, stack = {v}, [v]
        while stack:
            u = stack.pop()
            for c in dag.children[u]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return seen

    if kind == "input_to_own_output":
        j = rng.choice(sorted(outputs))
        y, x = outputs[j], inputs[j]
        if x in children[y] or len(children[y]) >= dag.m:
            return None
        children[y].append(x)
        return _freeze(dag, labels, children), "output_trees"

    if kind == "reconvergent_edge":
        candidates = []
        for v in internal:
            for j, y in outputs.items():
                if v in ancestors(y) and v not in children[y] and len(children[y]) < dag.m:
                    candidates.append((v, y))
        if not candidates:
            return None
        v, y = candidates[rng.randrange(len(candidates))]
        children[y].append(v)
        return _freeze(dag, labels, children), "output_trees"

    if kind == "cycle_edge":
        j = rng.choice(sorted(outputs))
        y = outputs[j]
        anc = ancestors(y)
        xs = [x for i, x in inputs.items() if x in anc]
        if not xs:
            return None
        children[xs[0]].append(y)
        return _freeze(dag, labels, children), "acyclic"

    if kind == "drop_edge":
        candidates = [v for v in range(dag.node_count) if len(children[v]) == 2]
        if not candidates:
            return None
        v = candidates[rng.randrange(len(candidates))]
        children[v].pop(rng.randrange(2))
        return _freeze(dag, labels, children), "fan_in"

    if kind == "duplicate_node":
        candidates = [v for v in internal if len(parents[v]) >= 2]
        if not candidates:
            return None
        v = candidates[rng.randrange(len(candidates))]
        clone = len(labels)
        labels.append(None)
        children.append(list(children[v]))
        p = parents[v][0]
        children[p] = [clone if c == v else c for c in children[p]]
        return _freeze(dag, labels, children), "distinct_subtrees"

    if kind == "swap_input_labels":
        i, j = rng.sample(sorted(inputs), 2)
        labels[inputs[i]], labels[inputs[j]] = labels[inputs[j]], labels[inputs[i]]
        return _freeze(dag, labels, children), "output_trees"

    if kind == "move_output_label":
        if not internal:
            return None
        j = rng.choice(sorted(outputs))
        v = internal[rng.randrange(len(internal))]
        labels[v] = labels[outputs[j]]
        labels[outputs[j]] = None
        return _freeze(dag, labels, children), "outputs"

    if kind == "drop_output_label":
        j = rng.choice(sorted(outputs))
        labels[outputs[j]] = None
        return _freeze(dag, labels, children), "outputs"

    if kind == "duplicate_input_label":
        i, j = rng.sample(sorted(inputs), 2)
        labels[inputs[i]] = ("x", j)
        return _freeze(dag, labels, children), "inputs"

    if kind == "overflow_fan_in":
        candidates = [
            (v, x)
            for v in range(dag.node_count)
            if len(children[v]) == dag.m
            for x in inputs.values()
            if x not in children[v]
        ]
        if not candidates:
            return None
        v, x = candidates[rng.randrange(len(candidates))]
        children[v].append(x)
        return _freeze(dag, labels, children), "fan_in"

    raise AssertionError(kind)


MUTATION_KINDS = [
    "input_to_own_output",
    "reconvergent_edge",
    "cycle_edge",
    "drop_edge",
    "duplicate_node",
    "swap_input_labels",
    "move_output_label",
    "drop_output_label",
    "duplicate_input_label",
    "overflow_fan_in",
]


def _c7_pool() -> list[Dag]:
    cm = CostModel.from_factors(3, [1, 2], [1, 1])
    pool = [synthesize_star(n, cm).structure for n in (5, 6, 7)]
    pool.append(synthesize_min_latency(7, cm).structure)
    pool.append(synthesize_min_latency(8, cm).structure)
    return pool


def _c7_mutants(pool: list[Dag]):
    """The suite's 100 mutants: (kind, seed, mutated, expected failing check)."""
    ran = 0
    seed = 0
    while ran < 100:
        rng = random.Random(seed)
        kind = MUTATION_KINDS[seed % len(MUTATION_KINDS)]
        base = pool[seed % len(pool)]
        seed += 1
        outcome = _mutate(base, kind, rng)
        if outcome is None:
            continue
        yield (kind, seed, *outcome)
        ran += 1


def test_c7_validator_mutation_suite():
    with criterion("7 validator flags 100 mutations with witnesses"):
        pool = _c7_pool()
        for dag in pool:
            assert validate(dag).ok

        ran = 0
        for kind, seed, mutated, expected in _c7_mutants(pool):
            report = validate(mutated)
            assert not report.ok, (kind, seed)
            assert expected in report.failed(), (kind, seed, report.failed())
            assert report.check(expected).witness, (kind, seed)
            ran += 1
        assert ran == 100


def _relabeled_input(dag: Dag) -> Dag:
    """``dag`` with its source x1 relabeled x_{n+5}: the inputs check fails,
    and every output but y1 has x_{n+5} in place of its leaf x1."""
    labels = [("x", dag.n + 5) if lbl == ("x", 1) else lbl for lbl in dag.labels]
    return Dag(n=dag.n, m=dag.m, labels=tuple(labels), children=dag.children)


def test_tree_pass_flags_what_the_ancestor_walk_flags():
    pool = _c7_pool()
    mutants = [mutated for _, _, mutated, _ in _c7_mutants(pool)]
    mutants += [_relabeled_input(dag) for dag in pool]
    mutants += [_input_labeled_operator(dag) for dag in pool] + [_stray_sources()]
    tree = UniformTree((2, 3))
    cyclic = structure_from_uniform_tree(tree, 3)
    references = pool + [
        structure_from_labeled_copies(tree, ascending_labeling(7), 3),
        cyclic,
        prune(cyclic, 6).structure,
        wire_structure(),
    ]
    # (trees with a leaves witness, outputs that are not trees), over the
    # mutants whose inputs check passes and over those whose inputs check
    # fails
    tally = {True: [0, 0], False: [0, 0]}
    for index, dag in enumerate(references + mutants):
        try:
            order = structure._topological_order(dag)
        except ValueError:
            continue  # output trees are not evaluated on a cyclic graph
        outputs = {lbl[1]: v for v, lbl in enumerate(dag.labels) if lbl and lbl[0] == "y"}
        parents = dag.parent_map()
        walks = [output_tree_failures(dag, parents, j, outputs[j]) for j in sorted(outputs)]
        # at most _LISTED outputs, so every one that is not a tree is walked
        assert len(outputs) <= structure._LISTED
        expected = "; ".join(line for walk in walks for line in walk) or None
        report = validate(dag)
        assert report.check("output_trees").witness == expected
        leaves, tangled = structure._tree_pass(dag, order, outputs)
        # a tree with two sources of one label is tangled too
        fed_twice = {
            j for j, walk in zip(sorted(outputs), walks) if any("feeds it" in w for w in walk)
        }
        assert fed_twice <= set(tangled)
        if index < len(references):
            assert expected is None
            continue
        counts = tally[report.check("inputs").passed]
        counts[0] += sum(1 for j, witness in leaves.items() if witness and j not in tangled)
        counts[1] += len(tangled)
    assert tally[True][1] >= 20 and min(tally[False]) >= 20, tally


def _partition(keys) -> set[frozenset[int]]:
    """The nodes grouped by equal key."""
    groups: dict[object, set[int]] = {}
    for v, key in enumerate(keys):
        groups.setdefault(key, set()).add(v)
    return {frozenset(group) for group in groups.values()}


# sha256 of the JSON reports of the 100 C7 mutants, recorded when the
# distinct-subtrees check grouped nodes by string canonical keys, and
# re-pinned once when the latency-first structures came to be built at n
# in one pass: pool[4] (isom n = 8 from n' = 10) is numbered in build
# order instead of prune's walk order, and the seeded mutations and the
# witnesses of its 20 mutants follow node ids.  The dumps of all five
# pool structures and the reports of the 80 mutants of pool[0..3]
# stayed byte-identical.
C7_REPORTS_SHA256 = "3e98d93a977b6ecb4b37ce7d043cfc7042ac33e3830075d0f8d487cb7a6802d9"


def _input_labeled_operator(dag: Dag) -> Dag:
    """``dag`` with its first computation node labeled x_j, next to the
    source x_j: an input that has operands keys on its label alone."""
    v = dag.labels.index(None)
    labels = list(dag.labels)
    labels[v] = ("x", 1)
    return Dag(n=dag.n, m=dag.m, labels=tuple(labels), children=dag.children)


def _stray_sources() -> Dag:
    """Two unlabeled sources, and x1 and x2 on computation nodes: as many
    sources as input labels, but not the same nodes.  Nodes 3 and 4 then
    compute one subtree, over the two alike sources."""
    labels = (None, None, ("x", 3), None, None, ("x", 1), ("x", 2))
    return Dag(n=3, m=3, labels=labels, children=((), (), (), (0, 2), (1, 2), (3,), (4,)))


def test_subtree_ids_partition_like_canonical_keys(
    shared7_ascending, shared7_cyclic, shared6_pruned, monkeypatch
):
    pool = _c7_pool()
    mutants = [mutated for _, _, mutated, _ in _c7_mutants(pool)]
    mutants += [_input_labeled_operator(dag) for dag in pool] + [_stray_sources()]
    fixtures = pool + [shared7_ascending, shared7_cyclic, shared6_pruned, wire_structure()]
    compared = early = named = 0
    for dag in fixtures + mutants:
        try:
            order = structure._topological_order(dag)
        except ValueError:
            continue  # neither is defined on a cyclic graph
        ids = structure._subtree_ids(dag, order)
        keys = canonical_keys(dag)
        assert _partition(ids) == _partition(keys)
        # each shared subtree is named as the reference keys name it
        report = validate(dag)
        witness = report.check("distinct_subtrees").witness or ""
        for group, key in re.findall(r"nodes \[([0-9, ]+)\] all compute ([^ ;]+)", witness):
            assert {keys[int(v)] for v in group.split(", ")} == {key}
            named += 1
        # the early return's claim
        if report.check("inputs").passed and structure._operands_are_distinct(dag):
            assert len(set(ids)) == len(ids)
            early += 1
        compared += 1
    assert compared >= 95 and early >= len(fixtures) and named >= 20, (compared, early, named)
    for dag in mutants[100:]:
        assert validate(dag).check("distinct_subtrees").witness

    # the first 100 reports are the C7 mutants', unchanged; the early
    # return off, every structure is checked on the ids alike
    reports = [validate(dag).to_json_dict() for dag in mutants]
    text = json.dumps(reports[:100], sort_keys=True)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == C7_REPORTS_SHA256
    monkeypatch.setattr(structure, "_operands_are_distinct", lambda dag: False)
    assert [validate(dag).to_json_dict() for dag in mutants] == reports


# ---------------------------------------------------------------------------
# 8. CLI determinism


def test_c8_cli_determinism(tmp_path: Path):
    with criterion("8 identical CLI runs write byte-identical artifacts"):
        costs = tmp_path / "costs.json"
        costs.write_text('{"m": 3, "c": [1, 2], "l": [1, 1]}')
        artifacts: dict[str, list[bytes]] = {}
        for mode, n, extra in (("star", 7, []), ("isom", 8, ["--prune"])):
            for run in range(3):
                out = tmp_path / f"{mode}-{run}"
                proc = subprocess.run(
                    [
                        sys.executable,
                        "-m",
                        "mpsynth",
                        "synthesize",
                        mode,
                        str(n),
                        "--costs",
                        str(costs),
                        "--out",
                        str(out),
                        *extra,
                    ],
                    capture_output=True,
                )
                assert proc.returncode == 0, proc.stderr
                for name in ("structure.json", "structure.dot"):
                    artifacts.setdefault(f"{mode}/{name}", []).append(
                        (out / name).read_bytes()
                    )
        for name, blobs in artifacts.items():
            assert len(blobs) == 3
            assert blobs[0] == blobs[1] == blobs[2], name
