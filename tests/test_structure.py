from __future__ import annotations

import hashlib
import json
import random
import time
import tracemalloc
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsynth import structure
from mpsynth.costs import CostModel
from mpsynth.staropt import synthesize_star
from mpsynth.startree import structure_from_star_tree
from mpsynth.structure import (
    Dag,
    DagBuilder,
    complexity,
    dumps,
    latency,
    loads,
    to_dot,
    validate,
)
from mpsynth.uniform import (
    structure_from_uniform_tree,
    synthesize_min_latency,
    uniform_tree_from_type_vector,
)

from conftest import (
    canonical_keys,
    nodes_with_label,
    oracle_structure_latency,
    output_tree_failures,
    prune,
    signature,
    star_tree_from_degree_vector,
    union,
    wire_structure,
    with_duplicate_node,
    with_extra_operand,
)


def three_wheel() -> Dag:
    """n = 3: each output is a 2-input node over the other two inputs."""
    b = DagBuilder()
    x = {j: b.input(j) for j in (1, 2, 3)}
    b.output(1, [x[2], x[3]])
    b.output(2, [x[1], x[3]])
    b.output(3, [x[1], x[2]])
    return b.build(3, 3)


# ---------------------------------------------------------------------------
# canonical keys


def test_leaf_key_is_its_label():
    b = DagBuilder()
    b.input(3)
    dag = b.build(3, 2)
    assert canonical_keys(dag)[0] == "x3"


def test_operand_order_is_irrelevant():
    b = DagBuilder()
    x1, x2 = b.input(1), b.input(2)
    # builder interns; build by hand to get two nodes with swapped operand order
    dag = Dag(
        n=2,
        m=2,
        labels=(("x", 1), ("x", 2), None, None),
        children=((), (), (0, 1), (1, 0)),
    )
    keys = canonical_keys(dag)
    assert keys[2] == keys[3] == "(x1,x2)"


def test_different_leaves_different_keys():
    dag = Dag(
        n=3,
        m=2,
        labels=(("x", 1), ("x", 2), ("x", 3), None, None),
        children=((), (), (), (0, 1), (0, 2)),
    )
    keys = canonical_keys(dag)
    assert keys[3] != keys[4]


def test_builder_interns_identical_subtrees():
    b = DagBuilder()
    x1, x2 = b.input(1), b.input(2)
    a = b.op([x1, x2])
    c = b.op([x2, x1])
    assert a == c


# ---------------------------------------------------------------------------
# union


def test_union_of_per_output_trees_equals_shared_build():
    tree = star_tree_from_degree_vector((5, 0))
    whole = structure_from_star_tree(tree)

    # rebuild each output's tree as its own single-output graph, then fold
    parts = []
    for j in range(1, tree.n + 1):
        b = DagBuilder()

        def emit(v, parent):
            if tree.labels[v] is not None:
                return b.input(tree.labels[v])
            return b.op(emit(u, v) for u in tree.adj[v] if u != parent)

        leaf = next(v for v in tree.leaves() if tree.labels[v] == j)
        (neighbor,) = tree.adj[leaf]
        b.output(j, [emit(u, neighbor) for u in tree.adj[neighbor] if u != leaf])
        parts.append(b.build(tree.n, tree.m))

    folded = parts[0]
    for part in parts[1:]:
        folded = union(folded, part)
    assert signature(folded) == signature(whole)


def test_union_idempotent(shared7_cyclic):
    assert signature(union(shared7_cyclic, shared7_cyclic)) == signature(shared7_cyclic)


def test_union_disjoint_trees_is_juxtaposition():
    b1 = DagBuilder()
    b1.output(1, [b1.input(2), b1.input(3)])
    a = b1.build(6, 2)
    b2 = DagBuilder()
    b2.output(4, [b2.input(5), b2.input(6)])
    b = b2.build(6, 2)
    merged = union(a, b)
    assert merged.node_count == a.node_count + b.node_count


def test_union_commutative_and_associative():
    tree = star_tree_from_degree_vector((3, 1))
    parts = []
    for j in (1, 2, 3):
        b = DagBuilder()

        def emit(v, parent):
            if tree.labels[v] is not None:
                return b.input(tree.labels[v])
            return b.op(emit(u, v) for u in tree.adj[v] if u != parent)

        leaf = next(v for v in tree.leaves() if tree.labels[v] == j)
        (neighbor,) = tree.adj[leaf]
        b.output(j, [emit(u, neighbor) for u in tree.adj[neighbor] if u != leaf])
        parts.append(b.build(tree.n, tree.m))
    p, q, r = parts
    assert signature(union(p, q)) == signature(union(q, p))
    assert signature(union(union(p, q), r)) == signature(union(p, union(q, r)))


def test_union_of_unlabeled_root_forests_shares_subtrees():
    # sub-DAGs need no outputs: two single-tree forests sharing (x1, x2)
    b1 = DagBuilder()
    b1.op([b1.op([b1.input(1), b1.input(2)]), b1.input(3)])
    a = b1.build(3, 2)
    b2 = DagBuilder()
    b2.op([b2.op([b2.input(1), b2.input(2)]), b2.input(4)])
    b = b2.build(4, 2)
    merged = union(a, b)
    assert merged.node_count == 7  # x1, x2, (x1,x2) appear once


def test_union_conflicting_output_rejected():
    b1 = DagBuilder()
    b1.output(1, [b1.input(2), b1.input(3)])
    a = b1.build(3, 2)
    b2 = DagBuilder()
    b2.output(1, [b2.input(2), b2.input(4)])
    b = b2.build(4, 2)
    with pytest.raises(ValueError, match="y1"):
        union(a, b)


# ---------------------------------------------------------------------------
# validation


def test_reference_structure_passes_all_checks(shared7_cyclic):
    report = validate(shared7_cyclic)
    assert report.ok
    assert [c.name for c in report.checks] == [
        "inputs",
        "outputs",
        "output_trees",
        "distinct_subtrees",
        "fan_in",
        "acyclic",
    ]


def test_input_feeding_its_own_output_breaks_tree_property(shared7_cyclic):
    dag = shared7_cyclic
    x1 = nodes_with_label(dag, "x")[1]
    y1 = nodes_with_label(dag, "y")[1]
    children = list(dag.children)
    children[y1] = tuple(sorted(children[y1] + (x1,)))
    bad = Dag(n=dag.n, m=dag.m, labels=dag.labels, children=tuple(children))
    report = validate(bad)
    assert not report.ok
    assert "output_trees" in report.failed()
    assert "y1" in report.check("output_trees").witness


def test_duplicate_subtree_flagged():
    dag = Dag(
        n=3,
        m=2,
        labels=(("x", 1), ("x", 2), ("x", 3), None, None, ("y", 1), ("y", 2), ("y", 3)),
        children=((), (), (), (0, 1), (0, 1), (1, 2), (0, 2), (3, 4)),
    )
    report = validate(dag)
    assert "distinct_subtrees" in report.failed()
    assert "(x1,x2)" in report.check("distinct_subtrees").witness


def test_wire_pair_is_the_only_legal_n2_structure():
    assert validate(wire_structure()).ok


def test_wire_outputs_rejected_for_larger_n():
    b = DagBuilder()
    x = {j: b.input(j) for j in (1, 2, 3)}
    b.output(1, [x[2], x[3]])
    b.output(2, [x[1], x[3]])
    dag = b.build(3, 3)
    # y3 wired straight from x1: fan-in 1 is a violation at n = 3
    labels = dag.labels + (("y", 3),)
    children = dag.children + ((x[1],),)
    report = validate(Dag(n=3, m=3, labels=labels, children=children))
    assert "fan_in" in report.failed()


def test_internal_node_shadowing_an_output_flagged():
    # node 4 computes exactly what y1 computes; relabeling could make
    # the two ancestor graphs identical, so distinctness must fail
    dag = Dag(
        n=3,
        m=3,
        labels=(("x", 1), ("x", 2), ("x", 3), ("y", 1), None, ("y", 2), ("y", 3)),
        children=((), (), (), (1, 2), (1, 2), (0, 2, 4), (0, 1, 4)),
    )
    report = validate(dag)
    assert "distinct_subtrees" in report.failed()


def test_union_fan_in_rechecked_defensively():
    bad = Dag(
        n=4,
        m=2,
        labels=(("x", 1), ("x", 2), ("x", 3), None),
        children=((), (), (), (0, 1, 2)),
    )
    with pytest.raises(ValueError, match="fan-in"):
        union(bad, bad)


def test_cycle_reported():
    dag = Dag(
        n=2,
        m=2,
        labels=(("x", 1), ("x", 2), None, None, ("y", 1), ("y", 2)),
        children=((), (), (0, 3), (1, 2), (2, 3), (0, 1)),
    )
    report = validate(dag)
    assert "acyclic" in report.failed()


# ---------------------------------------------------------------------------
# complexity and latency


def test_ascending_reference_counts(shared7_ascending, cm_steep):
    hist = shared7_ascending.degree_histogram()
    assert hist == {0: 7, 2: 7, 3: 8}
    assert shared7_ascending.node_count == 22
    assert complexity(shared7_ascending, cm_steep) == 7 * 1 + 8 * 2


def test_cyclic_reference_counts(shared7_cyclic, cm_steep):
    hist = shared7_cyclic.degree_histogram()
    assert hist == {0: 7, 2: 7, 3: 7}
    assert complexity(shared7_cyclic, cm_steep) == 7 * 1 + 7 * 2
    assert latency(shared7_cyclic, cm_steep) == 2  # one 2-input plus one 3-input stage


def test_wire_structure_costs_nothing(cm_unit):
    assert complexity(wire_structure(3), cm_unit) == 0
    assert latency(wire_structure(3), cm_unit) == 0


def test_single_node_latency(cm_unit):
    b = DagBuilder()
    b.output(3, [b.input(1), b.input(2)])
    dag = b.build(3, 3)
    assert latency(dag, cm_unit) == 1


def test_latency_matches_exhaustive_path_walk(shared7_ascending, cm_frac):
    # 22 nodes: small enough for the literal all-paths oracle
    assert latency(shared7_ascending, cm_frac) == oracle_structure_latency(
        shared7_ascending, cm_frac
    )
    assert latency(shared7_ascending, cm_frac) == 1 + Fraction(3, 2)


def test_fan_in_over_model_bound_rejected(shared7_cyclic):
    cm2 = CostModel.from_factors(2, [1], [1])
    with pytest.raises(ValueError, match="fan-in"):
        complexity(shared7_cyclic, cm2)
    with pytest.raises(ValueError, match="fan-in"):
        latency(shared7_cyclic, cm2)


def test_latency_oracle_agreement_across_structures(cm_frac):
    for n in (3, 4, 5, 6):
        dag = synthesize_star(n, cm_frac).structure
        if dag.node_count <= 30:
            assert latency(dag, cm_frac) == oracle_structure_latency(dag, cm_frac)


def fraction_complexity(dag: Dag, cm: CostModel) -> Fraction:
    """Reference: the sum of ``c[fan_in(v)]`` taken node by node."""
    return sum((cm.c[len(cs)] for cs in dag.children), Fraction(0))


def fraction_latency(dag: Dag, cm: CostModel) -> Fraction:
    """Reference: the longest-path DP on ``Fraction``s."""
    dist = [Fraction(0)] * dag.node_count
    for v in structure._topological_order(dag):
        dist[v] = cm.l[len(dag.children[v])] + max(
            (dist[c] for c in dag.children[v]), default=Fraction(0)
        )
    return max(dist, default=Fraction(0))


# latency factors with unequal denominators, so the integer DP's scale
# is their LCM (2 * 5 * 7 = 70 for the m = 4 model)
MIXED_DENOMINATOR_MODELS = [
    CostModel.from_factors(3, [1, 2], [1, Fraction(3, 2)]),
    CostModel.from_factors(
        4, [1, Fraction(3, 2), 2], [Fraction(3, 2), Fraction(9, 5), Fraction(15, 7)]
    ),
    CostModel.from_factors(
        6, [1, 2, 3, 4, 5], [Fraction(1, 2), Fraction(2, 3), 1, Fraction(4, 3), Fraction(7, 4)]
    ),
]


def test_integer_eval_matches_fraction_reference(
    shared7_ascending, shared7_cyclic, shared6_pruned
):
    fixtures = [shared7_ascending, shared7_cyclic, shared6_pruned, three_wheel(), wire_structure()]
    oracle_checked = 0
    for cm in MIXED_DENOMINATOR_MODELS:
        built = [synthesize_star(n, cm).structure for n in range(3, 40, 4)]
        built += [synthesize_min_latency(n, cm).structure for n in range(3, 40, 4)]
        for dag in fixtures + built:
            got_c, got_l = complexity(dag, cm), latency(dag, cm)
            assert type(got_c) is Fraction and type(got_l) is Fraction
            assert got_c == fraction_complexity(dag, cm)
            assert got_l == fraction_latency(dag, cm)
            if dag.node_count <= 30:
                assert got_l == oracle_structure_latency(dag, cm)
                oracle_checked += 1
    assert oracle_checked >= 20


# ---------------------------------------------------------------------------
# prune


def test_prune_identity(shared7_cyclic):
    result = prune(shared7_cyclic, 7)
    assert result.structure is shared7_cyclic
    assert result.actions == ()


def test_prune_to_six_keeps_validity_and_latency(shared7_cyclic, cm_unit):
    result = prune(shared7_cyclic, 6)
    assert validate(result.structure).ok
    assert result.structure.n == 6
    assert latency(result.structure, cm_unit) == latency(shared7_cyclic, cm_unit)
    assert any("removed x7" in a for a in result.actions)


def test_prune_deep_never_increases_costs(shared7_cyclic, cm_frac):
    for n in (6, 5, 4, 3):
        result = prune(shared7_cyclic, n)
        assert validate(result.structure).ok
        assert latency(result.structure, cm_frac) <= latency(shared7_cyclic, cm_frac)
        assert complexity(result.structure, cm_frac) <= complexity(shared7_cyclic, cm_frac)


def test_prune_to_two_gives_wires(shared7_cyclic, cm_unit):
    result = prune(shared7_cyclic, 2)
    assert validate(result.structure).ok
    assert complexity(result.structure, cm_unit) == 0


def test_prune_relabels_degenerated_outputs(cm_unit):
    # 3x3 replicated shape at n' = 10: pruning far enough empties whole
    # root branches, driving output fan-in to 1; the label must migrate
    # onto the surviving operand
    tree = uniform_tree_from_type_vector((0, 2))
    full = structure_from_uniform_tree(tree, 3)
    for n in range(9, 1, -1):
        result = prune(full, n)
        assert validate(result.structure).ok, (n, result.structure)
        assert latency(result.structure, cm_unit) <= latency(full, cm_unit)
    deep = prune(full, 4)
    assert any("relabeled" in a for a in deep.actions)


# sha256 of dumps(prune(...).structure) per target n, recorded with an
# independent implementation (a cleanup queue re-interned until stable)
PRUNE_GOLDEN_3X3 = {
    2: "ce6dcdbf2aaf18ce672273ea0f61f61293e3f6b27f126118a63997e6f9550a9c",
    3: "0df20016ab05bfb2445efaed1ac9846b03ad152899cf6d5bd05d1b35d732f905",
    4: "7e912e4faefb7da226517419a1adb4807b8cc48f0e8494edeb0de63c37903d20",
    5: "f0e2dec65ba67426da8e765506ff996aea8232984f6242a7e3a72e15f856c9c2",
    6: "d9a40fdaa73e9b88fe3e563333d7f5ea02b224a9ef4278d249c7114c4f210280",
    7: "9e95657cd50ecd42594a5146b70aed5d5d9fa6f0de8c6bc23e263c70f593954f",
    8: "341c28f9b8e979b27876164b7f346ba9779c4d681a30d5e45132d61a2ee37cda",
    9: "5a658dd708f30ae842cadcc7c87907c39301fef8905bb1d1d0f51bec5c8bc8d5",
}
# at n <= 5 both sources prune to the same structure
PRUNE_GOLDEN_SHARED7 = {
    n: PRUNE_GOLDEN_3X3[n] for n in (2, 3, 4, 5)
} | {6: "d8d400864d06f97066306903f86ff757fa153d9e0db2e982d310d094d74a4690"}


def test_prune_bytes_are_pinned(shared7_cyclic):
    tree = uniform_tree_from_type_vector((0, 2))
    full = structure_from_uniform_tree(tree, 3)
    for dag, golden in ((full, PRUNE_GOLDEN_3X3), (shared7_cyclic, PRUNE_GOLDEN_SHARED7)):
        for n, digest in golden.items():
            text = dumps(prune(dag, n).structure)
            assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest, (dag.n, n)
    # the latency-first builder prunes as it builds, to the same bytes, at
    # every size it takes (not 3 or 4, where y1's inputs fit under one
    # root child)
    for n, digest in PRUNE_GOLDEN_3X3.items():
        if n in (3, 4):
            continue
        text = dumps(structure_from_uniform_tree(tree, 3, n))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest, n


# sha256 of dumps and to_dot, recorded with the per-output builders
# (every output's tree emitted in full, deduplicated by hash-consing) and
# re-recorded when computation nodes came to be written in canonical-id
# order; the canonical keys of every node stayed the same
ARTIFACT_GOLDEN = {
    "star": (
        "38d90faee55f44897c1a8177ef7eb920bccb2d2a984ddac594726dc970267cb7",
        "0bee36260f4dbb640f80200d300b3dea53077175b7e995c1ed22ac02a85ab06a",
    ),
    "isom": (
        "34b37596cbb2d2038a3eb7a8678104a99797069abf7d4058a4f7ac83271d157b",
        "aeb4b0e7580dbb91a17615c51afb5c7e1dbab09763266d050911cf40e723831d",
    ),
}


def test_synthesized_artifact_bytes_are_pinned(cm_steep):
    built = {
        "star": synthesize_star(150, cm_steep).structure,
        "isom": synthesize_min_latency(200, cm_steep).structure,
    }
    for mode, (json_digest, dot_digest) in ARTIFACT_GOLDEN.items():
        dag = built[mode]
        assert hashlib.sha256(dumps(dag).encode("ascii")).hexdigest() == json_digest, mode
        assert hashlib.sha256(to_dot(dag).encode("ascii")).hexdigest() == dot_digest, mode


# sha256 of dumps and to_dot, recorded with one Fraction forest table per
# optimal degree vector and re-recorded for the canonical-id node order;
# both requests have many optima and rational l
TIES_ARTIFACT_GOLDEN = {
    (6, 16): (
        "fb0a8e288ef53e70c74aff00f1129e2d559d47378cef0de449ee1ffb0f4ef795",
        "9d61eb31127bade4d0ee94900f6e11573057ac83d21502935050c5e862af9700",
    ),
    (3, 33): (
        "7c2398e7ff3c5bd16854c85b39c717ba35c4b1d20a138e20aa48a190e6edc3e9",
        "cbd3b709ed7602968869b7b1aedabb086528db581e7c02ab63f134d9027b6c1f",
    ),
}


def test_many_optima_star_artifact_bytes_are_pinned():
    factors = [1, Fraction(3, 2), Fraction(9, 5), 2, Fraction(15, 7)]
    for (m, n), (json_digest, dot_digest) in TIES_ARTIFACT_GOLDEN.items():
        cm = CostModel.from_factors(m, factors[: m - 1], factors[: m - 1])
        syn = synthesize_star(n, cm)
        assert len(syn.all_q) > 10
        assert hashlib.sha256(dumps(syn.structure).encode("ascii")).hexdigest() == json_digest
        assert hashlib.sha256(to_dot(syn.structure).encode("ascii")).hexdigest() == dot_digest


def test_prune_rejects_bad_targets(shared7_cyclic):
    with pytest.raises(ValueError):
        prune(shared7_cyclic, 1)
    with pytest.raises(ValueError):
        prune(shared7_cyclic, 8)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.integers(min_value=3, max_value=9), target=st.integers(min_value=2, max_value=9))
def test_prune_costs_monotone_property(n, target):
    cm = CostModel.from_factors(3, [1, 2], [1, 2])
    target = min(target, n)
    dag = synthesize_min_latency(n, cm).structure
    result = prune(dag, target)
    assert validate(result.structure).ok
    assert latency(result.structure, cm) <= latency(dag, cm)
    assert complexity(result.structure, cm) <= complexity(dag, cm)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip(shared7_cyclic, cm_frac):
    text = dumps(shared7_cyclic)
    again = loads(text)
    assert signature(again) == signature(shared7_cyclic)
    assert complexity(again, cm_frac) == complexity(shared7_cyclic, cm_frac)
    assert latency(again, cm_frac) == latency(shared7_cyclic, cm_frac)
    assert dumps(again) == text


def test_json_round_trip_three_wheel_and_wires(cm_unit):
    for dag in (three_wheel(), wire_structure()):
        assert signature(loads(dumps(dag))) == signature(dag)


def test_json_text_is_sorted_compact_json(shared7_cyclic, cm_steep):
    # dumps writes its text directly: keys sorted, no spaces, nodes
    # numbered in order and edges sorted, as json.dumps would give it
    for dag in (
        shared7_cyclic,
        three_wheel(),
        wire_structure(),
        synthesize_star(40, cm_steep).structure,
        synthesize_min_latency(40, cm_steep).structure,
    ):
        text = dumps(dag)
        raw = json.loads(text)
        assert text == json.dumps(raw, sort_keys=True, separators=(",", ":")) + "\n"
        assert [node["id"] for node in raw["nodes"]] == list(range(dag.node_count))
        assert raw["edges"] == sorted(raw["edges"])


def test_dot_ranks_sources_and_sinks(shared6_pruned):
    dot = to_dot(shared6_pruned)
    assert "{ rank=source; x1; x2; x3; x4; x5; x6; }" in dot
    assert "{ rank=sink; y1; y2; y3; y4; y5; y6; }" in dot


def test_dot_wire_structure():
    dot = to_dot(wire_structure())
    assert dot.count("->") == 2
    assert "{ rank=source; x1; x2; }" in dot
    assert "{ rank=sink; y1; y2; }" in dot
    assert "x1 -> y2;" in dot
    assert "x2 -> y1;" in dot


def test_import_rejects_cycle():
    raw = {
        "n": 2,
        "m": 2,
        "nodes": [{"id": 0, "label": None}, {"id": 1, "label": None}],
        "edges": [[0, 1], [1, 0]],
    }
    with pytest.raises(ValueError, match="cycle"):
        loads(json.dumps(raw))


def test_import_rejects_duplicate_output_label():
    raw = {
        "n": 3,
        "m": 2,
        "nodes": [{"id": 0, "label": "y3"}, {"id": 1, "label": "y3"}],
        "edges": [],
    }
    with pytest.raises(ValueError, match="duplicate label y3"):
        loads(json.dumps(raw))


def test_import_rejects_unknown_edge_endpoint():
    raw = {"n": 2, "m": 2, "nodes": [{"id": 0, "label": "x1"}], "edges": [[0, 9]]}
    with pytest.raises(ValueError, match=r"edges\[0\]"):
        loads(json.dumps(raw))


def _wire_raw(**fields) -> dict:
    """The 2-input wire structure as JSON fields, with ``fields`` replaced."""
    raw = {
        "n": 2,
        "m": 2,
        "nodes": [
            {"id": 0, "label": "x1"},
            {"id": 1, "label": "x2"},
            {"id": 2, "label": "y1"},
            {"id": 3, "label": "y2"},
        ],
        "edges": [[1, 2], [0, 3]],
    }
    raw.update(fields)
    return raw


# one case per message of ``loads``; when several entries are bad, the
# first one in file order is the one reported
LOADS_ERRORS = [
    ([1, 2], "structure: expected a JSON object"),
    ({"n": 2, "m": 2, "nodes": []}, "structure.edges: missing required field"),
    ({"m": 2, "nodes": [], "edges": []}, "structure.n: missing required field"),
    (_wire_raw(n=1), "structure.n: expected an integer >= 2, got 1"),
    (_wire_raw(n="2"), "structure.n: expected an integer >= 2, got '2'"),
    (_wire_raw(m=1.5), "structure.m: expected an integer >= 2, got 1.5"),
    (_wire_raw(nodes={}), "structure.nodes / structure.edges: expected arrays"),
    (_wire_raw(edges=None), "structure.nodes / structure.edges: expected arrays"),
    (_wire_raw(nodes=[{"id": 0}, 7]), "nodes[1]: expected an object with an 'id'"),
    (_wire_raw(nodes=[{"label": "x1"}]), "nodes[0]: expected an object with an 'id'"),
    (_wire_raw(nodes=[{"id": "0"}]), "nodes[0].id: expected an integer, got '0'"),
    (_wire_raw(nodes=[{"id": 0.0}]), "nodes[0].id: expected an integer, got 0.0"),
    (_wire_raw(nodes=[{"id": 0}, {"id": 0}]), "nodes[1].id: duplicate node id 0"),
    (
        _wire_raw(nodes=[{"id": 0, "label": "z1"}]),
        "nodes[0].label: expected 'x<j>', 'y<j>' or null, got 'z1'",
    ),
    (
        _wire_raw(nodes=[{"id": 0, "label": 1}]),
        "nodes[0].label: expected 'x<j>', 'y<j>' or null, got 1",
    ),
    (
        _wire_raw(nodes=[{"id": 0, "label": "x0"}]),
        "nodes[0].label: expected 'x<j>', 'y<j>' or null, got 'x0'",
    ),
    (
        _wire_raw(nodes=[{"id": 0, "label": "x1"}, {"id": 1, "label": "x1"}]),
        "nodes[1].label: duplicate label x1",
    ),
    (_wire_raw(edges=[[1, 2], [0]]), "edges[1]: expected [child_id, parent_id]"),
    (_wire_raw(edges=[[1, 2, 3]]), "edges[0]: expected [child_id, parent_id]"),
    (_wire_raw(edges=["12"]), "edges[0]: expected [child_id, parent_id]"),
    (_wire_raw(edges=[{"1": 2}]), "edges[0]: expected [child_id, parent_id]"),
    (_wire_raw(edges=[[1, "2"]]), "edges[0]: expected [child_id, parent_id]"),
    (_wire_raw(edges=[[1.0, 2]]), "edges[0]: expected [child_id, parent_id]"),
    (_wire_raw(edges=[[1, 2], [9, 3]]), "edges[1]: unknown node id 9"),
    (_wire_raw(edges=[[0, 9], [9, 3]]), "edges[0]: unknown node id 9"),
    (_wire_raw(edges=[[1, 2], [0, 3], [1, 2]]), "edges[2]: duplicate edge 1 -> 2"),
    (_wire_raw(edges=[[1, 2], [1, 2], [5, 3]]), "edges[1]: duplicate edge 1 -> 2"),
    (_wire_raw(edges=[[1, 2], [1, 2], [0]]), "edges[1]: duplicate edge 1 -> 2"),
    (_wire_raw(edges=[[0, 3], [1, 2], [0, 3], [1, 2]]), "edges[2]: duplicate edge 0 -> 3"),
    (_wire_raw(edges=[[1, 2], [2, 1]]), "graph contains a cycle"),
    # booleans are not node ids, though Python counts them as ints
    (_wire_raw(nodes=[{"id": True}]), "nodes[0].id: expected an integer, got True"),
    (_wire_raw(nodes=[{"id": 0}, {"id": False}]), "nodes[1].id: expected an integer, got False"),
    (_wire_raw(edges=[[True, 2]]), "edges[0]: expected [child_id, parent_id]"),
    (_wire_raw(edges=[[1, 2], [0, True]]), "edges[1]: expected [child_id, parent_id]"),
    # a label is the whole string: "x1" with a trailing newline is not x1
    (
        _wire_raw(nodes=[{"id": 0, "label": "x1"}, {"id": 1, "label": "x1\n"}]),
        "nodes[1].label: expected 'x<j>', 'y<j>' or null, got 'x1\\n'",
    ),
]


@pytest.mark.parametrize("raw, message", LOADS_ERRORS)
def test_loads_error_messages(raw, message):
    with pytest.raises(ValueError) as caught:
        loads(json.dumps(raw))
    assert str(caught.value) == message


def test_loads_rejects_invalid_json():
    with pytest.raises(ValueError, match="structure file is not valid JSON"):
        loads(b"{")


def test_loads_accepts_the_wire_fields():
    assert loads(json.dumps(_wire_raw())) == wire_structure()


def test_export_is_deterministic_across_node_orderings(shared7_cyclic):
    # same structure imported twice must serialize identically
    text = dumps(shared7_cyclic)
    assert dumps(loads(text)) == text


def renumbered(dag: Dag, rng: random.Random) -> Dag:
    """``dag`` with its nodes numbered in a random order."""
    new_id = list(range(dag.node_count))
    rng.shuffle(new_id)
    labels: list = [None] * dag.node_count
    children: list = [()] * dag.node_count
    for v, (lbl, cs) in enumerate(zip(dag.labels, dag.children)):
        labels[new_id[v]] = lbl
        children[new_id[v]] = tuple(sorted(new_id[c] for c in cs))
    return Dag(n=dag.n, m=dag.m, labels=tuple(labels), children=tuple(children))


def test_artifacts_do_not_depend_on_node_numbering(cm_steep, shared7_ascending):
    rng = random.Random(11)
    for dag in (
        synthesize_star(60, cm_steep).structure,
        synthesize_min_latency(60, cm_steep).structure,
        shared7_ascending,
    ):
        text, dot = dumps(dag), to_dot(dag)
        assert dumps(loads(text)) == text
        assert to_dot(loads(text)) == dot
        for _ in range(3):
            shuffled = renumbered(dag, rng)
            assert dumps(shuffled) == text
            assert to_dot(shuffled) == dot


@settings(max_examples=24, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=3, max_value=10),
    latency_first=st.booleans(),
    c3=st.integers(min_value=1, max_value=3),
)
def test_round_trip_preserves_everything_property(n, latency_first, c3):
    cm = CostModel.from_factors(3, [1, c3], [1, 2])
    dag = (
        synthesize_min_latency(n, cm).structure
        if latency_first
        else synthesize_star(n, cm).structure
    )
    again = loads(dumps(dag))
    assert signature(again) == signature(dag)
    assert complexity(again, cm) == complexity(dag, cm)
    assert latency(again, cm) == latency(dag, cm)
    assert dumps(again) == dumps(dag)


# ---------------------------------------------------------------------------
# the order a structure is handed


def _is_topological(dag: Dag, order) -> bool:
    """``order`` lists every node once, each after its operands."""
    place = {v: i for i, v in enumerate(order)}
    return (
        len(place) == len(order) == dag.node_count
        and all(place[c] < place[v] for v, cs in enumerate(dag.children) for c in cs)
    )


def _rebuilt(dag: Dag) -> Dag:
    """``dag`` made again from its labels and children: no order is handed
    over, so Kahn's sort runs."""
    return Dag(n=dag.n, m=dag.m, labels=dag.labels, children=dag.children)


def _reference_loads(text: str) -> Dag:
    """What the loader makes of a file whose edges give no usable order:
    the operand sets of each node, sorted, and Kahn's sort on demand."""
    raw = json.loads(text)
    index = {node["id"]: i for i, node in enumerate(raw["nodes"])}
    labels = tuple(
        None if node["label"] is None else (node["label"][0], int(node["label"][1:]))
        for node in raw["nodes"]
    )
    children: list[set[int]] = [set() for _ in labels]
    for c, p in raw["edges"]:
        children[index[p]].add(index[c])
    kids = tuple(tuple(sorted(cs)) for cs in children)
    return Dag(n=raw["n"], m=raw["m"], labels=labels, children=kids)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_builder_and_loader_hand_over_a_topological_order(m, monkeypatch):
    cm = CostModel.from_factors(m, list(range(1, m)), [1] * (m - 1))
    made = []
    # Kahn's sort off: synthesizing, writing, loading and checking never need it
    with monkeypatch.context() as patched:
        patched.setattr(structure, "_topological_order", None)
        for n in (3, 7, 40, 129):
            for dag in (synthesize_star(n, cm).structure, synthesize_min_latency(n, cm).structure):
                text = dumps(dag)
                loaded = loads(text)
                made += [(dag, text), (loaded, text)]
                for d in (dag, loaded):
                    validate(d), to_dot(d), complexity(d, cm), latency(d, cm)
    for dag, text in made:
        assert _is_topological(dag, dag._order)
        rebuilt = _rebuilt(dag)
        assert "_order" not in vars(rebuilt)
        assert validate(dag) == validate(rebuilt)
        assert dumps(dag) == dumps(rebuilt) == text
        assert to_dot(dag) == to_dot(rebuilt)
        assert complexity(dag, cm) == complexity(rebuilt, cm)
        assert latency(dag, cm) == latency(rebuilt, cm)
        assert "_order" in vars(rebuilt)


def _file_variants(dag: Dag, rng: random.Random) -> list[dict]:
    """The file dumps writes for ``dag``, with its edges shuffled, with its
    node ids renumbered, with its nodes listed in another order, and with
    an output feeding a computation node (an invalid file)."""
    raw = json.loads(dumps(dag))
    nodes, edges = raw["nodes"], raw["edges"]
    shuffled_edges = rng.sample(edges, len(edges))
    new_id = dict(zip(range(len(nodes)), rng.sample(range(10 * len(nodes)), len(nodes))))
    renumbered_nodes = [{"id": new_id[e["id"]], "label": e["label"]} for e in nodes]
    renumbered_edges = [[new_id[c], new_id[p]] for c, p in edges]
    variants = [
        {**raw, "edges": shuffled_edges},
        {**raw, "nodes": renumbered_nodes, "edges": renumbered_edges},
        {**raw, "nodes": rng.sample(nodes, len(nodes))},
    ]
    y1 = next(e["id"] for e in nodes if e["label"] == "y1")
    x1 = next(e["id"] for e in nodes if e["label"] == "x1")
    # a computation node over x1 is not below y1, so the edge makes no cycle
    over_x1 = sorted(p for c, p in edges if c == x1 and nodes[p]["label"] is None)
    if over_x1:
        variants.append({**raw, "edges": edges + [[y1, over_x1[0]]]})
    return variants


def test_files_dumps_did_not_write_load_as_before(cm_steep):
    rng = random.Random(13)
    loaded = 0
    for dag in (
        synthesize_star(30, cm_steep).structure,
        synthesize_min_latency(30, cm_steep).structure,
        three_wheel(),
        wire_structure(),
    ):
        for raw in _file_variants(dag, rng):
            text = json.dumps(raw)
            again, reference = loads(text), _reference_loads(text)
            assert again == reference
            assert _is_topological(again, again._order)
            assert validate(again) == validate(_rebuilt(reference))
            assert dumps(again) == dumps(_rebuilt(reference))
            loaded += 1
    assert loaded == 14


def test_written_files_with_a_duplicate_edge_or_a_cycle_are_rejected(cm_steep):
    raw = json.loads(dumps(synthesize_star(9, cm_steep).structure))
    edges = raw["edges"]
    c, p = edges[5]
    doubled = {**raw, "edges": edges[:6] + [[c, p]] + edges[6:]}
    with pytest.raises(ValueError) as caught:
        loads(json.dumps(doubled))
    assert str(caught.value) == f"edges[6]: duplicate edge {c} -> {p}"
    # y1 feeding a node below it closes a cycle
    y1 = next(e["id"] for e in raw["nodes"] if e["label"] == "y1")
    below_y1 = next(c for c, p in edges if p == y1)
    with pytest.raises(ValueError, match="^graph contains a cycle$"):
        loads(json.dumps({**raw, "edges": edges + [[y1, below_y1]]}))


# ---------------------------------------------------------------------------
# the scanner for the text dumps writes


def _json_path(text: str) -> Dag | str:
    """What ``loads`` made of ``text`` before it had a scanner: the
    structure, or the message of the ValueError it raised."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"structure file is not valid JSON: {exc}"
    try:
        return structure.from_json_dict(raw)
    except ValueError as exc:
        return str(exc)


def _loaded(text: str) -> Dag | str:
    """``loads(text)``, or the message of the ValueError it raised."""
    try:
        return loads(text)
    except ValueError as exc:
        return str(exc)


def _as_loaded(dag: Dag) -> tuple:
    return dag.n, dag.m, dag.labels, dag.children, list(dag._order)


SCANNER_MODELS = {
    "m2": CostModel.from_factors(2, [1], [1]),
    "m3": CostModel.from_factors(3, [1, 2], [1, 1]),
    "m4": CostModel.from_factors(4, [1, 2, 3], [1, 1, 2]),
    # fan-ins 2 and 3 tie: several degree vectors are optimal
    "tied": CostModel.from_factors(3, [1, Fraction(3, 2)], [1, Fraction(3, 2)]),
}


@pytest.mark.parametrize("model", sorted(SCANNER_MODELS))
def test_the_scanner_reads_what_json_reads(model):
    cm = SCANNER_MODELS[model]
    for n in (3, 4, 7, 12, 40, 129):
        modes = [synthesize_min_latency]
        # star synthesis on a tied model takes seconds at n = 129
        if model != "tied" or n <= 40:
            modes.append(synthesize_star)
        for synthesize in modes:
            text = dumps(synthesize(n, cm).structure)
            scanned = structure._scan(text)
            assert scanned is not None, (model, n)
            assert _as_loaded(scanned) == _as_loaded(_json_path(text)), (model, n)


def _text_mutants(text: str) -> dict[str, str]:
    """Texts near one ``dumps`` wrote, none of them its exact form."""
    raw = json.loads(text)
    edges, nodes = raw["edges"], raw["nodes"]
    size = len(nodes)
    first = "[{},{}]".format(*edges[0])
    swapped = text.replace('"x1"', '"x?"').replace('"x2"', '"x1"').replace('"x?"', '"x2"')
    reordered = {key: raw[key] for key in ("n", "m", "nodes", "edges")}
    # the last computation node, the first one is node 2n: an edge from
    # the last to the first runs backward and keeps the edges sorted
    top = size - 1
    backward = edges + [[top, 2 * raw["n"]]]
    compact = partial(json.dumps, sort_keys=True, separators=(",", ":"))
    # the first edge's parent moved out of its slot, '[1,]23', or one
    # digit of it past its bracket, '[1,2]3'; its operand before its
    # bracket, '1[,23]'; the last edge's parent past its bracket
    c, p = map(str, edges[0])
    assert len(p) > 1
    c_last, p_last = map(str, edges[-1])
    last_input = f'"x{raw["n"]}"}},'
    return {
        "space after a comma": text.replace(",", ", ", 1),
        "keys reordered": json.dumps(reordered, separators=(",", ":")) + "\n",
        "no trailing newline": text[:-1],
        "leading zero": text.replace(first, "[01,5]", 1),
        "empty slot": text.replace(first, "[,5]", 1),
        "three ends": text.replace(first, "[1,2,3]", 1),
        "parent past its slot": text.replace(first, f"[{c},]{p}", 1),
        "digit past an edge": text.replace(first, f"[{c},{p[:-1]}]{p[-1]}", 1),
        "operand before its bracket": text.replace(first, f"{c}[,{p}]", 1),
        "last parent past its bracket": text.replace(
            f'[{c_last},{p_last}]],"m"', f'[{c_last},]{p_last}],"m"', 1
        ),
        "digit in a key": text.replace('"label":"x1"', '"lab1el":"x"', 1),
        "digit past a key": text.replace('{"id":0,', '{"id"0:,', 1),
        "no comma after the last input": text.replace(last_input, last_input[:-1] + " ", 1),
        "digit past the last node": text[:-3] + "5" + text[-3:],
        "leading zero in m": text.replace('"m":3', '"m":03', 1),
        "n past the node count": text.replace(f'"n":{raw["n"]},', '"n":1000000,', 1),
        "braces in the node list": text.replace('"nodes":[', '"nodes":[' + "{" * 10**5, 1),
        "non-ASCII digit": text.replace(first, first.replace("0", "٠", 1), 1),
        "true as an id": text.replace('{"id":0,', '{"id":true,', 1),
        "gap in the ids": text.replace(f'{{"id":{top},', f'{{"id":{top + 1},', 1),
        "two labels swapped": swapped,
        "an input labeled as an output": text.replace('"x1"', '"y1"', 1),
        "edge end past the last node": text.replace('],"m"', f',[{top},{size}]],"m"', 1),
        "duplicate edge": text.replace(first, f"{first},{first}", 1),
        # largest operand first; each operand's parents still ascend
        "edges out of order": compact({**raw, "edges": sorted(edges, key=lambda e: -e[0])})
        + "\n",
        "edge running backward": compact({**raw, "edges": backward}) + "\n",
    }


def _traced(call):
    """The traced peak of ``call()`` and the traced size of what it
    returns, both above what was traced before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - before, kept - before


def test_texts_dumps_did_not_write_load_as_json_reads_them(cm_steep):
    text = dumps(synthesize_star(9, cm_steep).structure)
    assert structure._scan(text) is not None
    mutants, outcomes = _text_mutants(text), set()
    for name, mutant in mutants.items():
        assert mutant != text, name
        assert structure._scan(mutant) is None, name
        got, want = _loaded(mutant), _json_path(mutant)
        if isinstance(want, str):
            assert got == want, name
        else:
            assert _as_loaded(got) == _as_loaded(want), name
        outcomes.add(type(want))
    assert outcomes == {str, Dag}  # some mutants load, some are refused
    # a declared n past the node count, or a node count past what the
    # node text can hold, is refused in small memory
    for name in ("n past the node count", "braces in the node list"):
        peak, _ = _traced(lambda: structure._scan(mutants[name]))
        assert peak < 2**20, name


def test_a_file_missing_outputs_loads_as_json_reads_it():
    # dumps writes it, but with y2 and y3 missing it is not the text of
    # a structure with outputs y1..yn, which is all the scanner reads
    labels = (("x", 1), ("x", 2), ("x", 3), ("y", 1))
    dag = Dag(n=3, m=2, labels=labels, children=((), (), (), (0,)))
    text = dumps(dag)
    assert structure._scan(text) is None
    assert loads(text) == dag
    assert _as_loaded(loads(text)) == _as_loaded(_json_path(text))


def test_the_scanner_peaks_at_most_three_fifths_of_json():
    cm = CostModel.from_factors(2, [1], [1])
    text = dumps(synthesize_min_latency(2000, cm).structure)
    assert structure._scan(text) is not None
    scan_peak, scan_kept = _traced(lambda: loads(text))
    json_peak, json_kept = _traced(lambda: structure.from_json_dict(json.loads(text)))
    assert scan_peak <= 0.6 * json_peak
    assert scan_kept <= json_kept


# ---------------------------------------------------------------------------
# validation cost on broken files


def test_validate_is_linear_when_the_inputs_check_fails():
    cm = CostModel.from_factors(3, [1, 2], [1, 1])
    n = 2000
    raw = json.loads(dumps(synthesize_star(n, cm).structure))
    for node in raw["nodes"]:
        if node["label"] == "x1":
            node["label"] = f"x{n + 5}"
    dag = structure.from_json_dict(raw)
    start = time.process_time()
    report = validate(dag)
    assert time.process_time() - start < 0.5
    assert report.failed() == ("inputs", "output_trees")
    inputs_witness = f"input label x{n + 5} outside 1..{n}; missing inputs: x1"
    assert report.check("inputs").witness == inputs_witness
    # y1 never reached x1; every other output reaches x_{n+5} in its place
    assert report.check("output_trees").witness == "; ".join(
        f"y{j}: unexpected leaves x{n + 5}; missing leaves x1" for j in range(2, n + 1)
    )


def test_leaf_lists_are_cut_in_string_order():
    rng = random.Random(3)
    listed = structure._LISTED
    for top in (1, 9, 10, 11, 99, 100, 101, 2024):
        for density in (0.01, 0.3, 1.0):
            bits = [i for i in range(1, top + 1) if rng.random() < density]
            mask = sum(1 << i for i in bits)
            assert structure._first_as_strings(mask) == sorted(bits, key=str)[:listed]


def _loaded_star(n: int) -> Dag:
    """The star structure at ``n`` on m = 3, c = (1, 2), l = (1, 1), as
    loaded from the file ``dumps`` writes."""
    cm = CostModel.from_factors(3, [1, 2], [1, 1])
    return loads(dumps(synthesize_star(n, cm).structure))


def test_only_the_first_outputs_that_are_not_trees_are_walked():
    base = _loaded_star(2000)
    dag = with_extra_operand(base)
    start = time.process_time()
    report = validate(dag)
    assert time.process_time() - start < 1.0
    assert report.failed() == ("output_trees",)
    # the node that took x3 as an operand did not reach x3 before, so
    # every output above it but y3 now reaches x3 twice; the others keep
    # their trees and their leaves
    parents = dag.parent_map()
    x1, x3 = dag.labels.index(("x", 1)), dag.labels.index(("x", 3))
    took = next(p for p in parents[x1] if dag.labels[p] is None)
    assert x3 not in structure._ancestor_set(base, [took])
    above, stack = {took}, [took]
    while stack:
        for p in parents[stack.pop()]:
            if p not in above:
                above.add(p)
                stack.append(p)
    outputs = nodes_with_label(dag, "y")
    tangled = sorted(j for j, y in outputs.items() if y in above and j != 3)
    listed = structure._LISTED
    assert len(tangled) > listed
    lines = [
        line
        for j in sorted(outputs)
        if j <= tangled[listed - 1]
        for line in output_tree_failures(dag, parents, j, outputs[j])
    ]
    rest = len(tangled) - listed
    lines.append(f"and {rest} more outputs reach a leaf label along two or more paths")
    assert report.check("output_trees").witness == "; ".join(lines)


# sha256 of the JSON report of with_duplicate_node on the n = 2000 star
# structure, recorded when every node's string canonical key was built
DUPLICATE_NODE_REPORT_SHA256 = "5dc8a1ded797bbbddfeade27e40b9d31f646670453d5833e5d3902fabacfa8e1"


def test_a_duplicate_node_is_named_in_small_memory():
    dag = with_duplicate_node(_loaded_star(2000))
    tracemalloc.start()
    try:
        report = validate(dag)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # keys are rendered only below the duplicated node
    assert peak < 10 * 2**20
    assert report.failed() == ("outputs", "distinct_subtrees")
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == DUPLICATE_NODE_REPORT_SHA256
