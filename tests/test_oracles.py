from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from fractions import Fraction

import pytest

from mpsynth import oracles, staropt
from mpsynth.costs import CostModel
from mpsynth.drt import LEAF, degree_vector, tree_latency
from mpsynth.oracles import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    EnumerationBudget,
    enumerate_degree_vectors,
    enumerate_rooted_trees,
    enumerate_rooted_trees_with_census,
    enumerate_star_trees,
    enumerate_type_vectors,
    oracle_min_star_latency,
    oracle_star_tree_latency,
    verify_report,
)
from mpsynth.staropt import min_star_complexity, optimal_degree_vectors
from mpsynth.startree import StarTree, degree_vector_of
from mpsynth.structure import Dag

from conftest import (
    count_rooted_trees,
    leaf_count,
    reference_min_labeling_complexity,
    reference_star_tree_latency,
    reference_star_trees,
    star_tree_from_degree_vector,
    star_tree_shape_code,
    star_tree_shape_codes_via_labeled_skeletons,
)


# ---------------------------------------------------------------------------
# vector enumerations


def test_degree_vectors_seven_three():
    assert enumerate_degree_vectors(7, 3) == [(1, 2), (3, 1), (5, 0)]


def test_degree_vectors_trivial():
    assert enumerate_degree_vectors(2, 3) == [(0, 0)]
    assert enumerate_degree_vectors(3, 2) == [(1,)]


def test_degree_vectors_complete_and_feasible():
    for n in range(2, 13):
        for m in (2, 3, 4):
            vectors = enumerate_degree_vectors(n, m)
            assert len(set(vectors)) == len(vectors)
            for q in vectors:
                assert 2 + sum((k + 1) * qk for k, qk in enumerate(q)) == n


def test_type_vectors_examples():
    assert enumerate_type_vectors(7, 3) == [(1, 1)]
    assert enumerate_type_vectors(5, 4) == [(0, 0, 1), (2, 0, 0)]
    assert enumerate_type_vectors(8, 3) == []
    assert enumerate_type_vectors(2, 3) == [(0, 0)]


# ---------------------------------------------------------------------------
# star-tree enumeration, two strategies


def test_unique_trees():
    assert len(enumerate_star_trees((1, 0))) == 1
    assert len(enumerate_star_trees((2, 0))) == 1  # two 3-nodes joined by an edge
    assert len(enumerate_star_trees((0, 1))) == 1  # single degree-4 node


def test_enumeration_matches_skeleton_strategy():
    for n in range(3, 10):
        for q in enumerate_degree_vectors(n, 4):
            if sum(q) == 0:
                continue
            gen = {star_tree_shape_code(t) for t in enumerate_star_trees(q)}
            alt = star_tree_shape_codes_via_labeled_skeletons(q)
            assert gen == alt, q
            assert len(gen) == len(enumerate_star_trees(q))  # no duplicate shapes


def test_enumerated_trees_carry_the_requested_vector():
    for q in [(5, 0), (3, 1), (1, 2), (2, 0, 1)]:
        for tree in enumerate_star_trees(q):
            assert degree_vector_of(tree) == q


def test_star_budget_enforced():
    with pytest.raises(BudgetExceeded):
        enumerate_star_trees((20,), EnumerationBudget(max_star_leaves=12))
    with pytest.raises(BudgetExceeded, match="max_count"):
        enumerate_star_trees((6, 2), EnumerationBudget(max_count=5))


def test_enumeration_matches_the_reference_list():
    # the same trees, leaf labels and order as the copying reference
    for m in (2, 3, 4, 6):
        for n in range(3, 13):
            for q in enumerate_degree_vectors(n, m):
                if sum(q) > 0:
                    assert enumerate_star_trees(q) == reference_star_trees(q), q


def test_enumeration_is_sorted_by_shape_code():
    # the enumeration sorts by its final frontier keys, which are the codes
    for m in (3, 4, 6):
        for n in range(3, 13):
            for q in enumerate_degree_vectors(n, m):
                if sum(q) > 0:
                    trees = enumerate_star_trees(q)
                    assert trees == sorted(trees, key=star_tree_shape_code), q


# ---------------------------------------------------------------------------
# literal latency oracles on ints, against the Fraction versions they replaced

MIXED_L = (1, Fraction(3, 2), Fraction(9, 5), 2, Fraction(15, 7))
OTHER_L = (Fraction(5, 4), Fraction(7, 3), Fraction(5, 2), Fraction(11, 3), 4)


def fraction_star_tree_latency(tree: StarTree, cm: CostModel) -> Fraction:
    """Reference: walk every leaf pair's path from the top, adding Fractions."""

    def weight(v: int) -> Fraction:
        return Fraction(0) if tree.labels[v] is not None else cm.l[len(tree.adj[v]) - 1]

    leaves = tree.leaves()
    best = Fraction(0)
    for a in leaves:
        parent = {a: None}
        queue = [a]
        while queue:
            v = queue.pop()
            for u in tree.adj[v]:
                if u not in parent:
                    parent[u] = v
                    queue.append(u)
        for b in leaves:
            if b <= a:
                continue
            total, v = Fraction(0), b
            while v is not None:
                total += weight(v)
                v = parent[v]
            best = max(best, total)
    return best


def fraction_tree_latency(tree, cm: CostModel) -> Fraction:
    """Reference: the recursive definition, adding Fractions."""
    if tree == LEAF:
        return Fraction(0)
    return cm.l[len(tree)] + max(fraction_tree_latency(c, cm) for c in tree)


def test_star_tree_oracle_matches_fraction_reference():
    for m in (3, 4, 6):
        cm = CostModel.from_factors(m, [1] * (m - 1), MIXED_L[: m - 1])
        for n in range(3, 11):
            for q in enumerate_degree_vectors(n, m):
                if sum(q) > 0:
                    for tree in enumerate_star_trees(q):
                        want = fraction_star_tree_latency(tree, cm)
                        assert oracle_star_tree_latency(tree, cm) == want, (m, q)


def test_star_tree_oracle_matches_the_reference_walk():
    # the internal-node walk against the walk over every node
    for m in (2, 3, 4, 6):
        for factors in (MIXED_L, OTHER_L):
            cm = CostModel.from_factors(m, [1] * (m - 1), factors[: m - 1])
            for n in range(3, 12):
                for q in enumerate_degree_vectors(n, m):
                    if sum(q) > 0:
                        for tree in enumerate_star_trees(q):
                            want = reference_star_tree_latency(tree, cm)
                            assert oracle_star_tree_latency(tree, cm) == want, (m, q)


# l factors for fan-ins 2..6, cut to m: equal, steep, fractional, and
# zero at the small fan-ins (where hanging a node lengthens no path)
BOUND_MODELS = {
    "tied": (1, 1, 1, 1, 1),
    "steep": (1, 3, 9, 27, 81),
    "fractional": MIXED_L,
    "zero": (0, 0, Fraction(1, 2), 2, 2),
}


def test_witness_oracle_is_the_least_tree_latency_whatever_the_witness():
    for m in (2, 3, 4, 5):
        models = [
            CostModel.from_factors(m, [1] * (m - 1), factors[: m - 1])
            for factors in BOUND_MODELS.values()
        ]
        for n in range(3, 12):
            for q in enumerate_degree_vectors(n, m):
                if sum(q) == 0:
                    continue
                trees = reference_star_trees(q)
                # trees of other vectors, one node more and one fewer, are
                # no witnesses of q
                k = next(k for k, a in enumerate(q) if a)
                others = [
                    star_tree_from_degree_vector(q[:k] + (a,) + q[k + 1 :])
                    for a in (q[k] + 1, q[k] - 1)
                    if sum(q) - q[k] + a
                ]
                for cm in models:
                    scale, lat = cm.scaled_l
                    rated = {reference_star_tree_latency(t, cm): t for t in reversed(trees)}
                    least = min(rated)
                    # every tree up to n = 10; at n = 11 (1,083 trees over
                    # m, each under four models) one tree per rating, as the
                    # oracle reads a witness of q only through its rating
                    witnesses = trees if n <= 10 else list(rated.values())
                    for witness in [None] + others + witnesses:
                        assert oracle_min_star_latency(q, cm, witness) == least, (m, q, witness)
                    # below the least latency no skeleton grows: a least
                    # witness's own rating is the answer
                    limit = int(least * scale) - 1
                    assert oracles._grow_star_skeletons(q, DEFAULT_BUDGET, lat, limit) == {}


def test_bounded_oracle_keeps_only_the_trees_within_the_bound():
    cm = CostModel.from_factors(4, [1, 1, 1], MIXED_L[:3])
    scale, lat = cm.scaled_l
    for q in ((6, 0, 1), (2, 2, 1), (0, 3, 1)):
        trees = reference_star_trees(q)
        latencies = sorted(int(reference_star_tree_latency(t, cm) * scale) for t in trees)
        for limit in sorted(set(latencies)):
            kept = oracles._grow_star_skeletons(q, DEFAULT_BUDGET, lat, limit)
            assert sorted(latency for *_, latency in kept.values()) == [
                x for x in latencies if x <= limit
            ], (q, limit)


@pytest.mark.parametrize("shift", [-1, Fraction(-1, 12), Fraction(1, 12), 1, "worst tree"])
def test_a_wrong_star_latency_claim_gets_the_true_oracle_value(monkeypatch, shift):
    # a wrong value, or the right value with q's worst tree as its witness
    cm = CostModel.from_factors(4, [1, Fraction(3, 2), 2], [1, Fraction(4, 3), Fraction(5, 3)])
    checks = verify_report(11, cm).checks
    truth = {tuple(c.params["q"]): c for c in checks if c.name == "star_latency"}
    assert len(truth) > 1 and all(c.passed for c in truth.values())
    real = oracles.min_star_latency

    def wrong(q, cm, table):
        result = real(q, cm, table)
        if shift == "worst tree":
            trees = reference_star_trees(q)
            worst = max(trees, key=lambda t: reference_star_tree_latency(t, cm))
            assert reference_star_tree_latency(worst, cm) > result.value
            return dataclasses.replace(result, tree=worst)
        return dataclasses.replace(result, value=result.value + shift)

    monkeypatch.setattr(oracles, "min_star_latency", wrong)
    claimed = [c for c in verify_report(11, cm).checks if c.name == "star_latency"]
    assert [tuple(c.params["q"]) for c in claimed] == list(truth)
    for check in claimed:
        want = truth[tuple(check.params["q"])]
        assert check.oracle_value == want.oracle_value
        if shift == "worst tree":
            assert check.dp_value == want.dp_value
            assert check.witness == "witness tree does not achieve the DP latency"
        else:
            assert check.dp_value == oracles.format_rational(Fraction(want.dp_value) + shift)
        assert not check.passed


# ---------------------------------------------------------------------------
# labeling search, against the per-combination builds it replaced

# c factors for fan-ins 2..6, cut to m: all zero, equal, steep, flat,
# fractional, and zero at the small fan-ins
LABELING_MODELS = {
    "zero": (0, 0, 0, 0, 0),
    "tied": (1, 1, 1, 1, 1),
    "steep": (1, 3, 9, 27, 81),
    "flat": (2, 2, Fraction(5, 2), 3, 3),
    "fractional": MIXED_L,
    "zero-small": (0, 0, Fraction(1, 2), 2, 2),
}


def test_labeling_search_matches_the_building_reference():
    for m in range(2, 7):
        for factors in LABELING_MODELS.values():
            cm = CostModel.from_factors(m, factors[: m - 1], [1] * (m - 1))
            for n in range(2, 6):
                for w in enumerate_type_vectors(n, m):
                    want = reference_min_labeling_complexity(w, n, m, cm)
                    assert oracles.min_labeling_complexity(w, n, m, cm) == want, (m, n, w)


def test_labeling_search_builds_no_structure(monkeypatch):
    cm = CostModel.from_factors(4, [1, Fraction(3, 2), 2], [1, 1, 1])
    shapes = enumerate_type_vectors(5, 4)
    assert shapes == [(0, 0, 1), (2, 0, 0)]  # one 4-input level, and 2 over 2
    want = [reference_min_labeling_complexity(w, 5, 4, cm) for w in shapes]

    def refuse(*args, **kwargs):
        raise AssertionError("the labeling search built a structure")

    for name in ("structure_from_labeled_copies", "DagBuilder", "complexity"):
        monkeypatch.setattr(oracles, name, refuse)
    assert [oracles.min_labeling_complexity(w, 5, 4, cm) for w in shapes] == want


def test_tree_latency_matches_fraction_reference():
    for m in (2, 3, 4, 6):
        cm = CostModel.from_factors(m, [1] * (m - 1), MIXED_L[: m - 1])
        for leaves in range(1, 9):
            for tree in enumerate_rooted_trees(leaves, m):
                assert tree_latency(tree, cm) == fraction_tree_latency(tree, cm), tree


def test_tree_walks_take_a_deep_chain():
    # the recursive versions raised RecursionError near depth 1000
    chain = LEAF
    for _ in range(5000):
        chain = (LEAF, chain)
    cm = CostModel.from_factors(3, [1, 2], [Fraction(3, 2), 2])
    assert tree_latency(chain, cm) == 7500
    assert leaf_count(chain) == 5001
    assert degree_vector(chain, 3) == (5000, 0)


# ---------------------------------------------------------------------------
# rooted-tree enumeration, two strategies


def test_tiny_rooted_trees():
    assert enumerate_rooted_trees(1, 3) == [LEAF]
    assert len(enumerate_rooted_trees(2, 3)) == 1
    assert len(enumerate_rooted_trees(4, 2)) == 2  # balanced and skewed


def test_rooted_tree_census():
    for leaves in range(1, 9):
        for m in (2, 3):
            trees = enumerate_rooted_trees(leaves, m)
            assert len(set(trees)) == len(trees)
            assert count_rooted_trees(leaves, m) == len(trees)
            for t in trees:
                assert leaf_count(t) == leaves


def test_census_filtered_enumeration():
    trees = enumerate_rooted_trees_with_census((2, 0), 3)
    assert all(degree_vector(t, 3) == (2, 0) for t in trees)
    assert len(trees) == 1  # two stacked 2-input nodes


def test_rooted_budget_enforced():
    with pytest.raises(BudgetExceeded):
        enumerate_rooted_trees(9, 2, EnumerationBudget(max_tree_leaves=8))


# ---------------------------------------------------------------------------
# bundled report


def test_report_all_pass_seven(cm_steep):
    report = verify_report(7, cm_steep)
    assert report.ok
    names = {c.name for c in report.checks}
    assert {"star_complexity", "star_latency", "forest_latency", "uniform_latency",
            "latency_dominance"} <= names


def test_report_trivial_two_inputs(cm_unit):
    report = verify_report(2, cm_unit)
    assert report.ok


def test_report_covers_dominance_at_six(cm_unit):
    report = verify_report(6, cm_unit)
    assert report.ok
    assert any(c.name == "latency_dominance" for c in report.checks)
    assert any(c.name == "labeling_minimality" for c in report.checks) is False  # n > 5


def test_report_names_what_it_skips_at_six(cm_steep):
    raw = verify_report(6, cm_steep).to_json_dict()
    assert raw["ok"] is True
    assert raw["skipped"] == [
        {"name": "uniform_latency", "reason": "n - 1 = 5 has no factorization over [2, 3]"},
        {"name": "labeling_minimality", "reason": "n = 6 exceeds the labeling budget 5"},
    ]


def test_report_skips_are_complete():
    # every kind of check either ran or is named with its reason, never both
    kinds = {"star_complexity", "star_latency", "forest_latency", "uniform_latency",
             "labeling_minimality", "latency_dominance"}
    cm = CostModel.from_factors(4, [1, 2, 3], [1, Fraction(3, 2), 2])
    budget = EnumerationBudget(max_star_leaves=6, max_tree_leaves=2)
    for n in range(2, 14):
        report = verify_report(n, cm, budget)
        ran = {c.name for c in report.checks}
        named = [name for name, _ in report.skipped]
        assert len(set(named)) == len(named) and not ran & set(named), n
        assert ran | set(named) == kinds, n
    assert verify_report(2, cm).skipped[0] == ("star_latency", "n = 2 needs no computation node")


def test_degree_vectors_are_counted_without_building_them():
    for m in range(2, 7):
        for n in range(2, 40):
            assert oracles.count_degree_vectors(n, m) == len(enumerate_degree_vectors(n, m))
    # the listing's work follows the vectors it lists: 83,500 at n = 1000, m = 4
    start = time.process_time()
    assert len(enumerate_degree_vectors(1000, 4)) == oracles.count_degree_vectors(1000, 4) == 83_500
    assert time.process_time() - start < 1


def test_report_skips_star_complexity_over_the_count_budget():
    # 618,834 degree vectors at n = 200 on m = 6; 355 M at n = 1000
    cm = CostModel.from_factors(6, [1, 2, 3, 4, 5], [1, 1, 1, 1, 1])
    for n, count in ((200, 618_834), (1000, 354_914_725)):
        start = time.process_time()
        report = verify_report(n, cm)
        assert time.process_time() - start < 2
        reason = f"degree vectors = {count} exceeds the count budget 500000"
        assert report.skipped[0] == ("star_complexity", reason)
        assert report.ok and "star_complexity" not in {c.name for c in report.checks}


def test_report_labeling_checks_at_five(cm_unit):
    report = verify_report(5, cm_unit)
    assert report.ok
    assert any(c.name == "labeling_minimality" for c in report.checks)


def test_report_serializes(cm_unit):
    report = verify_report(4, cm_unit)
    raw = json.loads(json.dumps(report.to_json_dict()))
    assert raw["ok"] is True
    for check in raw["checks"]:
        assert {"name", "params", "dp_value", "oracle_value", "pass"} <= set(check)


def test_report_builds_one_forest_table(monkeypatch):
    built = []
    real = staropt.forest_latency_table

    def counting(tops, cm):
        built.append(list(tops))
        return real(tops, cm)

    for module in (oracles, staropt):
        monkeypatch.setattr(module, "forest_latency_table", counting)
    # c = (2, 3) prices a leaf at 6 in both degree classes: 4 optima at n = 9
    cm = CostModel.from_factors(3, [2, 3], [1, 1])
    optima = optimal_degree_vectors(min_star_complexity(9, cm))
    assert len(optima) == 4
    assert verify_report(9, cm).ok
    assert built == [optima]
    # above the star-tree budget only the spot checks run, on a table over
    # the censuses they read: the first six below the first vector
    built.clear()
    report = verify_report(9, cm, EnumerationBudget(max_star_leaves=8))
    assert report.ok
    spots = [tuple(c.params["census"]) for c in report.checks if c.name == "forest_latency"]
    assert len(spots) == 6
    assert built == [spots]


def _with_shadow_node(dag: Dag) -> Dag:
    """``dag`` plus a parentless unlabeled copy of its first computation
    node: the latency stays, but the copy is a sink that is no output
    and computes what the original computes."""
    v = next(v for v, cs in enumerate(dag.children) if cs)
    return Dag(dag.n, dag.m, dag.labels + (None,), dag.children + (dag.children[v],))


def test_report_fails_checks_whose_structure_is_invalid(monkeypatch, cm_unit):
    star, uniform, isom = (
        oracles.structure_from_star_tree,
        oracles.structure_from_uniform_tree,
        oracles.synthesize_min_latency,
    )
    monkeypatch.setattr(
        oracles, "structure_from_star_tree", lambda tree: _with_shadow_node(star(tree))
    )
    monkeypatch.setattr(
        oracles,
        "structure_from_uniform_tree",
        lambda tree, m: _with_shadow_node(uniform(tree, m)),
    )

    def shadowed_isom(n, cm):
        result = isom(n, cm)
        return dataclasses.replace(result, structure=_with_shadow_node(result.structure))

    monkeypatch.setattr(oracles, "synthesize_min_latency", shadowed_isom)
    report = verify_report(5, cm_unit)
    failed = {c.name: c.witness for c in report.checks if not c.passed}
    assert set(failed) == {"star_latency", "labeling_minimality", "latency_dominance"}
    assert set(failed.values()) == {"structure fails outputs, distinct_subtrees"}


# sha256 of json.dumps([{"ok", "checks"} of verify_report(n, cm) for n in
# 2..12], sort_keys=True) per model, recorded with the Fraction star-tree
# oracle that walked each leaf pair's path from the top.  Only "ok" and
# "checks" enter the digest: keys the report gains later (such as
# "skipped") leave it alone, while any change to a check's bytes moves it.
VERIFY_REPORTS_SHA256 = {
    "chain-m3": (CostModel.from_factors(3, [1, 2], [1, Fraction(7, 4)]),
                 "7e518c69ac775c87d6fffc8dffa3c8229b48f5c3c01cb04a392d326265ad05a1"),
    "ties-m3": (CostModel.from_factors(3, [1, Fraction(3, 2)], [1, Fraction(5, 3)]),
                "aa02f945df3b94b12cba1d770e4f85472983d849b7a5ce07d981bd37699bc10a"),
    "ties-m4": (
        CostModel.from_factors(4, [1, Fraction(3, 2), 2], [1, Fraction(4, 3), Fraction(5, 3)]),
        "f09b10562ba163cc6c1972ea043ce010f1973d21bd77f1466c908be278ce0fcd",
    ),
}


@pytest.mark.parametrize("name", sorted(VERIFY_REPORTS_SHA256))
def test_verify_reports_are_pinned(name):
    cm, digest = VERIFY_REPORTS_SHA256[name]
    reports = []
    for n in range(2, 13):
        raw = verify_report(n, cm).to_json_dict()
        reports.append({"ok": raw["ok"], "checks": raw["checks"]})
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
